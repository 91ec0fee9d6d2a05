"""The command line on the shipped configs: each test drives ``runner.main``
as the ``harnacklab`` console script would, and checks its exit code,
output and report files."""

import hashlib
from pathlib import Path

from harnacklab.runner import EXIT_PASS, main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def test_calibrate_shipped_smoke(tmp_path, capsys):
    code = main(["calibrate", str(CONFIG_DIR / "torus_smoke.yaml"), "--output-dir", str(tmp_path)])
    assert code == EXIT_PASS
    assert "calibrated C" in capsys.readouterr().out


def test_scan_shipped_config_writes_the_pinned_csv(tmp_path):
    code = main(["scan", str(CONFIG_DIR / "paramscan.yaml"), "--output-dir", str(tmp_path)])
    assert code == EXIT_PASS
    data = (tmp_path / "paramscan.csv").read_bytes()
    # the header plus 580,851 rows, and every byte as the writer has always given it
    assert data.count(b"\n") == 580852
    assert hashlib.sha256(data).hexdigest() == (
        "01f7d37c6d0bbd6077636e63ecaf16bf86114e3801d019a1163eb2eac6dd4521"
    )


def test_trajectory_export_of_shipped_smoke(tmp_path):
    # output is the config's last section: the appended key joins it
    text = (CONFIG_DIR / "torus_smoke.yaml").read_text() + "  export_trajectory: true\n"
    config = tmp_path / "export.yaml"
    config.write_text(text)
    assert main(["run", str(config), "--output-dir", str(tmp_path / "export")]) == EXIT_PASS
    # 3 comment lines, then one row for each of the 101 states
    assert (tmp_path / "export" / "trajectory.csv").read_text().count("\n") == 104
