"""The command line on the shipped configs: each test drives ``runner.main``
as the ``harnacklab`` console script would, and checks its exit code,
output and report files."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from harnacklab.runner import EXIT_PASS, main

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"


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


TORUS_COMMANDS_THEN_SPHERE_PARSE = """
import json, sys
import harnacklab
from harnacklab.runner import main, parse_config

configs, out = sys.argv[1], sys.argv[2]
smoke = configs + "/torus_smoke.yaml"
codes = [
    main(["run", smoke, "--output-dir", out + "/run"]),
    main(["run", "--strict", smoke, "--output-dir", out + "/strict"]),
    main(["calibrate", smoke, "--output-dir", out + "/calibrate"]),
    main(["scan", configs + "/paramscan.yaml", "--output-dir", out + "/scan"]),
]
after_torus = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
parse_config(configs + "/sphere_signs.yaml")
names = ("scipy.sparse", "scipy.sparse.csgraph", "scipy.linalg.lapack")
print(json.dumps({
    "codes": codes,
    "after_torus": after_torus,
    "after_sphere_parse": {name: name in sys.modules for name in names},
}))
"""


def test_torus_commands_never_import_scipy(tmp_path):
    # scipy serves only the sphere backend and the CG reference solver; a
    # fresh interpreter, so no module another test imported is loaded there
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", TORUS_COMMANDS_THEN_SPHERE_PARSE, str(CONFIG_DIR), str(tmp_path)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [EXIT_PASS] * 4
    assert result["after_torus"] == []
    # a sphere config loads the sphere's scipy modules at parse, so its run loads none
    assert result["after_sphere_parse"] == {
        "scipy.sparse": True,
        "scipy.sparse.csgraph": True,
        "scipy.linalg.lapack": True,
    }

