"""``tools/same_reports.py``, the byte comparison of two trees' reports.

Its pure parts only: which commands a tree runs, and how two trees'
outputs are compared.  No command is run here.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _same_reports():
    spec = importlib.util.spec_from_file_location("same_reports", ROOT / "tools" / "same_reports.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


OUTPUTS = {
    "out/summary.json": b'{"exit_code": 0}\n',
    "<stdout>": b"PASS\n",
    "<stderr>": b"",
    "<exit code>": b"0",
}


def test_equal_outputs_have_no_differences():
    differences = _same_reports().differences
    assert differences(OUTPUTS, dict(OUTPUTS)) == []
    assert differences({}, {}) == []


def test_a_changed_byte_is_one_difference_with_its_diff():
    change = {**OUTPUTS, "out/summary.json": b'{"exit_code": 3}\n'}
    found = _same_reports().differences(OUTPUTS, change)
    assert len(found) == 1
    head, *diff = found[0].splitlines()
    assert head == "  out/summary.json differs:"
    assert '    -{"exit_code": 0}' in diff
    assert '    +{"exit_code": 3}' in diff


def test_an_output_on_one_side_is_named_with_its_side():
    differences = _same_reports().differences
    extra = {**OUTPUTS, "out/timings.json": b"{}"}
    assert differences(extra, OUTPUTS) == ["  out/timings.json: only in PARENT"]
    assert differences(OUTPUTS, extra) == ["  out/timings.json: only in CHANGE"]


def test_commands_cover_every_shipped_config_calibrate_and_extras(tmp_path):
    commands = _same_reports().commands
    configs = ROOT / "configs"
    runs = sorted(p.name for p in configs.glob("*.yaml") if p.name != "paramscan.yaml")
    assert len(runs) == 5
    expected = {f"run configs/{name}": ("run", configs / name) for name in runs}
    expected["scan configs/paramscan.yaml"] = ("scan", configs / "paramscan.yaml")
    expected["calibrate configs/torus_smoke.yaml"] = ("calibrate", configs / "torus_smoke.yaml")
    assert commands(ROOT, []) == expected

    extra = tmp_path / "workload.yaml"
    with_extra = commands(ROOT, [str(extra)])
    assert with_extra == {**expected, f"run {extra}": ("run", extra.resolve())}
