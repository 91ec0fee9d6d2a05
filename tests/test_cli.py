"""The command line on the shipped configs: each test drives ``runner.main``
as the ``harnacklab`` console script would.  Two tables:

- the exit table (``EXITS``) gives one row to each way ``run``,
  ``calibrate`` and ``scan`` end, and checks the exit code, the output and
  the files left: ``pytest -k "exit and calibrate-"`` selects calibrate's
  rows;
- the import table (``IMPORTS``) runs each command once, in one fresh
  interpreter, and checks which modules each loads: ``pytest -k
  test_import`` selects it.  The shipped scan's pinned ``paramscan.csv`` is
  read from that same run."""

import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harnacklab as hl
from harnacklab import heatflow, runner
from harnacklab.runner import (
    EXIT_CONFIG_ERROR, EXIT_GATE_FAILURE, EXIT_PASS, EXIT_SOLVER_FAILURE, main,
)
from test_mutations import leak

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"


def no_step(monkeypatch):
    """Fail the test if a flow is stepped or a scan is made."""

    def refuse(*args, **kwargs):
        raise AssertionError("a flow was stepped or a scan was made")

    monkeypatch.setattr(heatflow, "step", refuse)
    monkeypatch.setattr(runner, "case_one_uniqueness_scan", refuse)


def spiky(monkeypatch):
    """Initial data whose first Crank-Nicolson step of 1.0 turns a node negative."""

    def field(data, m):
        x = m.positions[:, 0]
        return hl.ScalarField(1e-3 + 0.5 * (1 + np.cos(2 * np.pi * x)) ** 2, m)

    monkeypatch.setattr(runner, "build_initial_field", field)


# the exit table: how each command ends.  Each row runs a shipped config,
# cut by text edits (each made once; None: no config file), through
# ``main`` with ``--output-dir`` given a fresh directory (or ``flag``, if
# given), under a patch and with ``taken``, if given, made a directory
# in the output directory ("": the output directory is a file).  It asserts
# the exit code, stderr's first line and stdout, with the temporary
# directory read as TMP and each float of four or more decimals as #, and
# the exact set of files left in the output directory, or None where no
# output directory is left; and that no file is left in the working
# directory
ROUNDOFF = re.compile(r"\d+\.\d{3,}(e[-+]?\d+)?")
SMOKE_EXPORT = (("out/torus_smoke", "out/torus_smoke\n  export_trajectory: true"),)
SMOKE_STIFF = (("t_end: 0.25", "t_end: 4.05"), ("dt: 2.0e-3", "dt: 1.0")) + SMOKE_EXPORT
SIDE = "side_lengths: [1.0]"
SCAN_COARSE = (("step: 0.05", "step: 0.25"),)
SUMMARY = {"summary.json"}
RUN_FILES = {"diagnostics.csv", "pathwise.csv", "summary.json", "trajectory_meta.json"}
RUN_SUITES = ("harnack_signs", "evolution_residual", "entropy", "pathwise")
RUN_PASS = "".join(f"{name}: PASS (worst slack -#)\n" for name in RUN_SUITES) + "overall: PASS\n"
RUN_FAIL = """\
harnack_signs: FAIL (worst slack #)
evolution_residual: PASS (worst slack -#)
entropy: FAIL (worst slack -#)
pathwise: PASS (worst slack -#)
overall: FAIL
"""
EMPTY_OUTPUT = "output.directory must be non-empty: '' is the current directory"
NO_CONFIG = (
    "config error: cannot read config TMP/config.yaml: [Errno 2] No such file or directory: "
    "'TMP/config.yaml'"
)
UNWRITABLE = "config error: output.directory cannot be written: [Errno {}] {}: 'TMP/runs/out{}'"
UNWRITABLE_SUMMARY = UNWRITABLE.format(21, "Is a directory", "/summary.json")
RESIDUAL = "solver failure: Crank-Nicolson solve missed its residual bound: relative residual #"


def exit_row(command, config, case, exit_code, err="", out="", files=None, edits=(), patch=None,
             taken=None, flag=None):
    left = None if files is None else set(files)
    return pytest.param(
        command, config, edits, patch, taken, flag, (exit_code, err, out, left),
        id=f"{command}-{case}",
    )


EXITS = [
    exit_row("run", "torus_smoke", "pass", EXIT_PASS, out=RUN_PASS, files=RUN_FILES),
    # 2 lap u > n/t0 at t0
    exit_row("run", "torus_smoke", "gate_failure", EXIT_GATE_FAILURE, out=RUN_FAIL,
             files=RUN_FILES, edits=(("amplitude: 0.15", "amplitude: 0.9"),)),
    # h^2 overflows, and every gate would pass under tol_disc = inf
    exit_row("run", "torus_smoke", "overflowing_tol_disc", EXIT_CONFIG_ERROR,
             "config error: tol_disc is not finite: tol_disc_constant 250.0 at mesh scale #",
             edits=((SIDE, "side_lengths: [1.0e200]"),), patch=no_step),
    # a value its field cannot take, a key given twice and a run that checks nothing
    exit_row("run", "torus_smoke", "malformed_dt", EXIT_CONFIG_ERROR,
             "config error: flow.dt must be a finite number, got 'fast'",
             edits=(("dt: 2.0e-3", "dt: fast"),), patch=no_step),
    exit_row("run", "torus_smoke", "dt_twice", EXIT_CONFIG_ERROR,
             "config error: config is not valid YAML: found duplicate key 'dt'",
             edits=(("  dt: 2.0e-3\n", "  dt: 2.0e-3\n  dt: 4.0e-3\n"),), patch=no_step),
    exit_row("run", "torus_smoke", "empty_suites", EXIT_CONFIG_ERROR,
             "config error: config: suites is empty: a run with no suite checks nothing",
             edits=((f"suites: [{', '.join(RUN_SUITES)}]", "suites: []"),), patch=no_step),
    # the last report cannot be written: the export and the three reports
    # written before it are removed again
    exit_row("run", "torus_smoke", "summary_is_a_directory", EXIT_CONFIG_ERROR,
             UNWRITABLE_SUMMARY, files=SUMMARY, edits=SMOKE_EXPORT, taken="summary.json"),
    # the export is written during the pass: none is left beside the summary
    exit_row("run", "torus_smoke", "fine_solver_failure", EXIT_SOLVER_FAILURE,
             "solver failure: positivity lost at node 0 (value -#) stepping to time 1.05; "
             "reduce dt or smooth the data", files=SUMMARY, edits=SMOKE_STIFF, patch=spiky),
    # the residual suite's coarse flow, stepped after the fine pass
    exit_row("run", "torus_smoke", "coarse_solver_failure", EXIT_SOLVER_FAILURE, RESIDUAL,
             files=SUMMARY, edits=SMOKE_EXPORT, patch=lambda mp: leak(mp, 1e-12, (32,))),
    exit_row("calibrate", "torus_smoke", "pass", EXIT_PASS,
             out="calibrated C = # (fits [#, #], error ratio #)\n", files={"trajectory_meta.json"}),
    # ROADMAP item 15 (calibrate on S^2) flips this row
    exit_row("calibrate", "sphere_signs", "sphere", EXIT_CONFIG_ERROR,
             "config error: calibrate_tolerance needs a torus config", patch=no_step),
    exit_row("calibrate", "torus_smoke", "over_ceiling", EXIT_CONFIG_ERROR,
             "config error: calibration at resolution [32]: dt = # makes 409600001 steps from "
             "t0 to t_end; a run takes 2 to 20000",
             edits=((SIDE, "side_lengths: [1.0e-3]"),), patch=no_step),
    # h^2 underflows, so the parse refuses the sides
    exit_row("calibrate", "torus_smoke", "overflowing_stencil_weight", EXIT_CONFIG_ERROR,
             "config error: manifold: side_lengths (1e-200,) at resolution (64,) overflow the "
             "weight 1/h^2", edits=((SIDE, "side_lengths: [1.0e-200]"),), patch=no_step),
    # the coarse level (32 nodes) is stepped first, the fine one (64) after it
    exit_row("calibrate", "torus_smoke", "coarse_solver_failure", EXIT_SOLVER_FAILURE, RESIDUAL,
             files=SUMMARY, patch=lambda mp: leak(mp, 1e-12, (32,))),
    exit_row("calibrate", "torus_smoke", "fine_solver_failure", EXIT_SOLVER_FAILURE, RESIDUAL,
             files=SUMMARY, patch=lambda mp: leak(mp, 1e-12, (64,))),
    exit_row("scan", "paramscan", "pass", EXIT_PASS,
             out="paramscan: PASS (17 survivors, max ray deviation 0.25)\n",
             files={"paramscan.csv", "summary.json"}, edits=SCAN_COARSE),
    exit_row("scan", "paramscan", "gate_failure", EXIT_GATE_FAILURE,
             out="paramscan: FAIL (0 survivors, max ray deviation 0.0)\n",
             files={"paramscan.csv", "summary.json"},
             edits=SCAN_COARSE + (("b_range: [-3.0, 1.0]", "b_range: [0.5, 1.0]"),)),
    exit_row("scan", "torus_smoke", "no_paramscan", EXIT_CONFIG_ERROR,
             "config error: scan command needs 'paramscan' among the requested suites",
             patch=no_step),
    # 7e13 grid points, 16 GB per array of one alpha block
    exit_row("scan", "paramscan", "oversized_scan", EXIT_CONFIG_ERROR,
             "config error: paramscan: step = # makes # grid points; at most 5000000",
             edits=(("step: 0.05", "step: 1.0e-4"),), patch=no_step),
    # the complete paramscan.csv is removed again
    exit_row("scan", "paramscan", "summary_is_a_directory", EXIT_CONFIG_ERROR,
             UNWRITABLE_SUMMARY, files=SUMMARY, edits=SCAN_COARSE, taken="summary.json"),
] + [
    row
    # each command, its shipped config and the report it writes first
    for command, config, report in (
        ("run", "torus_smoke", "diagnostics.csv"),
        ("calibrate", "torus_smoke", "trajectory_meta.json"),
        ("scan", "paramscan", "paramscan.csv"),
    )
    for row in (
        exit_row(command, config, "no_config", EXIT_CONFIG_ERROR, NO_CONFIG, edits=None),
        exit_row(command, config, "output_is_a_file", EXIT_CONFIG_ERROR,
                 UNWRITABLE.format(17, "File exists", ""), patch=no_step, taken=""),
        # a scan opens its report before scanning; run and calibrate write theirs after
        exit_row(command, config, "report_is_a_directory", EXIT_CONFIG_ERROR,
                 UNWRITABLE.format(21, "Is a directory", f"/{report}"), files={report},
                 patch=no_step if command == "scan" else None, taken=report),
        # an empty directory is refused, from the config even when
        # --output-dir replaces it, and from --output-dir
        exit_row(command, config, "empty_output_directory", EXIT_CONFIG_ERROR,
                 f"config error: output: {EMPTY_OUTPUT}", patch=no_step,
                 edits=((f"directory: out/{config}", "directory: ''"),)),
        exit_row(command, config, "empty_output_dir_flag", EXIT_CONFIG_ERROR,
                 f"config error: {EMPTY_OUTPUT}", patch=no_step, flag=""),
    )
]


@pytest.mark.parametrize("command, config, edits, patch, taken, flag, expected", EXITS)
def test_exit(tmp_path, monkeypatch, capsys, command, config, edits, patch, taken, flag, expected):
    # two directory levels for a command to make
    path, out_dir = tmp_path / "config.yaml", tmp_path / "runs" / "out"
    monkeypatch.chdir(tmp_path)
    if edits is not None:
        text = (CONFIG_DIR / f"{config}.yaml").read_text()
        for old, new in edits:
            assert text.count(old) == 1, old
            text = text.replace(old, new)
        path.write_text(text)
    if patch is not None:
        patch(monkeypatch)
    if taken == "":
        out_dir.parent.mkdir()
        out_dir.write_text("")
    elif taken is not None:
        (out_dir / taken).mkdir(parents=True)
    code = main([command, str(path), "--output-dir", str(out_dir) if flag is None else flag])
    captured = capsys.readouterr()
    first = captured.err.partition("\n")[0]
    shown = [ROUNDOFF.sub("#", s.replace(str(tmp_path), "TMP")) for s in (first, captured.out)]
    left = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else None
    assert (code, *shown, left) == expected
    # a level that a failed command made goes with the empty levels inside it
    assert out_dir.parent.is_dir() == (left is not None or taken == "")
    assert {p.name for p in tmp_path.iterdir()} <= {"config.yaml", "runs"}
    if code == EXIT_SOLVER_FAILURE:  # the summary names the failure and holds no verdict
        summary = json.loads((out_dir / "summary.json").read_text())
        assert first == f"solver failure: {summary['solver_error']}"
        assert not summary["overall_pass"] and "suites" not in summary
        assert summary["exit_code"] == EXIT_SOLVER_FAILURE


def test_calibrate_shipped_smoke(tmp_path, capsys):
    code = main(["calibrate", str(CONFIG_DIR / "torus_smoke.yaml"), "--output-dir", str(tmp_path)])
    assert code == EXIT_PASS
    assert "calibrated C" in capsys.readouterr().out


def test_trajectory_export_of_shipped_smoke(tmp_path):
    # output is the config's last section: the appended key joins it
    text = (CONFIG_DIR / "torus_smoke.yaml").read_text() + "  export_trajectory: true\n"
    config = tmp_path / "export.yaml"
    config.write_text(text)
    assert main(["run", str(config), "--output-dir", str(tmp_path / "export")]) == EXIT_PASS
    # 3 comment lines, then one row for each of the 101 states
    assert (tmp_path / "export" / "trajectory.csv").read_text().count("\n") == 104


# the import table: one fresh interpreter, so that no module another test
# imported is loaded there, imports numpy, then takes each step below in
# turn and records the modules it newly loads.  scipy serves only the
# sphere backend and the CG reference solver; the CSV writer blanks cells
# by an explicit mask, not a masked array (numpy.ma); hashlib, and with it
# OpenSSL's _hashlib, is imported only to hash a manifold, which a scan
# never does, so the scan comes before the commands that hash one.  numpy
# < 2 imports numpy.ma and numpy.random, and so hashlib, with numpy itself,
# so what numpy loads is not counted
IMPORT_STEPS = """
import json, sys
import numpy

configs, out = sys.argv[1], sys.argv[2]
smoke = configs + "/torus_smoke.yaml"
steps, seen = {}, set(sys.modules)


def record(step, code=0):  # a step that is not a command returns 0
    global seen
    steps[step] = {"code": code, "loaded": sorted(set(sys.modules) - seen)}
    seen = set(sys.modules)


from harnacklab.config import parse_config
from harnacklab.runner import main
record("import")
record("scan", main(["scan", configs + "/paramscan.yaml", "--output-dir", out + "/scan"]))
record("run", main(["run", smoke, "--output-dir", out + "/run"]))
record("strict", main(["run", "--strict", smoke, "--output-dir", out + "/strict"]))
record("calibrate", main(["calibrate", smoke, "--output-dir", out + "/calibrate"]))
parse_config(configs + "/sphere_signs.yaml")
record("sphere_parse")
print(json.dumps(steps))
"""
IMPORTS = [
    # every torus step loads neither; only the import and the scan hash no manifold
    *((step, module, False) for step in ("import", "scan", "run", "strict", "calibrate")
      for module in ("scipy", "numpy.ma")),
    ("import", "_hashlib", False),
    ("scan", "_hashlib", False),
    # a sphere config loads the sphere's scipy modules at parse, so its run
    # loads none; it orders its band without csgraph, which loads sparse.linalg
    ("sphere_parse", "scipy.sparse", True),
    ("sphere_parse", "scipy.sparse.csgraph", False),
    ("sphere_parse", "scipy.sparse.linalg", False),
    ("sphere_parse", "scipy.linalg.lapack", True),
]


@pytest.fixture(scope="module")
def imports(tmp_path_factory):
    """The output directory of ``IMPORT_STEPS`` and what it recorded."""
    out = tmp_path_factory.mktemp("imports")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_STEPS, str(CONFIG_DIR), str(out)],
        cwd=out, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return out, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "step, module, loaded", IMPORTS, ids=[f"{step}-{module}" for step, module, _ in IMPORTS]
)
def test_import(imports, step, module, loaded):
    recorded = imports[1][step]
    names = recorded["loaded"]
    assert recorded["code"] == EXIT_PASS
    assert any(name == module or name.startswith(module + ".") for name in names) is loaded


def test_scan_shipped_config_writes_the_pinned_csv(imports):
    out, steps = imports
    assert steps["scan"]["code"] == EXIT_PASS
    data = (out / "scan" / "paramscan.csv").read_bytes()
    # the header plus 580,851 rows, and every byte as the writer has always given it
    assert data.count(b"\n") == 580852
    assert hashlib.sha256(data).hexdigest() == (
        "01f7d37c6d0bbd6077636e63ecaf16bf86114e3801d019a1163eb2eac6dd4521"
    )


def _scipy_imports(path):
    """The name of the outermost function around each ``import scipy...``
    or ``from scipy... import`` in the source file ``path``, None at module
    level."""
    tree = ast.parse(path.read_text())
    scope = {}
    for node in ast.walk(tree):  # breadth first: the outermost function comes first
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                scope.setdefault(inner, node.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(m == "scipy" or m.startswith("scipy.") for m in modules):
            yield scope.get(node)


def test_scipy_is_imported_only_by_the_sphere_module_and_the_cg_reference():
    # the sphere module imports scipy at its top; the CG reference solver
    # imports it lazily, when called; no other source imports it
    places = {
        (path.name, function)
        for path in sorted((ROOT / "src" / "harnacklab").glob("*.py"))
        for function in _scipy_imports(path)
    }
    assert ("sphere.py", None) in places
    assert places - {("sphere.py", None)} <= {("heatflow.py", "cg"), ("heatflow.py", "cg_solver")}
