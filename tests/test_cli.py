"""The command line on the shipped configs: each test drives ``runner.main``
as the ``harnacklab`` console script would, and checks its exit code,
output and report files."""

import ast
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
names = ("scipy.sparse", "scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg.lapack")
print(json.dumps({
    "codes": codes,
    "after_torus": after_torus,
    "after_sphere_parse": {name: name in sys.modules for name in names},
}))
"""


def _in_fresh_interpreter(script, tmp_path):
    """The JSON object that ``script`` prints last, run with the config
    directory and ``tmp_path`` as arguments in a fresh interpreter, so no
    module another test imported is loaded there."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(CONFIG_DIR), str(tmp_path)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_torus_commands_never_import_scipy(tmp_path):
    # scipy serves only the sphere backend and the CG reference solver
    result = _in_fresh_interpreter(TORUS_COMMANDS_THEN_SPHERE_PARSE, tmp_path)
    assert result["codes"] == [EXIT_PASS] * 4
    assert result["after_torus"] == []
    # a sphere config loads the sphere's scipy modules at parse, so its run
    # loads none; it orders its band without csgraph, which loads sparse.linalg
    assert result["after_sphere_parse"] == {
        "scipy.sparse": True,
        "scipy.sparse.csgraph": False,
        "scipy.sparse.linalg": False,
        "scipy.linalg.lapack": True,
    }


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


RUN_AND_SCAN = """
import json, sys
from harnacklab.runner import main

configs, out = sys.argv[1], sys.argv[2]
before = {m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")}
codes = [
    main(["run", configs + "/torus_smoke.yaml", "--output-dir", out + "/run"]),
    main(["scan", configs + "/paramscan.yaml", "--output-dir", out + "/scan"]),
]
loaded = sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma."))
print(json.dumps({"codes": codes, "loaded": [m for m in loaded if m not in before]}))
"""


def test_run_and_scan_never_import_numpy_ma(tmp_path):
    # the CSV writer blanks cells by an explicit mask, not a masked array;
    # numpy < 2 imports numpy.ma with numpy itself, so only the modules the
    # two commands load are counted
    result = _in_fresh_interpreter(RUN_AND_SCAN, tmp_path)
    assert result == {"codes": [EXIT_PASS] * 2, "loaded": []}


SCAN = """
import json, sys
import numpy

configs, out = sys.argv[1], sys.argv[2]
before = "_hashlib" in sys.modules
from harnacklab.runner import main

code = main(["scan", configs + "/paramscan.yaml", "--output-dir", out + "/scan"])
print(json.dumps({"code": code, "loaded": not before and "_hashlib" in sys.modules}))
"""


def test_scan_never_loads_openssl(tmp_path):
    # hashlib (and with it OpenSSL's _hashlib) is imported only to hash a
    # manifold, which a scan never does; numpy < 2 imports numpy.random,
    # and so hashlib, with numpy itself, so only what the scan loads counts
    result = _in_fresh_interpreter(SCAN, tmp_path)
    assert result == {"code": EXIT_PASS, "loaded": False}
