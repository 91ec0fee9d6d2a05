"""The benchmark tracer still finds the names it patches.

``perfbench/tracing.py`` wraps runner, heatflow, harnack and entropy names
from outside the package; a renamed or bypassed operator would silently
read zero.  One traced benchmark sample runs in a subprocess, so no
patching leaks into other tests.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_smoke_run_counts_every_layer(tmp_path):
    result_path = tmp_path / "result.json"
    proc = subprocess.run(
        [
            sys.executable,
            str(PERFBENCH / "child.py"),
            str(ROOT / "src"),
            str(ROOT / "configs" / "torus_smoke.yaml"),
            str(result_path),
            "run",
            "1",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_path.read_text())
    metrics = _tracing().layer_metrics(result["trace"])
    for name in (
        "heatflow.steps",
        "geometry.laplacian_calls",
        "geometry.hessian_penalty_calls",
        "harnack.evolution_residual_calls",
    ):
        assert metrics[name] > 0, name
