"""The benchmark tracer still finds every call it patches.

``perfbench/tracing.py`` wraps runner, heatflow, harnack and entropy names
from outside the package; a call moved out of runner's namespace, renamed
or bypassed would silently read zero.  Each traced benchmark sample runs in
a subprocess, so no patching leaks into other tests.  The expected values
are those of the layout in which every patched call is made in runner:
any change to them is a change to what the benchmark measures.
"""

import importlib.util
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
CONFIG_DIR = ROOT / "configs"

# each case: a shipped config, the edits that cut it (as the mutation
# table's cuts do), the child's mode, the count of each span name, the
# trajectory lengths in the order the solves were made, and the count
# metrics
CASES = {
    "torus_smoke": (
        "torus_smoke", (), "run",
        {
            "runner.run": 1, "geometry.build": 2, "initialdata.build": 2, "heatflow.solve": 2,
            # the fine flow's 100 steps, then the coarse flow's 3
            "heatflow.step": 103, "entropy.series": 1, "harnack.evolution_residual": 20,
            "pathwise.sample": 1, "pathwise.check": 1,
        },
        # the fine solve first, then the coarse one
        [101, 51],
        {
            "heatflow.steps": 103, "harnack.evolution_residual_calls": 20,
            "geometry.laplacian_calls": 80, "geometry.grad_norm_sq_calls": 40,
            "geometry.hessian_penalty_calls": 20, "paramspace.rows": 0,
        },
    ),
    "sphere3": (
        "sphere_signs", (("subdivision: 4", "subdivision: 3"), ("t_end: 1.0", "t_end: 0.1")), "run",
        {
            "runner.run": 1, "geometry.build": 1, "initialdata.build": 1, "heatflow.solve": 1,
            "heatflow.step": 100, "entropy.series": 1, "pathwise.sample": 1, "pathwise.check": 1,
        },
        [101],
        {
            "heatflow.steps": 100, "harnack.evolution_residual_calls": 0,
            "geometry.laplacian_calls": 0, "geometry.grad_norm_sq_calls": 0,
            "geometry.hessian_penalty_calls": 0, "paramspace.rows": 0,
        },
    ),
    "paramscan": (
        "paramscan", (("step: 0.05", "step: 0.25"),), "scan",
        # 15 alpha blocks of 21 x 17 points
        {"runner.run": 1, "paramspace.scan": 1, "runner.rows_sink": 15},
        [],
        {
            "heatflow.steps": 0, "harnack.evolution_residual_calls": 0,
            "geometry.laplacian_calls": 0, "geometry.grad_norm_sq_calls": 0,
            "geometry.hessian_penalty_calls": 0, "paramspace.rows": 15 * 21 * 17,
        },
    ),
}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("case", list(CASES))
def test_traced_run_counts_every_call(tmp_path, case):
    name, edits, mode, spans, lengths, counts = CASES[case]
    text = (CONFIG_DIR / f"{name}.yaml").read_text()
    for old, new in edits:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    config = tmp_path / "config.yaml"
    config.write_text(text)
    result_path = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), str(ROOT / "src"), str(config),
         str(result_path), mode, "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(result_path.read_text())["trace"]
    assert Counter(span[0] for span in trace["spans"]) == spans
    assert trace["trajectory_lengths"] == lengths
    metrics = _tracing().layer_metrics(trace)
    assert {key: metrics[key] for key in counts} == counts
