"""The suites judge and do nothing else.

Every value a suite reads is computed by ``runner``: a suite steps no
flow, builds no manifold or field, opens no file and calls no name the
benchmark tracer (``perfbench/tracing.py``) wraps, so moving work into a
suite can neither skew a per-layer metric nor hide a cost.  The test
records each suite's inputs in a real run, then judges them again with all
of that made to raise, and must get the report the run wrote.
"""

import builtins
import importlib.util
import json
import pkgutil
from dataclasses import replace
from pathlib import Path

import harnacklab
from harnacklab import heatflow, runner, suites
from harnacklab.config import SUITE_NAMES, parse_config
from harnacklab.runner import EXIT_PASS

ROOT = Path(__file__).resolve().parents[1]


def _traced_names():
    """Every name the benchmark tracer wraps in a harnacklab module."""
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {*tracing.RUNNER_SPANS, *tracing.OPERATORS, "case_one_uniqueness_scan", "step", "cg"}


def test_every_suite_is_a_pure_verdict(tmp_path, monkeypatch):
    # torus_smoke runs four suites; the scan, cut to 5,355 points, is the fifth
    config = parse_config(ROOT / "configs" / "torus_smoke.yaml")
    config = replace(
        config,
        suites=(*config.suites, "paramscan"),
        paramscan=replace(config.paramscan, step=0.25),
        output=replace(config.output, directory=str(tmp_path)),
    )
    inputs = {}
    for name in SUITE_NAMES:

        def recording(*args, judge=getattr(suites, name), name=name):
            inputs[name] = args
            return judge(*args)

        monkeypatch.setattr(suites, name, recording)
    assert runner.run_config(config).exit_code == EXIT_PASS
    monkeypatch.undo()
    written = json.loads((tmp_path / "summary.json").read_text())["suites"]
    assert set(inputs) == set(written) == set(SUITE_NAMES)

    def refuse(*args, **kwargs):
        raise AssertionError("a suite did a runner's work")

    modules = [harnacklab] + [
        importlib.import_module(f"harnacklab.{info.name}")
        for info in pkgutil.iter_modules(harnacklab.__path__)
    ]
    traced = _traced_names()
    reports = {}
    with monkeypatch.context() as mp:
        mp.setattr(builtins, "open", refuse)
        mp.setattr(heatflow.Trajectory, "__iter__", refuse)
        # each traced name, among them geometry.build_torus and build_sphere
        # and initialdata.build_initial_field, in every module that holds it;
        # the evolution_residual suite shares its name with the traced
        # harnack function, and is not patched
        for module in modules:
            own = set(SUITE_NAMES) if module is suites else set()
            for name in traced & set(vars(module)) - own:
                mp.setattr(module, name, refuse)
        for name, args in inputs.items():
            reports[name] = getattr(suites, name)(*args)
    for name, report in reports.items():
        assert json.loads(json.dumps(report)) == written[name], name
