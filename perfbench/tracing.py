"""Span and counter tracing of harnacklab, installed from outside the package.

The tracer replaces names in the ``runner``, ``heatflow``, ``harnack`` and
``entropy`` module namespaces with wrappers that forward every argument
unchanged.  Each wrapped call records a span (name, start, end, parent) or
bumps a counter; spans stay in memory until the run ends.  ``layer_metrics``
derives self times from the spans so that the layer metrics partition the
root span with no interval counted twice.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import wraps

ROOT = "runner.run"

# span name -> the per-layer metric its self time is charged to
SPAN_METRIC = {
    ROOT: "runner.self_s",
    "runner.rows_sink": "runner.rows_sink_s",
    "geometry.build": "geometry.build_s",
    "initialdata.build": "initialdata.build_s",
    "heatflow.solve": "heatflow.solve_s",
    "heatflow.step": "heatflow.solve_s",
    "harnack.signs": "harnack.signs_s",
    "harnack.evolution_residual": "harnack.evolution_residual_s",
    "entropy.series": "entropy.series_s",
    "pathwise.sample": "pathwise.sample_s",
    "pathwise.check": "pathwise.check_s",
    "paramspace.scan": "paramspace.scan_s",
}

OPERATORS = ("laplacian", "grad_norm_sq", "hessian_penalty")

# runner-namespace names and the span each call of them records
RUNNER_SPANS = {
    "build_torus": "geometry.build",
    "build_sphere": "geometry.build",
    "build_initial_field": "initialdata.build",
    "solve": "heatflow.solve",
    "log_u": "harnack.signs",
    "log_v": "harnack.signs",
    "quantity_H": "harnack.signs",
    "quantity_P": "harnack.signs",
    "quantity_liyau": "harnack.signs",
    "assert_nonpositive": "harnack.signs",
    "evolution_residual": "harnack.evolution_residual",
    "entropy_series": "entropy.series",
    "sample_pairs": "pathwise.sample",
    "check_integrated_harnack": "pathwise.check",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.trajectory_lengths: list[int] = []
        self._stack: list[int] = []

    def span(self, name: str, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, runner, heatflow, harnack, entropy) -> None:
        for attr, name in RUNNER_SPANS.items():
            setattr(runner, attr, self.span(name, getattr(runner, attr)))

        solve = runner.solve

        def solve_sized(*args, **kwargs):
            traj = solve(*args, **kwargs)
            self.trajectory_lengths.append(len(traj))
            self.counts["heatflow.trajectory_bytes"] += len(traj) * traj.manifold.node_count * 8
            return traj

        runner.solve = solve_sized

        scan = self.span("paramspace.scan", runner.case_one_uniqueness_scan)

        def scan_with_sink(spec, on_block=None):
            if on_block is None:
                return scan(spec)
            sink = self.span("runner.rows_sink", on_block)

            def counted_sink(block):
                self.counts["paramspace.rows"] += block["alpha"].size
                return sink(block)

            return scan(spec, on_block=counted_sink)

        runner.case_one_uniqueness_scan = scan_with_sink

        heatflow.step = self.span("heatflow.step", heatflow.step)
        cg = heatflow.cg

        def cg_counted(*args, **kwargs):
            inner = kwargs.pop("callback", None)

            def callback(xk):
                self.counts["heatflow.cg_iters"] += 1
                if inner is not None:
                    inner(xk)

            return cg(*args, callback=callback, **kwargs)

        heatflow.cg = cg_counted

        for module in (harnack, entropy):
            for op in OPERATORS:
                if hasattr(module, op):
                    setattr(module, op, self.counted(f"geometry.{op}_calls", getattr(module, op)))

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "trajectory_lengths": self.trajectory_lengths,
        }


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics from one traced run.

    A span's self time is its duration minus the durations of its children.
    Raises ValueError when the spans do not nest (a child outside its parent,
    overlapping siblings, or more than one root), since self times would
    then count an interval twice.
    """
    spans = trace["spans"]
    children: list[list[int]] = [[] for _ in spans]
    roots = []
    for i, (name, start, end, parent) in enumerate(spans):
        if name not in SPAN_METRIC:
            raise ValueError(f"span {name!r} has no layer metric")
        if not end >= start:
            raise ValueError(f"span {name!r} ends before it starts")
        if parent < 0:
            roots.append(i)
        else:
            children[parent].append(i)
    if len(roots) != 1 or spans[roots[0]][0] != ROOT:
        raise ValueError(f"expected the single root span {ROOT!r}, got {len(roots)} roots")

    metrics = {name: 0.0 for name in SPAN_METRIC.values()}
    for i, (name, start, end, _) in enumerate(spans):
        last_end = start
        covered = 0.0
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            c_start, c_end = spans[c][1], spans[c][2]
            if c_start < last_end or c_end > end:
                raise ValueError(f"span {spans[c][0]!r} does not nest inside {name!r}")
            covered += c_end - c_start
            last_end = c_end
        metrics[SPAN_METRIC[name]] += (end - start) - covered

    root_s = spans[roots[0]][2] - spans[roots[0]][1]
    partition_gap = abs(sum(metrics.values()) - root_s)
    if partition_gap > 1e-9 * max(1.0, root_s):
        raise ValueError(f"layer self times miss the root span by {partition_gap:.3e} s")

    steps = [end - start for name, start, end, _ in spans if name == "heatflow.step"]
    counts = trace["counts"]
    lengths = trace["trajectory_lengths"]
    snapshots = lengths[0] if lengths else 0
    metrics.update(
        {
            "run_s.traced": root_s,
            "heatflow.steps": len(steps),
            "heatflow.step_ms": 1e3 * sum(steps) / len(steps) if steps else 0.0,
            "heatflow.cg_iters": counts.get("heatflow.cg_iters", 0),
            "heatflow.trajectory_bytes": counts.get("heatflow.trajectory_bytes", 0),
            "harnack.evolution_residual_calls": sum(
                1 for s in spans if s[0] == "harnack.evolution_residual"
            ),
            "paramspace.rows": counts.get("paramspace.rows", 0),
        }
    )
    for op in OPERATORS:
        calls = counts.get(f"geometry.{op}_calls", 0)
        metrics[f"geometry.{op}_calls"] = calls
        metrics[f"geometry.{op}_per_snapshot"] = calls / snapshots if snapshots else 0.0
    return metrics
