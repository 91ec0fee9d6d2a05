"""harnacklab benchmark: time to verdict on seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload torus2_full --seed 1 --seconds 30 --trace 0

The benchmark writes one YAML config for the workload from ``--seed``, then
runs it closed-loop: one fresh child process at a time, BLAS threads pinned
to 1, every process pinned to one core, each child calling the public entry point ``run_config`` / ``run_scan``
on the generated config.  A first child only imports and parses, unmeasured,
so bytecode compilation (paid once per install) stays out of ``setup_s``.
Children are then started while they fit in ``--seconds`` (at least two, so
report bytes can be compared across repeats).

Every sample is checked: child exit code 0, ``overall_pass`` true, every
requested suite present and passing, the expected report files complete,
and the report bytes identical to the other repeats of the same seed.  A
sample that misses any check counts as failed.

``--trace 0`` reports the end-to-end metrics (medians over samples):
``run_rel`` (the wall time ``run_s`` of the entry-point call over the mean
CPU time of ``SpeedProbe`` on the same core during that call's child),
``setup_s`` (fresh-process import of harnacklab plus config parse) and
``peak_rss_mb`` (the child's own peak resident set).  ``run_s`` itself is printed
but not bounded: on a shared host it drifts with the host's load.  ``--trace 1``
alternates untraced and traced children and reports the per-layer split
from ``tracing.py``.  Every metric is printed as ``name = value unit``; the
last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml
from tracing import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

CHILD_TIMEOUT_S = 150.0
PROBE_PERIOD_S = 0.1
PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}

FLOW = {"t0": 0.05, "t_end": 1.0, "dt": 5.0e-4, "direction": "forward"}


def _random_smooth(seed: int) -> dict:
    # amplitude 0.4, not the shipped 0.6: at 0.6, 15 of seeds 0-199 give a
    # T^2 datum whose Li-Yau quantity 2 Lap v - n/t0 is already positive at
    # t0, so the gate fails on the data (the flow does not start at t = 0)
    return {"kind": "random_smooth", "seed": seed, "mode_cutoff": 3, "amplitude": 0.4, "floor": 1.0}


def _torus2_full(seed: int) -> dict:
    # the only workload on the torus stencil, the coarse second trajectory,
    # the evolution residual and the Hessian dissipation cross-check
    return {
        "manifold": {"kind": "torus", "dimension": 2, "side_lengths": [1.0, 1.0],
                     "resolution": [64, 64]},
        "initial_data": _random_smooth(seed),
        "flow": FLOW,
        "suites": ["harnack_signs", "evolution_residual", "entropy", "pathwise"],
        "tolerances": {"tol_disc_constant": 260.0, "quadrature_tol": 1.0e-4,
                       "pair_count": 100, "rng_seed": seed},
        "output": {"directory": "out"},
    }


def _sphere4_signs(seed: int) -> dict:
    # the same heatflow/harnack/entropy layers on the cotangent backend, with
    # no residual or dissipation: a torus-only change must leave it unchanged
    return {
        "manifold": {"kind": "sphere", "subdivision": 4},
        "initial_data": _random_smooth(seed),
        "flow": FLOW,
        "suites": ["harnack_signs", "entropy", "pathwise"],
        "tolerances": {"tol_disc_constant": 40.0, "quadrature_tol": 1.0e-4,
                       "pair_count": 100, "rng_seed": seed},
        "output": {"directory": "out"},
    }


def _paramscan_csv(seed: int) -> dict:
    # bypasses heatflow; its time is runner-side CSV row formatting.  The scan
    # has no random input: the seed is recorded in the config only
    return {
        "manifold": {"kind": "torus", "dimension": 1, "side_lengths": [1.0], "resolution": [64]},
        "initial_data": {"kind": "constant", "value": 1.0},
        "flow": {"t0": 0.1, "t_end": 0.3, "dt": 2.0e-3, "direction": "forward"},
        "suites": ["paramscan"],
        "tolerances": {"tol_disc_constant": 1.0, "quadrature_tol": 1.0e-4, "rng_seed": seed},
        "output": {"directory": "out"},
        "paramscan": {"alpha_range": [0.5, 4.0], "beta_range": [-2.0, 3.0],
                      "b_range": [-3.0, 1.0], "step": 0.05},
    }


WORKLOADS = {"torus2_full": _torus2_full, "sphere4_signs": _sphere4_signs,
             "paramscan_csv": _paramscan_csv}

END_TO_END = {"run_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "run_s.traced": "s",
    "trace_overhead_s": "s",
    "runner.self_s": "s",
    "runner.rows_sink_s": "s",
    "runner.report_bytes": "bytes_computed",
    "geometry.build_s": "s",
    "geometry.laplacian_calls": "count",
    "geometry.grad_norm_sq_calls": "count",
    "geometry.hessian_penalty_calls": "count",
    "geometry.laplacian_per_snapshot": "count",
    "geometry.grad_norm_sq_per_snapshot": "count",
    "geometry.hessian_penalty_per_snapshot": "count",
    "initialdata.build_s": "s",
    "heatflow.solve_s": "s",
    "heatflow.steps": "count",
    "heatflow.step_ms": "ms",
    "heatflow.cg_iters": "count",
    "heatflow.trajectory_bytes": "bytes_computed",
    "harnack.signs_s": "s",
    "harnack.evolution_residual_s": "s",
    "harnack.evolution_residual_calls": "count",
    "entropy.series_s": "s",
    "pathwise.sample_s": "s",
    "pathwise.check_s": "s",
    "paramspace.scan_s": "s",
    "paramspace.rows": "count",
}


@dataclass
class Sample:
    """One child run: its timings, its report digest and every check it missed."""

    traced: bool
    result: dict = field(default_factory=dict)
    wall_s: float = 0.0
    digest: str = ""
    errors: list[str] = field(default_factory=list)
    layers: dict = field(default_factory=dict)


def _expected_reports(cfg: dict) -> dict[str, int | None]:
    """The report files a passing run writes, with the data rows of each CSV."""
    if "paramscan" in cfg["suites"]:
        scan = cfg["paramscan"]
        points = math.prod(
            round((hi - lo) / scan["step"]) + 1
            for lo, hi in (scan["alpha_range"], scan["beta_range"], scan["b_range"])
        )
        return {"paramscan.csv": points, "summary.json": None}
    flow = cfg["flow"]
    return {
        "diagnostics.csv": round((flow["t_end"] - flow["t0"]) / flow["dt"]) + 1,
        "pathwise.csv": cfg["tolerances"]["pair_count"],
        "summary.json": None,
        "trajectory_meta.json": None,
    }


class SpeedProbe:
    """Times a fixed small job every PROBE_PERIOD_S on a parent thread while a
    child runs on the same core.

    The host is shared, and over minutes the speed of a core drifts by up to
    1.8x for all code on it.  The probe's CPU time (not wall time, which
    would count the child's share of the core) tracks that drift, so
    ``run_rel`` (run_s over the mean probe time) stays steady where run_s
    does not.  The job mixes small-array numpy stencils with float
    formatting, like the workloads, and takes about 5% of the core.
    """

    def __init__(self):
        self.times: list[float] = []
        self._grid = np.random.default_rng(0).random((64, 64))
        self._values = [i * 0.1234567 for i in range(2000)]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop)

    def _loop(self) -> None:
        while not self._stop.is_set():
            t0 = time.thread_time()
            g = self._grid
            for _ in range(50):
                g = (np.roll(g, 1, 0) + np.roll(g, -1, 0) + np.roll(g, 1, 1) + np.roll(g, -1, 1)) / 4
            ",".join(map(repr, self._values))
            self.times.append(time.thread_time() - t0)
            self._stop.wait(PROBE_PERIOD_S)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def _mode(cfg: dict) -> str:
    return "scan" if "paramscan" in cfg["suites"] else "run"


def _child(config: Path, mode: str, traced: bool, cwd: Path) -> tuple[int, dict, float]:
    result_path = cwd / "result.json"
    result_path.unlink(missing_ok=True)
    env = {**os.environ, **PINNED_THREADS}
    args = [sys.executable, str(HERE / "child.py"), str(SRC), str(config), str(result_path),
            mode, "1" if traced else "0"]
    t0 = time.perf_counter()
    try:
        with SpeedProbe() as probe:
            proc = subprocess.run(args, cwd=cwd, env=env, timeout=CHILD_TIMEOUT_S,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        return -1, {}, time.perf_counter() - t0
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    result = json.loads(result_path.read_text()) if result_path.exists() else {}
    if "run_s" in result:
        result["probe_s"] = statistics.mean(probe.times)
        result["run_rel"] = result["run_s"] / result["probe_s"]
    return proc.returncode, result, wall


def _check_reports(out: Path, cfg: dict) -> tuple[list[str], str, int]:
    """Verdict and completeness checks on one run's reports; returns the
    misses, a digest of every report file and the bytes written."""
    errors = []
    summary_path = out / "summary.json"
    if not summary_path.exists():
        return ["summary.json missing"], "", 0
    summary = json.loads(summary_path.read_text())
    if summary.get("overall_pass") is not True:
        errors.append("overall_pass is not true")
    for name in cfg["suites"]:
        if summary.get("suites", {}).get(name, {}).get("pass") is not True:
            errors.append(f"suite {name} did not pass")
    expected = _expected_reports(cfg)
    errors += [f"{name} missing" for name in expected if not (out / name).exists()]
    digest = hashlib.sha256()
    written = 0
    for path in sorted(p for p in out.iterdir() if p.is_file()):
        file_digest = hashlib.sha256()
        rows = -1
        with open(path, "rb") as fp:
            while chunk := fp.read(1 << 20):
                file_digest.update(chunk)
                rows += chunk.count(b"\n")
        written += path.stat().st_size
        digest.update(path.name.encode() + b"\0" + file_digest.digest())
        if expected.get(path.name) not in (None, rows):
            errors.append(f"{path.name} has {rows} rows, expected {expected[path.name]}")
    return errors, digest.hexdigest(), written


def _run_sample(cfg: dict, config: Path, work: Path, traced: bool) -> Sample:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    sample = Sample(traced)
    code, sample.result, sample.wall_s = _child(config, _mode(cfg), traced, work)
    if code != 0:
        sample.errors.append(f"child exit code {code}")
    if "run_s" not in sample.result:
        sample.errors.append("child wrote no timing")
        return sample
    errors, sample.digest, written = _check_reports(out, cfg)
    sample.errors += errors
    if traced:
        try:
            sample.layers = {**layer_metrics(sample.result["trace"]), "runner.report_bytes": written}
        except ValueError as exc:
            sample.errors.append(f"trace: {exc}")
    return sample


def _mark_digest_mismatches(samples: list[Sample]) -> None:
    digests = Counter(s.digest for s in samples if s.digest)
    if not digests:
        return
    reference = digests.most_common(1)[0][0]
    for s in samples:
        if s.digest and s.digest != reference:
            s.errors.append("report bytes differ from the other repeats of this seed")


def _tail(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    p = math.floor(100 - 1000 / n) if n > 10 else 0
    if p < 1:
        return None
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "harnacklab" / "__init__.py").is_file():
        print(f"error: no harnacklab sources under {SRC}", file=sys.stderr)
        return 2

    # one core for the parent, its probe thread and every child, so the probe
    # sees the speed the child gets
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    started = time.perf_counter()
    deadline = started + args.seconds
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = WORKLOADS[args.workload](args.seed)
    config = work / "config.yaml"
    config.write_text(yaml.safe_dump(cfg, sort_keys=False))

    # the first import compiles bytecode, which users pay once: not measured
    code, _, _ = _child(config, "setup", False, work)
    if code != 0:
        print("error: harnacklab does not import or the config does not parse", file=sys.stderr)
        return 2

    samples: list[Sample] = []
    minimum = 4 if args.trace else 2
    while True:
        traced = bool(args.trace) and len(samples) % 2 == 1
        samples.append(_run_sample(cfg, config, work, traced))
        estimate = statistics.median(s.wall_s for s in samples)
        if len(samples) >= minimum and time.perf_counter() + estimate > deadline:
            break
    _mark_digest_mismatches(samples)
    shutil.rmtree(work / "out", ignore_errors=True)

    timed = [s for s in samples if "run_s" in s.result]
    if not timed:
        print("error: no sample produced a timing", file=sys.stderr)
        return 1
    failed = sum(1 for s in samples if s.errors)
    for i, s in enumerate(samples):
        for err in s.errors:
            print(f"sample {i}{' (traced)' if s.traced else ''}: FAIL {err}")

    untraced = [s.result["run_s"] for s in timed if not s.traced]
    lines = []
    if args.trace:
        traced_samples = [s for s in timed if s.traced and s.layers]
        metrics = {
            name: statistics.median(s.layers[name] for s in traced_samples) if traced_samples else 0.0
            for name in PER_LAYER if name != "trace_overhead_s"
        }
        metrics["trace_overhead_s"] = (
            metrics["run_s.traced"] - statistics.median(untraced) if traced_samples else 0.0
        )
        units = PER_LAYER
        lines.append(f"traced samples = {len(traced_samples)} count")
        for name in (n for n, unit in PER_LAYER.items() if unit not in ("s", "ms")):
            seen = sorted({s.layers[name] for s in traced_samples})
            if len(seen) > 1:
                lines.append(f"note: {name} differs across traced samples: {seen}")
    else:
        run_s = [s.result["run_s"] for s in timed]
        lines.append(f"run_s = {statistics.median(run_s)!r} s")
        lines.append(f"probe_s = {statistics.median(s.result['probe_s'] for s in timed)!r} s")
        metrics = {
            "run_rel": statistics.median(s.result["run_rel"] for s in timed),
            "setup_s": statistics.median(s.result["setup_s"] for s in timed),
            "peak_rss_mb": statistics.median(s.result["peak_rss_mb"] for s in timed),
        }
        units = END_TO_END
        tail = _tail(run_s)
        lines.append(f"run_s.samples = {len(run_s)} count, values {run_s!r} s")
        lines.append(
            f"run_s.tail = {tail[1]!r} s (p{tail[0]})" if tail
            else f"run_s.tail = n/a s (no percentile has ten of {len(run_s)} samples beyond it)"
        )
    lines.append(f"failed_share = {failed / len(samples)!r} ratio ({failed} of {len(samples)})")
    for name, value in metrics.items():
        if units[name] in ("count", "bytes_computed") and value == int(value):
            metrics[name] = value = int(value)
        lines.append(f"{name} = {value!r} {units[name]}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{time.perf_counter() - started:.1f} s")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
