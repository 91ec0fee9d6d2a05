"""One benchmark sample in a fresh process.

Usage: python child.py <src_dir> <config.yaml> <result.json> <setup|run|scan> <trace 0|1>

Times the import of harnacklab plus the parse of the config (setup), then,
unless the mode is ``setup``, the public entry point ``run_config`` or
``run_scan`` with reports written to the config's output directory.  Writes
one JSON result (and, when traced, the spans and counters) and exits with
the entry point's exit code.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def peak_rss_mb() -> float:
    """This process's own peak resident set.  Not ru_maxrss: exec records the
    parent's high-water mark there, so a large parent would show through."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    src, config_path, result_path, mode, traced = sys.argv[1:6]
    sys.path.insert(0, src)
    import harnacklab
    from harnacklab import entropy, harnack, heatflow, runner

    if not Path(harnacklab.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"harnacklab imported from {harnacklab.__file__}, not {src}", file=sys.stderr)
        return 2
    config = runner.parse_config(config_path)
    result = {"setup_s": time.perf_counter() - START}
    if mode != "setup":
        entry = runner.run_scan if mode == "scan" else runner.run_config
        tracer = None
        if traced == "1":
            from tracing import ROOT, Tracer

            tracer = Tracer()
            tracer.install(runner, heatflow, harnack, entropy)
            entry = tracer.span(ROOT, entry)
        t0 = time.perf_counter()
        outcome = entry(config)
        result["run_s"] = time.perf_counter() - t0
        result["exit_code"] = outcome.exit_code
        if tracer is not None:
            result["trace"] = tracer.dump()
    result["peak_rss_mb"] = peak_rss_mb()
    Path(result_path).write_text(json.dumps(result))
    return result.get("exit_code", 0)


if __name__ == "__main__":
    raise SystemExit(main())
