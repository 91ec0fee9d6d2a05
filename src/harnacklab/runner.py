"""Config-driven experiment driver and command-line interface.

One config file = one reproducible experiment.  The CLI offers

    harnacklab run <config>        solve + requested verification suites
    harnacklab calibrate <config>  fit the tolerance constant C (torus only)
    harnacklab scan <config>       parameter-uniqueness scan only

with exit codes 0 (all gates pass), 1 (gate failure), 2 (config error: no
``summary.json``) and 3 (solver failure in any flow of ``run`` or ``calibrate``:
``summary.json`` alone, naming it).  A ``calibrate`` that succeeds writes only
``trajectory_meta.json``.  ``--seed`` overrides the config RNG seed, ``--output-dir``
the output directory, and ``--strict`` (not a config key) halves tol_disc.

The config grammar is in ``harnacklab.config``, the gates in
``harnacklab.suites`` and the report files in ``harnacklab.report``.  This
module does all the work, and the suites only judge what it computed.

How the diagnostics are computed
--------------------------------
The fine flow is stepped once, in one streamed pass over its states
(``entropy.entropy_series``), and no list of them is kept.  As each state
is computed, the pass computes u, v, their Laplacians, the gradient of u,
|grad v|^2 and, on the torus, the lam = 2 Hessian penalties of u and v,
each once per snapshot.
From those it derives the Harnack sign maxima (H, Li-Yau, the P-H identity
gap), F and W in both forms, both dissipation integrals, and, when
evolution_residual is requested, the canonical H tuple's residual (its Q
held in a three-snapshot window).  It returns them as one
``SnapshotSeries``, an array per field, with dF/dt and dW/dt differenced
from the F and W arrays.  The values equal the per-state reference
functions of ``harnack`` and ``entropy`` bit for bit.  The same pass also
takes, from each state, its mass (the entropy suite gates its largest
relative drift, ``mass_drift_rel``), its ``trajectory.csv`` row, the
f-values at the pathwise pairs (drawn before the pass from the snapshot
times, which are known without stepping) and the three states around the
one fine index the ten random residual tuples read.  Each tuple calls
``harnack.evolution_residual`` on those three states and on the three
around half that index on the once-coarsened flow, which is stepped after
the fine pass, in one pass, only through the step after it.

``perfbench/tracing.py`` measures a run by wrapping names in this module's
namespace, so every call it wraps is made here, through that name.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import report, suites
from .config import ConfigError, Flow, RunConfig, SphereSpec, TorusSpec, parse_config
from .entropy import entropy_series
from .geometry import ManifoldDescriptor, build_sphere, build_torus, integrate
# log_v, quantity_P, quantity_liyau and assert_nonpositive are unused here but
# stay importable from this module: perfbench/tracing.py wraps them by name
from .harnack import (  # noqa: F401
    HarnackParams,
    assert_nonpositive,
    evolution_residual,
    log_u,
    log_v,
    quantity_H,
    quantity_liyau,
    quantity_P,
)
from .heatflow import FlowState, SolverError, solve
from .initialdata import ConstantData, SingleModeSolution, TrigMode, build_initial_field
from .paramspace import case_one_uniqueness_scan
from .pathwise import PairValues, check_integrated_harnack, sample_pairs

# calibrated C never drops below this, so constant-data calibrations still
# yield a usable tolerance
C_FLOOR = 0.05

EXIT_PASS = 0
EXIT_GATE_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_SOLVER_FAILURE = 3


@dataclass
class RunOutcome:
    exit_code: int
    summary: dict
    output_dir: Path


def build_manifold(spec: TorusSpec | SphereSpec) -> ManifoldDescriptor:
    """The manifold ``spec`` names."""
    if isinstance(spec, SphereSpec):
        return build_sphere(spec.subdivision)
    return build_torus(spec.dimension, spec.side_lengths, spec.resolution)


def run_config(config: RunConfig, strict: bool = False) -> RunOutcome:
    """Solve the flow and run the requested suites; ``strict`` halves tol_disc."""
    out_dir = report.output_dir(config)

    m = build_manifold(config.manifold)
    f0 = build_initial_field(config.initial_data, m)
    flow, tolerances, requested = config.flow, config.tolerances, config.suites
    tol_disc = suites.discretization_tolerance(m, tolerances.tol_disc_constant, flow.dt)
    if strict:
        tol_disc *= 0.5

    traj = solve(m, f0, flow.t0, flow.t_end, flow.dt)
    # one pass over the fine flow, taking from each state what the reports
    # need, so no list of states is ever held
    with_residual = "evolution_residual" in requested
    fine_idx = suites._residual_index(len(traj))
    pairs = pair_values = None
    if "pathwise" in requested:
        pairs = sample_pairs(traj, tolerances.pair_count, tolerances.rng_seed)
        pair_values = PairValues(traj, pairs)
    masses = np.empty(len(traj))
    window: list[FlowState] = []
    try:
        with report.trajectory_csv(out_dir / "trajectory.csv", config) as export:

            def take(k: int, state: FlowState) -> None:
                masses[k] = integrate(state.f)
                if with_residual and abs(k - fine_idx) <= 1:
                    window.append(state)
                if pair_values is not None:
                    pair_values.take(k, state)
                if export is not None:
                    export(state)

            series = entropy_series(traj, with_residual=with_residual, on_state=take)
            if with_residual:
                residuals = residual_tuples(config, window, fine_idx)
    except SolverError as exc:  # in the fine flow or the coarse one
        return _finish(out_dir, config, strict, solver_error=str(exc))

    mass0 = float(masses[0])
    mass_drift = float(np.max(np.abs(masses - mass0)) / max(1e-300, abs(mass0)))

    verdicts: dict[str, dict] = {}
    if "harnack_signs" in requested:
        verdicts["harnack_signs"] = suites.harnack_signs(series, tol_disc)
    if "entropy" in requested:
        verdicts["entropy"] = suites.entropy(config, m, tol_disc, mass0, mass_drift, series)
    if with_residual:
        verdicts["evolution_residual"] = suites.evolution_residual(
            config, residuals, window[1].time, series
        )
    pair_reports = None
    if pairs is not None:
        pair_reports = check_integrated_harnack(traj, pairs, tol=tol_disc, values=pair_values)
        verdicts["pathwise"] = suites.pathwise(config, pair_reports, tol_disc)
    if "paramscan" in requested:
        verdicts["paramscan"] = _scan(config, out_dir)

    report.write_diagnostics(out_dir / "diagnostics.csv", series)
    if pair_reports is not None:
        report.write_pathwise(out_dir / "pathwise.csv", pair_reports)
    meta = report.run_meta(
        config, m, len(traj), strict,
        tol_disc=tol_disc, mass_initial=mass0, mass_drift_rel=mass_drift,
    )
    report.write_json(out_dir / "trajectory_meta.json", meta)

    return _finish(
        out_dir, config, strict, suites=verdicts, suites_requested=list(requested),
        tol_disc=tol_disc, mass_drift_rel=mass_drift,
    )


def residual_tuples(
    config: RunConfig, window: list[FlowState], fine_idx: int
) -> list[tuple[HarnackParams, float, float]]:
    """Each random residual tuple with its evolution residual on the fine
    flow's ``window`` (its three states around ``fine_idx``) and on the
    once-coarsened flow around half that index, stepped only that far."""
    coarse_idx = fine_idx // 2
    spec, flow = config.manifold, config.flow
    m = build_torus(spec.dimension, spec.side_lengths, spec.coarse_resolution)
    f0 = build_initial_field(config.initial_data, m)
    dt = 2.0 * flow.dt
    coarse_traj = solve(m, f0, flow.t0, flow.t_end, dt)
    coarse = list(itertools.islice(coarse_traj, coarse_idx - 1, coarse_idx + 2))
    return [
        (p, evolution_residual(window, flow.dt, p), evolution_residual(coarse, dt, p))
        for p in suites._draw_residual_params(config.tolerances.rng_seed)
    ]


def _scan(config: RunConfig, out_dir: Path) -> dict:
    """The uniqueness scan, written to paramscan.csv block by block, and its verdict."""
    with report.paramscan_csv(out_dir / "paramscan.csv") as sink:
        result = case_one_uniqueness_scan(config.paramscan, on_block=sink)
    return suites.paramscan(config, result)


def _finish(out_dir: Path, config: RunConfig, strict: bool, **facts) -> RunOutcome:
    """Write summary.json from a run's ``facts`` and the config echo.  A run
    that met a ``solver_error`` has no verdict and exits 3; otherwise
    overall_pass is the AND of every suite's gates, and the exit code 0 or 1."""
    if "solver_error" in facts:
        overall, exit_code = False, EXIT_SOLVER_FAILURE
    else:
        overall = all(suite["pass"] for suite in facts["suites"].values())
        exit_code = EXIT_PASS if overall else EXIT_GATE_FAILURE
    summary = {
        "overall_pass": overall,
        "exit_code": exit_code,
        **facts,
        "config": report.config_echo(config, strict),
    }
    report.write_json(out_dir / "summary.json", summary)
    return RunOutcome(exit_code, summary, out_dir)


def calibrate_tolerance(config: RunConfig) -> dict:
    """Fit C in tol_disc = C (h^2 + dt) against the single-mode closed form.

    Runs the exactly-solvable raised-cosine flow at two resolutions, each
    axis's capped at 32 and then doubled, with dt scaled as h^2 (so it
    quarters along with h^2 when the grid doubles; otherwise the fitted
    constant depends on the dt/h^2 ratio instead of the scheme).  Each
    level's clock is a ``Flow``, so it has a run's step ceiling; both are
    checked before either flow is stepped.  The fit is max over snapshots
    and nodes of |H_discrete - H_exact| divided by (h^2 + dt); the reported
    constant is the larger of the two fits, floored at C_FLOOR.  Returns the
    fields of calibrate's ``trajectory_meta.json``.  Torus configs only.
    """
    if not isinstance(config.manifold, TorusSpec):
        raise ConfigError("calibrate_tolerance needs a torus config")
    spec = config.manifold
    t0 = config.flow.t0
    span = min(0.1, config.flow.t_end - t0)
    # constant-data configs calibrate against the stationary flow (exact, so
    # the fit lands on the documented floor); everything else uses the
    # canonical single-mode amplitude
    if isinstance(config.initial_data, ConstantData):
        amplitude, floor_val = 0.0, config.initial_data.value
    else:
        amplitude, floor_val = 0.4, 0.8
    mode = TrigMode(tuple([1] + [0] * (spec.dimension - 1)), amplitude=amplitude)

    levels = []
    for level in range(2):
        res = tuple(min(r, 32) * 2**level for r in spec.resolution)
        try:
            m = build_torus(spec.dimension, spec.side_lengths, res)
            h = m.mesh_scale
            n_steps = max(2, int(np.ceil(span / (h * h / 4.0))))
            levels.append((m, Flow(t0, t0 + span, span / n_steps)))
        except ValueError as exc:
            raise ConfigError(f"calibration at resolution {list(res)}: {exc}") from None

    fits, errors = [], []
    for m, clock in levels:
        sol = SingleModeSolution(m, mode, floor=floor_val, t0=t0)
        traj = solve(m, build_initial_field(sol.initial_data(), m), t0, clock.t_end, clock.dt)
        err = 0.0
        for state in traj:
            h_disc = quantity_H(log_u(state), state.time).values
            err = max(err, float(np.max(np.abs(h_disc - sol.quantity_H_at(state.time)))))
        errors.append(err)
        h = m.mesh_scale
        fits.append(err / (h * h + clock.dt))
    return {
        "manifold_hash": report.manifold_hash(spec),
        "calibrated_C": max(max(fits), C_FLOOR),
        "fits": fits,
        "max_errors": errors,
        # JSON has no inf: an exact fine level (constant data) has no ratio
        "error_ratio": errors[0] / errors[1] if errors[1] > 0 else None,
        "resolutions": [max(m.resolution) for m, _ in levels],
        "c_floor": C_FLOOR,
    }


def run_calibrate(config: RunConfig) -> RunOutcome:
    out_dir = report.output_dir(config)
    try:
        meta = calibrate_tolerance(config)
    except SolverError as exc:  # at either calibration level
        return _finish(out_dir, config, False, solver_error=str(exc))
    report.write_json(out_dir / "trajectory_meta.json", meta)
    return RunOutcome(EXIT_PASS, meta, out_dir)


def run_scan(config: RunConfig) -> RunOutcome:
    if "paramscan" not in config.suites:
        raise ConfigError("scan command needs 'paramscan' among the requested suites")
    out_dir = report.output_dir(config)
    return _finish(out_dir, config, False, suites={"paramscan": _scan(config, out_dir)})


# ---------------------------------------------------------------------------
# CLI


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    if args.output_dir is not None:
        config = replace(config, output=replace(config.output, directory=args.output_dir))
    if getattr(args, "seed", None) is not None:
        config = replace(config, tolerances=replace(config.tolerances, rng_seed=args.seed))
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="harnacklab",
        description="Heat-flow Harnack inequality and entropy monotonicity verification runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "solve the flow and execute the requested verification suites"),
        ("calibrate", "fit the discretization tolerance constant C (torus only)"),
        ("scan", "run only the parameter-uniqueness scan"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the YAML run configuration")
        p.add_argument("--output-dir", default=None, help="override output.directory")
        if name == "run":
            p.add_argument("--seed", type=int, default=None, help="override tolerances.rng_seed")
            p.add_argument("--strict", action="store_true", help="halve tol_disc")

    args = parser.parse_args(argv)
    try:
        config = _apply_overrides(parse_config(args.config), args)
    except ValueError as exc:  # a ConfigError, or an override Tolerances rejects
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    try:
        if args.command == "run":
            outcome = run_config(config, strict=args.strict)
        elif args.command == "calibrate":
            outcome = run_calibrate(config)
        else:
            outcome = run_scan(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OSError as exc:  # the output directory or a report file in it
        print(f"config error: output.directory cannot be written: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    if "solver_error" in outcome.summary:  # no suite ran, so none has a verdict
        print(f"solver failure: {outcome.summary['solver_error']}", file=sys.stderr)
    elif args.command == "run":
        for name in config.suites:
            info = outcome.summary["suites"][name]
            status = "PASS" if info["pass"] else "FAIL"
            print(f"{name}: {status} (worst slack {info['worst_slack']})")
        print(f"overall: {'PASS' if outcome.summary['overall_pass'] else 'FAIL'}")
    elif args.command == "calibrate":
        print(
            f"calibrated C = {outcome.summary['calibrated_C']!r} "
            f"(fits {outcome.summary['fits']}, error ratio {outcome.summary['error_ratio']!r})"
        )
    else:
        info = outcome.summary["suites"]["paramscan"]
        print(
            f"paramscan: {'PASS' if info['pass'] else 'FAIL'} "
            f"({info['n_survivors']} survivors, max ray deviation {info['max_ray_deviation']!r})"
        )
    return outcome.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
