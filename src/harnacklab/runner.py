"""Config-driven experiment driver and command-line interface.

One config file = one reproducible experiment.  The CLI offers

    harnacklab run <config>        solve + requested verification suites
    harnacklab calibrate <config>  fit the tolerance constant C (torus only)
    harnacklab scan <config>       parameter-uniqueness scan only

with exit codes 0 (all gates pass), 1 (gate failure), 2 (config error),
3 (solver failure).  ``--seed`` overrides the config RNG seed, ``--output-dir``
the output directory, and ``--strict`` halves the discretization tolerance.

Config grammar (YAML, nested key-value)
---------------------------------------
::

    manifold:
      kind: torus                 # torus | sphere
      dimension: 2                # torus only
      side_lengths: [1.0, 1.0]    # torus only
      resolution: [64, 64]        # torus only, even, >= 8 per axis
      # subdivision: 4            # sphere only, >= 2
    initial_data:
      kind: random_smooth         # constant | trig_polynomial | random_smooth
      seed: 11                    # random_smooth fields
      mode_cutoff: 3
      amplitude: 0.6
      floor: 1.0
      # constant:        value: 3.0
      # trig_polynomial: floor: 0.8
      #                  modes: [{index: [1, 0], amplitude: 0.4, phase: 0.0}]
    flow:
      t0: 0.05
      t_end: 1.0
      dt: 5.0e-4                  # must divide t_end - t0
      direction: forward          # forward | backward (time is then tau)
    suites: [harnack_signs, entropy, pathwise]   # any of: harnack_signs,
                                  # evolution_residual, entropy, pathwise, paramscan
    tolerances:
      tol_disc_constant: 150.0    # C in tol_disc = C (h^2 + dt)
      quadrature_tol: 1.0e-4      # Stokes-identity gate, scaled by max(1, t^2 mass)
      pair_count: 100             # pathwise sample size
      rng_seed: 20240601
      residual_ratio_window: [3.0, 5.0]   # optional
    output:
      directory: out
      export_trajectory: false
    paramscan:                    # read when 'paramscan' is requested
      alpha_range: [0.5, 4.0]
      beta_range: [-2.0, 3.0]
      b_range: [-3.0, 1.0]
      step: 0.05

Every section accepts only the keys shown (per kind for manifold and
initial_data); an unknown or misspelled key is a config error naming it, as
is a residual_ratio_window that is not two numbers with lo < hi.
Torus-only suites (evolution_residual, and the dissipation cross-check
inside entropy) are rejected at parse time on sphere configs; pathwise is
rejected on backward configs (the integrated bound is a forward statement).

How the diagnostics are computed
--------------------------------
After the solve, one pass over the snapshots (``entropy.entropy_series``)
computes u, v, their Laplacians, the gradient of u, |grad v|^2 and, on the
torus, the lam = 2 Hessian penalties of u and v, each once per snapshot.
From those it derives the Harnack sign maxima (H, Li-Yau, the P-H identity
gap), F and W in both forms, both dissipation integrals, and, when
evolution_residual is requested, the canonical H tuple's residual (its Q
held in a three-snapshot window).  The values equal the per-state reference
functions of ``harnack`` and ``entropy`` bit for bit.  The ten random
residual tuples call ``harnack.evolution_residual`` at one index each, on
the fine and on the once-coarsened trajectory.

Output files (all byte-deterministic for a fixed config + seed: no
timestamps, shortest round-trip float formatting, LF line endings)
------------------------------------------------------------------
``trajectory_meta.json``
    manifold hash and shape, solver stats, the tolerance constant in
    effect and the resulting tol_disc, initial mass and relative drift.
``diagnostics.csv``
    one row per snapshot, fixed column order::

        time,max_H,argmax_H,max_liyau,F_direct,F_via_H,W_direct,W_via_P,
        dF_fd,dF_formula,dW_fd,dW_formula,residual_maxnorm

    dF_fd/dW_fd are centered in the interior and one-sided at the two end
    rows (ends are excluded from gates); dF_formula/dW_formula are empty on
    the sphere; residual_maxnorm (the canonical H tuple) is filled
    at interior rows when evolution_residual is requested, else empty.
``pathwise.csv``
    x1,x2,t1,t2,gamma,lhs,rhs,slack,pass  -- one row per sampled pair.
``paramscan.csv``
    alpha,beta,b,lam,alpha_minus_beta,b_plus_beta,quarter_square_plus_b,survivor
    -- one row per grid point.
``summary.json``
    per-suite pass/fail with worst-case slacks; overall_pass; the tolerance
    model actually applied.  Never contains paths.
``trajectory.csv`` (only with output.export_trajectory)
    comment header (# manifold_hash=..., # dt=..., # direction=...), then
    one row per state: time, then all node values.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .entropy import SnapshotReport, entropy_series
from .geometry import ManifoldDescriptor, build_sphere, build_torus, integrate
# log_v, quantity_P, quantity_liyau and assert_nonpositive are unused here but
# stay importable from this module: perfbench/tracing.py wraps them by name
from .harnack import (  # noqa: F401
    CAO_HAMILTON_H_PARAMS,
    LI_YAU_PARAMS,
    NI_PARAMS,
    HarnackParams,
    Variant,
    assert_nonpositive,
    evolution_residual,
    log_u,
    log_v,
    quantity_H,
    quantity_liyau,
    quantity_P,
)
from .heatflow import Direction, PositivityLossError, SolverError, Trajectory, solve
from .initialdata import (
    ConstantData,
    InitialData,
    RandomSmoothData,
    SingleModeSolution,
    TrigMode,
    TrigPolynomialData,
    build_initial_field,
)
from .paramspace import (
    CaseTag,
    NamedMatch,
    ScanSpec,
    case_one_uniqueness_scan,
    classify,
)
from .pathwise import check_integrated_harnack, sample_pairs

# calibrated C never drops below this, so constant-data calibrations still
# yield a usable tolerance
C_FLOOR = 0.05

SUITE_NAMES = ("harnack_signs", "evolution_residual", "entropy", "pathwise", "paramscan")

EXIT_PASS = 0
EXIT_GATE_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_SOLVER_FAILURE = 3

DIAGNOSTIC_COLUMNS = (
    "time", "max_H", "argmax_H", "max_liyau", "F_direct", "F_via_H",
    "W_direct", "W_via_P", "dF_fd", "dF_formula", "dW_fd", "dW_formula",
    "residual_maxnorm",
)
# the SnapshotReport field behind each diagnostics.csv column
_DIAGNOSTIC_FIELDS = DIAGNOSTIC_COLUMNS[:-1] + ("residual",)


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class ManifoldSpec:
    kind: str
    dimension: int | None = None
    side_lengths: tuple[float, ...] | None = None
    resolution: tuple[int, ...] | None = None
    subdivision: int | None = None

    def build(self) -> ManifoldDescriptor:
        if self.kind == "torus":
            return build_torus(self.dimension, self.side_lengths, self.resolution)
        return build_sphere(self.subdivision)


@dataclass(frozen=True)
class Tolerances:
    tol_disc_constant: float
    quadrature_tol: float
    pair_count: int
    rng_seed: int
    residual_ratio_window: tuple[float, float] = (3.0, 5.0)


@dataclass(frozen=True)
class RunConfig:
    manifold: ManifoldSpec
    initial_data: InitialData
    t0: float
    t_end: float
    dt: float
    direction: Direction
    suites: tuple[str, ...]
    tolerances: Tolerances
    output_dir: str
    export_trajectory: bool = False
    scan: ScanSpec | None = None
    strict: bool = False


def discretization_tolerance(m: ManifoldDescriptor, c: float, dt: float) -> float:
    """tol_disc = C (h^2 + dt), the declared discrete form of the continuum
    sign statements."""
    h = m.mesh_scale
    return c * (h * h + dt)


# ---------------------------------------------------------------------------
# config parsing


# the keys each config section accepts; anything else is rejected, so a
# misspelled optional key cannot silently fall back to its default
_TOP_KEYS = ("manifold", "initial_data", "flow", "suites", "tolerances", "output", "paramscan")
_MANIFOLD_KEYS = {
    "torus": ("kind", "dimension", "side_lengths", "resolution"),
    "sphere": ("kind", "subdivision"),
}
_INITIAL_DATA_KEYS = {
    "constant": ("kind", "value"),
    "trig_polynomial": ("kind", "floor", "modes"),
    "random_smooth": ("kind", "seed", "mode_cutoff", "amplitude", "floor"),
}
_MODE_KEYS = ("index", "amplitude", "phase")
_FLOW_KEYS = ("t0", "t_end", "dt", "direction")
_TOLERANCE_KEYS = (
    "tol_disc_constant", "quadrature_tol", "pair_count", "rng_seed", "residual_ratio_window",
)
_OUTPUT_KEYS = ("directory", "export_trajectory")
_PARAMSCAN_KEYS = ("alpha_range", "beta_range", "b_range", "step")


def _check_keys(mapping, allowed, context: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be a mapping, got {mapping!r}")
    for key in mapping:
        if key not in allowed:
            raise ConfigError(
                f"unknown key {key!r} in {context}; valid keys: {', '.join(allowed)}"
            )


def _need(mapping: dict, key: str, context: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be a mapping, got {mapping!r}")
    if key not in mapping:
        raise ConfigError(f"missing field '{key}' in {context}")
    return mapping[key]


def _parse_window(raw) -> tuple[float, float]:
    context = "tolerances.residual_ratio_window"
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ConfigError(f"{context} must be two numbers [lo, hi], got {raw!r}")
    try:
        lo, hi = float(raw[0]), float(raw[1])
    except (TypeError, ValueError):
        raise ConfigError(f"{context} must be two numbers [lo, hi], got {raw!r}") from None
    if not lo < hi:
        raise ConfigError(f"{context} needs lo < hi, got [{lo}, {hi}]")
    return lo, hi


def _parse_manifold(raw: dict) -> ManifoldSpec:
    kind = _need(raw, "kind", "manifold")
    if not isinstance(kind, str) or kind not in _MANIFOLD_KEYS:
        raise ConfigError(f"manifold.kind must be 'torus' or 'sphere', got {kind!r}")
    _check_keys(raw, _MANIFOLD_KEYS[kind], "manifold")
    if kind == "torus":
        n = int(_need(raw, "dimension", "manifold"))
        sides = tuple(float(x) for x in _need(raw, "side_lengths", "manifold"))
        res = tuple(int(x) for x in _need(raw, "resolution", "manifold"))
        return ManifoldSpec(kind="torus", dimension=n, side_lengths=sides, resolution=res)
    return ManifoldSpec(kind="sphere", subdivision=int(_need(raw, "subdivision", "manifold")))


def _parse_initial_data(raw: dict) -> InitialData:
    kind = _need(raw, "kind", "initial_data")
    if not isinstance(kind, str) or kind not in _INITIAL_DATA_KEYS:
        raise ConfigError(
            f"initial_data.kind must be constant, trig_polynomial or random_smooth, got {kind!r}"
        )
    _check_keys(raw, _INITIAL_DATA_KEYS[kind], "initial_data")
    if kind == "constant":
        return ConstantData(value=float(_need(raw, "value", "initial_data")))
    if kind == "trig_polynomial":
        modes = []
        for mode in _need(raw, "modes", "initial_data"):
            _check_keys(mode, _MODE_KEYS, "initial_data.modes")
            modes.append(
                TrigMode(
                    index=tuple(int(i) for i in _need(mode, "index", "initial_data.modes")),
                    amplitude=float(_need(mode, "amplitude", "initial_data.modes")),
                    phase=float(mode.get("phase", 0.0)),
                )
            )
        return TrigPolynomialData(
            floor=float(_need(raw, "floor", "initial_data")), modes=tuple(modes)
        )
    return RandomSmoothData(
        seed=int(_need(raw, "seed", "initial_data")),
        mode_cutoff=int(_need(raw, "mode_cutoff", "initial_data")),
        amplitude=float(_need(raw, "amplitude", "initial_data")),
        floor=float(_need(raw, "floor", "initial_data")),
    )


def parse_config_text(text: str) -> RunConfig:
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping at top level")
    _check_keys(raw, _TOP_KEYS, "config")

    manifold = _parse_manifold(_need(raw, "manifold", "config"))
    initial_data = _parse_initial_data(_need(raw, "initial_data", "config"))

    flow = _need(raw, "flow", "config")
    _check_keys(flow, _FLOW_KEYS, "flow")
    t0 = float(_need(flow, "t0", "flow"))
    t_end = float(_need(flow, "t_end", "flow"))
    dt = float(_need(flow, "dt", "flow"))
    direction_name = str(flow.get("direction", "forward"))
    try:
        direction = Direction(direction_name)
    except ValueError:
        raise ConfigError(f"flow.direction must be forward or backward, got {direction_name!r}")
    if t0 <= 0:
        raise ConfigError(f"flow.t0 must be positive, got {t0}")
    if t_end <= t0:
        raise ConfigError(f"flow.t_end must exceed t0, got {t_end} <= {t0}")
    if dt <= 0:
        raise ConfigError(f"flow.dt must be positive, got {dt}")
    n_steps = round((t_end - t0) / dt)
    if n_steps < 2 or abs(n_steps * dt - (t_end - t0)) > 1e-9 * max(1.0, t_end - t0):
        raise ConfigError(f"flow.dt = {dt} does not divide t_end - t0 = {t_end - t0}")

    suites = tuple(str(s) for s in _need(raw, "suites", "config"))
    for s in suites:
        if s not in SUITE_NAMES:
            raise ConfigError(f"unknown suite {s!r}; valid suites: {', '.join(SUITE_NAMES)}")
    if manifold.kind == "sphere" and "evolution_residual" in suites:
        raise ConfigError("suite 'evolution_residual' needs the torus backend (Hessian penalty)")
    if direction is Direction.BACKWARD and "pathwise" in suites:
        raise ConfigError("suite 'pathwise' applies to forward flows only")
    if manifold.kind == "sphere" and isinstance(initial_data, TrigPolynomialData):
        raise ConfigError("trig_polynomial initial data is only defined on tori")
    if "evolution_residual" in suites:
        if any(r % 4 != 0 or r < 16 for r in manifold.resolution):
            raise ConfigError(
                "suite 'evolution_residual' coarsens the grid once: torus resolutions "
                "must be multiples of 4 and at least 16"
            )
        if n_steps % 2 != 0 or n_steps < 4:
            raise ConfigError(
                "suite 'evolution_residual' needs an even step count of at least 4"
            )

    tol_raw = _need(raw, "tolerances", "config")
    _check_keys(tol_raw, _TOLERANCE_KEYS, "tolerances")
    tolerances = Tolerances(
        tol_disc_constant=float(_need(tol_raw, "tol_disc_constant", "tolerances")),
        quadrature_tol=float(_need(tol_raw, "quadrature_tol", "tolerances")),
        pair_count=int(tol_raw.get("pair_count", 100)),
        rng_seed=int(_need(tol_raw, "rng_seed", "tolerances")),
        residual_ratio_window=_parse_window(tol_raw.get("residual_ratio_window", (3.0, 5.0))),
    )
    if tolerances.tol_disc_constant <= 0:
        raise ConfigError("tolerances.tol_disc_constant must be positive")
    if tolerances.pair_count < 1:
        raise ConfigError("tolerances.pair_count must be at least 1")

    out_raw = raw.get("output", {})
    _check_keys(out_raw, _OUTPUT_KEYS, "output")
    output_dir = str(out_raw.get("directory", "out"))
    export_trajectory = bool(out_raw.get("export_trajectory", False))

    scan_raw = raw.get("paramscan", {})
    _check_keys(scan_raw, _PARAMSCAN_KEYS, "paramscan")
    scan = None
    if "paramscan" in suites:
        try:
            scan = ScanSpec(
                alpha_range=tuple(float(x) for x in scan_raw.get("alpha_range", (0.5, 4.0))),
                beta_range=tuple(float(x) for x in scan_raw.get("beta_range", (-2.0, 3.0))),
                b_range=tuple(float(x) for x in scan_raw.get("b_range", (-3.0, 1.0))),
                step=float(scan_raw.get("step", 0.05)),
            )
        except ValueError as exc:
            raise ConfigError(f"paramscan: {exc}") from exc

    return RunConfig(
        manifold=manifold,
        initial_data=initial_data,
        t0=t0,
        t_end=t_end,
        dt=dt,
        direction=direction,
        suites=suites,
        tolerances=tolerances,
        output_dir=output_dir,
        export_trajectory=export_trajectory,
        scan=scan,
    )


def parse_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


# ---------------------------------------------------------------------------
# deterministic serialization helpers


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


# rows per write of the column-wise CSV writers
_CSV_CHUNK_ROWS = 1024


def _repr_column(values: np.ndarray) -> list[str]:
    """``_fmt`` of every float in a column, formatted in one pass."""
    return list(map(repr, values.tolist()))


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fp:
        json.dump(obj, fp, sort_keys=True, indent=2)
        fp.write("\n")


def manifold_hash(spec: ManifoldSpec) -> str:
    blob = json.dumps(
        {
            "kind": spec.kind,
            "dimension": spec.dimension,
            "side_lengths": spec.side_lengths,
            "resolution": spec.resolution,
            "subdivision": spec.subdivision,
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _config_echo(config: RunConfig) -> dict:
    data = config.initial_data
    if isinstance(data, ConstantData):
        data_echo = {"kind": "constant", "value": data.value}
    elif isinstance(data, TrigPolynomialData):
        data_echo = {
            "kind": "trig_polynomial",
            "floor": data.floor,
            "modes": [
                {"index": list(mode.index), "amplitude": mode.amplitude, "phase": mode.phase}
                for mode in data.modes
            ],
        }
    else:
        data_echo = {
            "kind": "random_smooth",
            "seed": data.seed,
            "mode_cutoff": data.mode_cutoff,
            "amplitude": data.amplitude,
            "floor": data.floor,
        }
    return {
        "manifold": {
            "kind": config.manifold.kind,
            "dimension": config.manifold.dimension,
            "side_lengths": config.manifold.side_lengths,
            "resolution": config.manifold.resolution,
            "subdivision": config.manifold.subdivision,
        },
        "initial_data": data_echo,
        "flow": {
            "t0": config.t0,
            "t_end": config.t_end,
            "dt": config.dt,
            "direction": config.direction.value,
        },
        "suites": list(config.suites),
        "tolerances": {
            "tol_disc_constant": config.tolerances.tol_disc_constant,
            "quadrature_tol": config.tolerances.quadrature_tol,
            "pair_count": config.tolerances.pair_count,
            "rng_seed": config.tolerances.rng_seed,
            "residual_ratio_window": list(config.tolerances.residual_ratio_window),
        },
        "strict": config.strict,
    }


# ---------------------------------------------------------------------------
# suites


def _suite_harnack_signs(reports: list[SnapshotReport], tol_disc: float) -> dict:
    worst_h = max(r.max_H for r in reports)
    worst_ly = max(r.max_liyau for r in reports)
    p_vs_h_max = max(r.P_vs_H_gap for r in reports)
    identity_tol = 1e-9
    passed = worst_h <= tol_disc and worst_ly <= tol_disc and p_vs_h_max <= identity_tol
    return {
        "pass": bool(passed),
        "tol": tol_disc,
        "worst_max_H": worst_h,
        "worst_max_P": worst_h,  # P == H pointwise; the identity gap is gated below
        "worst_max_liyau": worst_ly,
        "worst_slack": max(worst_h - tol_disc, worst_ly - tol_disc),
        "p_vs_h_max_abs_diff": p_vs_h_max,
        "p_vs_h_identity_tol": identity_tol,
    }


def _draw_residual_params(seed: int, per_variant: int = 5) -> list[HarnackParams]:
    rng = np.random.default_rng(seed + 1)
    tuples = []
    for variant in (Variant.U, Variant.V):
        for _ in range(per_variant):
            alpha = rng.uniform(1.0, 3.0)
            beta = alpha - rng.uniform(0.3, 1.5)
            tuples.append(
                HarnackParams(
                    alpha=alpha,
                    beta=beta,
                    b=rng.uniform(-1.0, 1.0),
                    c=rng.uniform(-1.0, 1.0),
                    lam=rng.uniform(0.5, 2.0),
                    variant=variant,
                )
            )
    return tuples


def _coarse_config_trajectory(config: RunConfig) -> Trajectory:
    spec = config.manifold
    coarse = ManifoldSpec(
        kind="torus",
        dimension=spec.dimension,
        side_lengths=spec.side_lengths,
        resolution=tuple(r // 2 for r in spec.resolution),
    )
    m = coarse.build()
    f0 = build_initial_field(config.initial_data, m)
    return solve(m, f0, config.t0, config.t_end, 2.0 * config.dt, config.direction)


def _suite_evolution_residual(
    config: RunConfig, traj: Trajectory, reports: list[SnapshotReport]
) -> dict:
    # the canonical H tuple's residual at every interior snapshot comes from
    # the snapshot pass (it is the diagnostics column); random tuples get a
    # two-level convergence check
    coarse = _coarse_config_trajectory(config)
    # matching interior comparison time: an even fine index early in the run,
    # while the datum still has structure (heat flow flattens everything on
    # the diffusive time scale, after which residuals are roundoff scraps)
    fine_idx = int(round(0.05 * (len(traj) - 1)))
    fine_idx -= fine_idx % 2
    fine_idx = max(2, min(fine_idx, len(traj) - 3 - (len(traj) - 3) % 2))
    coarse_idx = fine_idx // 2
    lo, hi = config.tolerances.residual_ratio_window

    tuples = _draw_residual_params(config.tolerances.rng_seed)
    rows = []
    all_pass = True
    worst_slack = -np.inf
    for p in tuples:
        r_fine = evolution_residual(traj, p, fine_idx)
        r_coarse = evolution_residual(coarse, p, coarse_idx)
        ratio = r_coarse / r_fine if r_fine > 0 else np.inf
        slack = max(lo - ratio, ratio - hi)  # <= 0 inside the window
        ok = slack <= 0
        all_pass = all_pass and ok
        worst_slack = max(worst_slack, slack)
        rows.append(
            {
                "alpha": p.alpha,
                "beta": p.beta,
                "b": p.b,
                "c": p.c,
                "lam": p.lam,
                "variant": p.variant.value,
                "residual_fine": r_fine,
                "residual_coarse": r_coarse,
                "ratio": ratio,
                "pass": bool(ok),
            }
        )
    summary = {
        "pass": bool(all_pass),
        "ratio_window": [lo, hi],
        "comparison_time": traj.states[fine_idx].time,
        "canonical_max_residual": max(r.residual for r in reports if r.residual is not None),
        "worst_slack": worst_slack,
        "tuples": rows,
    }
    return summary


def _suite_entropy(
    config: RunConfig,
    traj: Trajectory,
    tol_disc: float,
    mass: float,
    reports: list[SnapshotReport],
) -> dict:
    m = traj.manifold
    scale = max(1.0, abs(mass))
    tol_value = tol_disc * scale
    c = config.tolerances.tol_disc_constant
    h = m.mesh_scale
    dt = traj.step_size
    xcheck_tol = c * (dt * dt + h * h) * scale
    identity_tol = 1e-11 * scale

    worst_F = max(r.F_direct for r in reports)
    worst_W = max(r.W_direct for r in reports)
    centered = [r for r in reports if r.fd_centered]
    worst_dF = max(r.dF_fd for r in centered)
    worst_dW = max(r.dW_fd for r in centered)
    stokes_worst = 0.0
    stokes_tol_worst = np.inf
    wf_gap = 0.0
    for r in reports:
        gap = max(abs(r.F_direct - r.F_via_H), abs(r.W_direct - r.W_via_P))
        s_tol = config.tolerances.quadrature_tol * max(1.0, r.time * r.time * scale)
        stokes_worst = max(stokes_worst, gap - s_tol)
        stokes_tol_worst = min(stokes_tol_worst, s_tol)
        wf_gap = max(wf_gap, abs(r.W_direct - r.F_direct))
    ok = (
        worst_F <= tol_value
        and worst_W <= tol_value
        and worst_dF <= tol_value
        and worst_dW <= tol_value
        and stokes_worst <= 0.0
        and wf_gap <= identity_tol
    )
    summary = {
        "tol_value": tol_value,
        "worst_F_direct": worst_F,
        "worst_W_direct": worst_W,
        "worst_dF_fd_centered": worst_dF,
        "worst_dW_fd_centered": worst_dW,
        "stokes_worst_slack": stokes_worst,
        "w_equals_f_max_gap": wf_gap,
        "w_equals_f_tol": identity_tol,
    }
    if config.direction is Direction.BACKWARD:
        # series are in tau; the implied t-derivatives flip sign
        summary["implied_dF_dt_min"] = -worst_dF
        summary["implied_dW_dt_min"] = -worst_dW
        summary["implied_dF_dt_gate"] = -tol_value
    if m.is_torus:
        diss_max = max(max(r.dF_formula for r in reports), max(r.dW_formula for r in reports))
        xcheck = max(abs(r.dF_fd - r.dF_formula) for r in centered)
        xcheck_w = max(abs(r.dW_fd - r.dW_formula) for r in centered)
        diss_identity = max(abs(r.dF_formula - r.dW_formula) for r in reports)
        ok = (
            ok
            and diss_max <= 1e-12 * scale
            and xcheck <= xcheck_tol
            and xcheck_w <= xcheck_tol
            and diss_identity <= identity_tol
        )
        summary.update(
            {
                "dissipation_max": diss_max,
                "xcheck_worst_gap": max(xcheck, xcheck_w),
                "xcheck_tol": xcheck_tol,
                "dissipation_F_vs_W_gap": diss_identity,
            }
        )
    summary["pass"] = bool(ok)
    summary["worst_slack"] = max(
        worst_F - tol_value, worst_W - tol_value, worst_dF - tol_value, worst_dW - tol_value
    )
    return summary


def _suite_pathwise(config: RunConfig, traj: Trajectory, tol_disc: float) -> tuple[dict, list]:
    pairs = sample_pairs(traj, config.tolerances.pair_count, config.tolerances.rng_seed)
    reports = check_integrated_harnack(traj, pairs, tol=tol_disc)
    worst = max(r.slack for r in reports)
    summary = {
        "pass": bool(all(r.passed for r in reports)),
        "tol": tol_disc,
        "pair_count": len(reports),
        "seed": config.tolerances.rng_seed,
        "worst_slack": worst - tol_disc,
        "worst_raw_slack": worst,
    }
    return summary, reports


def _suite_paramscan(config: RunConfig, out_dir: Path) -> dict:
    path = out_dir / "paramscan.csv"
    header = (
        "alpha", "beta", "b", "lam",
        "alpha_minus_beta", "b_plus_beta", "quarter_square_plus_b", "survivor",
    )
    with open(path, "w", newline="") as fp:
        fp.write(",".join(header) + "\n")

        def sink(block: dict) -> None:
            # column-wise formatting, the same strings _fmt gives; rows are
            # joined in bounded chunks so the text of a whole block is never
            # held at once
            for lo in range(0, block["alpha"].size, _CSV_CHUNK_ROWS):
                part = {name: col[lo : lo + _CSV_CHUNK_ROWS] for name, col in block.items()}
                columns = [_repr_column(part[name]) for name in header[:3]]
                columns.append(["" if x != x else repr(x) for x in part["lam"].tolist()])
                columns += [_repr_column(part[name]) for name in header[4:7]]
                columns.append(["1" if x else "0" for x in part["survivor"].tolist()])
                fp.write("".join(",".join(row) + "\n" for row in zip(*columns)))

        result = case_one_uniqueness_scan(config.scan, on_block=sink)

    named_ok = (
        classify(NI_PARAMS).named_match is NamedMatch.NI
        and classify(NI_PARAMS).case_tag is CaseTag.CASE_ONE
        and classify(CAO_HAMILTON_H_PARAMS).named_match is NamedMatch.CAO_HAMILTON_H
        and classify(LI_YAU_PARAMS).named_match is NamedMatch.LI_YAU
    )
    ok = (
        result.survivors.shape[0] > 0
        and result.max_ray_deviation <= config.scan.step + 1e-12
        and named_ok
    )
    return {
        "pass": bool(ok),
        "step": config.scan.step,
        "constraint_slack": result.tolerance,
        "n_points": result.n_points,
        "n_survivors": int(result.survivors.shape[0]),
        "n_alpha_eq_beta_excluded": result.n_alpha_eq_beta,
        "n_boundary_survivors": result.n_boundary,
        "max_ray_deviation": result.max_ray_deviation,
        "worst_slack": result.max_ray_deviation - config.scan.step,
        "named_tuples_recognized": bool(named_ok),
    }


# ---------------------------------------------------------------------------
# run / calibrate


@dataclass
class RunOutcome:
    exit_code: int
    summary: dict
    output_dir: Path


def run_config(config: RunConfig) -> RunOutcome:
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    m = config.manifold.build()
    f0 = build_initial_field(config.initial_data, m)
    tol_disc = discretization_tolerance(m, config.tolerances.tol_disc_constant, config.dt)
    if config.strict:
        tol_disc *= 0.5

    try:
        traj = solve(m, f0, config.t0, config.t_end, config.dt, config.direction)
    except (PositivityLossError, SolverError) as exc:
        summary = {
            "overall_pass": False,
            "exit_code": EXIT_SOLVER_FAILURE,
            "solver_error": str(exc),
            "config": _config_echo(config),
        }
        _write_json(out_dir / "summary.json", summary)
        return RunOutcome(EXIT_SOLVER_FAILURE, summary, out_dir)

    mass0 = integrate(traj.states[0].f)
    masses = np.array([integrate(s.f) for s in traj.states])
    mass_drift = float(np.max(np.abs(masses - mass0)) / max(1e-300, abs(mass0)))

    # one pass over the snapshots yields every per-snapshot diagnostic
    reports = entropy_series(
        traj,
        with_dissipation=m.is_torus,
        with_residual="evolution_residual" in config.suites,
    )
    suites: dict[str, dict] = {}
    if "harnack_signs" in config.suites:
        suites["harnack_signs"] = _suite_harnack_signs(reports, tol_disc)
    if "entropy" in config.suites:
        suites["entropy"] = _suite_entropy(config, traj, tol_disc, mass0, reports)
    if "evolution_residual" in config.suites:
        suites["evolution_residual"] = _suite_evolution_residual(config, traj, reports)

    pair_reports = None
    if "pathwise" in config.suites:
        pw_summary, pair_reports = _suite_pathwise(config, traj, tol_disc)
        suites["pathwise"] = pw_summary

    if "paramscan" in config.suites:
        suites["paramscan"] = _suite_paramscan(config, out_dir)

    # ---- reports
    _write_csv(
        out_dir / "diagnostics.csv",
        DIAGNOSTIC_COLUMNS,
        [tuple(getattr(r, name) for name in _DIAGNOSTIC_FIELDS) for r in reports],
    )

    if pair_reports is not None:
        _write_csv(
            out_dir / "pathwise.csv",
            ("x1", "x2", "t1", "t2", "gamma", "lhs", "rhs", "slack", "pass"),
            [
                (r.pair.x1, r.pair.x2, r.pair.t1, r.pair.t2, r.gamma, r.lhs, r.rhs, r.slack, r.passed)
                for r in pair_reports
            ],
        )

    meta = {
        "manifold_hash": manifold_hash(config.manifold),
        "manifold": _config_echo(config)["manifold"],
        "direction": config.direction.value,
        "t0": config.t0,
        "t_end": config.t_end,
        "dt": config.dt,
        "n_states": len(traj),
        "mesh_scale": m.mesh_scale,
        "node_count": m.node_count,
        "total_volume": m.total_volume,
        "tol_disc_constant": config.tolerances.tol_disc_constant,
        "tol_disc": tol_disc,
        "strict": config.strict,
        "mass_initial": mass0,
        "mass_drift_rel": mass_drift,
        "solver": {"scheme": "crank_nicolson", "linear_solver": "cg", "rtol": 1e-12},
    }
    _write_json(out_dir / "trajectory_meta.json", meta)

    if config.export_trajectory:
        _export_trajectory(out_dir / "trajectory.csv", config, traj)

    overall = all(s["pass"] for s in suites.values()) if suites else True
    exit_code = EXIT_PASS if overall else EXIT_GATE_FAILURE
    summary = {
        "overall_pass": bool(overall),
        "exit_code": exit_code,
        "tol_disc": tol_disc,
        "mass_drift_rel": mass_drift,
        "suites": suites,
        "suites_requested": list(config.suites),
        "config": _config_echo(config),
    }
    _write_json(out_dir / "summary.json", summary)
    return RunOutcome(exit_code, summary, out_dir)


def _export_trajectory(path: Path, config: RunConfig, traj: Trajectory) -> None:
    with open(path, "w", newline="") as fp:
        fp.write(f"# manifold_hash={manifold_hash(config.manifold)}\n")
        fp.write(f"# dt={_fmt(traj.step_size)}\n")
        fp.write(f"# direction={config.direction.value}\n")
        for state in traj.states:
            fp.write(",".join([_fmt(state.time)] + _repr_column(state.f.values)) + "\n")


@dataclass(frozen=True)
class CalibrationResult:
    constant: float
    fits: tuple[float, float]
    errors: tuple[float, float]
    error_ratio: float
    resolutions: tuple[int, int]


def calibrate_tolerance(config: RunConfig, base_resolution: int = 32) -> CalibrationResult:
    """Fit C in tol_disc = C (h^2 + dt) against the single-mode closed form.

    Runs the exactly-solvable raised-cosine flow at two resolutions, with dt
    scaled as h^2 (so it quarters along with h^2 when the grid doubles;
    otherwise the fitted constant depends on the dt/h^2 ratio instead of the
    scheme).  The fit is max over snapshots and nodes of
    |H_discrete - H_exact| divided by (h^2 + dt); the reported constant is
    the larger of the two fits, floored at C_FLOOR.  Torus configs only.
    """
    if config.manifold.kind != "torus":
        raise ConfigError("calibrate_tolerance needs a torus config")
    spec = config.manifold
    t0 = config.t0
    span = min(0.1, config.t_end - t0)
    # constant-data configs calibrate against the stationary flow (exact, so
    # the fit lands on the documented floor); everything else uses the
    # canonical single-mode amplitude
    if isinstance(config.initial_data, ConstantData):
        amplitude, floor_val = 0.0, config.initial_data.value
    else:
        amplitude, floor_val = 0.4, 0.8

    fits = []
    errors = []
    resolutions = []
    for level in range(2):
        res = tuple(min(r, base_resolution) * 2**level for r in spec.resolution)
        m = build_torus(spec.dimension, spec.side_lengths, res)
        h = m.mesh_scale
        dt_target = h * h / 4.0
        n_steps = max(2, int(np.ceil(span / dt_target)))
        dt = span / n_steps
        mode = TrigMode(tuple([1] + [0] * (spec.dimension - 1)), amplitude=amplitude)
        sol = SingleModeSolution(m, mode, floor=floor_val, t0=t0)
        traj = solve(m, build_initial_field(sol.initial_data(), m), t0, t0 + span, dt)
        err = 0.0
        for state in traj.states:
            h_disc = quantity_H(log_u(state), state.time).values
            err = max(err, float(np.max(np.abs(h_disc - sol.quantity_H_at(state.time)))))
        errors.append(err)
        fits.append(err / (h * h + dt))
        resolutions.append(max(res))
    constant = max(max(fits), C_FLOOR)
    return CalibrationResult(
        constant=constant,
        fits=(fits[0], fits[1]),
        errors=(errors[0], errors[1]),
        error_ratio=errors[0] / errors[1] if errors[1] > 0 else np.inf,
        resolutions=(resolutions[0], resolutions[1]),
    )


def run_calibrate(config: RunConfig) -> RunOutcome:
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cal = calibrate_tolerance(config)
    meta = {
        "manifold_hash": manifold_hash(config.manifold),
        "calibrated_C": cal.constant,
        "fits": list(cal.fits),
        "max_errors": list(cal.errors),
        "error_ratio": cal.error_ratio,
        "resolutions": list(cal.resolutions),
        "c_floor": C_FLOOR,
    }
    _write_json(out_dir / "trajectory_meta.json", meta)
    return RunOutcome(EXIT_PASS, meta, out_dir)


def run_scan(config: RunConfig) -> RunOutcome:
    if config.scan is None:
        raise ConfigError("scan command needs 'paramscan' among the requested suites")
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = _suite_paramscan(config, out_dir)
    summary = {
        "overall_pass": result["pass"],
        "exit_code": EXIT_PASS if result["pass"] else EXIT_GATE_FAILURE,
        "suites": {"paramscan": result},
        "config": _config_echo(config),
    }
    _write_json(out_dir / "summary.json", summary)
    return RunOutcome(summary["exit_code"], summary, out_dir)


# ---------------------------------------------------------------------------
# CLI


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    from dataclasses import replace

    if args.output_dir is not None:
        config = replace(config, output_dir=args.output_dir)
    if getattr(args, "seed", None) is not None:
        config = replace(config, tolerances=replace(config.tolerances, rng_seed=args.seed))
    if getattr(args, "strict", False):
        config = replace(config, strict=True)
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    try:
        if args.command == "run":
            outcome = run_config(config)
        elif args.command == "calibrate":
            outcome = run_calibrate(config)
        else:
            outcome = run_scan(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (PositivityLossError, SolverError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE

    if args.command == "run":
        for name in config.suites:
            info = outcome.summary.get("suites", {}).get(name, {})
            status = "PASS" if info.get("pass") else "FAIL"
            print(f"{name}: {status} (worst slack {info.get('worst_slack')})")
        print(f"overall: {'PASS' if outcome.summary['overall_pass'] else 'FAIL'}")
        if "solver_error" in outcome.summary:
            print(f"solver failure: {outcome.summary['solver_error']}", file=sys.stderr)
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
