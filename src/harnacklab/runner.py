"""Config-driven experiment driver and command-line interface.

One config file = one reproducible experiment.  The CLI offers

    harnacklab run <config>        solve + requested verification suites
    harnacklab calibrate <config>  fit the tolerance constant C (torus only)
    harnacklab scan <config>       parameter-uniqueness scan only

with exit codes 0 (all gates pass), 1 (gate failure), 2 (config error),
3 (solver failure).  ``--seed`` overrides the config RNG seed, ``--output-dir``
the output directory, and ``--strict`` (not a config key) halves tol_disc.

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
      dt: 5.0e-4                  # must divide t_end - t0 and advance t0
      direction: forward          # forward | backward: labels the clock t or tau
    suites: [harnack_signs, entropy, pathwise]   # any of: harnack_signs,
                                  # evolution_residual, entropy, pathwise, paramscan
    tolerances:
      tol_disc_constant: 150.0    # C in tol_disc = C (h^2 + dt)
      quadrature_tol: 1.0e-4      # Stokes-identity gate, scaled by max(1, t^2 mass)
      pair_count: 100             # pathwise sample size, optional
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

Each section is one field of ``RunConfig``, read by one reader into its
dataclass (``Flow``, ``Tolerances``, ``Output``, ``ScanSpec``), whose fields
hold its keys, defaults and range checks.  A section with a ``kind`` is a
union of dataclasses, the kind naming the member: ``TorusSpec | SphereSpec``
and the three initial-data classes.  An unknown key, a key given twice, a
missing field, a suite listed twice or an empty suite list is a config
error naming it; so is a value of the wrong type, a non-integral integer, a
non-finite number or an out-of-range value, including a manifold the
builders would reject, a clock ``heatflow.step_count`` would and an
``output.directory`` that cannot be made.  Run size is bounded, with
nothing built: 2 to ``Flow.MAX_STEPS`` steps,
``geometry.MAX_NODES`` nodes, ``Tolerances.MAX_PAIRS`` pairs,
``ScanSpec.MAX_POINTS`` scan points and ``RandomSmoothData.MAX_MODES``
random modes ((2 mode_cutoff + 1)^n on a torus, 8 mode_cutoff plane
waves on the sphere).  ``RunConfig``'s own
checks join two sections: evolution_residual (torus only) is rejected on
sphere configs, pathwise on backward configs (the integrated bound is a
statement in t).  On the sphere the entropy suite runs without its
dissipation sub-gates, and dF_formula/dW_formula are blank.  A tol_disc
that overflows to inf is a config error, raised before the flow is stepped.

The direction is a label that only this module reads.  On a static metric
the backward equation df/dt = -Lap f in tau = -t is the forward equation,
so a backward run steps the same flow and reads its clock as tau: the
reports echo the label, and the entropy suite adds the implied
t-derivatives, whose signs flip.

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
functions of ``harnack`` and ``entropy`` bit for bit.  The suites hand
these arrays to their gates (``Gate``), so a NaN or inf at any snapshot
fails its gate, and they skip the one-sided end differences.  The same
pass also takes, from each state, its mass (the entropy suite gates its
largest relative drift, ``mass_drift_rel``), its ``trajectory.csv`` row,
the f-values at the pathwise pairs (drawn before the pass from the
snapshot times, which are known without stepping) and the three states
around the one fine index the ten random residual tuples read.  Each tuple calls ``harnack.evolution_residual`` on those three
states and on the three around half that index on the once-coarsened
flow, which is stepped, in one pass, only through the step after it.

Output files (all byte-deterministic for a fixed config + seed: no
timestamps, shortest round-trip float formatting, LF line endings)
------------------------------------------------------------------
Every CSV is written column by column through one writer: a float column
as repr, taken once per distinct bit pattern of each chunk of rows (so -0.0
and 0.0 keep their own text), any other value as ``_fmt`` gives it
(integers as integers, booleans as 1/0, None as an empty cell).  The scan
writes its table in blocks, one per alpha; a float column that repeats the
previous block bit for bit (beta, b, b_plus_beta) reuses that block's text,
so it is formatted once per scan.

``trajectory_meta.json``
    manifold hash and shape; the solver (``linear_solver`` is the backend's
    direct Crank-Nicolson solver, ``fft`` on a torus and ``band_cholesky``
    on the sphere, and ``rtol`` the relative residual every solve is checked
    against); the tolerance constant in effect and the resulting tol_disc,
    initial mass and relative drift.  ``calibrate`` writes only this file,
    with its fit (error_ratio null where the fine level is exact); its two
    clocks are ``Flow``s, so they have a run's step ceiling.
``diagnostics.csv``
    one row per snapshot, fixed column order::

        time,max_H,argmax_H,max_liyau,F_direct,F_via_H,W_direct,W_via_P,
        dF_fd,dF_formula,dW_fd,dW_formula,residual_maxnorm

    dF_fd/dW_fd are centered in the interior and one-sided at the two end
    rows (ends are excluded from gates); dF_formula/dW_formula are empty on
    the sphere; residual_maxnorm (the canonical H tuple) is filled
    at interior rows when evolution_residual is requested, else empty.
    It reads as the second-order discretization residual only while the
    datum has structure.  Once the flow has flattened it, the column is
    solver roundoff: past t = 0.3 or so on the benchmark's torus2_full
    (T^2 64x64 from t0 = 0.05), solvers that agree to 1e-12 per step give
    values there that differ by up to 30%.
``pathwise.csv``
    x1,x2,t1,t2,gamma,lhs,rhs,slack,pass  -- one row per sampled pair.
``paramscan.csv``
    alpha,beta,b,lam,alpha_minus_beta,b_plus_beta,quarter_square_plus_b,survivor
    -- one row per grid point; lam is empty where alpha = beta.
``summary.json``
    per suite, a ``gates`` map (each gate's name -> value, bound, pass, the
    value also under the gate's name), ``pass`` and ``worst_slack``.  A gate
    passes only when its values and bound are finite and its largest value
    is at most the bound; overall_pass is the AND of every gate.
    worst_slack is the largest value - bound over the ranked gates (H and
    Li-Yau; F, W, dF and dW; the residual tuples' ratio window; the
    pathwise pairs; the ray deviation), and +inf when any gate is not
    finite.  Also the tolerance model actually applied.  Never contains paths.
``trajectory.csv`` (only with output.export_trajectory)
    comment header (# manifold_hash=..., # dt=..., # direction=...), then
    one row per state: time, then all node values.  Rows are written
    during the pass to ``trajectory.csv.part``, which is renamed when the
    pass completes; a solver failure removes it.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
import types
import typing
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from .entropy import SnapshotSeries, entropy_series
from .geometry import ManifoldDescriptor, build_sphere, build_torus, integrate
from .geometry import check_sphere_args, check_torus_args
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
from .heatflow import (
    CN_SOLVE_RTOL,
    FlowState,
    SolverError,
    Trajectory,
    solve,
    step_count,
)
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
from .pathwise import PairValues, SpaceTimePair, check_integrated_harnack, sample_pairs

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


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class TorusSpec:
    kind: typing.ClassVar[str] = "torus"  # the manifold.kind that names this class
    dimension: int
    side_lengths: tuple[float, ...]
    resolution: tuple[int, ...]

    def __post_init__(self):
        # the builder's own argument checks, so a manifold it would reject
        # fails when the config is read, without being built
        check_torus_args(self.dimension, self.side_lengths, self.resolution)

    @property
    def coarse_resolution(self) -> tuple[int, ...]:
        """The once-coarsened grid the evolution_residual suite compares against."""
        return tuple(r // 2 for r in self.resolution)

    def build(self) -> ManifoldDescriptor:
        return build_torus(self.dimension, self.side_lengths, self.resolution)


@dataclass(frozen=True)
class SphereSpec:
    kind: typing.ClassVar[str] = "sphere"
    subdivision: int

    def __post_init__(self):
        check_sphere_args(self.subdivision)

    def build(self) -> ManifoldDescriptor:
        return build_sphere(self.subdivision)


@dataclass(frozen=True)
class Flow:
    MAX_STEPS: typing.ClassVar[int] = 20_000  # the most Crank-Nicolson steps a config may ask for
    t0: float
    t_end: float
    dt: float
    direction: str = "forward"  # a report label: the flow is the same either way

    @property
    def n_steps(self) -> int:
        """The step count ``heatflow.step_count`` gives; it raises on a bad clock."""
        return step_count(self.t0, self.t_end, self.dt)

    def __post_init__(self):
        if self.direction not in ("forward", "backward"):
            raise ValueError(f"direction must be forward or backward, got {self.direction!r}")
        n = self.n_steps
        if not 2 <= n <= self.MAX_STEPS:
            raise ValueError(
                f"dt = {self.dt} makes {n} step{'s' * (n > 1)} from t0 to t_end; "
                f"a run takes 2 to {self.MAX_STEPS}"
            )


@dataclass(frozen=True)
class Tolerances:
    MAX_PAIRS: typing.ClassVar[int] = 100_000  # the most pathwise pairs a config may ask for
    tol_disc_constant: float
    quadrature_tol: float
    rng_seed: int
    pair_count: int = 100
    residual_ratio_window: tuple[float, float] = (3.0, 5.0)

    def __post_init__(self):
        if self.tol_disc_constant <= 0:
            raise ValueError(f"tol_disc_constant must be positive, got {self.tol_disc_constant}")
        if self.quadrature_tol <= 0:
            raise ValueError(f"quadrature_tol must be positive, got {self.quadrature_tol}")
        if not 1 <= self.pair_count <= self.MAX_PAIRS:
            raise ValueError(f"pair_count must be 1 to {self.MAX_PAIRS}, got {self.pair_count}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be nonnegative, got {self.rng_seed}")
        lo, hi = self.residual_ratio_window
        if not lo < hi:
            raise ValueError(f"residual_ratio_window needs lo < hi, got [{lo}, {hi}]")


@dataclass(frozen=True)
class Output:
    directory: str = "out"
    export_trajectory: bool = False


@dataclass(frozen=True)
class RunConfig:
    """One config file: a field per section, named by its key.  The checks
    here are the rules that join two sections."""

    manifold: TorusSpec | SphereSpec
    initial_data: InitialData
    flow: Flow
    suites: tuple[str, ...]
    tolerances: Tolerances
    output: Output = Output()
    # read even when not requested, so a malformed section is never ignored
    paramscan: ScanSpec = ScanSpec()

    def __post_init__(self):
        suites, data = self.suites, self.initial_data
        if not suites:
            raise ValueError("suites is empty: a run with no suite checks nothing")
        for i, s in enumerate(suites):
            if s not in SUITE_NAMES:
                raise ValueError(f"unknown suite {s!r}; valid suites: {', '.join(SUITE_NAMES)}")
            if s in suites[:i]:
                raise ValueError(f"suite {s!r} is listed twice")
        torus = isinstance(self.manifold, TorusSpec)
        if not torus and "evolution_residual" in suites:
            raise ValueError("suite 'evolution_residual' needs the torus backend (Hessian penalty)")
        if self.flow.direction == "backward" and "pathwise" in suites:
            raise ValueError("suite 'pathwise' applies to forward flows only")
        if isinstance(data, TrigPolynomialData):
            if not torus:
                raise ValueError("trig_polynomial initial data is only defined on tori")
            if any(len(mode.index) != self.manifold.dimension for mode in data.modes):
                raise ValueError("initial_data.modes: each index needs one entry per torus axis")
        if isinstance(data, RandomSmoothData):
            modes = data.mode_count(self.manifold.dimension if torus else None)
            if modes > RandomSmoothData.MAX_MODES:
                raise ValueError(
                    f"initial_data.mode_cutoff = {data.mode_cutoff} makes {modes} modes; "
                    f"at most {RandomSmoothData.MAX_MODES} are allowed"
                )
        if "evolution_residual" in suites:
            spec = self.manifold
            try:
                check_torus_args(spec.dimension, spec.side_lengths, spec.coarse_resolution)
            except ValueError as exc:
                raise ValueError(f"suite 'evolution_residual' halves the grid: {exc}") from None
            if self.flow.n_steps % 2 != 0 or self.flow.n_steps < 4:
                raise ValueError(
                    "suite 'evolution_residual' needs an even step count of at least 4"
                )


def discretization_tolerance(m: ManifoldDescriptor, c: float, dt: float) -> float:
    """tol_disc = C (h^2 + dt), the declared discrete form of the continuum
    sign statements; a ConfigError unless it is finite, since every gate
    passes under an infinite bound."""
    h = m.mesh_scale
    tol_disc = c * (h * h + dt)
    if not np.isfinite(tol_disc):
        raise ConfigError(f"tol_disc is not finite: tol_disc_constant {c} at mesh scale {h}")
    return tol_disc


# ---------------------------------------------------------------------------
# config parsing


class _UniqueKeyLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that rejects a key given twice in one mapping,
    where ``yaml.safe_load`` would keep the last value."""

    def construct_mapping(self, node, deep=False):
        seen = []  # a list, so an unhashable key reaches the base loader's own error
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue  # merged keys may be overridden; the loader flattens them
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"found duplicate key {key!r}", key_node.start_mark
                )
            seen.append(key)
        return super().construct_mapping(node, deep=deep)


def _convert(tp, value, context: str):
    """``value`` as the annotated type ``tp``, or a ConfigError naming ``context``."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if is_dataclass(tp) or origin in (typing.Union, types.UnionType):
        return _read(tp, value, context)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{context} must be a list, got {value!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        if len(value) != len(args):
            raise ConfigError(f"{context} must be a list of {len(args)}, got {value!r}")
        return tuple(_convert(a, v, context) for a, v in zip(args, value))
    if tp is float or tp is int:
        # YAML 1.1 reads an exponent without a dot (1e-4) as a string, so a
        # numeric string is a number; a boolean or a non-finite value is not
        try:
            x = float(value)
        except (TypeError, ValueError, OverflowError):
            x = np.nan
        if isinstance(value, bool) or not np.isfinite(x):
            raise ConfigError(f"{context} must be a finite number, got {value!r}")
        if tp is float:
            return x
        if not x.is_integer():
            raise ConfigError(f"{context} must be an integer, got {value!r}")
        return value if isinstance(value, int) else int(x)
    # a str or a bool
    if not isinstance(value, tp):
        raise ConfigError(f"{context} must be a {tp.__name__}, got {value!r}")
    return value


def _read(cls, mapping, context: str):
    """The frozen dataclass ``cls`` read from a config mapping.

    For a union of dataclasses, the section's ``kind`` picks the member
    whose ``kind`` it is.  The keys are the fields of ``cls``: any other key
    is rejected (so a misspelled optional key cannot fall back to its
    default), and one without a default is required.  Each value is
    converted by its annotation; a value the class's own checks refuse is a
    ConfigError naming ``context`` too.
    """
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be a mapping, got {mapping!r}")
    if not is_dataclass(cls):
        by_kind = {member.kind: member for member in typing.get_args(cls)}
        if "kind" not in mapping:
            raise ConfigError(f"missing field 'kind' in {context}")
        kind = mapping["kind"]
        if not isinstance(kind, str) or kind not in by_kind:
            raise ConfigError(f"{context}.kind must be one of {', '.join(by_kind)}, got {kind!r}")
        cls, mapping = by_kind[kind], {k: v for k, v in mapping.items() if k != "kind"}
    names = [f.name for f in fields(cls)]
    for key in mapping:
        if key not in names:
            raise ConfigError(f"unknown key {key!r} in {context}; valid keys: {', '.join(names)}")
    for f in fields(cls):
        if f.default is MISSING and f.name not in mapping:
            raise ConfigError(f"missing field '{f.name}' in {context}")
    hints = typing.get_type_hints(cls)
    prefix = "" if cls is RunConfig else f"{context}."  # a section is named by its key
    values = {k: _convert(hints[k], v, prefix + k) for k, v in mapping.items()}
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from None


def parse_config_text(text: str) -> RunConfig:
    try:
        raw = yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    return _read(RunConfig, raw, "config")


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


# cells per write of the CSV column writer: 1024 rows of the scan's 8
# columns, 630 of the 13 diagnostics columns
_CSV_CHUNK_CELLS = 8192


def _column_text(part, blank=None):
    """The ``_fmt`` text of each value of one column, or of a chunk of its
    rows, formatted in one pass for arrays: for a 1-D float part, repr of
    each distinct bit pattern once (-0.0 and 0.0 differ), gathered to every
    entry holding it, and blank where the boolean part ``blank`` is True; a
    2-D float part gives each row's reprs joined by commas; 1/0 for
    booleans.  A None column and a None value are blank."""
    if part is None:
        return itertools.repeat("")
    if isinstance(part, np.ndarray) and part.dtype == float:
        if part.ndim == 2:
            return [",".join(map(repr, row)) for row in part.tolist()]
        bits, index = np.unique(part.view(np.int64), return_inverse=True)
        text = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)[index]
        if blank is not None:
            text[blank] = ""
        return text.tolist()
    if isinstance(part, np.ndarray) and part.dtype == bool:
        return np.where(part, "1", "0").tolist()
    return map(_fmt, part.tolist() if isinstance(part, np.ndarray) else part)


def _repeated_text(columns, blank, kept) -> dict:
    """The text of each 1-D float column without blanks that repeats the
    previous block's column bit for bit, by column index.  ``kept`` carries,
    from block to block, each such column's bits (its ``int64`` view, so
    -0.0 and 0.0 differ, and so do two NaN payloads) and, once the column
    has repeated, its text."""
    text = {}
    for k, col in enumerate(columns):
        if k in blank or not (isinstance(col, np.ndarray) and col.dtype == float and col.ndim == 1):
            continue
        bits = col.view(np.int64)
        last_bits, last_text = kept.get(k, (None, None))
        if last_bits is None or not np.array_equal(bits, last_bits):
            kept[k] = (bits.copy(), None)
            continue
        text[k] = _column_text(col) if last_text is None else last_text
        kept[k] = (last_bits, text[k])
    return text


def _write_columns(fp, columns, blank=None, kept=None) -> None:
    """Write one CSV row per index of the equal-length ``columns`` (arrays,
    sequences or None), joining as many rows at a time as fit in
    _CSV_CHUNK_CELLS cells (at least one), so the text of a long or wide
    table is never held at once; a 2-D part counts its width, any other
    column one cell a row.  ``blank`` maps the index of a 1-D float column
    to a boolean array of its length: its True entries are written as blank
    cells.

    A table written in blocks passes one ``kept`` dict with every block.  A
    1-D float column without blanks that repeats the previous block's bits
    is then formatted once, for its whole block, and that text is reused
    while the column keeps repeating (:func:`_repeated_text`).  Every other
    column is formatted chunk by chunk and holds no text."""
    blank = blank or {}
    whole = {} if kept is None else _repeated_text(columns, blank, kept)
    n = max(len(col) for col in columns if col is not None)
    width = sum(
        col.shape[1] if isinstance(col, np.ndarray) and col.ndim == 2 else 1 for col in columns
    )
    rows = max(1, _CSV_CHUNK_CELLS // width)
    for lo in range(0, n, rows):
        hi = lo + rows
        cells = [
            whole[k][lo:hi] if k in whole else _column_text(
                None if col is None else col[lo:hi], blank[k][lo:hi] if k in blank else None
            )
            for k, col in enumerate(columns)
        ]
        fp.write("\n".join(map(",".join, zip(*cells))) + "\n")
        del cells  # released before the next chunk is formatted


def _open_csv(path: Path, header):
    """``path`` opened for writing, with the header row written."""
    fp = open(path, "w", newline="")
    fp.write(",".join(header) + "\n")
    return fp


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fp:
        json.dump(obj, fp, sort_keys=True, indent=2)
        fp.write("\n")


def _manifold_echo(spec: TorusSpec | SphereSpec) -> dict:
    """The manifold as reports give it: its kind and all four size keys,
    None where the kind has no such key."""
    sizes = dict.fromkeys(("dimension", "side_lengths", "resolution", "subdivision"))
    return {"kind": spec.kind, **sizes, **asdict(spec)}


def manifold_hash(spec: TorusSpec | SphereSpec) -> str:
    # imported here, its only use: hashlib loads OpenSSL (about 3.7 MB of
    # peak RSS), which a scan never needs
    import hashlib

    blob = json.dumps(_manifold_echo(spec), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _config_echo(config: RunConfig, strict: bool) -> dict:
    return {
        "manifold": _manifold_echo(config.manifold),
        "initial_data": {"kind": config.initial_data.kind, **asdict(config.initial_data)},
        "flow": asdict(config.flow),
        "suites": list(config.suites),
        "tolerances": asdict(config.tolerances),
        "strict": strict,
    }


# ---------------------------------------------------------------------------
# suites


@dataclass(frozen=True, eq=False)
class Gate:
    """One check of a suite: ``values`` (a number or an array) against
    ``bound``.  ``name`` is the summary.json key that reports the largest
    value.  Gates compare by identity, as their values may be arrays."""

    name: str
    values: typing.Any
    bound: float


def _verdict(ranked: list[Gate], unranked: list[Gate]) -> dict:
    """A suite's report from its gates: each gate's largest value under its
    name, and in ``gates`` with its bound and pass.  A gate passes only when
    every value and the bound are finite and the largest value is at most
    the bound; ``pass`` is the AND of the gates.  ``worst_slack`` is the
    largest value - bound over the ``ranked`` gates, +inf when any gate's
    values or bound are not finite."""
    report, table, slacks = {}, {}, []
    for gate in ranked + unranked:
        value, bound = float(np.max(gate.values)), float(gate.bound)
        finite = bool(np.all(np.isfinite(gate.values)) and np.isfinite(bound))
        report[gate.name] = value
        table[gate.name] = {"value": value, "bound": bound, "pass": finite and value <= bound}
        if not finite:
            slacks.append(np.inf)
        elif gate in ranked:
            slacks.append(value - bound)
    report["pass"] = all(entry["pass"] for entry in table.values())
    report["worst_slack"] = max(slacks)
    report["gates"] = table
    return report


def _suite_harnack_signs(series: SnapshotSeries, tol_disc: float) -> dict:
    identity_tol = 1e-9
    report = _verdict(
        [
            Gate("worst_max_H", series.max_H, tol_disc),
            Gate("worst_max_liyau", series.max_liyau, tol_disc),
        ],
        [Gate("p_vs_h_max_abs_diff", series.P_vs_H_gap, identity_tol)],
    )
    # P == H pointwise; the identity gap is gated
    report.update(tol=tol_disc, worst_max_P=report["worst_max_H"], p_vs_h_identity_tol=identity_tol)
    return report


def _draw_residual_params(seed: int) -> list[HarnackParams]:
    """The ten random tuples of the residual suite: 5 per variant, alpha > beta."""
    rng = np.random.default_rng(seed + 1)
    tuples = []
    for variant in (Variant.U, Variant.V):
        for _ in range(5):
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


def _residual_index(n_states: int) -> int:
    """The even fine snapshot index the random residual tuples compare at (half
    of it is the same time on the once-coarsened flow), early in the run while
    the datum still has structure: heat flow flattens everything on the
    diffusive time scale, after which residuals are roundoff scraps."""
    fine_idx = int(round(0.05 * (n_states - 1)))
    fine_idx -= fine_idx % 2
    return max(2, min(fine_idx, n_states - 3 - (n_states - 3) % 2))


def _suite_evolution_residual(
    config: RunConfig, window: list[FlowState], series: SnapshotSeries
) -> dict:
    # the canonical H tuple's residual at every interior snapshot comes from
    # the snapshot pass (it is the diagnostics column); random tuples get a
    # two-level convergence check at _residual_index, read on the fine flow
    # from ``window``, its three states around the fine index, and on the
    # once-coarsened flow around half that index, stepped only that far
    coarse_idx = _residual_index(len(series.time)) // 2
    spec = config.manifold
    m = build_torus(spec.dimension, spec.side_lengths, spec.coarse_resolution)
    f0 = build_initial_field(config.initial_data, m)
    dt = 2.0 * config.flow.dt
    coarse_traj = solve(m, f0, config.flow.t0, config.flow.t_end, dt)
    coarse = list(itertools.islice(coarse_traj, coarse_idx - 1, coarse_idx + 2))
    lo, hi = config.tolerances.residual_ratio_window

    tuples = _draw_residual_params(config.tolerances.rng_seed)
    rows = []
    slacks = []
    for p in tuples:
        r_fine = evolution_residual(window, config.flow.dt, p)
        r_coarse = evolution_residual(coarse, dt, p)
        ratio = r_coarse / r_fine if r_fine > 0 else np.inf
        slack = max(lo - ratio, ratio - hi)  # <= 0 inside the window
        slacks.append(slack)
        rows.append(
            {
                **asdict(p),
                "variant": p.variant.value,
                "residual_fine": r_fine,
                "residual_coarse": r_coarse,
                "ratio": ratio,
                "pass": bool(slack <= 0),
            }
        )
    # the canonical residual at the interior snapshots need only be finite
    report = _verdict(
        [Gate("worst_ratio_slack", slacks, 0.0)],
        [Gate("canonical_max_residual", series.residual, sys.float_info.max)],
    )
    report.update(ratio_window=[lo, hi], comparison_time=window[1].time, tuples=rows)
    return report


def _suite_entropy(
    config: RunConfig,
    traj: Trajectory,
    tol_disc: float,
    mass: float,
    mass_drift: float,
    series: SnapshotSeries,
) -> dict:
    m = traj.manifold
    scale = max(1.0, abs(mass))
    tol_value = tol_disc * scale
    identity_tol = 1e-11 * scale

    # the one-sided end differences dF_fd[0], dF_fd[-1] are not gated
    f_direct, w_direct = series.F_direct, series.W_direct
    df_fd, dw_fd = series.dF_fd[1:-1], series.dW_fd[1:-1]
    gaps = np.maximum(np.abs(f_direct - series.F_via_H), np.abs(w_direct - series.W_via_P))
    s_tols = config.tolerances.quadrature_tol * np.maximum(1.0, series.time * series.time * scale)
    # each snapshot's Stokes slack, floored at 0; NaN where its tolerance is not finite
    stokes = np.where(np.isfinite(s_tols), np.maximum(0.0, gaps - s_tols), np.nan)
    ranked = [
        Gate("worst_F_direct", f_direct, tol_value),
        Gate("worst_W_direct", w_direct, tol_value),
        Gate("worst_dF_fd_centered", df_fd, tol_value),
        Gate("worst_dW_fd_centered", dw_fd, tol_value),
    ]
    unranked = [
        Gate("stokes_worst_slack", stokes, 0.0),
        Gate("w_equals_f_max_gap", np.abs(w_direct - f_direct), identity_tol),
        # each step may move the mass by a few roundoffs of itself, no more
        Gate("mass_drift_rel", mass_drift, 4.0 * sys.float_info.epsilon * traj.n_steps),
    ]
    facts = {"tol_value": tol_value, "w_equals_f_tol": identity_tol}
    if m.has_hessian:
        h, dt = m.mesh_scale, traj.step_size
        facts["xcheck_tol"] = config.tolerances.tol_disc_constant * (dt * dt + h * h) * scale
        df_formula, dw_formula = series.dF_formula, series.dW_formula
        xcheck = (np.abs(df_fd - df_formula[1:-1]), np.abs(dw_fd - dw_formula[1:-1]))
        diss_identity = np.abs(df_formula - dw_formula)
        unranked += [
            Gate("dissipation_max", (df_formula, dw_formula), 1e-12 * scale),
            Gate("xcheck_worst_gap", xcheck, facts["xcheck_tol"]),
            Gate("dissipation_F_vs_W_gap", diss_identity, identity_tol),
        ]
    report = _verdict(ranked, unranked)
    report.update(facts)
    if config.flow.direction == "backward":
        # series are in tau; the implied t-derivatives flip sign
        report["implied_dF_dt_min"] = -report["worst_dF_fd_centered"]
        report["implied_dW_dt_min"] = -report["worst_dW_fd_centered"]
        report["implied_dF_dt_gate"] = -tol_value
    return report


def _suite_pathwise(
    config: RunConfig,
    traj: Trajectory,
    tol_disc: float,
    pairs: list[SpaceTimePair],
    values: PairValues,
) -> tuple[dict, list]:
    reports = check_integrated_harnack(traj, pairs, tol=tol_disc, values=values)
    report = _verdict([Gate("worst_raw_slack", [r.slack for r in reports], tol_disc)], [])
    report.update(tol=tol_disc, pair_count=len(reports), seed=config.tolerances.rng_seed)
    return report, reports


def _suite_paramscan(config: RunConfig, out_dir: Path) -> dict:
    path = out_dir / "paramscan.csv"
    header = (
        "alpha", "beta", "b", "lam",
        "alpha_minus_beta", "b_plus_beta", "quarter_square_plus_b", "survivor",
    )
    # beta, b and b_plus_beta repeat in every alpha block: formatted once
    kept = {}
    with _open_csv(path, header) as fp:

        def sink(block: dict) -> None:
            # an alpha = beta point has no lam (NaN): a blank cell
            lam_blank = {header.index("lam"): np.isnan(block["lam"])}
            _write_columns(fp, [block[name] for name in header], blank=lam_blank, kept=kept)

        result = case_one_uniqueness_scan(config.paramscan, on_block=sink)

    ni = classify(NI_PARAMS)
    named_ok = (
        ni.named_match is NamedMatch.NI
        and ni.case_tag is CaseTag.CASE_ONE
        and classify(CAO_HAMILTON_H_PARAMS).named_match is NamedMatch.CAO_HAMILTON_H
        and classify(LI_YAU_PARAMS).named_match is NamedMatch.LI_YAU
    )
    n_survivors = int(result.survivors.shape[0])
    report = _verdict(
        [Gate("max_ray_deviation", result.max_ray_deviation, config.paramscan.step + 1e-12)],
        [
            Gate("no_survivors", float(n_survivors == 0), 0.0),
            Gate("named_tuples_unrecognized", float(not named_ok), 0.0),
        ],
    )
    report.update(
        step=config.paramscan.step,
        constraint_slack=result.tolerance,
        n_points=result.n_points,
        n_survivors=n_survivors,
        n_alpha_eq_beta_excluded=result.n_alpha_eq_beta,
        n_boundary_survivors=result.n_boundary,
        named_tuples_recognized=bool(named_ok),
    )
    return report


# ---------------------------------------------------------------------------
# run / calibrate


@dataclass
class RunOutcome:
    exit_code: int
    summary: dict
    output_dir: Path


def _output_dir(config: RunConfig) -> Path:
    """output.directory, made if missing; a ConfigError naming it when it cannot be."""
    out_dir = Path(config.output.directory)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        return out_dir
    except OSError as exc:
        raise ConfigError(f"output.directory cannot be made: {exc}") from None


def run_config(config: RunConfig, strict: bool = False) -> RunOutcome:
    """Solve the flow and run the requested suites; ``strict`` halves tol_disc."""
    out_dir = _output_dir(config)

    m = config.manifold.build()
    f0 = build_initial_field(config.initial_data, m)
    flow = config.flow
    tol_disc = discretization_tolerance(m, config.tolerances.tol_disc_constant, flow.dt)
    if strict:
        tol_disc *= 0.5

    traj = solve(m, f0, flow.t0, flow.t_end, flow.dt)
    # entropy_series steps the fine flow in one pass, and the reports take
    # what else they need from each state on the way, so no list of states
    # is ever held: its mass, the three states around the residual tuples'
    # fine index, the f-values at the pathwise pairs (drawn up front from
    # the snapshot times) and its trajectory.csv row
    with_residual = "evolution_residual" in config.suites
    fine_idx = _residual_index(len(traj))
    pairs = pair_values = None
    if "pathwise" in config.suites:
        pairs = sample_pairs(traj, config.tolerances.pair_count, config.tolerances.rng_seed)
        pair_values = PairValues(traj, pairs)
    masses = np.empty(len(traj))
    window: list[FlowState] = []
    try:
        with _trajectory_csv(out_dir / "trajectory.csv", config, traj) as export:

            def take(k: int, state: FlowState) -> None:
                masses[k] = integrate(state.f)
                if with_residual and abs(k - fine_idx) <= 1:
                    window.append(state)
                if pair_values is not None:
                    pair_values.take(k, state)
                if export is not None:
                    _write_columns(export, [[state.time], state.f.values[None, :]])

            series = entropy_series(traj, with_residual=with_residual, on_state=take)
    except SolverError as exc:
        return _finish(out_dir, config, strict, solver_error=str(exc))

    mass0 = float(masses[0])
    mass_drift = float(np.max(np.abs(masses - mass0)) / max(1e-300, abs(mass0)))

    suites: dict[str, dict] = {}
    if "harnack_signs" in config.suites:
        suites["harnack_signs"] = _suite_harnack_signs(series, tol_disc)
    if "entropy" in config.suites:
        suites["entropy"] = _suite_entropy(config, traj, tol_disc, mass0, mass_drift, series)
    if with_residual:
        suites["evolution_residual"] = _suite_evolution_residual(config, window, series)

    pair_reports = None
    if pairs is not None:
        pw_summary, pair_reports = _suite_pathwise(config, traj, tol_disc, pairs, pair_values)
        suites["pathwise"] = pw_summary

    if "paramscan" in config.suites:
        suites["paramscan"] = _suite_paramscan(config, out_dir)

    # ---- reports
    # residual_maxnorm is blank at the two end rows
    residual = None if series.residual is None else [None, *series.residual.tolist(), None]
    with _open_csv(out_dir / "diagnostics.csv", DIAGNOSTIC_COLUMNS) as fp:
        _write_columns(fp, [getattr(series, name) for name in DIAGNOSTIC_COLUMNS[:-1]] + [residual])

    if pair_reports is not None:
        header = ("x1", "x2", "t1", "t2", "gamma", "lhs", "rhs", "slack", "pass")
        rows = [
            (r.pair.x1, r.pair.x2, r.pair.t1, r.pair.t2, r.gamma, r.lhs, r.rhs, r.slack, r.passed)
            for r in pair_reports
        ]
        with _open_csv(out_dir / "pathwise.csv", header) as fp:
            _write_columns(fp, list(zip(*rows)))

    meta = {
        "manifold_hash": manifold_hash(config.manifold),
        "manifold": _manifold_echo(config.manifold),
        "direction": flow.direction,
        "t0": flow.t0,
        "t_end": flow.t_end,
        "dt": flow.dt,
        "n_states": len(traj),
        "mesh_scale": m.mesh_scale,
        "node_count": m.node_count,
        "total_volume": m.total_volume,
        "tol_disc_constant": config.tolerances.tol_disc_constant,
        "tol_disc": tol_disc,
        "strict": strict,
        "mass_initial": mass0,
        "mass_drift_rel": mass_drift,
        "solver": {
            "scheme": "crank_nicolson",
            "linear_solver": m.linear_solver,
            "rtol": CN_SOLVE_RTOL,
        },
    }
    _write_json(out_dir / "trajectory_meta.json", meta)

    return _finish(
        out_dir, config, strict, suites=suites, suites_requested=list(config.suites),
        tol_disc=tol_disc, mass_drift_rel=mass_drift,
    )


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
        "config": _config_echo(config, strict),
    }
    _write_json(out_dir / "summary.json", summary)
    return RunOutcome(exit_code, summary, out_dir)


@contextlib.contextmanager
def _trajectory_csv(path: Path, config: RunConfig, traj: Trajectory):
    """trajectory.csv, its comment header written, open for one row per
    state (time, then the node values); None without export_trajectory.
    The rows go to a side file that becomes ``path`` only when the block
    completes, so a pass that fails leaves no partial export."""
    if not config.output.export_trajectory:
        yield None
        return
    part = path.with_name(path.name + ".part")
    try:
        with open(part, "w", newline="") as fp:
            fp.write(f"# manifold_hash={manifold_hash(config.manifold)}\n")
            fp.write(f"# dt={_fmt(traj.step_size)}\n")
            fp.write(f"# direction={config.flow.direction}\n")
            yield fp
        part.replace(path)
    finally:
        part.unlink(missing_ok=True)


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
        "manifold_hash": manifold_hash(spec),
        "calibrated_C": max(max(fits), C_FLOOR),
        "fits": fits,
        "max_errors": errors,
        # JSON has no inf: an exact fine level (constant data) has no ratio
        "error_ratio": errors[0] / errors[1] if errors[1] > 0 else None,
        "resolutions": [max(m.resolution) for m, _ in levels],
        "c_floor": C_FLOOR,
    }


def run_calibrate(config: RunConfig) -> RunOutcome:
    out_dir = _output_dir(config)
    meta = calibrate_tolerance(config)
    _write_json(out_dir / "trajectory_meta.json", meta)
    return RunOutcome(EXIT_PASS, meta, out_dir)


def run_scan(config: RunConfig) -> RunOutcome:
    if "paramscan" not in config.suites:
        raise ConfigError("scan command needs 'paramscan' among the requested suites")
    out_dir = _output_dir(config)
    return _finish(out_dir, config, False, suites={"paramscan": _suite_paramscan(config, out_dir)})


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
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE

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
