"""The run configuration: one YAML file, read into one ``RunConfig``.

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
      directory: out              # non-empty
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
builders would reject, a clock ``heatflow.step_count`` would and an empty
``output.directory``; and so is, from ``runner.main``, an
``output.directory`` or report file that cannot be made or written.  Run
size is bounded, with nothing built: 2 to ``Flow.MAX_STEPS`` steps,
``geometry.MAX_NODES`` nodes, ``Tolerances.MAX_PAIRS`` pairs,
``ScanSpec.MAX_POINTS`` scan points and ``RandomSmoothData.MAX_MODES``
random modes.  ``RunConfig``'s own checks join two sections: the initial
data must fit the manifold (``initialdata.check_initial_data``, which
``build_initial_field`` makes too), evolution_residual (torus only) is
rejected on sphere configs, pathwise on backward configs (the integrated
bound is a statement in t).  On the sphere the entropy suite runs without its
dissipation sub-gates, and dF_formula/dW_formula are blank.  A tol_disc
that overflows to inf is a config error, raised before the flow is stepped.

The direction is a label.  On a static metric the backward equation
df/dt = -Lap f in tau = -t is the forward equation, so a backward run steps
the same flow and reads its clock as tau: the reports echo the label, and
the entropy suite adds the implied t-derivatives, whose signs flip.
"""

from __future__ import annotations

import types
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np
import yaml

from .geometry import check_sphere_args, check_torus_args
from .heatflow import step_count
from .initialdata import InitialData, check_initial_data
from .paramspace import ScanSpec

SUITE_NAMES = ("harnack_signs", "evolution_residual", "entropy", "pathwise", "paramscan")


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


@dataclass(frozen=True)
class SphereSpec:
    kind: typing.ClassVar[str] = "sphere"
    subdivision: int

    def __post_init__(self):
        check_sphere_args(self.subdivision)


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

    def __post_init__(self):
        if not self.directory:
            raise ValueError("output.directory must be non-empty: '' is the current directory")


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
        check_initial_data(data, self.manifold.dimension if torus else None)
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
