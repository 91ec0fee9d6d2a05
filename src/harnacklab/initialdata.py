"""Initial data constructors.

All builders produce fields with min f >= floor > 0 by construction, so
admissibility never needs rejection sampling.  Every builder is a closed
form in the node coordinates (random ones are closed forms once their
seeded coefficients are drawn), so the same datum can be resampled on a
refined or coarsened mesh of the same manifold, which the convergence
checks rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .geometry import FlatTorus, ManifoldDescriptor, ScalarField


def _check_bound(bound: float) -> None:
    """ValueError unless the datum's closed-form sup bound (floor plus twice
    its amplitudes) is finite, so no value or partial sum overflows."""
    if not np.isfinite(bound):
        raise ValueError(f"floor + 2 * amplitudes is {bound}: the datum's values must be finite")


@dataclass(frozen=True)
class ConstantData:
    kind: ClassVar[str] = "constant"  # the initial_data.kind that names this class
    value: float

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError(f"constant initial data must be positive, got {self.value}")


@dataclass(frozen=True)
class TrigMode:
    """One raised-cosine mode: amplitude * (1 + cos(2 pi index . x / L + phase))."""

    index: tuple[int, ...]
    amplitude: float
    phase: float = 0.0

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("mode amplitudes must be nonnegative (keeps the floor a floor)")


@dataclass(frozen=True)
class TrigPolynomialData:
    """floor + sum of raised-cosine modes; min f >= floor since each mode is >= 0."""

    kind: ClassVar[str] = "trig_polynomial"
    floor: float
    modes: tuple[TrigMode, ...]

    def __post_init__(self):
        if self.floor <= 0:
            raise ValueError(f"floor must be positive, got {self.floor}")
        _check_bound(self.floor + 2.0 * sum(mode.amplitude for mode in self.modes))


@dataclass(frozen=True)
class RandomSmoothData:
    """floor + amplitude * (1 + ghat)/2 with ghat a seeded band-limited field in [-1, 1].

    ghat is a random trigonometric sum normalized by the closed-form bound
    sum |coefficients|, so the value range is grid-independent.  A config
    may ask for at most MAX_MODES modes (see :meth:`mode_count`).
    """

    kind: ClassVar[str] = "random_smooth"
    MAX_MODES: ClassVar[int] = 10_000

    seed: int
    mode_cutoff: int
    amplitude: float
    floor: float

    def __post_init__(self):
        if self.floor <= 0:
            raise ValueError(f"floor must be positive, got {self.floor}")
        if self.amplitude < 0:
            raise ValueError(f"amplitude must be nonnegative, got {self.amplitude}")
        if self.mode_cutoff < 1:
            raise ValueError(f"mode cutoff must be >= 1, got {self.mode_cutoff}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        _check_bound(self.floor + 2.0 * self.amplitude)  # bounds amplitude (1 + ghat) too

    def mode_count(self, torus_dimension: int | None) -> int:
        """The modes the datum sums: (2 cutoff + 1)^n on T^n (the zero mode
        included), 8 cutoff plane waves on the sphere (``None``)."""
        if torus_dimension is None:
            return 8 * self.mode_cutoff
        return (2 * self.mode_cutoff + 1) ** torus_dimension


InitialData = ConstantData | TrigPolynomialData | RandomSmoothData


def check_initial_data(data: InitialData, torus_dimension: int | None) -> None:
    """Raise ValueError unless :func:`build_initial_field` accepts ``data`` on
    a torus of ``torus_dimension`` axes, or on the sphere (``None``)."""
    if isinstance(data, TrigPolynomialData):
        if torus_dimension is None:
            raise ValueError("trig_polynomial initial data is only defined on tori")
        if any(len(mode.index) != torus_dimension for mode in data.modes):
            raise ValueError("initial_data.modes: each index needs one entry per torus axis")
    if isinstance(data, RandomSmoothData):
        modes = data.mode_count(torus_dimension)
        if modes > RandomSmoothData.MAX_MODES:
            raise ValueError(
                f"initial_data.mode_cutoff = {data.mode_cutoff} makes {modes} modes; "
                f"at most {RandomSmoothData.MAX_MODES} are allowed"
            )


def _wave_vector(m: FlatTorus, index) -> np.ndarray:
    """k = 2 pi index / L, the wave vector of Fourier mode ``index`` on ``m``."""
    return 2.0 * np.pi * np.asarray(index, dtype=float) / np.asarray(m.side_lengths)


def _torus_mode_field(m: FlatTorus, index, phase: float) -> np.ndarray:
    return np.cos(m.positions @ _wave_vector(m, index) + phase)


def _build_trig(m: FlatTorus, data: TrigPolynomialData) -> np.ndarray:
    values = np.full(m.node_count, data.floor)
    for mode in data.modes:
        values += mode.amplitude * (1.0 + _torus_mode_field(m, mode.index, mode.phase))
    return values


def _random_smooth_torus(m: FlatTorus, data: RandomSmoothData) -> np.ndarray:
    rng = np.random.default_rng(data.seed)
    cutoff = data.mode_cutoff
    ghat = np.zeros(m.node_count)
    total = 0.0
    for raw in np.ndindex(*[2 * cutoff + 1] * m.dimension):
        index = tuple(r - cutoff for r in raw)
        if all(i == 0 for i in index):
            continue
        decay = 1.0 + float(np.dot(index, index))
        coeff = rng.standard_normal() / decay
        phase = rng.uniform(0.0, 2.0 * np.pi)
        ghat += coeff * _torus_mode_field(m, index, phase)
        total += abs(coeff)
    return ghat / total


def _random_smooth_sphere(m: ManifoldDescriptor, data: RandomSmoothData) -> np.ndarray:
    # superposition of plane waves restricted to the sphere: smooth, with the
    # same closed-form sup bound as the torus construction
    rng = np.random.default_rng(data.seed)
    n_waves = data.mode_count(None)
    ghat = np.zeros(m.node_count)
    total = 0.0
    for _ in range(n_waves):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        freq = rng.uniform(0.5, float(data.mode_cutoff))
        coeff = rng.standard_normal() / (1.0 + freq * freq)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        ghat += coeff * np.cos(freq * (m.positions @ direction) + phase)
        total += abs(coeff)
    return ghat / total


def build_initial_field(data: InitialData, m: ManifoldDescriptor) -> ScalarField:
    check_initial_data(data, m.dimension if isinstance(m, FlatTorus) else None)
    if isinstance(data, ConstantData):
        values = np.full(m.node_count, data.value)
    elif isinstance(data, TrigPolynomialData):
        values = _build_trig(m, data)
    elif isinstance(data, RandomSmoothData):
        random_smooth = _random_smooth_torus if isinstance(m, FlatTorus) else _random_smooth_sphere
        values = data.floor + data.amplitude * (1.0 + random_smooth(m, data)) / 2.0
    else:
        raise TypeError(f"unknown initial data spec {type(data).__name__}")
    return ScalarField(values, m)


# ---------------------------------------------------------------------------
# closed forms used by calibration and the equality-case checks


def wrapped_gaussian(m: FlatTorus, center: tuple[float, ...], heat_time: float) -> ScalarField:
    """The heat-kernel profile (4 pi t)^{-n/2} exp(-d^2 / 4t) on a torus.

    d is the minimum-image distance to ``center``.  Images beyond the
    nearest underflow to zero at desk scales, so the nearest image plus a
    floor of 1e-120 (which keeps the far tail representable and the state
    strictly positive) is the periodization in double precision.
    """
    if not isinstance(m, FlatTorus):
        raise ValueError("wrapped Gaussian data is only defined on tori")
    if heat_time <= 0:
        raise ValueError(f"heat_time must be positive, got {heat_time}")
    dist_sq = wrapped_distance_sq(m, center)
    norm = (4.0 * np.pi * heat_time) ** (-m.dimension / 2.0)
    return ScalarField(norm * np.exp(-dist_sq / (4.0 * heat_time)) + 1e-120, m)


def wrapped_distance_sq(m: FlatTorus, center: tuple[float, ...]) -> np.ndarray:
    """Squared minimum-image distance to ``center`` at every node (torus)."""
    delta = m.minimum_image(m.positions - np.asarray(center, dtype=float))
    return np.sum(delta * delta, axis=1)


@dataclass(frozen=True)
class SingleModeSolution:
    """Exact solution floor + amp (1 + e^{-mu (t-t0)} cos(k.x + phase)) on a torus.

    The raised-cosine datum of ``TrigMode`` splits into a constant and one
    Fourier mode, so it evolves in closed form; mu = |k|^2.
    """

    manifold: FlatTorus
    mode: TrigMode
    floor: float
    t0: float

    def initial_data(self) -> TrigPolynomialData:
        return TrigPolynomialData(floor=self.floor, modes=(self.mode,))

    def quantity_H_at(self, t: float) -> np.ndarray:
        """Exact H = -2 Lap f / f + |grad f|^2 / f^2 - 2n/t for the closed form."""
        m = self.manifold
        k = _wave_vector(m, self.mode.index)
        mu = float(np.dot(k, k))
        amp = self.mode.amplitude * np.exp(-mu * (t - self.t0))
        theta = m.positions @ k + self.mode.phase
        f = self.floor + self.mode.amplitude + amp * np.cos(theta)
        lap_f = -mu * amp * np.cos(theta)
        grad_sq = mu * (amp * np.sin(theta)) ** 2
        return -2.0 * lap_f / f + grad_sq / (f * f) - 2.0 * m.dimension / t
