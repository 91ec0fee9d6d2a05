"""Integrated Harnack inequality over sampled space-time point pairs.

For points (x1, t1), (x2, t2) with t2 > t1 > 0 the bound is

    f(x1, t1) <= f(x2, t2) (t2/t1)^n exp(Gamma/2),

where Gamma is the infimum of integral |path velocity|^2 dt over space-time
paths joining the points.  On our manifolds that infimum is exact in closed
form: the energy minimizer among paths with fixed endpoints and a fixed
time interval is the constant-speed geodesic (by Cauchy-Schwarz,
(integral |gamma'| dt)^2 <= (t2-t1) integral |gamma'|^2 dt with equality at
constant speed, and the length is at least the geodesic distance), so
Gamma = d(x1, x2)^2 / (t2 - t1).  The check is evaluated in log form to
avoid overflow from exp(Gamma/2) on distant pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ManifoldDescriptor
from .heatflow import FlowState, Trajectory


@dataclass(frozen=True)
class SpaceTimePair:
    x1: int
    x2: int
    t1: float
    t2: float

    def __post_init__(self):
        if not self.t2 > self.t1 > 0:
            raise ValueError(f"need t2 > t1 > 0, got t1={self.t1}, t2={self.t2}")


@dataclass(frozen=True)
class PairReport:
    pair: SpaceTimePair
    gamma: float
    lhs: float    # ln f(x1, t1)
    rhs: float    # ln f(x2, t2) + n ln(t2/t1) + Gamma/2
    slack: float  # lhs - rhs, nonpositive when the bound holds
    passed: bool


def gamma_infimum(m: ManifoldDescriptor, pair: SpaceTimePair) -> float:
    """Exact path-energy infimum d(x1, x2)^2 / (t2 - t1)."""
    d = m.geodesic_distance(pair.x1, pair.x2)
    return d * d / (pair.t2 - pair.t1)


def _snapshot_index(times: np.ndarray, t: float) -> int:
    idx = int(np.argmin(np.abs(times - t)))
    if abs(times[idx] - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"time {t} is not a snapshot time of the trajectory")
    return idx


class PairValues:
    """f at both points of each pair, (x1, t1) and (x2, t2), taken from the
    states of one pass over a trajectory as :meth:`take` sees them."""

    def __init__(self, traj: Trajectory, pairs: list[SpaceTimePair]):
        times = traj.times
        self.snapshot = np.array(
            [[_snapshot_index(times, p.t1), _snapshot_index(times, p.t2)] for p in pairs], dtype=int
        ).reshape(-1, 2)
        self.node = np.array([[p.x1, p.x2] for p in pairs], dtype=int).reshape(-1, 2)
        self.f = np.full(self.snapshot.shape, np.nan)  # NaN until taken

    def take(self, index: int, state: FlowState) -> None:
        """Record the values at snapshot ``index``, whose state is ``state``."""
        hit = self.snapshot == index
        self.f[hit] = state.f.values[self.node[hit]]


def check_integrated_harnack(
    traj: Trajectory, pairs: list[SpaceTimePair], tol: float, values: PairValues
) -> list[PairReport]:
    """Evaluate the bound in log form for each pair.

    Pair times must be snapshot times of ``traj``, whose clock the bound
    reads as forward time t.  A pair passes only with a finite slack.
    ``values`` holds f at the pairs' points, taken during the caller's pass
    over ``traj``; this call steps no flow.
    """
    n = traj.manifold.dimension
    reports = []
    for pair, (f1, f2) in zip(pairs, values.f):
        gamma = gamma_infimum(traj.manifold, pair)
        lhs = float(np.log(f1))
        rhs = float(np.log(f2)) + n * np.log(pair.t2 / pair.t1) + gamma / 2.0
        slack = lhs - rhs
        # an overflowed Gamma gives rhs = inf and slack = -inf, which proves nothing
        passed = bool(np.isfinite(slack)) and slack <= tol
        reports.append(
            PairReport(pair=pair, gamma=gamma, lhs=lhs, rhs=rhs, slack=slack, passed=passed)
        )
    return reports


def sample_pairs(traj: Trajectory, count: int, seed: int) -> list[SpaceTimePair]:
    """Seeded uniform sampling over (node, snapshot) pairs, rejecting t2 <= t1."""
    if len(traj) < 2:
        raise ValueError("pair sampling needs at least two snapshots")
    rng = np.random.default_rng(seed)
    times = traj.times
    n_nodes = traj.manifold.node_count
    n_snaps = len(traj)
    pairs: list[SpaceTimePair] = []
    while len(pairs) < count:
        x1, x2 = rng.integers(0, n_nodes, size=2)
        k1, k2 = rng.integers(0, n_snaps, size=2)
        if times[k2] <= times[k1]:
            continue
        pairs.append(
            SpaceTimePair(x1=int(x1), x2=int(x2), t1=float(times[k1]), t2=float(times[k2]))
        )
    return pairs
