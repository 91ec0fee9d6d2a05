"""Heat-equation time integration on discrete manifolds.

Forward flows integrate df/dt = Lap f with Crank-Nicolson.  Backward flows
(df/dt = -Lap f) are run as forward flows in the variable tau with
dtau/dt = -1, so no ill-posed backward integration ever occurs; a backward
FlowState carries tau in its ``time`` field.

Every stored state is finite and strictly positive; a step that produces a
nonpositive node fails loudly (it signals dt too large for the data's
frequency content) instead of being masked by a positivity-preserving
scheme.  Every positivity and residual test is written so that NaN or inf
fails it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg

from .geometry import (
    ManifoldDescriptor,
    ScalarField,
    sphere_stiffness_apply,
    torus_stiffness_apply,
)

# relative residual required of every Crank-Nicolson linear solve
CN_SOLVE_RTOL = 1e-12


class Direction(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


class PositivityLossError(RuntimeError):
    """A time step produced a nonpositive (or non-finite) node value."""

    def __init__(self, node: int, value: float, time: float):
        self.node = node
        self.value = value
        self.time = time
        super().__init__(
            f"positivity lost at node {node} (value {value:.6e}) stepping to "
            f"time {time:.6g}; reduce dt or smooth the data"
        )


class SolverError(RuntimeError):
    """The linear solve failed to reach the required residual."""


@dataclass(eq=False)
class FlowState:
    """A strictly positive field together with its clock value.

    ``time`` is t for forward flows and tau for backward flows; it must be
    positive because every monitored quantity carries 1/t or ln t factors.
    """

    f: ScalarField
    time: float
    direction: Direction = Direction.FORWARD

    def __post_init__(self):
        if not 0 < self.time < np.inf:
            raise ValueError(f"flow time must be positive and finite, got {self.time}")
        if not _finite_positive(self.f.values):
            raise ValueError(
                f"flow state must be finite and strictly positive, min value "
                f"{float(self.f.values.min()):.6e}, max value {float(self.f.values.max()):.6e}"
            )

    @property
    def manifold(self) -> ManifoldDescriptor:
        return self.f.manifold


@dataclass(eq=False)
class Trajectory:
    """Snapshots of one flow, stored at every step."""

    states: list[FlowState]
    manifold: ManifoldDescriptor
    step_size: float

    def __len__(self) -> int:
        return len(self.states)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.states])

    @property
    def direction(self) -> Direction:
        return self.states[0].direction


def _finite_positive(values: np.ndarray) -> bool:
    """True when every value is finite and > 0 (NaN and inf fail)."""
    return bool(values.min() > 0) and bool(np.isfinite(values).all())


def tau_of_t(t: float, t_ref: float) -> float:
    """The backward clock tau(t) = t_ref - t (dtau/dt = -1)."""
    return t_ref - t


def _stiffness_apply(m: ManifoldDescriptor, values: np.ndarray) -> np.ndarray:
    if m.is_torus:
        return m.quadrature_weights * torus_stiffness_apply(m, values)
    return sphere_stiffness_apply(m, values)


def _cn_solve(m: ManifoldDescriptor, a: float, f_old: np.ndarray) -> np.ndarray:
    """Solve (M - a W) f_new = (M + a W) f_old.

    M is the diagonal quadrature mass, W the symmetric weighted stiffness, so
    the system is the Crank-Nicolson operator I - a*Lap made SPD under the
    quadrature inner product.  Conjugate gradient with one iterative
    refinement pass; the final relative residual is checked against
    CN_SOLVE_RTOL.  Exact on constant data (the initial residual is zero).
    """
    mass = m.quadrature_weights

    def matvec(x: np.ndarray) -> np.ndarray:
        return mass * x - a * _stiffness_apply(m, x)

    rhs = mass * f_old + a * _stiffness_apply(m, f_old)
    op = LinearOperator((m.node_count, m.node_count), matvec=matvec, dtype=float)
    x, _ = cg(op, rhs, x0=f_old, rtol=CN_SOLVE_RTOL, atol=0.0, maxiter=20 * m.node_count)
    rhs_norm = float(np.linalg.norm(rhs))
    resid = rhs - matvec(x)
    resid_norm = float(np.linalg.norm(resid))
    if resid_norm > 1e-15 * rhs_norm:
        dx, _ = cg(op, resid, rtol=1e-2, atol=0.0, maxiter=m.node_count)
        x = x + dx
        resid_norm = float(np.linalg.norm(rhs - matvec(x)))
    # written so that a NaN or inf residual or right side fails
    if not (np.isfinite(rhs_norm) and resid_norm <= CN_SOLVE_RTOL * rhs_norm):
        raise SolverError(
            f"Crank-Nicolson solve stalled at relative residual "
            f"{resid_norm / rhs_norm:.3e}"
        )
    return x


def step(state: FlowState, dt: float) -> FlowState:
    """One Crank-Nicolson step of df/dt = Lap f (in the state's own clock)."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    m = state.manifold
    new_values = _cn_solve(m, dt / 2.0, state.f.values)
    new_time = state.time + dt
    if not _finite_positive(new_values):
        # the first non-finite node, else the smallest value
        node = int(np.argmin(np.where(np.isfinite(new_values), new_values, -np.inf)))
        raise PositivityLossError(node, float(new_values[node]), new_time)
    return FlowState(ScalarField(new_values, m), new_time, state.direction)


def solve(
    m: ManifoldDescriptor,
    f0: ScalarField,
    t0: float,
    t_end: float,
    dt: float,
    direction: Direction = Direction.FORWARD,
) -> Trajectory:
    """Integrate from t0 to t_end, storing every step.

    dt must divide t_end - t0 within rounding.  The total mass integral(f)
    is conserved across every step to solver tolerance.
    """
    if f0.manifold is not m:
        raise ValueError("initial field is defined on a different manifold")
    if not _finite_positive(f0.values):
        raise ValueError("initial data must be finite and strictly positive")
    if t_end <= t0:
        raise ValueError(f"t_end ({t_end}) must exceed t0 ({t0})")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    span = t_end - t0
    n_steps = int(round(span / dt))
    if n_steps < 1 or abs(n_steps * dt - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError(f"dt = {dt} does not divide t_end - t0 = {span} within rounding")

    states = [FlowState(f0.copy(), t0, direction)]
    current = states[0]
    for k in range(1, n_steps + 1):
        advanced = step(current, dt)
        # recompute the clock as t0 + k*dt so gaps stay uniform to rounding
        current = FlowState(advanced.f, t0 + k * dt, direction)
        states.append(current)
    return Trajectory(states=states, manifold=m, step_size=dt)
