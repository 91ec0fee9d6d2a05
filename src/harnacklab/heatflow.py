"""Heat-equation time integration on discrete manifolds.

Forward flows integrate df/dt = Lap f with Crank-Nicolson.  Each step's
linear system is solved by the backend's direct solver (``cn_solver``: an
FFT on the torus, a banded Cholesky factor made once on the sphere), built
once per pass over a flow, and every solution's residual is checked against
CN_SOLVE_RTOL.  The conjugate-gradient solver :func:`cg_solver` is kept as
the reference the direct solvers are tested against; it is the module's
only user of scipy, which it imports on its first call.  No flow carries a
direction: on a static metric the backward equation in tau = -t is this
forward equation, so a backward run is a forward flow whose clock the
caller reads as tau.

A :class:`Trajectory` is the flow's sequence of snapshots, stepped only
while it is iterated and never stored: one pass holds O(nodes) memory,
however many steps the flow takes.  :func:`step_count` is the one check of
a flow's clock.  Every state is finite and strictly positive; a step that
produces a nonpositive node fails loudly, as a SolverError (it signals dt
too large for the data's frequency content), instead of being masked by a
positivity-preserving scheme.  Every positivity and residual test is
written so that NaN or inf fails it.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import InitVar, dataclass, field

import numpy as np

from .geometry import ManifoldDescriptor, ScalarField, SolverError

# relative residual required of every Crank-Nicolson linear solve
CN_SOLVE_RTOL = 1e-12


class PositivityLossError(SolverError):
    """A time step produced a nonpositive (or non-finite) node: a SolverError."""

    def __init__(self, node: int, value: float, time: float):
        self.node = node
        self.value = value
        self.time = time
        super().__init__(
            f"positivity lost at node {node} (value {value:.6e}) stepping to "
            f"time {time:.6g}; reduce dt or smooth the data"
        )


@dataclass(eq=False)
class FlowState:
    """A strictly positive field together with its clock value.

    ``time`` must be positive because every monitored quantity carries 1/t
    or ln t factors.  ``values_checked`` is set only on values :func:`step`
    has already scanned, so each stepped state is scanned once.
    ``stiffness`` is ``manifold.stiffness(f.values)`` on a stepped state,
    which its step took for the residual check and the next step reads, and
    None otherwise.
    """

    f: ScalarField
    time: float
    values_checked: InitVar[bool] = False
    stiffness: np.ndarray | None = field(default=None, kw_only=True, repr=False)

    def __post_init__(self, values_checked: bool):
        if not 0 < self.time < np.inf:
            raise ValueError(f"flow time must be positive and finite, got {self.time}")
        if not (values_checked or _finite_positive(self.f.values)):
            raise ValueError(
                f"flow state must be finite and strictly positive, min value "
                f"{float(self.f.values.min()):.6e}, max value {float(self.f.values.max()):.6e}"
            )

    @property
    def manifold(self) -> ManifoldDescriptor:
        return self.f.manifold


@dataclass(eq=False)
class Trajectory:
    """The states of one flow at the clock values t0 + k dt, k = 0..n_steps.

    Making a trajectory steps nothing: its manifold, length and ``times``
    are known up front.  Iterating it steps the flow from ``initial`` with
    the backend's Crank-Nicolson solver, built once per pass and released
    when the pass ends, and yields each state as it is computed, so a pass
    holds only the current state.  No state is stored: a second iteration
    steps the flow again, so a caller that needs the states twice keeps the
    ones it needs.  The stiffness W x that one step's residual check takes
    of its solution x is the W f_old of the next step's right side, so each
    yielded state keeps it: n steps apply ``stiffness`` n + 1 times.
    """

    initial: FlowState
    step_size: float
    n_steps: int

    def __len__(self) -> int:
        return self.n_steps + 1

    def __iter__(self) -> Iterator[FlowState]:
        dt = self.step_size
        t0 = self.initial.time
        solver = self.manifold.cn_solver(dt / 2.0)
        current = self.initial
        yield current
        for k in range(1, self.n_steps + 1):
            current = step(current, dt, solver)
            # recompute the clock as t0 + k*dt so gaps stay uniform to rounding;
            # step_count has checked this clock
            current.time = t0 + k * dt
            yield current

    @property
    def manifold(self) -> ManifoldDescriptor:
        return self.initial.manifold

    @property
    def times(self) -> np.ndarray:
        return self.initial.time + np.arange(len(self)) * self.step_size


def _finite_positive(values: np.ndarray) -> bool:
    """True when every value is finite and > 0 (NaN and inf fail)."""
    return bool(values.min() > 0) and bool(np.isfinite(values).all())


def step_count(t0: float, t_end: float, dt: float) -> int:
    """The number of dt steps from t0 to t_end: ValueError unless 0 < t0 < inf,
    t_end > t0, n dt = t_end - t0 to 1e-9 of it, and dt > 2 spacing(t_end):
    rounding moves each time t0 + k dt by at most one spacing, so none coincide."""
    if not 0 < t0 < np.inf:
        raise ValueError(f"t0 must be positive and finite, got {t0}")
    if t_end <= t0:
        raise ValueError(f"t_end must exceed t0, got {t_end} <= {t0}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not dt > 2.0 * np.spacing(t_end):
        raise ValueError(f"dt = {dt} is too small: times near t_end = {t_end} would repeat")
    span = t_end - t0
    n_steps = int(round(span / dt))
    if abs(n_steps * dt - span) > 1e-9 * span:
        raise ValueError(f"dt = {dt} does not divide t_end - t0 = {span}")
    return n_steps


def cg(*args, **kwargs):
    """scipy's ``cg``, imported on first call; ``perfbench/tracing.py`` wraps this name."""
    from scipy.sparse.linalg import cg as scipy_cg
    return scipy_cg(*args, **kwargs)


def cg_solver(m: ManifoldDescriptor, a: float) -> Callable[[np.ndarray], np.ndarray]:
    """Conjugate-gradient solver of (M - a W) x = (M + a W) f.

    The reference for the backends' direct ``cn_solver``: the system is the
    Crank-Nicolson operator I - a*Lap made SPD under the quadrature inner
    product, solved to relative residual CN_SOLVE_RTOL with one iterative
    refinement pass.  Exact on constant data (the initial residual is zero).
    It imports scipy when it is called, not with the module.
    """
    from scipy.sparse.linalg import LinearOperator

    mass = m.quadrature_weights

    def matvec(x: np.ndarray) -> np.ndarray:
        return mass * x - a * m.stiffness(x)

    op = LinearOperator((m.node_count, m.node_count), matvec=matvec, dtype=float)

    def solve_cg(f_old: np.ndarray) -> np.ndarray:
        rhs = mass * f_old + a * m.stiffness(f_old)
        x, _ = cg(op, rhs, x0=f_old, rtol=CN_SOLVE_RTOL, atol=0.0, maxiter=20 * m.node_count)
        resid = rhs - matvec(x)
        if np.linalg.norm(resid) > 1e-15 * np.linalg.norm(rhs):
            dx, _ = cg(op, resid, rtol=1e-2, atol=0.0, maxiter=m.node_count)
            x = x + dx
        return x

    return solve_cg


def _cn_solve(
    m: ManifoldDescriptor,
    a: float,
    solver: Callable[[np.ndarray], np.ndarray],
    f_old: np.ndarray,
    stiffness_old: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve (M - a W) f_new = (M + a W) f_old with ``solver``, and check it.

    M is the diagonal quadrature mass and W the symmetric weighted stiffness,
    so the system is the Crank-Nicolson operator I - a*Lap.  ``solver`` is
    the backend's ``cn_solver(a)`` (or :func:`cg_solver`); its solution's
    relative residual, taken with ``m.stiffness``, must be at most
    CN_SOLVE_RTOL.  ``stiffness_old`` is W f_old when the caller has it;
    the solution x is returned with W x, which the residual check took.
    """
    x = solver(f_old)
    mass = m.quadrature_weights
    if stiffness_old is None:
        stiffness_old = m.stiffness(f_old)
    rhs = mass * f_old + a * stiffness_old
    stiffness_new = m.stiffness(x)
    peak = float(np.abs(rhs).max())
    if not math.isfinite(peak):
        raise SolverError("Crank-Nicolson right side is not finite: the data overflow the operator")
    # one power of two, exact short of underflow, brings max|rhs| >= 1 into
    # [0.5, 1) so the sums of squares cannot overflow; NaN or inf still fails
    scale = math.ldexp(1.0, -max(math.frexp(peak)[1], 0))
    rhs_norm = float(np.linalg.norm(rhs * scale))
    resid_norm = float(np.linalg.norm((rhs - (mass * x - a * stiffness_new)) * scale))
    if not resid_norm <= CN_SOLVE_RTOL * rhs_norm:
        raise SolverError(
            f"Crank-Nicolson solve missed its residual bound: relative residual "
            f"{resid_norm / rhs_norm:.3e}"
        )
    return x, stiffness_new


def step(
    state: FlowState, dt: float, solver: Callable[[np.ndarray], np.ndarray] | None = None
) -> FlowState:
    """One Crank-Nicolson step of df/dt = Lap f.

    ``solver`` solves the step's system for this dt (``cn_solver(dt / 2)``
    of the state's manifold); without it, one is built for this step.  The
    step reads W f from ``state.stiffness`` when the state carries it (a
    state :func:`step` made does), and otherwise applies ``stiffness`` to
    the old values too: a chain of n steps from a fresh state applies it
    n + 1 times.  The new values are scanned once for finite positivity,
    and the new state carries their stiffness.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    m = state.manifold
    if solver is None:
        solver = m.cn_solver(dt / 2.0)
    new_values, new_stiffness = _cn_solve(m, dt / 2.0, solver, state.f.values, state.stiffness)
    new_time = state.time + dt
    if not _finite_positive(new_values):
        # the first non-finite node, else the smallest value
        node = int(np.argmin(np.where(np.isfinite(new_values), new_values, -np.inf)))
        raise PositivityLossError(node, float(new_values[node]), new_time)
    return FlowState(
        ScalarField(new_values, m), new_time, values_checked=True, stiffness=new_stiffness
    )


def solve(m: ManifoldDescriptor, f0: ScalarField, t0: float, t_end: float, dt: float) -> Trajectory:
    """The trajectory from t0 to t_end, stepped as it is iterated.

    The clock is checked by :func:`step_count`.  Nothing is solved here: the
    arguments are checked and the initial field copied.  The total mass
    integral(f) is conserved across every step to solver tolerance.
    """
    if f0.manifold is not m:
        raise ValueError("initial field is defined on a different manifold")
    n_steps = step_count(t0, t_end, dt)
    initial = FlowState(f0.copy(), t0)  # f0 finite and positive
    return Trajectory(initial, dt, n_steps)
