"""Entropy functionals of the heat flow, their dissipation formulas, and the
one-pass per-snapshot diagnostics kernel.

Both entropies are time-weighted integrals against the solution itself:

    F = integral (t^2 |grad u|^2 - 2nt) e^{-u} dV
    W = integral (t^2 |grad v|^2 - 2nt) e^{-v} / (4 pi t)^{n/2} dV

The F-weight e^{-u} and the W-weight e^{-v}/(4 pi t)^{n/2} both equal f
pointwise, and grad v = grad u, so W = F as computed quantities; both are
kept because each has its own via-quantity form (the discrete Stokes
identity test) and its own dissipation integral.  Weights are taken as f
directly, which avoids catastrophic cancellation at small t.

:func:`entropy_series` walks a trajectory once, as it is stepped, holding
O(nodes) memory besides one float64 per snapshot for each field of its
result; a caller's ``on_state`` sees each state on the way, so one pass of
the flow serves every consumer.  Per snapshot it computes u, v, their
Laplacians and |grad|^2, the gradient of u when the residual is requested,
and (on a backend with a Hessian, the torus) the lam = 2 Hessian penalty of
u and of v, each exactly once, and derives from them the Harnack sign
maxima, both entropies, both dissipation integrals and, on request, the
canonical H tuple's evolution residual, and returns them as one
:class:`SnapshotSeries` with an array per field.  The operators of u and v
come from one backend ``stencils`` call over the stack [u, v], on either
backend, and the residual's Laplacian and gradient of Q from one more.  The
kernel works on flat value arrays throughout.  Each formula is evaluated
term by term, in its written order, into arrays its function allocates
itself, so no operation makes a fresh temporary and no operator array is
written; the snapshot frees the arrays the residual does not read before it
makes the residual's.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .geometry import (
    ManifoldDescriptor,
    ScalarField,
    grad_norm_sq,
    hessian_penalty,
)
from .harnack import (
    CAO_HAMILTON_H_PARAMS,
    evolution_residual_values,
    evolution_rhs_values,
    log_u,
    log_v,
    quantity_H,
    quantity_H_values,
    quantity_liyau_values,
    v_from_u,
)
from .heatflow import FlowState, Trajectory

# the canonical H tuple's lam: the dissipation integrals complete the square
# at it, and the tuple's evolution residual reads the same Hessian penalty
DISSIPATION_LAMBDA = CAO_HAMILTON_H_PARAMS.lam


@dataclass(frozen=True)
class SnapshotSeries:
    """All per-snapshot diagnostics of a trajectory, one array per field.

    Harnack signs: ``max_H`` at ``argmax_H`` (ties go to the lowest node),
    ``max_liyau``, and ``P_vs_H_gap`` = max |P - H|, a roundoff cross-check
    since P is built from v's own operators.  Entropies: ``F``/``W`` direct
    and via H/P.  ``dF_fd``/``dW_fd`` are finite differences across
    neighboring snapshots, centered at interior snapshots and one-sided at
    the two ends (gates read ``[1:-1]``).  ``dF_formula``/``dW_formula`` are
    the closed-form dissipation integrals, None on a backend without a
    Hessian.  ``residual`` holds the canonical H tuple's evolution residual
    when requested, else None; ``residual[k]`` belongs to snapshot k, and its
    two end entries are NaN, as no centered difference exists there (gates
    read ``[1:-1]``).  Every array has one entry per snapshot.
    """

    time: np.ndarray
    max_H: np.ndarray
    argmax_H: np.ndarray
    max_liyau: np.ndarray
    P_vs_H_gap: np.ndarray
    F_direct: np.ndarray
    F_via_H: np.ndarray
    W_direct: np.ndarray
    W_via_P: np.ndarray
    dF_fd: np.ndarray
    dW_fd: np.ndarray
    dF_formula: np.ndarray | None = None
    dW_formula: np.ndarray | None = None
    residual: np.ndarray | None = None


def _entropy_pair(
    m: ManifoldDescriptor, t: float, f: np.ndarray, grad_sq: np.ndarray, q: np.ndarray
) -> tuple[float, float]:
    """The entropy integral direct from |grad w|^2, and via t^2 q f with q
    the matching Harnack quantity (H for u, P for v)."""
    n = m.dimension
    # (t^2 grad_sq - 2nt) f, then t^2 q f, each formed in one array
    integrand = np.multiply(grad_sq, t * t)
    integrand -= 2.0 * n * t
    integrand *= f
    direct = float(np.dot(m.quadrature_weights, integrand))
    np.multiply(q, t * t, out=integrand)
    integrand *= f
    via_q = float(np.dot(m.quadrature_weights, integrand))
    return direct, via_q


def _dissipation_value(
    m: ManifoldDescriptor,
    t: float,
    f: np.ndarray,
    hess: np.ndarray,
    ricci: np.ndarray,
    grad_sq: np.ndarray,
) -> float:
    integrand = hess + ricci
    integrand += np.divide(grad_sq, t)
    integrand *= f
    return -2.0 * t * t * float(np.dot(m.quadrature_weights, integrand))


def _entropy(state: FlowState, w: ScalarField) -> tuple[float, float]:
    t = state.time
    return _entropy_pair(
        state.manifold, t, state.f.values, grad_norm_sq(w).values, quantity_H(w, t).values
    )


def entropy_F(state: FlowState) -> tuple[float, float]:
    """F in both integral forms: direct, and via t^2 H e^{-u}.

    Their agreement is the discrete Stokes/Green identity test.
    """
    return _entropy(state, log_u(state))


def entropy_W(state: FlowState) -> tuple[float, float]:
    """W in both integral forms: direct, and via t^2 P times the weight
    (P is H's formula applied to v).

    The weight e^{-v}/(4 pi t)^{n/2} equals f by the definition of v and is
    computed as such.
    """
    return _entropy(state, log_v(state))


def _dissipation(state: FlowState, w: ScalarField) -> float:
    t, m = state.time, state.manifold
    hess = hessian_penalty(w, DISSIPATION_LAMBDA, t).values
    grad_sq = grad_norm_sq(w).values
    ricci = np.multiply(grad_sq, m.ricci_constant)
    return _dissipation_value(m, t, state.f.values, hess, ricci, grad_sq)


def dissipation_F(state: FlowState) -> float:
    """Closed-form dF/dt: -2 t^2 integral f (|Hess u - g/t|^2 + Ric(grad u, grad u)
    + |grad u|^2 / t) dV, nonpositive by construction when Ric >= 0.  Torus only."""
    return _dissipation(state, log_u(state))


def dissipation_W(state: FlowState) -> float:
    """Same integral built from v; numerically identical to dissipation_F since
    grad v = grad u and the weights coincide.  Torus only."""
    return _dissipation(state, log_v(state))


def _snapshot(
    m: ManifoldDescriptor, state: FlowState, with_residual: bool
) -> tuple[dict[str, float], np.ndarray | None, np.ndarray | None]:
    """One snapshot's diagnostics by field name and, with ``with_residual``,
    the canonical H tuple's Q with its evolution right side, else None for
    both.  The operator arrays it takes die when it returns, before the flow
    steps again."""
    n = m.dimension
    t = state.time
    f = state.f.values
    u_field = log_u(state)
    u = u_field.values
    v = v_from_u(u_field, t).values
    values = {}
    # one operator call for u and v; v = u - const, but v's operators are
    # taken from v itself, so the P-vs-H, W-vs-F and dissipation
    # cross-checks compare two computations
    (lap_u, lap_v), (grad_sq_u, grad_sq_v), grad, hess = m.stencils(
        (u, v), laplacian=True, grad_norm_sq=True, gradient=with_residual,
        hessian=(DISSIPATION_LAMBDA, t) if m.has_hessian else None,
    )
    if hess is not None:
        hess_u, hess_v = hess
        # Ric(grad w, grad w) = kappa |grad w|^2 on an Einstein backend
        ricci_u = np.multiply(grad_sq_u, m.ricci_constant)
        values["dF_formula"] = _dissipation_value(m, t, f, hess_u, ricci_u, grad_sq_u)
        values["dW_formula"] = _dissipation_value(
            m, t, f, hess_v, np.multiply(grad_sq_v, m.ricci_constant), grad_sq_v
        )

    h_vals = quantity_H_values(lap_u, grad_sq_u, t, n)
    p_vals = quantity_H_values(lap_v, grad_sq_v, t, n)
    argmax_h = int(np.argmax(h_vals))  # ties go to the lowest node
    gap = p_vals - h_vals
    values.update(
        max_H=float(h_vals[argmax_h]),
        argmax_H=argmax_h,
        max_liyau=float(quantity_liyau_values(lap_v, t, n).max()),
        P_vs_H_gap=float(np.abs(gap, out=gap).max()),
    )
    values["F_direct"], values["F_via_H"] = _entropy_pair(m, t, f, grad_sq_u, h_vals)
    values["W_direct"], values["W_via_P"] = _entropy_pair(m, t, f, grad_sq_v, p_vals)
    if not with_residual:
        return values, None, None
    # the residual reads none of these: they go before its arrays are made
    del v, lap_u, lap_v, p_vals, gap
    q = h_vals  # the canonical tuple's Q is H
    lap_q, _, grad_q, _ = m.stencils((q,), laplacian=True, gradient=True)
    rhs = evolution_rhs_values(
        CAO_HAMILTON_H_PARAMS, t, n, u, [comp[0] for comp in grad], grad_sq_u, hess_u, ricci_u,
        q, lap_q[0], [comp[0] for comp in grad_q],
    )
    return values, q, rhs


def entropy_series(
    traj: Trajectory,
    with_residual: bool = False,
    on_state: Callable[[int, FlowState], None] | None = None,
) -> SnapshotSeries:
    """The SnapshotSeries of a trajectory, from a single pass over it.

    Every value equals, bit for bit, what the reference functions
    (``quantity_H``/``quantity_P``/``quantity_liyau``, ``entropy_F``/``_W``,
    ``dissipation_F``/``_W``, ``evolution_residual``) give on the same state,
    and ``time`` is ``traj.times``, the clock each state carries.

    The dissipation integrals are computed exactly when the backend has a
    Hessian (the torus).  ``with_residual`` adds the canonical H tuple's
    evolution residual (torus only): Q and its right side, taken at every
    snapshot, roll through a window of three, in O(nodes) extra memory, and
    each interior snapshot's residual is written once its successor is taken.
    ``on_state(i, state)`` sees each state, in order, before its diagnostics.
    """
    if len(traj) < 3:
        raise ValueError(f"entropy series needs at least 3 states, got {len(traj)}")
    m = traj.manifold
    if with_residual and not m.has_hessian:
        raise ValueError("the evolution residual is only available on the torus")

    dt = traj.step_size
    count = len(traj)
    series: dict[str, np.ndarray] = {}  # field -> one value per snapshot
    if with_residual:
        # NaN until written, so a snapshot the pass skips fails its gate
        series["residual"] = np.full(count, np.nan)
    window: deque = deque(maxlen=3)  # (Q, rhs) of the last three snapshots
    for i, state in enumerate(traj):
        if on_state is not None:
            on_state(i, state)
        values, q, rhs = _snapshot(m, state, with_residual)
        if i == 0:
            for name in values:
                series[name] = np.empty(count, dtype=np.int64 if name == "argmax_H" else float)
        for name, value in values.items():
            series[name][i] = value
        if with_residual:
            window.append((q, rhs))
            if i >= 2:
                (q_prev, _), (_, rhs_mid), (q_next, _) = window
                series["residual"][i - 1] = evolution_residual_values(
                    q_prev, q_next, rhs_mid, dt
                )

    # np.gradient differences the interior as (x[i+1] - x[i-1]) / (2 dt) and
    # the two ends one-sided as (x[1] - x[0]) / dt and (x[-1] - x[-2]) / dt
    return SnapshotSeries(
        time=traj.times,
        **series,
        dF_fd=np.gradient(series["F_direct"], dt),
        dW_fd=np.gradient(series["W_direct"], dt),
    )
