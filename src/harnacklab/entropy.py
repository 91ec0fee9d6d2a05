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

:func:`entropy_series` walks a trajectory once.  Per snapshot it computes
u, v, their Laplacians, the gradient of u, |grad v|^2 and (on the torus)
the lam = 2 Hessian penalty of u and of v, each exactly once, and derives
from them the Harnack sign maxima, both entropies, both dissipation
integrals and, on request, the canonical H tuple's evolution residual.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .geometry import (
    ManifoldDescriptor,
    ScalarField,
    components_norm_sq,
    grad_components,
    grad_norm_sq,
    hessian_penalty,
    laplacian,
    ricci_quadratic,
)
from .harnack import (
    CAO_HAMILTON_H_PARAMS,
    assert_nonpositive,
    evolution_rhs_values,
    log_u,
    log_v,
    quantity_general_values,
    quantity_H,
    quantity_H_values,
    quantity_liyau_values,
    quantity_P,
    v_from_u,
)
from .heatflow import FlowState, Trajectory

# the dissipation integrals complete the square at lam = 2; the canonical H
# tuple has the same lam, so its evolution residual shares the Hessian term
DISSIPATION_LAMBDA = 2.0


@dataclass(frozen=True)
class SnapshotReport:
    """All diagnostics for one snapshot.

    Harnack signs: ``max_H`` at ``argmax_H`` (ties go to the lowest node),
    ``max_liyau``, and ``P_vs_H_gap`` = max |P - H|, a roundoff cross-check
    since P is built from v's own operators.  Entropies: ``F``/``W`` direct
    and via H/P.  ``dF_formula``/``dW_formula`` are the closed-form
    dissipation integrals (torus only, None elsewhere); ``dF_fd``/``dW_fd``
    are finite differences across neighboring snapshots, centered at
    interior snapshots and one-sided at the ends (``fd_centered`` flags
    which).  ``residual`` is the canonical H tuple's evolution residual at
    interior snapshots when requested, else None.
    """

    time: float
    max_H: float
    argmax_H: int
    max_liyau: float
    P_vs_H_gap: float
    F_direct: float
    F_via_H: float
    W_direct: float
    W_via_P: float
    dF_formula: float | None
    dW_formula: float | None
    dF_fd: float
    dW_fd: float
    fd_centered: bool
    residual: float | None


def _entropy_pair(
    m: ManifoldDescriptor, t: float, f: np.ndarray, grad_sq: np.ndarray, q: np.ndarray
) -> tuple[float, float]:
    """The entropy integral direct from |grad w|^2, and via t^2 q f with q
    the matching Harnack quantity (H for u, P for v)."""
    n = m.dimension
    direct = float(np.dot(m.quadrature_weights, (t * t * grad_sq - 2.0 * n * t) * f))
    via_q = float(np.dot(m.quadrature_weights, t * t * q * f))
    return direct, via_q


def _dissipation_value(
    m: ManifoldDescriptor,
    t: float,
    f: np.ndarray,
    hess: np.ndarray,
    ricci: np.ndarray,
    grad_sq: np.ndarray,
) -> float:
    integrand = hess + ricci + grad_sq / t
    return -2.0 * t * t * float(np.dot(m.quadrature_weights, f * integrand))


def entropy_F(state: FlowState) -> tuple[float, float]:
    """F in both integral forms: direct, and via t^2 H e^{-u}.

    Their agreement is the discrete Stokes/Green identity test.
    """
    t = state.time
    u = log_u(state)
    return _entropy_pair(
        state.manifold, t, state.f.values, grad_norm_sq(u).values, quantity_H(u, t).values
    )


def entropy_W(state: FlowState) -> tuple[float, float]:
    """W in both integral forms: direct, and via t^2 P times the weight.

    The weight e^{-v}/(4 pi t)^{n/2} equals f by the definition of v and is
    computed as such.
    """
    t = state.time
    v = log_v(state)
    return _entropy_pair(
        state.manifold, t, state.f.values, grad_norm_sq(v).values, quantity_P(v, t).values
    )


def _dissipation(state: FlowState, w: ScalarField) -> float:
    t = state.time
    return _dissipation_value(
        state.manifold,
        t,
        state.f.values,
        hessian_penalty(w, DISSIPATION_LAMBDA, t).values,
        ricci_quadratic(w).values,
        grad_norm_sq(w).values,
    )


def dissipation_F(state: FlowState) -> float:
    """Closed-form dF/dt: -2 t^2 integral f (|Hess u - g/t|^2 + Ric(grad u, grad u)
    + |grad u|^2 / t) dV, nonpositive by construction when Ric >= 0.  Torus only."""
    return _dissipation(state, log_u(state))


def dissipation_W(state: FlowState) -> float:
    """Same integral built from v; numerically identical to dissipation_F since
    grad v = grad u and the weights coincide.  Torus only."""
    return _dissipation(state, log_v(state))


def entropy_series(
    traj: Trajectory, with_dissipation: bool | None = None, with_residual: bool = False
) -> list[SnapshotReport]:
    """One SnapshotReport per snapshot, from a single pass over the trajectory.

    Every report value equals, bit for bit, what the reference functions
    (``quantity_H``/``quantity_P``/``quantity_liyau``, ``entropy_F``/``_W``,
    ``dissipation_F``/``_W``, ``evolution_residual``) give on the same state.

    Derivatives are centered at interior snapshots; the one-sided end values
    are flagged with ``fd_centered=False`` and are meant to be excluded from
    pass/fail gates.  ``with_dissipation`` defaults to the backend's ability
    (torus yes, sphere no).  ``with_residual`` adds the canonical H tuple's
    evolution residual (torus only); its Q is held in a rolling window of
    three snapshots, so extra memory stays O(nodes).
    """
    if len(traj) < 3:
        raise ValueError(f"entropy series needs at least 3 states, got {len(traj)}")
    m = traj.manifold
    if with_dissipation is None:
        with_dissipation = m.is_torus
    if with_dissipation and not m.is_torus:
        raise ValueError("dissipation integrals are only available on the torus")
    if with_residual and not m.is_torus:
        raise ValueError("the evolution residual is only available on the torus")

    n = m.dimension
    dt = traj.step_size
    last = len(traj) - 1
    params = CAO_HAMILTON_H_PARAMS
    rows: list[dict] = []
    window: deque = deque(maxlen=3)  # (Q, rhs) of the last three snapshots
    for i, state in enumerate(traj.states):
        t = state.time
        f = state.f.values
        u = log_u(state)
        v = v_from_u(u, t)
        lap_u = laplacian(u).values
        lap_v = laplacian(v).values
        if m.is_torus:
            grad_u = grad_components(u)
            grad_sq_u = components_norm_sq(grad_u)
        else:
            grad_sq_u = grad_norm_sq(u).values
        grad_sq_v = grad_norm_sq(v).values

        h_vals = quantity_H_values(lap_u, grad_sq_u, t, n)
        p_vals = quantity_H_values(lap_v, grad_sq_v, t, n)
        sign = assert_nonpositive(ScalarField(h_vals, m), tol=0.0)
        row = {
            "time": t,
            "max_H": sign.max_value,
            "argmax_H": sign.argmax_node,
            "max_liyau": float(quantity_liyau_values(lap_v, t, n).max()),
            "P_vs_H_gap": float(np.max(np.abs(p_vals - h_vals))),
            "dF_formula": None,
            "dW_formula": None,
            "residual": None,
        }
        rows.append(row)
        row["F_direct"], row["F_via_H"] = _entropy_pair(m, t, f, grad_sq_u, h_vals)
        row["W_direct"], row["W_via_P"] = _entropy_pair(m, t, f, grad_sq_v, p_vals)

        if with_dissipation or with_residual:
            hess_u = hessian_penalty(u, DISSIPATION_LAMBDA, t).values
            ricci_u = ricci_quadratic(u).values
        if with_dissipation:
            row["dF_formula"] = _dissipation_value(m, t, f, hess_u, ricci_u, grad_sq_u)
            row["dW_formula"] = _dissipation_value(
                m,
                t,
                f,
                hessian_penalty(v, DISSIPATION_LAMBDA, t).values,
                ricci_quadratic(v).values,
                grad_sq_v,
            )
        if with_residual:
            q = quantity_general_values(params, u.values, lap_u, grad_sq_u, t, n)
            rhs = None
            if 0 < i < last:
                q_field = ScalarField(q, m)
                rhs = evolution_rhs_values(
                    params, t, n, u.values, grad_u, grad_sq_u, hess_u, ricci_u,
                    q, laplacian(q_field).values, grad_components(q_field),
                )
            window.append((q, rhs))
            if i >= 2:
                (q_prev, _), (_, rhs_mid), (q_next, _) = window
                dq_dt = (q_next - q_prev) / (2.0 * dt)
                rows[i - 1]["residual"] = float(np.max(np.abs(dq_dt - rhs_mid)))

    f_arr = np.array([row["F_direct"] for row in rows])
    w_arr = np.array([row["W_direct"] for row in rows])
    reports: list[SnapshotReport] = []
    for i, row in enumerate(rows):
        if 0 < i < last:
            df = (f_arr[i + 1] - f_arr[i - 1]) / (2.0 * dt)
            dw = (w_arr[i + 1] - w_arr[i - 1]) / (2.0 * dt)
            centered = True
        elif i == 0:
            df = (f_arr[1] - f_arr[0]) / dt
            dw = (w_arr[1] - w_arr[0]) / dt
            centered = False
        else:
            df = (f_arr[last] - f_arr[last - 1]) / dt
            dw = (w_arr[last] - w_arr[last - 1]) / dt
            centered = False
        reports.append(
            SnapshotReport(
                **row,
                dF_fd=float(df),
                dW_fd=float(dw),
                fd_centered=centered,
            )
        )
    return reports
