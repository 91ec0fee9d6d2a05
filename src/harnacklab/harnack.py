"""Pointwise Harnack quantities of the log-transformed heat flow.

For a positive solution f of df/dt = Lap f, u = -ln f satisfies
du/dt = Lap u - |grad u|^2 and v = u - (n/2) ln(4 pi t) satisfies the same
equation with an extra -n/(2t).  The monitored quantities are

    H       = 2 Lap u - |grad u|^2 - 2n/t
    P       = 2 Lap v - |grad v|^2 - 2n/t        (= H pointwise, v - u is constant)
    Li-Yau  = 2 Lap v - n/t

together with the five-parameter family

    Q = alpha Lap w - beta |grad w|^2 - b w/t - c n/t

whose evolution equation (assembled in :func:`evolution_rhs`) is what the
maximum-principle sign claims rest on.  ``evolution_residual`` verifies that
identity numerically on three consecutive states of a solved flow.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .geometry import (
    ScalarField,
    components_norm_sq,
    grad_components,
    grad_norm_sq,
    hessian_penalty,
    laplacian,
)
from .heatflow import FlowState


class Variant(enum.Enum):
    """Which log-transform a parameter tuple applies to.

    The V variant adds the b*n/(2 t^2) term to the evolution equation that
    the -n/(2t) in dv/dt produces.
    """

    U = "u"
    V = "v"


@dataclass(frozen=True)
class HarnackParams:
    alpha: float
    beta: float
    b: float
    c: float
    lam: float
    variant: Variant = Variant.U

    def __post_init__(self):
        if self.alpha == 0:
            raise ValueError("alpha must be nonzero (the evolution equation divides by it)")


# canonical tuples: H itself, the Li-Yau quantity, and Ni's quantity
CAO_HAMILTON_H_PARAMS = HarnackParams(2.0, 1.0, 0.0, 2.0, 2.0, Variant.U)
LI_YAU_PARAMS = HarnackParams(2.0, 0.0, 0.0, 1.0, 1.0, Variant.V)
NI_PARAMS = HarnackParams(2.0, 1.0, -1.0, 1.0, 1.0, Variant.V)


def log_u(state: FlowState) -> ScalarField:
    """u = -ln f (finite: a FlowState is finite and positive when made)."""
    u = np.log(state.f.values)
    np.negative(u, out=u)
    return ScalarField(u, state.manifold)


def v_from_u(u: ScalarField, t: float) -> ScalarField:
    """v = u - (n/2) ln(4 pi t)."""
    shift = 0.5 * u.manifold.dimension * np.log(4.0 * np.pi * t)
    return ScalarField(u.values - shift, u.manifold)


def log_v(state: FlowState) -> ScalarField:
    """v = -ln f - (n/2) ln(4 pi t) = u shifted by a spatial constant."""
    return v_from_u(log_u(state), state.time)


# The *_values functions below are the formulas themselves, applied to
# operator fields the caller has already computed (``lap`` = Lap w,
# ``grad_sq`` = |grad w|^2, ...).  The ScalarField functions and the
# one-pass snapshot kernel in :mod:`harnacklab.entropy` both evaluate them,
# so each formula has one implementation and one floating-point order.
# Each evaluates its formula term by term, left to right, into arrays it
# allocates itself (``-=``, ``*=``, ``out=``), so no operation makes a fresh
# temporary and no argument is written.


def quantity_H_values(lap: np.ndarray, grad_sq: np.ndarray, t: float, n: int) -> np.ndarray:
    """2 lap - grad_sq - 2n/t."""
    vals = 2.0 * lap
    vals -= grad_sq
    vals -= 2.0 * n / t
    return vals


def quantity_liyau_values(lap: np.ndarray, t: float, n: int) -> np.ndarray:
    """2 lap - n/t."""
    vals = 2.0 * lap
    vals -= n / t
    return vals


def quantity_general_values(
    p: HarnackParams, w: np.ndarray, lap: np.ndarray, grad_sq: np.ndarray, t: float, n: int
) -> np.ndarray:
    """alpha lap - beta grad_sq - b w/t - c n/t."""
    vals = p.alpha * lap
    term = np.multiply(grad_sq, p.beta)
    vals -= term
    np.multiply(w, p.b, out=term)
    term /= t
    vals -= term
    vals -= p.c * n / t
    return vals


def evolution_rhs_values(
    p: HarnackParams,
    t: float,
    n: int,
    w: np.ndarray,
    grad_w: list[np.ndarray],
    grad_sq: np.ndarray,
    hess: np.ndarray,
    ricci: np.ndarray,
    q: np.ndarray,
    lap_q: np.ndarray,
    grad_q: list[np.ndarray],
) -> np.ndarray:
    """The right side of :func:`evolution_rhs` from its ingredient fields:
    the components and squared norm of grad w, the Hessian penalty at
    ``p.lam``, the Ricci term, and Q with its Laplacian and gradient."""
    ab = p.alpha - p.beta
    k = 2.0 * ab * p.lam / p.alpha
    # lap_q - 2 cross - 2ab hess - 2ab ricci - (k/t) q - (b + k beta) grad_sq / t
    # + (1 - k) b w / t^2 + (1 - k) c n / t^2 + ab n lam^2 / (2 t^2), left to
    # right, each array term formed in ``term`` and summed into ``vals``
    vals, term = np.zeros(w.shape), np.empty(w.shape)
    for cq, cw in zip(grad_q, grad_w):
        vals += np.multiply(cq, cw, out=term)  # the cross term, from +0.0
    vals *= 2.0
    np.subtract(lap_q, vals, out=vals)
    vals -= np.multiply(hess, 2.0 * ab, out=term)
    vals -= np.multiply(ricci, 2.0 * ab, out=term)
    vals -= np.multiply(q, k / t, out=term)
    np.multiply(grad_sq, p.b + k * p.beta, out=term)
    term /= t
    vals -= term
    np.multiply(w, (1.0 - k) * p.b, out=term)
    term /= t * t
    vals += term
    vals += (1.0 - k) * p.c * n / (t * t)
    vals += ab * n * p.lam * p.lam / (2.0 * t * t)
    if p.variant is Variant.V:
        vals += p.b * n / (2.0 * t * t)
    return vals


def evolution_residual_values(
    q_prev: np.ndarray, q_next: np.ndarray, rhs: np.ndarray, dt: float
) -> float:
    """max |(q_next - q_prev) / (2 dt) - rhs|: the centered time difference
    of Q across two snapshots 2 dt apart against the right side between them."""
    mismatch = q_next - q_prev
    mismatch /= 2.0 * dt
    mismatch -= rhs
    return float(np.abs(mismatch, out=mismatch).max())


def quantity_H(u: ScalarField, t: float) -> ScalarField:
    """H = 2 Lap u - |grad u|^2 - 2n/t."""
    _check_time(t)
    vals = quantity_H_values(
        laplacian(u).values, grad_norm_sq(u).values, t, u.manifold.dimension
    )
    return ScalarField(vals, u.manifold)


def quantity_P(v: ScalarField, t: float) -> ScalarField:
    """P = 2 Lap v - |grad v|^2 - 2n/t (same formula as H, applied to v)."""
    return quantity_H(v, t)


def quantity_liyau(v: ScalarField, t: float) -> ScalarField:
    """The Li-Yau quantity 2 Lap v - n/t."""
    _check_time(t)
    vals = quantity_liyau_values(laplacian(v).values, t, v.manifold.dimension)
    return ScalarField(vals, v.manifold)


def quantity_general(w: ScalarField, t: float, p: HarnackParams) -> ScalarField:
    """alpha Lap w - beta |grad w|^2 - b w/t - c n/t."""
    _check_time(t)
    vals = quantity_general_values(
        p, w.values, laplacian(w).values, grad_norm_sq(w).values, t, w.manifold.dimension
    )
    return ScalarField(vals, w.manifold)


def evolution_rhs(w: ScalarField, t: float, p: HarnackParams) -> ScalarField:
    """Right side of the evolution equation satisfied by quantity_general.

    With Q = alpha Lap w - beta |grad w|^2 - b w/t - c n/t and
    k = 2 (alpha - beta) lam / alpha:

        dQ/dt = Lap Q - 2 grad Q . grad w
                - 2(alpha-beta) |Hess w - lam g/(2t)|^2
                - 2(alpha-beta) Ric(grad w, grad w)
                - (k/t) Q - (b + k beta) |grad w|^2 / t
                + (1 - k) b w / t^2 + (1 - k) c n / t^2
                + (alpha-beta) n lam^2 / (2 t^2)
                [+ b n / (2 t^2) for the V variant]

    Torus only (the Hessian penalty has no sphere backend).
    """
    _check_time(t)
    m = w.manifold
    n = m.dimension
    grad_w = grad_components(w)
    grad_sq = components_norm_sq(grad_w)
    q = ScalarField(quantity_general_values(p, w.values, laplacian(w).values, grad_sq, t, n), m)
    vals = evolution_rhs_values(
        p,
        t,
        n,
        w.values,
        grad_w,
        grad_sq,
        hessian_penalty(w, p.lam, t).values,
        np.multiply(grad_sq, m.ricci_constant),  # Ric = kappa g
        q.values,
        laplacian(q).values,
        grad_components(q),
    )
    return ScalarField(vals, m)


def _log_transform(state: FlowState, variant: Variant) -> ScalarField:
    return log_u(state) if variant is Variant.U else log_v(state)


def evolution_residual(window: Iterable[FlowState], dt: float, p: HarnackParams) -> float:
    """Max-norm mismatch between the centered time difference of the quantity
    and :func:`evolution_rhs`, at the middle of ``window``: three consecutive
    states of one flow, ``dt`` apart.  Any other number of states raises."""
    prev, here, next_ = window
    q_prev = quantity_general(_log_transform(prev, p.variant), prev.time, p)
    q_next = quantity_general(_log_transform(next_, p.variant), next_.time, p)
    rhs = evolution_rhs(_log_transform(here, p.variant), here.time, p)
    return evolution_residual_values(q_prev.values, q_next.values, rhs.values, dt)


@dataclass(frozen=True)
class SignReport:
    max_value: float
    argmax_node: int
    passed: bool


def assert_nonpositive(q: ScalarField, tol: float) -> SignReport:
    """Check max(q) <= tol; ties in the argmax go to the lowest node index."""
    if tol < 0:
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    idx = int(np.argmax(q.values))
    max_value = float(q.values[idx])
    return SignReport(max_value=max_value, argmax_node=idx, passed=max_value <= tol)


def _check_time(t: float) -> None:
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
