"""Log transforms, pointwise quantities, and the evolution identity."""

import numpy as np
import pytest

import harnacklab as hl
from harnacklab.harnack import HarnackParams, Variant
from harnacklab.initialdata import wrapped_distance_sq


def constant_state(m, value, t):
    return hl.FlowState(hl.constant_field(m, value), t)


def smooth_state(m, t, seed=3, cutoff=3, amp=0.5, floor=1.0):
    data = hl.RandomSmoothData(seed=seed, mode_cutoff=cutoff, amplitude=amp, floor=floor)
    return hl.FlowState(hl.build_initial_field(data, m), t)


@pytest.fixture(scope="module")
def torus2():
    return hl.build_torus(2, [1.0, 1.0], [32, 32])


# ---------------------------------------------------------------------------
# log transforms


def test_log_u_values(torus2):
    assert np.all(hl.log_u(constant_state(torus2, 1.0, 1.0)).values == 0.0)
    u = hl.log_u(constant_state(torus2, np.e, 1.0))
    assert np.allclose(u.values, -1.0, atol=1e-15)


def test_log_v_shift(torus2):
    v = hl.log_v(constant_state(torus2, 1.0, 1.0 / (4 * np.pi)))
    assert np.allclose(v.values, 0.0, atol=1e-12)
    v1 = hl.log_v(constant_state(torus2, 1.0, 1.0))
    assert np.allclose(v1.values, -np.log(4 * np.pi), atol=1e-12)
    assert v1.values[0] == pytest.approx(-2.5310, abs=1e-4)


def test_log_v_has_same_derivatives_as_log_u(torus2):
    state = smooth_state(torus2, 0.37)
    u, v = hl.log_u(state), hl.log_v(state)
    assert np.allclose(hl.laplacian(u).values, hl.laplacian(v).values, atol=1e-10)
    assert np.allclose(hl.grad_norm_sq(u).values, hl.grad_norm_sq(v).values, atol=1e-12)


# ---------------------------------------------------------------------------
# pointwise quantities


def test_quantity_H_constant(torus2):
    u = hl.log_u(constant_state(torus2, 1.0, 1.0))
    assert np.allclose(hl.quantity_H(u, 1.0).values, -4.0, atol=1e-14)
    assert np.allclose(hl.quantity_H(u, 0.5).values, -8.0, atol=1e-14)


def test_quantity_P_equals_H_pointwise(torus2):
    state = smooth_state(torus2, 0.37)
    h_vals = hl.quantity_H(hl.log_u(state), 0.37).values
    p_vals = hl.quantity_P(hl.log_v(state), 0.37).values
    assert np.max(np.abs(p_vals - h_vals)) < 1e-10


def test_quantity_liyau_constant(torus2):
    v = hl.log_v(constant_state(torus2, 1.0, 2.0))
    assert np.allclose(hl.quantity_liyau(v, 2.0).values, -1.0, atol=1e-14)


def test_liyau_relation_to_P(torus2):
    state = smooth_state(torus2, 0.61)
    v = hl.log_v(state)
    ly = hl.quantity_liyau(v, 0.61).values
    rhs = (
        hl.quantity_P(v, 0.61).values
        + hl.grad_norm_sq(v).values
        + torus2.dimension / 0.61
    )
    assert np.max(np.abs(ly - rhs)) < 1e-11


def gaussian_state(resolution=128, t=0.01):
    m = hl.build_torus(2, [8.0, 8.0], [resolution, resolution])
    center = (4.0, 4.0)
    f = hl.wrapped_gaussian(m, center, heat_time=t)
    return hl.FlowState(f, t), wrapped_distance_sq(m, center)


def test_gaussian_quantities_match_plane_formulas():
    # closed-form oracle on the plane Gaussian: because the log-field is a
    # quadratic (and central differences are exact on quadratics away from
    # the seam), H = -n/t - r^2/(4 t^2) and the Li-Yau quantity vanishes
    state, rsq = gaussian_state()
    t = state.time
    central = rsq <= 1.0
    h_vals = hl.quantity_H(hl.log_u(state), t).values
    expected = -2.0 / t - rsq / (4 * t * t)
    assert np.max(np.abs(h_vals[central] - expected[central])) < 1e-9
    ly = hl.quantity_liyau(hl.log_v(state), t).values
    assert np.max(np.abs(ly[central])) < 1e-9


# ---------------------------------------------------------------------------
# the parametric family


def test_quantity_general_reproduces_named_quantities(torus2):
    state = smooth_state(torus2, 0.37)
    t = 0.37
    u, v = hl.log_u(state), hl.log_v(state)
    assert np.max(np.abs(
        hl.quantity_general(u, t, hl.CAO_HAMILTON_H_PARAMS).values - hl.quantity_H(u, t).values
    )) < 1e-12
    assert np.max(np.abs(
        hl.quantity_general(v, t, hl.LI_YAU_PARAMS).values - hl.quantity_liyau(v, t).values
    )) < 1e-12
    ni_direct = (
        2 * hl.laplacian(v).values
        - hl.grad_norm_sq(v).values
        + v.values / t
        - torus2.dimension / t
    )
    assert np.max(np.abs(hl.quantity_general(v, t, hl.NI_PARAMS).values - ni_direct)) < 1e-12


def test_harnack_params_rejects_zero_alpha():
    with pytest.raises(ValueError):
        HarnackParams(0.0, 1.0, 0.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# evolution identity


def test_evolution_rhs_constant_closure(torus2):
    # zero-gradient data: everything collapses to (b w + c n)/t^2, plus the
    # extra b n/(2 t^2) for the v variant
    state = constant_state(torus2, np.exp(-0.7), 1.3)
    n, t = torus2.dimension, 1.3
    for variant in (Variant.U, Variant.V):
        p = HarnackParams(1.7, 0.4, 0.8, -0.6, 1.1, variant)
        w = hl.log_u(state) if variant is Variant.U else hl.log_v(state)
        expected = (p.b * w.values[0] + p.c * n) / t**2
        if variant is Variant.V:
            expected += p.b * n / (2 * t**2)
        rhs = hl.evolution_rhs(w, t, p)
        assert np.max(np.abs(rhs.values - expected)) < 1e-12


def test_evolution_rhs_cor_tuple_constant(torus2):
    state = constant_state(torus2, 1.0, 1.0)
    rhs = hl.evolution_rhs(hl.log_u(state), 1.0, hl.CAO_HAMILTON_H_PARAMS)
    assert np.allclose(rhs.values, 4.0, atol=1e-13)


def test_evolution_rhs_alpha_equals_beta_drops_penalty(torus2):
    # with alpha = beta the completed-square and Ricci terms carry
    # coefficient zero, so lam does not enter at all
    state = smooth_state(torus2, 0.4)
    u = hl.log_u(state)
    p1 = HarnackParams(1.5, 1.5, 0.3, -0.2, 0.7)
    p2 = HarnackParams(1.5, 1.5, 0.3, -0.2, 1.9)
    assert np.array_equal(
        hl.evolution_rhs(u, 0.4, p1).values, hl.evolution_rhs(u, 0.4, p2).values
    )
    q1 = HarnackParams(1.5, 0.5, 0.3, -0.2, 0.7)
    q2 = HarnackParams(1.5, 0.5, 0.3, -0.2, 1.9)
    assert not np.array_equal(
        hl.evolution_rhs(u, 0.4, q1).values, hl.evolution_rhs(u, 0.4, q2).values
    )


def test_evolution_rhs_sphere_unsupported():
    s = hl.build_sphere(2)
    state = constant_state(s, 1.0, 1.0)
    with pytest.raises(hl.BackendError):
        hl.evolution_rhs(hl.log_u(state), 1.0, hl.CAO_HAMILTON_H_PARAMS)


def constant_trajectory(m, value=np.exp(-0.7), t0=1.0, t_end=1.2, dt=0.01):
    return hl.solve(m, hl.constant_field(m, value), t0, t_end, dt)


def test_evolution_residual_constant_data_exact_truncation():
    # both sides are assembled exactly for constants, so the residual is the
    # centered-difference truncation of d/dt(-K/t): K dt^2 / (t^2 (t^2 - dt^2))
    m = hl.build_torus(1, [1.0], [64])
    traj = constant_trajectory(m)
    w0 = 0.7
    p = HarnackParams(2.0, 1.0, 0.5, 2.0, 2.0, Variant.U)
    window = list(traj)[9:12]
    t = window[1].time
    dt = traj.step_size
    k = p.b * w0 + p.c * m.dimension
    expected = abs(k) * dt**2 / (t**2 * (t**2 - dt**2))
    assert hl.evolution_residual(window, dt, p) == pytest.approx(expected, abs=1e-10)


def test_evolution_residual_vanishes_when_H_is_time_constant():
    m = hl.build_torus(1, [1.0], [64])
    traj = constant_trajectory(m)
    p = HarnackParams(2.0, 1.0, 0.0, 0.0, 2.0, Variant.U)
    assert hl.evolution_residual(list(traj)[9:12], traj.step_size, p) < 1e-12


def test_evolution_residual_needs_a_three_state_window():
    # the centered difference reads exactly three states: a window of any
    # other length (a trajectory's end, or a whole trajectory) raises
    m = hl.build_torus(1, [1.0], [64])
    traj = constant_trajectory(m)
    states = list(traj)
    p = HarnackParams(2.0, 1.0, 0.0, 0.0, 2.0, Variant.U)
    assert hl.evolution_residual(states[:3], traj.step_size, p) < 1e-12
    for window in (states[:2], states[-2:], states[:4], states):
        with pytest.raises(ValueError):
            hl.evolution_residual(window, traj.step_size, p)


def single_mode_trajectory(res, dt, t0=0.1, t_end=0.3):
    m = hl.build_torus(1, [1.0], [res])
    data = hl.TrigPolynomialData(floor=0.8, modes=(hl.TrigMode((1,), 0.4),))
    return hl.solve(m, hl.build_initial_field(data, m), t0, t_end, dt)


def test_evolution_residual_second_order_convergence():
    p = HarnackParams(2.0, 1.0, 0.3, 0.7, 1.5, Variant.V)
    fine = single_mode_trajectory(256, 1e-3)
    coarse = single_mode_trajectory(128, 2e-3)
    r_fine = hl.evolution_residual(list(fine)[99:102], 1e-3, p)   # t = 0.2 on both grids
    r_coarse = hl.evolution_residual(list(coarse)[49:52], 2e-3, p)
    assert 3.5 < r_coarse / r_fine < 4.5


def test_evolution_residual_mutation_guard():
    # flipping the completed-square term must destroy convergence; flipping
    # the Ricci term is inert on the flat backend (it is identically zero),
    # which this guard documents
    p = HarnackParams(2.0, 1.0, 0.0, 2.0, 2.0, Variant.U)
    results = {}
    for res, dt in ((128, 2e-3), (256, 1e-3)):
        traj = single_mode_trajectory(res, dt)
        idx = int(round(0.1 / dt))
        prev, here, next_ = list(traj)[idx - 1 : idx + 2]
        dt_traj = traj.step_size
        u_prev = hl.log_u(prev)
        u_next = hl.log_u(next_)
        q_prev = hl.quantity_general(u_prev, prev.time, p)
        q_next = hl.quantity_general(u_next, next_.time, p)
        dq_dt = (q_next.values - q_prev.values) / (2 * dt_traj)
        u_here = hl.log_u(here)
        rhs = hl.evolution_rhs(u_here, here.time, p).values
        penalty = hl.hessian_penalty(u_here, p.lam, here.time).values
        ricci = hl.ricci_quadratic(u_here).values
        ab = p.alpha - p.beta
        rhs_bad_penalty = rhs + 4.0 * ab * penalty   # sign flip of the -2(a-b)|.|^2 term
        rhs_bad_ricci = rhs + 4.0 * ab * ricci
        results[res] = (
            np.max(np.abs(dq_dt - rhs)),
            np.max(np.abs(dq_dt - rhs_bad_penalty)),
            np.max(np.abs(dq_dt - rhs_bad_ricci)),
        )
    ok_ratio = results[128][0] / results[256][0]
    bad_ratio = results[128][1] / results[256][1]
    assert 3.5 < ok_ratio < 4.5
    assert bad_ratio < 2.0                       # stuck at O(1): no convergence
    assert results[256][1] > 20 * results[256][0]
    assert results[128][2] == results[128][0]    # Ricci flip is a no-op on tori


# ---------------------------------------------------------------------------
# sign reports


def test_assert_nonpositive_reports(torus2):
    u = hl.log_u(constant_state(torus2, 1.0, 1.0))
    rep = hl.assert_nonpositive(hl.quantity_H(u, 1.0), tol=0.0)
    assert rep.passed and rep.max_value == pytest.approx(-4.0)

    bad = hl.ScalarField(np.full(torus2.node_count, 0.1), torus2)
    rep = hl.assert_nonpositive(bad, tol=0.0)
    assert not rep.passed and rep.max_value == pytest.approx(0.1)


def test_assert_nonpositive_argmax_tie_lowest_index(torus2):
    vals = np.zeros(torus2.node_count)
    vals[5] = 0.5
    vals[17] = 0.5
    rep = hl.assert_nonpositive(hl.ScalarField(vals, torus2), tol=1.0)
    assert rep.argmax_node == 5 and rep.passed


def test_assert_nonpositive_rejects_negative_tol(torus2):
    with pytest.raises(ValueError):
        hl.assert_nonpositive(hl.constant_field(torus2, 0.0), tol=-1.0)


def test_signs_hold_along_smooth_trajectory():
    # t0-compatible data keeps H and the Li-Yau quantity nonpositive at
    # every snapshot (the maximum-principle conclusion, discretely)
    m = hl.build_torus(2, [1.0, 1.0], [32, 32])
    f0 = hl.build_initial_field(hl.RandomSmoothData(seed=9, mode_cutoff=2, amplitude=0.4, floor=1.0), m)
    traj = hl.solve(m, f0, 0.05, 0.3, 1e-3)
    tol = 20.0 * (m.mesh_scale**2 + traj.step_size)
    for state in list(traj)[:: len(traj) // 10]:
        u, v = hl.log_u(state), hl.log_v(state)
        assert hl.assert_nonpositive(hl.quantity_H(u, state.time), tol).passed
        assert hl.assert_nonpositive(hl.quantity_liyau(v, state.time), tol).passed
