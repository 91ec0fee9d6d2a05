"""Entropy functionals, the Stokes identity, and dissipation formulas."""

import numpy as np
import pytest

import harnacklab as hl


def constant_state(m, value, t):
    return hl.FlowState(hl.constant_field(m, value), t)


@pytest.fixture(scope="module")
def torus2():
    return hl.build_torus(2, [1.0, 1.0], [32, 32])


def test_entropy_F_constant_solution(torus2):
    st = constant_state(torus2, 1.0, 1.0)
    fd, fh = hl.entropy_F(st)
    assert fd == pytest.approx(-4.0, abs=1e-13)
    assert fh == pytest.approx(-4.0, abs=1e-13)


def test_entropy_F_scales_with_constant(torus2):
    st = constant_state(torus2, 3.5, 0.7)
    fd, fh = hl.entropy_F(st)
    expected = -2 * torus2.dimension * 0.7 * 3.5 * torus2.total_volume
    assert fd == pytest.approx(expected, rel=1e-13)
    assert fh == pytest.approx(expected, rel=1e-13)


def test_entropy_W_constant_solution(torus2):
    st = constant_state(torus2, 1.0, 1.0)
    wd, wp = hl.entropy_W(st)
    assert wd == pytest.approx(-4.0, abs=1e-13)
    assert wp == pytest.approx(-4.0, abs=1e-13)


def test_W_weight_is_f_itself(torus2):
    # e^{-v} / (4 pi t)^{n/2} = f by the definition of v
    data = hl.RandomSmoothData(seed=6, mode_cutoff=3, amplitude=0.5, floor=1.0)
    st = hl.FlowState(hl.build_initial_field(data, torus2), 0.43)
    v = hl.log_v(st)
    weight = np.exp(-v.values) / (4 * np.pi * st.time) ** (torus2.dimension / 2)
    assert np.allclose(weight, st.f.values, rtol=1e-12)


def test_W_equals_F_always(torus2):
    # grad v = grad u and both weights reduce to f, so the two entropies
    # agree as computed quantities
    data = hl.RandomSmoothData(seed=6, mode_cutoff=3, amplitude=0.5, floor=1.0)
    st = hl.FlowState(hl.build_initial_field(data, torus2), 0.43)
    fd, fh = hl.entropy_F(st)
    wd, wp = hl.entropy_W(st)
    assert wd == pytest.approx(fd, rel=1e-13)
    assert wp == pytest.approx(fh, rel=1e-13)


def test_dissipation_constant_closure(torus2):
    # hessian penalty of a constant is n (lam/2t)^2, so the integral closes
    # to d/dt(-2 n t Vol) = -4 at every time
    assert hl.dissipation_F(constant_state(torus2, 1.0, 1.0)) == pytest.approx(-4.0, abs=1e-13)
    assert hl.dissipation_F(constant_state(torus2, 1.0, 2.0)) == pytest.approx(-4.0, abs=1e-13)
    assert hl.dissipation_W(constant_state(torus2, 1.0, 1.0)) == pytest.approx(-4.0, abs=1e-13)


def test_dissipation_W_equals_F(torus2):
    data = hl.RandomSmoothData(seed=12, mode_cutoff=3, amplitude=0.5, floor=1.0)
    st = hl.FlowState(hl.build_initial_field(data, torus2), 0.31)
    df, dw = hl.dissipation_F(st), hl.dissipation_W(st)
    assert dw == pytest.approx(df, rel=1e-12)


def test_dissipation_nonpositive_by_construction(torus2):
    rng = np.random.default_rng(1)
    for seed in range(5):
        data = hl.RandomSmoothData(seed=seed, mode_cutoff=4, amplitude=1.5, floor=0.2)
        st = hl.FlowState(hl.build_initial_field(data, torus2), float(rng.uniform(0.05, 2.0)))
        assert hl.dissipation_F(st) <= 0.0


def test_dissipation_sphere_unsupported():
    s = hl.build_sphere(2)
    with pytest.raises(hl.BackendError):
        hl.dissipation_F(constant_state(s, 1.0, 1.0))


def test_entropy_series_constant_trajectory(torus2):
    traj = hl.solve(torus2, hl.constant_field(torus2, 2.0), 0.5, 1.0, 0.05)
    reports = hl.entropy_series(traj)
    vol = torus2.total_volume
    for rep in reports:
        expected = -2 * torus2.dimension * rep.time * 2.0 * vol
        assert rep.F_direct == pytest.approx(expected, rel=1e-12)
        assert rep.dF_formula == pytest.approx(-8.0, rel=1e-12)
    centered = [r for r in reports if r.fd_centered]
    assert len(centered) == len(reports) - 2
    assert not reports[0].fd_centered and not reports[-1].fd_centered
    for rep in centered:
        assert rep.dF_fd == pytest.approx(-8.0, rel=1e-11)
        assert rep.dW_fd == pytest.approx(-8.0, rel=1e-11)


def test_entropy_series_needs_three_states(torus2):
    traj = hl.solve(torus2, hl.constant_field(torus2, 1.0), 0.5, 0.6, 0.1)
    assert len(traj) == 2
    with pytest.raises(ValueError):
        hl.entropy_series(traj)


def test_entropy_series_sphere_has_no_dissipation_columns():
    s = hl.build_sphere(2)
    f0 = hl.build_initial_field(hl.RandomSmoothData(seed=1, mode_cutoff=2, amplitude=0.4, floor=1.0), s)
    traj = hl.solve(s, f0, 0.1, 0.2, 0.01)
    reports = hl.entropy_series(traj)
    assert all(r.dF_formula is None and r.dW_formula is None for r in reports)
    with pytest.raises(ValueError):
        hl.entropy_series(traj, with_dissipation=True)
    with pytest.raises(ValueError):
        hl.entropy_series(traj, with_dissipation=False, with_residual=True)


@pytest.mark.parametrize(
    "m", [hl.build_torus(2, [1.0, 1.0], [16, 16]), hl.build_sphere(2)], ids=["T2_16", "S2_sub2"]
)
def test_entropy_series_equals_reference_functions(m):
    # the one-pass kernel must reproduce the per-state reference functions
    # bit for bit: exact ==, so reordering the floating-point operations of
    # either side fails here
    data = hl.RandomSmoothData(seed=9, mode_cutoff=3, amplitude=0.5, floor=1.0)
    traj = hl.solve(m, hl.build_initial_field(data, m), 0.1, 0.2, 0.01)
    torus = m.is_torus
    reports = hl.entropy_series(traj, with_dissipation=torus, with_residual=torus)
    assert len(reports) == len(traj)
    for i, (state, rep) in enumerate(zip(traj.states, reports)):
        t = state.time
        u, v = hl.log_u(state), hl.log_v(state)
        h = hl.quantity_H(u, t)
        sign = hl.assert_nonpositive(h, tol=0.0)
        assert rep.time == t
        assert (rep.max_H, rep.argmax_H) == (sign.max_value, sign.argmax_node)
        assert rep.max_liyau == float(hl.quantity_liyau(v, t).values.max())
        assert rep.P_vs_H_gap == float(np.max(np.abs(hl.quantity_P(v, t).values - h.values)))
        assert (rep.F_direct, rep.F_via_H) == hl.entropy_F(state)
        assert (rep.W_direct, rep.W_via_P) == hl.entropy_W(state)
        if torus:
            assert rep.dF_formula == hl.dissipation_F(state)
            assert rep.dW_formula == hl.dissipation_W(state)
            interior = 0 < i < len(traj) - 1
            expected = (
                hl.evolution_residual(traj, hl.CAO_HAMILTON_H_PARAMS, i) if interior else None
            )
            assert rep.residual == expected
        else:
            assert rep.dF_formula is None and rep.dW_formula is None
            assert rep.residual is None


def single_mode_state(res, t0=0.1):
    m = hl.build_torus(1, [1.0], [res])
    data = hl.TrigPolynomialData(floor=0.8, modes=(hl.TrigMode((1,), 0.4),))
    return hl.FlowState(hl.build_initial_field(data, m), t0)


def test_stokes_identity_second_order():
    # |F_direct - F_via_H| is the discrete integration-by-parts defect;
    # doubling the resolution cuts it ~4x
    gaps_f, gaps_w = [], []
    for res in (64, 128):
        st = single_mode_state(res)
        fd, fh = hl.entropy_F(st)
        wd, wp = hl.entropy_W(st)
        gaps_f.append(abs(fd - fh))
        gaps_w.append(abs(wd - wp))
    assert 3.2 < gaps_f[0] / gaps_f[1] < 4.8
    assert 3.2 < gaps_w[0] / gaps_w[1] < 4.8


def test_dissipation_matches_finite_difference():
    # fixed-time cross-check of the closed-form dF/dt against the centered
    # difference of F along the solved flow; gap is O(dt^2 + h^2)
    gaps = []
    for res, dt in ((64, 4e-3), (128, 2e-3)):
        m = hl.build_torus(1, [1.0], [res])
        data = hl.TrigPolynomialData(floor=0.8, modes=(hl.TrigMode((1,), 0.4),))
        traj = hl.solve(m, hl.build_initial_field(data, m), 0.1, 0.3, dt)
        reports = hl.entropy_series(traj)
        idx = int(round(0.1 / dt))  # t = 0.2
        rep = reports[idx]
        assert rep.fd_centered
        gaps.append(abs(rep.dF_fd - rep.dF_formula))
    assert 3.2 < gaps[0] / gaps[1] < 4.8


def test_backward_series_monotone_in_tau():
    m = hl.build_torus(1, [1.0], [64])
    data = hl.TrigPolynomialData(floor=1.0, modes=(hl.TrigMode((1,), 0.15),))
    traj = hl.solve(m, hl.build_initial_field(data, m), 0.05, 0.45, 2e-3, hl.Direction.BACKWARD)
    reports = hl.entropy_series(traj)
    tol = 1e-8
    for rep in reports:
        if rep.fd_centered:
            assert rep.dF_fd <= tol      # nonincreasing in tau
            assert -rep.dF_fd >= -tol    # hence nondecreasing in t
