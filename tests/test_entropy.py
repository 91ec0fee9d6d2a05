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
    series = hl.entropy_series(traj)
    vol = torus2.total_volume
    for t, F, dF in zip(series.time, series.F_direct, series.dF_formula):
        expected = -2 * torus2.dimension * t * 2.0 * vol
        assert F == pytest.approx(expected, rel=1e-12)
        assert dF == pytest.approx(-8.0, rel=1e-12)
    # centered differences in the interior, one-sided at the two ends
    F, dt = series.F_direct, traj.step_size
    assert len(series.dF_fd) == len(traj)
    assert series.dF_fd[0] == (F[1] - F[0]) / dt and series.dF_fd[-1] == (F[-1] - F[-2]) / dt
    assert series.dF_fd[3] == (F[4] - F[2]) / (2.0 * dt)
    for dF, dW in zip(series.dF_fd[1:-1], series.dW_fd[1:-1]):
        assert dF == pytest.approx(-8.0, rel=1e-11)
        assert dW == pytest.approx(-8.0, rel=1e-11)


def test_entropy_series_needs_three_states(torus2):
    traj = hl.solve(torus2, hl.constant_field(torus2, 1.0), 0.5, 0.6, 0.1)
    assert len(traj) == 2
    with pytest.raises(ValueError):
        hl.entropy_series(traj)


def test_entropy_series_sphere_has_no_dissipation_columns():
    s = hl.build_sphere(2)
    f0 = hl.build_initial_field(hl.RandomSmoothData(seed=1, mode_cutoff=2, amplitude=0.4, floor=1.0), s)
    traj = hl.solve(s, f0, 0.1, 0.2, 0.01)
    series = hl.entropy_series(traj)
    assert series.dF_formula is None and series.dW_formula is None
    with pytest.raises(ValueError):
        hl.entropy_series(traj, with_residual=True)


def test_entropy_series_peak_grows_by_one_float_a_field_a_snapshot():
    # every field holds one float64 a snapshot, 8 B, and np.gradient's
    # differences a few bytes more: about 9 B a field.  A list of Python
    # floats holds a pointer and a float object, 8 + 24 B, and its conversion
    # to an array 8 B more: about 33 B a field.  16 B separates the two
    import tracemalloc
    from dataclasses import fields

    m = hl.build_torus(1, [1.0], [16])
    data = hl.RandomSmoothData(seed=9, mode_cutoff=1, amplitude=0.3, floor=1.0)
    f0 = hl.build_initial_field(data, m)

    def series_peak(states):
        traj = hl.solve(m, f0, 0.1, 0.1 + (states - 1) * 1e-3, 1e-3)
        assert len(traj) == states
        tracemalloc.start()
        try:
            series = hl.entropy_series(traj, with_residual=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, sum(getattr(series, f.name) is not None for f in fields(series))

    # one untraced series first, as long as the longest traced one: its
    # one-time allocations (imports, about 180 kB) and the small objects
    # Python keeps on its free lists for reuse would otherwise be counted in
    # whichever traced series came first
    hl.entropy_series(hl.solve(m, f0, 0.1, 0.5, 1e-3), with_residual=True)
    small, field_count = series_peak(101)
    large, _ = series_peak(401)
    assert field_count == 14
    assert large - small <= 16 * field_count * 300


@pytest.mark.parametrize(
    "m", [hl.build_torus(2, [1.0, 1.0], [16, 16]), hl.build_sphere(2)], ids=["T2_16", "S2_sub2"]
)
def test_entropy_series_equals_reference_functions(m):
    # the one-pass kernel must reproduce the per-state reference functions
    # bit for bit: exact ==, so reordering the floating-point operations of
    # either side fails here
    data = hl.RandomSmoothData(seed=9, mode_cutoff=3, amplitude=0.5, floor=1.0)
    traj = hl.solve(m, hl.build_initial_field(data, m), 0.1, 0.2, 0.01)
    torus = m.has_hessian
    series = hl.entropy_series(traj, with_residual=torus)
    assert len(series.time) == len(traj)
    states = list(traj)
    for i, state in enumerate(states):
        t = state.time
        u, v = hl.log_u(state), hl.log_v(state)
        h = hl.quantity_H(u, t)
        sign = hl.assert_nonpositive(h, tol=0.0)
        assert series.time[i] == t
        assert (series.max_H[i], series.argmax_H[i]) == (sign.max_value, sign.argmax_node)
        assert series.max_liyau[i] == float(hl.quantity_liyau(v, t).values.max())
        assert series.P_vs_H_gap[i] == float(
            np.max(np.abs(hl.quantity_P(v, t).values - h.values))
        )
        assert (series.F_direct[i], series.F_via_H[i]) == hl.entropy_F(state)
        assert (series.W_direct[i], series.W_via_P[i]) == hl.entropy_W(state)
        if torus:
            assert series.dF_formula[i] == hl.dissipation_F(state)
            assert series.dW_formula[i] == hl.dissipation_W(state)
            # the residual is indexed by snapshot: the interior ones hold it,
            # the two ends, which have no centered difference, are NaN
            if 0 < i < len(traj) - 1:
                window = states[i - 1 : i + 2]
                expected = hl.evolution_residual(window, traj.step_size, hl.CAO_HAMILTON_H_PARAMS)
                assert series.residual[i] == expected
            else:
                assert np.isnan(series.residual[i])
        else:
            assert series.dF_formula is None and series.dW_formula is None
            assert series.residual is None
    if torus:
        assert len(series.residual) == len(traj)


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
        series = hl.entropy_series(traj)
        idx = int(round(0.1 / dt))  # t = 0.2
        assert 0 < idx < len(traj) - 1  # a centered difference
        gaps.append(abs(series.dF_fd[idx] - series.dF_formula[idx]))
    assert 3.2 < gaps[0] / gaps[1] < 4.8
