"""Crank-Nicolson heat flow: exactness, conservation, convergence, failure modes."""

import numpy as np
import pytest

import harnacklab as hl
from harnacklab.heatflow import Direction


def unit_circle(res=128):
    return hl.build_torus(1, [1.0], [res])


def single_mode_field(m, floor=0.8, amp=0.4):
    data = hl.TrigPolynomialData(floor=floor, modes=(hl.TrigMode((1,), amp),))
    return hl.build_initial_field(data, m)


def cosine_amplitude(state):
    m = state.manifold
    cos = np.cos(2 * np.pi * m.positions[:, 0])
    return 2.0 * hl.integrate(hl.ScalarField(state.f.values * cos, m))


def test_constant_is_stationary_exactly():
    m = unit_circle(64)
    state = hl.FlowState(hl.constant_field(m, 1.0), 0.5)
    stepped = hl.step(state, 0.37)
    assert np.array_equal(stepped.f.values, state.f.values)
    assert stepped.time == pytest.approx(0.87)
    assert stepped.direction is Direction.FORWARD


def test_single_mode_step_matches_discrete_eigenvalue():
    m = unit_circle(128)
    f0 = single_mode_field(m)
    dt = 1e-3
    state = hl.FlowState(f0, 0.1)
    stepped = hl.step(state, dt)
    h = 1.0 / 128
    mu = 4 * np.sin(np.pi * h) ** 2 / h**2  # discrete eigenvalue of mode 1
    rho = (1 - dt / 2 * mu) / (1 + dt / 2 * mu)
    measured = cosine_amplitude(stepped) / cosine_amplitude(state)
    # Crank-Nicolson acts exactly on stencil eigenvectors
    assert abs(measured - rho) < 1e-11
    # and the rational factor tracks the continuum decay to O(dt^3) + O(h^2 dt)
    assert abs(measured - np.exp(-4 * np.pi**2 * dt)) < 1e-5


def test_positivity_loss_raises():
    # Fourier coefficients summing to the peak value with a tiny min gap:
    # a large step flips the modes heterogeneously and undershoots zero
    m = unit_circle(64)
    x = m.positions[:, 0]
    f0 = hl.ScalarField(1e-3 + 0.5 * (1 + np.cos(2 * np.pi * x)) ** 2, m)
    state = hl.FlowState(f0, 1.0)
    with pytest.raises(hl.PositivityLossError) as err:
        hl.step(state, 5.0)
    assert err.value.value <= 0
    assert err.value.time == pytest.approx(6.0)
    assert 0 <= err.value.node < m.node_count


def test_overflowing_step_raises():
    # a 1e308 node overflows the stencil, so the solve goes NaN; that must
    # fail the residual check instead of returning a NaN state
    m = unit_circle(16)
    values = np.ones(16)
    values[3] = 1e308
    state = hl.FlowState(hl.ScalarField(values, m), 1.0)
    with np.errstate(all="ignore"), pytest.raises(hl.SolverError):
        hl.step(state, 0.01)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_step_rejects_nonfinite_solve(monkeypatch, bad):
    from harnacklab import heatflow

    m = unit_circle(16)

    def broken_solve(m, a, f_old):
        out = f_old.copy()
        out[5] = bad
        return out

    monkeypatch.setattr(heatflow, "_cn_solve", broken_solve)
    state = hl.FlowState(hl.constant_field(m, 1.0), 1.0)
    with pytest.raises(hl.PositivityLossError) as err:
        hl.step(state, 0.01)
    assert err.value.node == 5


def test_step_rejects_nonpositive_dt():
    m = unit_circle(16)
    state = hl.FlowState(hl.constant_field(m, 1.0), 1.0)
    with pytest.raises(ValueError):
        hl.step(state, 0.0)


def test_solve_constant_trajectory():
    m = hl.build_torus(2, [1.0, 1.0], [16, 16])
    traj = hl.solve(m, hl.constant_field(m, 3.0), 0.1, 1.1, 0.01)
    assert len(traj) == 101
    assert all(np.all(s.f.values == 3.0) for s in traj.states)
    gaps = np.diff(traj.times)
    assert np.max(np.abs(gaps - 0.01)) < 1e-12


def test_solve_single_mode_decay():
    m = unit_circle(128)
    data = hl.TrigPolynomialData(floor=0.5, modes=(hl.TrigMode((1,), 0.5),))
    traj = hl.solve(m, hl.build_initial_field(data, m), 0.1, 0.35, 1e-3)
    amp = cosine_amplitude(traj.states[-1])
    assert abs(amp - 0.5 * np.exp(-4 * np.pi**2 * 0.25)) / (0.5 * np.exp(-np.pi**2)) < 1e-3


def test_mass_conservation():
    m = unit_circle(64)
    f0 = hl.build_initial_field(hl.RandomSmoothData(seed=2, mode_cutoff=3, amplitude=0.5, floor=1.0), m)
    traj = hl.solve(m, f0, 0.05, 0.55, 1e-3)
    masses = np.array([hl.integrate(s.f) for s in traj.states])
    assert np.max(np.abs(masses - masses[0])) / abs(masses[0]) < 1e-12

    s = hl.build_sphere(3)
    f0 = hl.build_initial_field(hl.RandomSmoothData(seed=2, mode_cutoff=2, amplitude=0.5, floor=1.0), s)
    traj = hl.solve(s, f0, 0.05, 0.25, 2e-3)
    masses = np.array([hl.integrate(st.f) for st in traj.states])
    assert np.max(np.abs(masses - masses[0])) / abs(masses[0]) < 1e-12


def test_maximum_principle():
    m = hl.build_torus(2, [1.0, 1.0], [32, 32])
    f0 = hl.build_initial_field(hl.RandomSmoothData(seed=4, mode_cutoff=3, amplitude=0.5, floor=1.0), m)
    traj = hl.solve(m, f0, 0.05, 0.25, 5e-4)
    maxes = [s.f.values.max() for s in traj.states]
    mins = [s.f.values.min() for s in traj.states]
    assert all(b <= a + 1e-12 for a, b in zip(maxes, maxes[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(mins, mins[1:]))


def test_all_states_strictly_positive():
    m = unit_circle(64)
    f0 = hl.build_initial_field(hl.RandomSmoothData(seed=8, mode_cutoff=2, amplitude=0.9, floor=0.05), m)
    traj = hl.solve(m, f0, 0.1, 0.3, 2e-3)
    assert all(s.f.values.min() > 0 for s in traj.states)


def test_self_convergence_second_order():
    # error of each run against its own dt/4 reference; halving dt gives 4x
    m = unit_circle(64)
    f0 = hl.build_initial_field(hl.RandomSmoothData(seed=5, mode_cutoff=3, amplitude=0.5, floor=1.0), m)

    def terminal(dt):
        return hl.solve(m, f0, 0.1, 0.2, dt).states[-1].f.values

    def err(dt):
        return np.max(np.abs(terminal(dt) - terminal(dt / 4)))

    assert 3.5 < err(2e-3) / err(1e-3) < 4.5


def test_solve_validates_inputs():
    m = unit_circle(16)
    good = hl.constant_field(m, 1.0)
    with pytest.raises(ValueError):
        hl.solve(m, hl.ScalarField(np.zeros(16), m), 0.1, 0.2, 0.01)  # nonpositive data
    for bad in (np.nan, np.inf):
        values = np.ones(16)
        values[2] = bad
        with pytest.raises(ValueError):
            hl.solve(m, hl.ScalarField(values, m), 0.1, 0.2, 0.01)  # non-finite data
    with pytest.raises(ValueError):
        hl.solve(m, good, 0.2, 0.1, 0.01)  # t_end <= t0
    with pytest.raises(ValueError):
        hl.solve(m, good, 0.1, 0.2, 0.03)  # dt does not divide
    other = unit_circle(32)
    with pytest.raises(ValueError):
        hl.solve(other, good, 0.1, 0.2, 0.01)  # wrong manifold


def test_flow_state_invariants():
    m = unit_circle(16)
    with pytest.raises(ValueError):
        hl.FlowState(hl.constant_field(m, 1.0), time=0.0)
    with pytest.raises(ValueError):
        hl.FlowState(hl.constant_field(m, -1.0), time=1.0)
    with pytest.raises(ValueError):
        hl.FlowState(hl.constant_field(m, 1.0), time=np.nan)
    for bad in (np.nan, np.inf):
        values = np.ones(16)
        values[7] = bad
        with pytest.raises(ValueError):
            hl.FlowState(hl.ScalarField(values, m), time=1.0)


def test_tau_of_t():
    assert hl.tau_of_t(0.3, 1.0) == pytest.approx(0.7)
    assert hl.tau_of_t(1.0, 1.0) == 0.0
    assert hl.tau_of_t(1.5, 1.0) == pytest.approx(-0.5)


def test_backward_flow_is_forward_in_tau():
    # the backward equation in tau uses the identical operator, so the
    # trajectories coincide value-for-value with a forward run
    m = unit_circle(64)
    f0 = single_mode_field(m, floor=1.0, amp=0.2)
    fwd = hl.solve(m, f0, 0.1, 0.3, 2e-3, Direction.FORWARD)
    bwd = hl.solve(m, f0, 0.1, 0.3, 2e-3, Direction.BACKWARD)
    assert bwd.direction is Direction.BACKWARD
    assert np.array_equal(fwd.states[-1].f.values, bwd.states[-1].f.values)
