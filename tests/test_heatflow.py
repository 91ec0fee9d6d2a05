"""Crank-Nicolson heat flow: exactness, conservation, convergence, failure modes."""

import numpy as np
import pytest

import harnacklab as hl
from harnacklab.heatflow import cg_solver


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


@pytest.mark.parametrize(
    "build",
    [lambda: hl.build_torus(3, [1.0, 2.0, 1.5], [8, 12, 16]), lambda: hl.build_sphere(3)],
    ids=["T3", "S2"],
)
def test_constant_is_stationary_exactly_on_t3_and_s2(build):
    # 0.7 is not dyadic: a solver that transformed or factored the constant
    # itself, instead of f - f[0], would move it by rounding; 1e200 would
    # overflow an unscaled norm of the right side
    m = build()
    for value in (0.7, 1.0e200):
        traj = hl.solve(m, hl.constant_field(m, value), 0.1, 0.2, 0.01)
        assert len(traj) == 11
        states = list(traj)
        assert all(np.array_equal(s.f.values, states[0].f.values) for s in states)


# the backends' direct solvers against the conjugate-gradient reference
ORACLE_MANIFOLDS = {
    "T1_64": lambda: hl.build_torus(1, [1.0], [64]),
    "T2_32": lambda: hl.build_torus(2, [1.0, 1.0], [32, 32]),
    "T3_16": lambda: hl.build_torus(3, [1.0, 1.0, 1.0], [16, 16, 16]),
    "S2_sub2": lambda: hl.build_sphere(2),
    "S2_sub3": lambda: hl.build_sphere(3),
    "S2_sub4": lambda: hl.build_sphere(4),
}


# every flow is stepped forward, as the ids say
@pytest.mark.parametrize("name", ORACLE_MANIFOLDS, ids=lambda name: f"{name}-forward")
def test_direct_solver_matches_cg_oracle(name):
    m = ORACLE_MANIFOLDS[name]()
    data = hl.RandomSmoothData(seed=3, mode_cutoff=2, amplitude=0.5, floor=1.0)
    f0 = hl.build_initial_field(data, m)
    dt = 2e-3
    fast = hl.solve(m, f0, 0.1, 0.2, dt)
    assert len(fast) == 51
    oracle = cg_solver(m, dt / 2.0)
    state = hl.FlowState(f0, 0.1)
    for _ in range(50):
        state = hl.step(state, dt, oracle)
    ref = state.f.values
    last = list(fast)[-1]
    assert np.max(np.abs(last.f.values - ref)) <= 1e-11 * np.max(np.abs(ref))


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
    # a 1e308 node, or a constant 1.7e308, overflows the stencil's 2f, so the
    # right side itself is not finite; that must fail the step, and say so,
    # instead of returning a NaN state
    m = unit_circle(16)
    spike = np.ones(16)
    spike[3] = 1e308
    for values in (spike, np.full(16, 1.7e308)):
        state = hl.FlowState(hl.ScalarField(values, m), 1.0)
        with np.errstate(all="ignore"), pytest.raises(hl.SolverError, match="right side is not finite"):
            hl.step(state, 0.01)


def test_overflowing_step_raises_on_the_sphere():
    # the sphere's banded Cholesky solve must fail the same residual check
    m = hl.build_sphere(2)
    values = np.ones(m.node_count)
    values[3] = 1e308
    state = hl.FlowState(hl.ScalarField(values, m), 1.0)
    with np.errstate(all="ignore"), pytest.raises(hl.SolverError):
        hl.step(state, 0.01)


def test_sphere_solver_rejects_an_indefinite_matrix():
    # M - a W with a < 0 is indefinite: it has no Cholesky factor, and the
    # solver refuses to be built instead of solving with a partial one
    with pytest.raises(hl.SolverError, match="not positive definite"):
        hl.build_sphere(2).cn_solver(-1.0)


def test_sphere_solve_fails_closed_on_a_lapack_error(monkeypatch):
    from scipy.linalg import lapack

    m = hl.build_sphere(2)
    solve = m.cn_solver(1e-3)
    monkeypatch.setattr(lapack, "dpbtrs", lambda factor, b, overwrite_b: (b, -2))
    with pytest.raises(hl.SolverError, match="dpbtrs info -2"):
        solve(np.linspace(1.0, 2.0, m.node_count))


# the data of configs/sphere_signs.yaml
SPHERE_SIGNS_DATA = hl.RandomSmoothData(seed=12, mode_cutoff=3, amplitude=0.6, floor=1.0)


def sphere_clock_gap():
    """|rate/2 - 1| for the decay rate of the moment integral(f x dV) of a
    sphere_signs flow on S^2 sub3.  The coordinates x are the degree-1
    harmonics, with eigenvalue -2, so the heat flow decays the moment at
    rate 2; the rate is a least-squares fit of log|moment| against time."""
    m = hl.build_sphere(3)
    traj = hl.solve(m, hl.build_initial_field(SPHERE_SIGNS_DATA, m), 0.05, 1.0, 5e-4)
    moments = np.array([(m.quadrature_weights * s.f.values) @ m.positions for s in traj])
    rate = -np.polyfit(traj.times, np.log(np.linalg.norm(moments, axis=1)), 1)[0]
    return abs(rate / 2.0 - 1.0)


def test_sphere_flow_decays_the_degree_one_moment_at_rate_two():
    # measured: rate - 2 = -7.6e-6 at sub3
    assert sphere_clock_gap() <= 1e-4


def test_doubled_sphere_clock_fails_the_rate_check(monkeypatch):
    # a flow that runs twice as fast as its labelled clock, its solver built
    # and checked with 2a, passes every residual check; the rate reads 4
    from harnacklab import heatflow

    build, check = hl.RoundSphere.cn_solver, heatflow._cn_solve
    monkeypatch.setattr(hl.RoundSphere, "cn_solver", lambda m, a: build(m, 2.0 * a))
    monkeypatch.setattr(heatflow, "_cn_solve", lambda m, a, *args: check(m, 2.0 * a, *args))
    assert sphere_clock_gap() > 1e-4


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_step_rejects_nonfinite_solve(monkeypatch, bad):
    from harnacklab import heatflow

    m = unit_circle(16)

    def broken_solve(m, a, solver, f_old, stiffness_old=None):
        out = f_old.copy()
        out[5] = bad
        return out, m.stiffness(out)

    monkeypatch.setattr(heatflow, "_cn_solve", broken_solve)
    state = hl.FlowState(hl.constant_field(m, 1.0), 1.0)
    with pytest.raises(hl.PositivityLossError) as err:
        hl.step(state, 0.01)
    assert err.value.node == 5


def test_each_state_is_scanned_once(monkeypatch):
    # the finite-positivity scan runs once per state: once for the initial
    # data in solve, once per stepped state, and none for the clock
    from harnacklab import heatflow

    calls = []
    scan = heatflow._finite_positive

    def counted(values):
        calls.append(None)
        return scan(values)

    monkeypatch.setattr(heatflow, "_finite_positive", counted)
    m = unit_circle(16)
    traj = hl.solve(m, single_mode_field(m), 0.1, 0.2, 0.01)
    assert len(calls) == 1
    calls.clear()
    assert len(list(traj)) == 11
    assert len(calls) == 10
    calls.clear()
    hl.step(traj.initial, 0.01)
    assert len(calls) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_trajectory_iteration_fails_closed(monkeypatch, bad):
    # a bad state met while a trajectory is iterated raises with the node,
    # the value and the time of the state it would have been
    from harnacklab import heatflow

    m = unit_circle(16)
    traj = hl.solve(m, hl.constant_field(m, 1.0), 0.1, 0.2, 0.01)
    solve_step = heatflow._cn_solve
    done = []

    def fails_third(m, a, solver, f_old, stiffness_old=None):
        out, out_stiffness = solve_step(m, a, solver, f_old, stiffness_old)
        done.append(None)
        if len(done) == 3:
            out[5] = bad
        return out, out_stiffness

    monkeypatch.setattr(heatflow, "_cn_solve", fails_third)
    with pytest.raises(hl.PositivityLossError) as err:
        list(traj)
    assert err.value.node == 5
    np.testing.assert_equal(err.value.value, bad)  # NaN equals NaN here
    assert err.value.time == pytest.approx(traj.times[3])


def test_pass_applies_the_stiffness_once_per_step(monkeypatch):
    # each step's residual check takes W of its solution, which the new
    # state carries as the next step's W f_old, and neither backend's solver
    # applies W to its right side: a pass of n steps, or a chain of n lone
    # steps, applies the stiffness n + 1 times, a lone step on a fresh state
    # twice, and every state is the one a lone step gives
    circle, sphere = unit_circle(16), hl.build_sphere(2)
    for m, f0 in (
        (circle, single_mode_field(circle)),
        (sphere, hl.build_initial_field(SPHERE_SIGNS_DATA, sphere)),
    ):
        traj = hl.solve(m, f0, 0.1, 0.2, 0.01)
        lone = [traj.initial]
        for _ in range(traj.n_steps):
            lone.append(hl.step(lone[-1], 0.01))
        calls = []
        stiffness = type(m).stiffness

        def counted(self, values):
            calls.append(None)
            return stiffness(self, values)

        monkeypatch.setattr(type(m), "stiffness", counted)
        states = list(traj)
        assert len(calls) == traj.n_steps + 1
        assert all(np.array_equal(s.f.values, r.f.values) for s, r in zip(states, lone))
        calls.clear()
        state = traj.initial
        for _ in range(traj.n_steps):
            state = hl.step(state, 0.01)
        assert len(calls) == traj.n_steps + 1
        calls.clear()
        hl.step(traj.initial, 0.01)
        assert len(calls) == 2


def test_pass_rejects_a_perturbed_solution(monkeypatch):
    # the handed-on stiffness belongs to the previous solution; the new
    # solution's own is taken fresh, so a wrong x still fails its check
    m = unit_circle(16)
    traj = hl.solve(m, single_mode_field(m), 0.1, 0.2, 0.01)
    build = type(m).cn_solver

    def perturbs_third(self, a):
        solve_exact = build(self, a)
        calls = []

        def solve(f):
            calls.append(None)
            x = solve_exact(f)
            if len(calls) == 3:
                x[5] *= 1.0 + 1e-6
            return x

        return solve

    monkeypatch.setattr(type(m), "cn_solver", perturbs_third)
    seen = []
    with pytest.raises(hl.SolverError):
        for state in traj:
            seen.append(state.time)
    assert len(seen) == 3


def test_step_rejects_nonpositive_dt():
    m = unit_circle(16)
    state = hl.FlowState(hl.constant_field(m, 1.0), 1.0)
    with pytest.raises(ValueError):
        hl.step(state, 0.0)


def test_solve_constant_trajectory():
    m = hl.build_torus(2, [1.0, 1.0], [16, 16])
    traj = hl.solve(m, hl.constant_field(m, 3.0), 0.1, 1.1, 0.01)
    assert len(traj) == 101
    assert all(np.all(s.f.values == 3.0) for s in traj)
    gaps = np.diff(traj.times)
    assert np.max(np.abs(gaps - 0.01)) < 1e-12


def test_solve_single_mode_decay():
    m = unit_circle(128)
    data = hl.TrigPolynomialData(floor=0.5, modes=(hl.TrigMode((1,), 0.5),))
    traj = hl.solve(m, hl.build_initial_field(data, m), 0.1, 0.35, 1e-3)
    amp = cosine_amplitude(list(traj)[-1])
    assert abs(amp - 0.5 * np.exp(-4 * np.pi**2 * 0.25)) / (0.5 * np.exp(-np.pi**2)) < 1e-3


def test_mass_conservation():
    m = unit_circle(64)
    f0 = hl.build_initial_field(hl.RandomSmoothData(seed=2, mode_cutoff=3, amplitude=0.5, floor=1.0), m)
    traj = hl.solve(m, f0, 0.05, 0.55, 1e-3)
    masses = np.array([hl.integrate(s.f) for s in traj])
    assert np.max(np.abs(masses - masses[0])) / abs(masses[0]) < 1e-12

    s = hl.build_sphere(3)
    f0 = hl.build_initial_field(hl.RandomSmoothData(seed=2, mode_cutoff=2, amplitude=0.5, floor=1.0), s)
    traj = hl.solve(s, f0, 0.05, 0.25, 2e-3)
    masses = np.array([hl.integrate(st.f) for st in traj])
    assert np.max(np.abs(masses - masses[0])) / abs(masses[0]) < 1e-12


def test_maximum_principle():
    m = hl.build_torus(2, [1.0, 1.0], [32, 32])
    f0 = hl.build_initial_field(hl.RandomSmoothData(seed=4, mode_cutoff=3, amplitude=0.5, floor=1.0), m)
    traj = hl.solve(m, f0, 0.05, 0.25, 5e-4)
    states = list(traj)
    maxes = [s.f.values.max() for s in states]
    mins = [s.f.values.min() for s in states]
    assert all(b <= a + 1e-12 for a, b in zip(maxes, maxes[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(mins, mins[1:]))


def test_all_states_strictly_positive():
    m = unit_circle(64)
    f0 = hl.build_initial_field(hl.RandomSmoothData(seed=8, mode_cutoff=2, amplitude=0.9, floor=0.05), m)
    traj = hl.solve(m, f0, 0.1, 0.3, 2e-3)
    assert all(s.f.values.min() > 0 for s in traj)


def test_self_convergence_second_order():
    # error of each run against its own dt/4 reference; halving dt gives 4x
    m = unit_circle(64)
    f0 = hl.build_initial_field(hl.RandomSmoothData(seed=5, mode_cutoff=3, amplitude=0.5, floor=1.0), m)

    def terminal(dt):
        return list(hl.solve(m, f0, 0.1, 0.2, dt))[-1].f.values

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
    for tiny in (5.0e-324, 1.0e-300):
        with pytest.raises(ValueError):
            hl.solve(m, good, 0.1, 0.2, tiny)  # too small: the snapshot times repeat
    with pytest.raises(ValueError, match="divide"):
        hl.solve(m, good, 1.0, 1.00000001, 3.2e-9)  # 4% of the span short of t_end
    with pytest.raises(ValueError, match="too small"):
        hl.solve(m, good, 1.0, 1.0000000000000004, 1.2e-16)  # snapshot times repeat
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
