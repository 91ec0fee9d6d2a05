"""Path-energy infimum and the integrated Harnack bound."""

import numpy as np
import pytest

import harnacklab as hl
from harnacklab.pathwise import PairValues, SpaceTimePair


def pair_values(traj, pairs):
    """f at the points of ``pairs``, taken in one pass over ``traj``."""
    values = PairValues(traj, pairs)
    for k, state in enumerate(traj):
        values.take(k, state)
    return values


def check_pairs(traj, pairs, tol):
    """``check_integrated_harnack`` on values taken in one pass over ``traj``."""
    return hl.check_integrated_harnack(traj, pairs, tol=tol, values=pair_values(traj, pairs))


@pytest.fixture(scope="module")
def torus2():
    return hl.build_torus(2, [1.0, 1.0], [64, 64])


def test_gamma_infimum_straight_path(torus2):
    pair = SpaceTimePair(x1=0, x2=32 * 64, t1=1.0, t2=2.0)  # half-period apart
    assert hl.gamma_infimum(torus2, pair) == pytest.approx(0.25, abs=1e-14)


def test_gamma_infimum_same_point(torus2):
    pair = SpaceTimePair(x1=7, x2=7, t1=0.5, t2=1.5)
    assert hl.gamma_infimum(torus2, pair) == 0.0


def test_gamma_infimum_sphere_antipodal():
    s = hl.build_sphere(3)
    antipode = int(np.argmin(s.positions @ s.positions[0]))
    pair = SpaceTimePair(x1=0, x2=antipode, t1=1.0, t2=1.0 + np.pi)
    assert hl.gamma_infimum(s, pair) == pytest.approx(np.pi, rel=1e-6)


def test_gamma_symmetry_and_time_scaling(torus2):
    a = hl.gamma_infimum(torus2, SpaceTimePair(3, 900, 1.0, 2.0))
    b = hl.gamma_infimum(torus2, SpaceTimePair(900, 3, 1.0, 2.0))
    assert a == b
    half = hl.gamma_infimum(torus2, SpaceTimePair(3, 900, 1.0, 3.0))
    assert half == pytest.approx(a / 2.0, rel=1e-13)


def test_pair_requires_increasing_times():
    with pytest.raises(ValueError):
        SpaceTimePair(0, 1, 2.0, 1.0)
    with pytest.raises(ValueError):
        SpaceTimePair(0, 1, -1.0, 1.0)


def constant_trajectory(m, t0=0.5, t_end=2.5, dt=0.05):
    return hl.solve(m, hl.constant_field(m, 2.0), t0, t_end, dt)


def test_constant_data_closed_form_slack(torus2):
    # ln f cancels, so slack = -(n ln(t2/t1) + Gamma/2)
    traj = constant_trajectory(torus2)
    pairs = [
        SpaceTimePair(5, 5, 1.0, 2.0),
        SpaceTimePair(0, 32 * 64, 1.0, 2.0),
    ]
    reports = check_pairs(traj, pairs, tol=0.0)
    assert reports[0].passed
    assert reports[0].slack == pytest.approx(-2 * np.log(2.0), abs=1e-12)
    expected = -(2 * np.log(2.0) + 0.25 / 2.0)
    assert reports[1].slack == pytest.approx(expected, abs=1e-12)


def test_constant_data_slack_monotone_in_t2(torus2):
    traj = constant_trajectory(torus2)
    slacks = [
        check_pairs(traj, [SpaceTimePair(0, 900, 1.0, t2)], tol=0.0)[0].slack
        for t2 in (1.5, 2.0, 2.5)
    ]
    assert slacks[0] > slacks[1] > slacks[2]


def test_overflowing_gamma_fails_its_pair():
    # on a side of 1e154, d^2 / (t2 - t1) overflows: rhs = inf, slack = -inf
    m = hl.build_torus(1, [1.0e154], [64])
    traj = hl.solve(m, hl.constant_field(m, 1.0), 0.1, 0.2, 0.01)
    (report,) = check_pairs(traj, [SpaceTimePair(0, 32, 0.1, 0.2)], tol=1.0)
    assert report.gamma == np.inf and report.slack == -np.inf
    assert not report.passed


def test_bound_holds_on_smooth_trajectory():
    m = hl.build_torus(1, [1.0], [64])
    f0 = hl.build_initial_field(
        hl.RandomSmoothData(seed=21, mode_cutoff=3, amplitude=0.5, floor=1.0), m
    )
    traj = hl.solve(m, f0, 0.05, 0.55, 1e-3)
    pairs = hl.sample_pairs(traj, 200, seed=99)
    tol = 260.0 * (m.mesh_scale**2 + traj.step_size)
    reports = check_pairs(traj, pairs, tol=tol)
    assert all(r.passed for r in reports)


def test_rejects_off_grid_times(torus2):
    traj = constant_trajectory(torus2)
    with pytest.raises(ValueError):
        check_pairs(traj, [SpaceTimePair(0, 1, 1.013, 2.0)], tol=0.0)


def test_sample_pairs_deterministic_and_valid(torus2):
    traj = constant_trajectory(torus2)
    pairs_a = hl.sample_pairs(traj, 50, seed=123)
    pairs_b = hl.sample_pairs(traj, 50, seed=123)
    assert pairs_a == pairs_b
    assert len(pairs_a) == 50
    assert all(p.t2 > p.t1 > 0 for p in pairs_a)
    assert any(p != q for p, q in zip(pairs_a, hl.sample_pairs(traj, 50, seed=124)))
