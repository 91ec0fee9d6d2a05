"""Acceptance gates, one test per criterion.

Criteria 2, 5, 6 and 7 run the shipped configs in ``configs/`` end to end
through the runner (shared module-scoped fixtures, one run per manifold and
direction); the rest drive the library directly.  Run with

    pytest -v -s tests/test_acceptance.py

to see one line per criterion.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import harnacklab as hl
from harnacklab.config import parse_config
from harnacklab.initialdata import wrapped_distance_sq
from harnacklab.paramspace import NamedMatch, ScanSpec, case_one_uniqueness_scan, classify
from harnacklab.pathwise import SpaceTimePair
from harnacklab.runner import _draw_residual_params, run_config
from test_pathwise import check_pairs

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def run_shipped(name, tmpdir):
    config = parse_config(CONFIG_DIR / name)
    config = replace(config, output=replace(config.output, directory=str(tmpdir)))
    start = time.perf_counter()
    outcome = run_config(config)
    elapsed = time.perf_counter() - start
    return config, outcome, elapsed


@pytest.fixture(scope="module")
def torus_run(tmp_path_factory):
    return run_shipped("torus_full.yaml", tmp_path_factory.mktemp("torus_full"))


@pytest.fixture(scope="module")
def sphere_run(tmp_path_factory):
    return run_shipped("sphere_signs.yaml", tmp_path_factory.mktemp("sphere_signs"))


@pytest.fixture(scope="module")
def torus_backward_run(tmp_path_factory):
    return run_shipped("torus_backward.yaml", tmp_path_factory.mktemp("torus_bwd"))


@pytest.fixture(scope="module")
def sphere_backward_run(tmp_path_factory):
    return run_shipped("sphere_backward.yaml", tmp_path_factory.mktemp("sphere_bwd"))


def test_criterion_1_constant_solution_exactness():
    start = time.perf_counter()
    m = hl.build_torus(2, [1.0, 1.0], [32, 32])
    traj = hl.solve(m, hl.constant_field(m, 1.0), 1.0, 2.0, 0.01)
    states = list(traj)
    h_at_1 = hl.quantity_H(hl.log_u(states[0]), 1.0)
    assert np.max(np.abs(h_at_1.values + 4.0)) <= 1e-12
    for state in states:
        fd, fh = hl.entropy_F(state)
        assert abs(fd + 4.0 * state.time) <= 1e-12
        assert abs(fh + 4.0 * state.time) <= 1e-12
        assert abs(hl.dissipation_F(state) + 4.0) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: constant-solution identities exact to 1e-12 in {elapsed:.2f}s")


def test_criterion_2_harnack_signs(torus_run, sphere_run):
    for label, (config, outcome, elapsed) in (("T2", torus_run), ("S2", sphere_run)):
        assert elapsed < 30.0, f"{label} run took {elapsed:.1f}s"
        signs = outcome.summary["suites"]["harnack_signs"]
        tol = outcome.summary["tol_disc"]
        assert signs["pass"]
        assert signs["worst_max_H"] <= tol
        assert signs["worst_max_P"] <= tol
        assert signs["worst_max_liyau"] <= tol
        assert signs["p_vs_h_max_abs_diff"] <= 1e-9
        assert outcome.exit_code == 0
    # the shipped sphere run steps on the banded Cholesky solver
    meta = Path(sphere_run[0].output.directory) / "trajectory_meta.json"
    assert json.loads(meta.read_text())["solver"]["linear_solver"] == "band_cholesky"
    print(
        "\nACCEPTANCE 2 PASS: max H, P, Li-Yau <= tol_disc at every snapshot "
        f"(T2 {torus_run[2]:.1f}s, S2 {sphere_run[2]:.1f}s, both < 30s)"
    )


def test_criterion_3_evolution_residual_convergence():
    def trajectory(res, dt):
        m = hl.build_torus(1, [1.0], [res])
        data = hl.TrigPolynomialData(floor=0.8, modes=(hl.TrigMode((1,), 0.4),))
        return hl.solve(m, hl.build_initial_field(data, m), 0.1, 0.3, dt)

    coarse = list(trajectory(128, 2e-3))[49:52]   # t = 0.2 in the middle
    fine = list(trajectory(256, 1e-3))[99:102]
    ratios = []
    for p in _draw_residual_params(20240601):  # 5 tuples per variant, alpha > beta
        r_coarse = hl.evolution_residual(coarse, 2e-3, p)
        r_fine = hl.evolution_residual(fine, 1e-3, p)
        ratio = r_coarse / r_fine
        assert 3.5 <= ratio <= 4.5, f"tuple {p} ratio {ratio}"
        ratios.append(ratio)
    print(
        f"\nACCEPTANCE 3 PASS: residual ratios under (h, dt) halving in "
        f"[{min(ratios):.3f}, {max(ratios):.3f}] for 10 random tuples"
    )


def test_criterion_4_stokes_identity_decay():
    gaps = {}
    for res in (64, 128):
        m = hl.build_torus(1, [1.0], [res])
        data = hl.TrigPolynomialData(floor=0.8, modes=(hl.TrigMode((1,), 0.4),))
        st = hl.FlowState(hl.build_initial_field(data, m), 0.1)
        fd, fh = hl.entropy_F(st)
        wd, wp = hl.entropy_W(st)
        gaps[res] = (abs(fd - fh), abs(wd - wp), m.mesh_scale)
    # fit the h^2 constant on the coarse level with margin, bound the fine level
    for k in (0, 1):
        c_green = gaps[64][k] / gaps[64][2] ** 2 * 1.3
        assert gaps[128][k] <= c_green * gaps[128][2] ** 2
        ratio = gaps[64][k] / gaps[128][k]
        assert 3.2 <= ratio <= 4.8
    print(
        f"\nACCEPTANCE 4 PASS: Stokes gaps {gaps[64][0]:.2e} -> {gaps[128][0]:.2e} (F), "
        f"{gaps[64][1]:.2e} -> {gaps[128][1]:.2e} (W), 2nd-order decay"
    )


def test_criterion_5_entropy_monotonicity(torus_run, sphere_run):
    for label, (config, outcome, _) in (("T2", torus_run), ("S2", sphere_run)):
        ent = outcome.summary["suites"]["entropy"]
        tol = outcome.summary["tol_disc"]
        assert ent["pass"]
        assert ent["worst_dF_fd_centered"] <= tol
        assert ent["worst_dW_fd_centered"] <= tol
        if label == "T2":
            assert ent["xcheck_worst_gap"] <= ent["xcheck_tol"]

    # refinement decay of |dF_fd - dissipation| at a fixed interior time
    gaps = []
    for res, dt in ((64, 4e-3), (128, 2e-3)):
        m = hl.build_torus(1, [1.0], [res])
        data = hl.TrigPolynomialData(floor=0.8, modes=(hl.TrigMode((1,), 0.4),))
        traj = hl.solve(m, hl.build_initial_field(data, m), 0.1, 0.3, dt)
        series, idx = hl.entropy_series(traj), int(round(0.1 / dt))
        gaps.append(abs(series.dF_fd[idx] - series.dF_formula[idx]))
    ratio = gaps[0] / gaps[1]
    assert 3.2 <= ratio <= 4.8
    print(
        f"\nACCEPTANCE 5 PASS: centered dF,dW <= tol_disc on both manifolds; "
        f"dissipation cross-check decays {ratio:.2f}x under refinement"
    )


def test_criterion_6_integrated_harnack(torus_run, sphere_run):
    for label, (config, outcome, _) in (("T2", torus_run), ("S2", sphere_run)):
        pw = outcome.summary["suites"]["pathwise"]
        assert pw["pass"] and pw["pair_count"] == 100

    # constant-data slacks against the closed form
    m = hl.build_torus(2, [1.0, 1.0], [16, 16])
    traj = hl.solve(m, hl.constant_field(m, 2.0), 0.5, 2.0, 0.05)
    rep = check_pairs(traj, [SpaceTimePair(9, 9, 1.0, 2.0)], tol=0.0)[0]
    assert rep.slack == pytest.approx(-2.0 * np.log(2.0), abs=1e-12)
    rep2 = check_pairs(traj, [SpaceTimePair(0, 8 * 16, 0.5, 2.0)], tol=0.0)[0]
    expected = -(2.0 * np.log(4.0) + (0.5**2 / 1.5) / 2.0)
    assert rep2.slack == pytest.approx(expected, abs=1e-12)
    print(
        "\nACCEPTANCE 6 PASS: 100 seeded pairs hold on each manifold; "
        "constant-data slacks match closed forms to 1e-12"
    )


def test_criterion_7_backward_flows(torus_backward_run, sphere_backward_run):
    for label, (config, outcome, elapsed) in (
        ("T2", torus_backward_run),
        ("S2", sphere_backward_run),
    ):
        assert elapsed < 30.0
        tol = outcome.summary["tol_disc"]
        signs = outcome.summary["suites"]["harnack_signs"]
        assert signs["pass"]
        assert signs["worst_max_H"] <= tol and signs["worst_max_liyau"] <= tol
        ent = outcome.summary["suites"]["entropy"]
        assert ent["pass"]
        assert ent["worst_dF_fd_centered"] <= tol    # nonincreasing in tau
        assert ent["implied_dF_dt_min"] >= -tol      # hence nondecreasing in t
        assert ent["implied_dW_dt_min"] >= -tol
    print(
        "\nACCEPTANCE 7 PASS: backward runs reproduce the sign and "
        "monotonicity gates in the tau clock; implied dF/dt, dW/dt >= -tol_disc"
    )


def test_shipped_backward_twin_computes_the_forward_diagnostics(torus_run, torus_backward_run):
    # on a static metric the backward equation in tau is the forward
    # equation: columns time through dW_formula match byte for byte
    def computed_columns(run):
        text = (Path(run[1].output_dir) / "diagnostics.csv").read_text()
        return [line.split(",")[:12] for line in text.splitlines()]

    assert torus_run[1].exit_code == torus_backward_run[1].exit_code == 0
    assert computed_columns(torus_run) == computed_columns(torus_backward_run)


def test_criterion_8_parameter_uniqueness():
    spec = ScanSpec((0.5, 4.0), (-2.0, 3.0), (-3.0, 1.0), 0.05)
    res = case_one_uniqueness_scan(spec)
    assert res.survivors.shape[0] > 0
    alpha, beta, b = res.survivors[:, 0], res.survivors[:, 1], res.survivors[:, 2]
    assert np.all(np.abs(alpha - 2 * beta) <= spec.step + 1e-12)
    assert np.all(np.abs(b + beta) <= spec.step + 1e-12)

    finer = case_one_uniqueness_scan(ScanSpec((0.5, 4.0), (-2.0, 3.0), (-3.0, 1.0), 0.025))
    ratio = finer.max_ray_deviation / res.max_ray_deviation
    assert 0.4 <= ratio <= 0.6

    assert classify(hl.NI_PARAMS).named_match is NamedMatch.NI
    assert classify(hl.CAO_HAMILTON_H_PARAMS).named_match is NamedMatch.CAO_HAMILTON_H
    assert classify(hl.LI_YAU_PARAMS).named_match is NamedMatch.LI_YAU
    print(
        f"\nACCEPTANCE 8 PASS: {res.survivors.shape[0]} survivors within one step of "
        f"the ray, diameter ratio {ratio:.3f} under step halving, named tuples recognized"
    )


def test_criterion_9_gaussian_equality_case():
    t = 0.01
    m = hl.build_torus(2, [8.0, 8.0], [128, 128])
    center = (4.0, 4.0)
    state = hl.FlowState(hl.wrapped_gaussian(m, center, heat_time=t), t)
    rsq = wrapped_distance_sq(m, center)
    central = rsq <= 1.0
    ly = hl.quantity_liyau(hl.log_v(state), t).values
    worst = float(np.max(np.abs(ly[central])))

    # periodization bound: nearest-image Gaussian ratio at the edge of the
    # central region plus the tail floor, pushed through two log-derivatives
    side = 8.0
    r_c = 1.0
    image_ratio = np.exp(-(((side - r_c) ** 2) - r_c**2) / (4 * t))
    floor_ratio = 1e-120 / ((4 * np.pi * t) ** -1 * np.exp(-r_c**2 / (4 * t)))
    h = m.mesh_scale
    periodization_bound = 8.0 * (image_ratio + floor_ratio) / (h * h)
    tol_disc = 260.0 * (h * h + 0.0)
    assert worst <= periodization_bound + tol_disc
    assert worst <= 1e-9  # quadratic log-field: stencils are exact on it
    # negative control: with the constant 0.9 n in place of n, the same
    # region reads 2 Lap v - 0.9 n/t = 0.1 n/t = 20 at every node
    weak = hl.quantity_general(hl.log_v(state), t, replace(hl.LI_YAU_PARAMS, c=0.9)).values
    assert np.min(weak[central]) > periodization_bound + tol_disc
    assert np.max(np.abs(weak[central] - 0.1 * m.dimension / t)) <= 1e-9

    h_vals = hl.quantity_H(hl.log_u(state), t).values
    expected = -m.dimension / t - rsq / (4 * t * t)
    assert np.max(np.abs(h_vals[central] - expected[central])) <= 1e-9
    print(
        f"\nACCEPTANCE 9 PASS: Li-Yau equality case |max| = {worst:.2e} over the "
        "central region; H matches the plane-Gaussian formula to 1e-9"
    )


def test_criterion_10_determinism(torus_run, tmp_path):
    config, outcome, _ = torus_run
    output = replace(config.output, directory=str(tmp_path / "rerun"))
    rerun = run_config(replace(config, output=output))
    assert rerun.exit_code == outcome.exit_code
    for name in ("summary.json", "diagnostics.csv", "trajectory_meta.json", "pathwise.csv"):
        a = (Path(outcome.output_dir) / name).read_bytes()
        b = (tmp_path / "rerun" / name).read_bytes()
        assert a == b, f"{name} differs between reruns"
    print("\nACCEPTANCE 10 PASS: rerun reports are byte-identical")
