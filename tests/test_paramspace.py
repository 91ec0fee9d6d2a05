"""Parameter classification and the case-one uniqueness scan."""

import numpy as np
import pytest

import harnacklab as hl
from harnacklab.harnack import HarnackParams, Variant
from harnacklab.paramspace import (
    CaseTag,
    NamedMatch,
    ScanSpec,
    case_one_uniqueness_scan,
    classify,
)


def test_classify_ni_tuple():
    c = classify(HarnackParams(2, 1, -1, 1, 1, Variant.V))
    assert c.case_tag is CaseTag.CASE_ONE
    assert c.named_match is NamedMatch.NI
    assert c.constraints.alpha_minus_beta_nonneg
    assert c.constraints.b_plus_beta_nonneg
    assert c.constraints.quarter_square_nonpos
    assert c.constraints.maximum_principle_applicable
    assert c.quarter_square_value == pytest.approx(0.0, abs=1e-12)


def test_classify_cor_tuple():
    c = classify(HarnackParams(2, 1, 0, 2, 2, Variant.U))
    assert c.case_tag is CaseTag.CASE_TWO
    assert c.named_match is NamedMatch.CAO_HAMILTON_H
    assert c.constraints.maximum_principle_applicable


def test_classify_li_yau_tuple():
    c = classify(HarnackParams(2, 0, 0, 1, 1, Variant.V))
    assert c.case_tag is CaseTag.CASE_TWO
    assert c.named_match is NamedMatch.LI_YAU
    assert c.constraints.maximum_principle_applicable


def test_classify_sign_violation():
    c = classify(HarnackParams(1, 2, 0, 1, 1, Variant.V))
    assert c.case_tag is CaseTag.CASE_TWO
    assert not c.constraints.alpha_minus_beta_nonneg
    assert not c.constraints.maximum_principle_applicable
    assert c.named_match is NamedMatch.NONE


def test_classify_rejected_point_quarter_square():
    # (3, 1, -1): the quadratic constraint evaluates to 9/8 - 1 = 1/8 > 0
    lam = 3.0 / (2.0 * (3.0 - 1.0))
    c = classify(HarnackParams(3, 1, -1, 1, lam, Variant.V))
    assert c.case_tag is CaseTag.CASE_ONE
    assert c.quarter_square_value == pytest.approx(0.125, abs=1e-12)
    assert not c.constraints.maximum_principle_applicable


def test_classify_both_cases():
    # lam = alpha / (2 (alpha - beta)) kills the lam term and b = 0: both
    # cases at once, with the case-one quarter-square constraint 4/4 + 0 > 0
    c = classify(HarnackParams(2, 1, 0, 1, 1))
    assert c.case_tag is CaseTag.BOTH
    assert c.quarter_square_value == pytest.approx(1.0, abs=1e-12)
    assert not c.constraints.maximum_principle_applicable


def test_classify_positive_rescaling_invariance():
    rng = np.random.default_rng(17)
    base_tuples = [
        (2.0, 1.0, -1.0, 1.0, 1.0, Variant.V),
        (2.0, 1.0, 0.0, 2.0, 2.0, Variant.U),
        (2.0, 0.0, 0.0, 1.0, 1.0, Variant.V),
        (1.0, 2.0, 0.0, 1.0, 1.0, Variant.V),
        (1.7, 0.4, 0.8, -0.6, 1.1, Variant.U),
    ]
    for tup in base_tuples:
        ref = classify(HarnackParams(*tup))
        for _ in range(4):
            s = float(rng.uniform(0.1, 10.0))
            scaled = HarnackParams(s * tup[0], s * tup[1], s * tup[2], s * tup[3], tup[4], tup[5])
            got = classify(scaled)
            assert got.case_tag is ref.case_tag
            assert got.named_match is ref.named_match
            assert got.constraints == ref.constraints


def test_params_reject_zero_alpha():
    with pytest.raises(ValueError):
        HarnackParams(0.0, 1.0, 0.0, 1.0, 1.0)


REFERENCE_SPEC = ScanSpec((0.5, 4.0), (-2.0, 3.0), (-3.0, 1.0), 0.05)


@pytest.fixture(scope="module")
def reference_scan():
    return case_one_uniqueness_scan(REFERENCE_SPEC)


def test_scan_survivors_hug_the_ray(reference_scan):
    res = reference_scan
    assert res.survivors.shape[0] > 0
    alpha, beta, b = res.survivors[:, 0], res.survivors[:, 1], res.survivors[:, 2]
    assert np.all(np.abs(alpha - 2 * beta) <= REFERENCE_SPEC.step + 1e-12)
    assert np.all(np.abs(b + beta) <= REFERENCE_SPEC.step + 1e-12)
    assert np.all(alpha > 0)
    # on the ray the case-one condition pins lam = 1
    on_ray = np.abs(alpha - 2 * beta) < 1e-12
    assert np.allclose(res.survivors[on_ray, 3], 1.0, atol=1e-9)


def test_scan_contains_ni_point_and_rejects_off_ray(reference_scan):
    surv = reference_scan.survivors[:, :3]
    assert any(np.allclose(row, (2.0, 1.0, -1.0), atol=1e-9) for row in surv)
    assert not any(np.allclose(row, (3.0, 1.0, -1.0), atol=1e-9) for row in surv)


def test_scan_diameter_halves_with_step(reference_scan):
    finer = case_one_uniqueness_scan(ScanSpec((0.5, 4.0), (-2.0, 3.0), (-3.0, 1.0), 0.025))
    ratio = finer.max_ray_deviation / reference_scan.max_ray_deviation
    assert 0.4 < ratio < 0.6


def test_scan_notes_alpha_equals_beta_exclusions(reference_scan):
    assert reference_scan.n_alpha_eq_beta > 0
    assert reference_scan.n_points == 71 * 101 * 81


def test_scan_rejects_degenerate_ranges():
    with pytest.raises(ValueError):
        ScanSpec((1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), 0.05)
    with pytest.raises(ValueError):
        ScanSpec((0.5, 4.0), (-1.0, 1.0), (-1.0, 1.0), -0.1)


def test_survivors_yield_nonpositive_quantities():
    # every survivor, normalized to alpha = 2 with c = -b, produces a
    # quantity that stays nonpositive along a reference smooth flow
    res = case_one_uniqueness_scan(ScanSpec((0.5, 4.0), (-2.0, 3.0), (-3.0, 1.0), 0.1))
    m = hl.build_torus(1, [1.0], [64])
    f0 = hl.build_initial_field(
        hl.RandomSmoothData(seed=31, mode_cutoff=2, amplitude=0.3, floor=1.0), m
    )
    traj = hl.solve(m, f0, 0.1, 0.3, 2e-3)
    states = list(traj)
    tol = 260.0 * (m.mesh_scale**2 + traj.step_size)
    for alpha, beta, b, lam in res.survivors:
        scale = 2.0 / alpha
        p = HarnackParams(2.0, scale * beta, scale * b, -scale * b, lam, Variant.V)
        for state in (states[0], states[len(traj) // 2], states[-1]):
            q = hl.quantity_general(hl.log_v(state), state.time, p)
            assert hl.assert_nonpositive(q, tol).passed
