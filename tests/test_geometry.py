"""Manifold builders and differential operators."""

import numpy as np
import pytest

import harnacklab as hl
from harnacklab.geometry import (
    BackendError,
    RicciKind,
    components_norm_sq,
    grad_components,
    torus_stiffness_apply,
)


def torus_field(m, func):
    return hl.ScalarField(func(m.positions), m)


# ---------------------------------------------------------------------------
# builders


def test_build_torus_unit_square():
    m = hl.build_torus(2, [1.0, 1.0], [64, 64])
    assert m.node_count == 4096
    assert np.allclose(m.quadrature_weights, 1.0 / 4096)
    assert abs(m.total_volume - 1.0) < 1e-12
    assert m.ricci_form_kind is RicciKind.ZERO


def test_build_torus_circle():
    m = hl.build_torus(1, [2 * np.pi], [128])
    assert m.node_count == 128
    assert np.allclose(m.quadrature_weights, 2 * np.pi / 128)


@pytest.mark.parametrize(
    "args",
    [
        (4, [1.0] * 4, [16] * 4),     # dimension out of range
        (0, [], []),
        (2, [1.0], [16, 16]),         # length mismatch
        (1, [1.0], [15]),             # odd resolution
        (1, [1.0], [6]),              # too small
        (1, [-1.0], [16]),            # nonpositive side
    ],
)
def test_build_torus_rejects(args):
    with pytest.raises(ValueError):
        hl.build_torus(*args)


def test_build_sphere_area():
    m = hl.build_sphere(4)
    assert abs(m.total_volume - 4 * np.pi) / (4 * np.pi) < 0.01
    assert m.dimension == 2
    assert m.node_count == 10 * 4**4 + 2
    assert m.ricci_form_kind is RicciKind.UNIT_SPHERE_METRIC


def test_build_sphere_area_converges_monotonically():
    errs = [
        abs(hl.build_sphere(s).total_volume - 4 * np.pi) for s in (3, 4, 5)
    ]
    assert errs[0] > errs[1] > errs[2]


def test_build_sphere_rejects_low_subdivision():
    with pytest.raises(ValueError):
        hl.build_sphere(1)


# ---------------------------------------------------------------------------
# laplacian


def test_laplacian_constant_exact_torus():
    m = hl.build_torus(2, [1.0, 1.0], [16, 16])
    lap = hl.laplacian(hl.constant_field(m, 3.7))
    assert np.all(lap.values == 0.0)


def test_laplacian_constant_exact_sphere():
    m = hl.build_sphere(2)
    lap = hl.laplacian(hl.constant_field(m, 3.7))
    assert np.all(lap.values == 0.0)


def test_laplacian_cosine_mode():
    m = hl.build_torus(2, [1.0, 1.0], [64, 64])
    x = m.positions[:, 0]
    lap = hl.laplacian(torus_field(m, lambda p: np.cos(2 * np.pi * p[:, 0])))
    # central differences: error (2 pi)^2 (2 pi h)^2 / 12 ~ 0.032 at h = 1/64
    assert np.max(np.abs(lap.values + 4 * np.pi**2 * np.cos(2 * np.pi * x))) < 0.04


def test_laplacian_second_order_convergence():
    errs = []
    for res in (32, 64):
        m = hl.build_torus(1, [1.0], [res])
        x = m.positions[:, 0]
        lap = hl.laplacian(hl.ScalarField(np.cos(2 * np.pi * x), m))
        errs.append(np.max(np.abs(lap.values + 4 * np.pi**2 * np.cos(2 * np.pi * x))))
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_laplacian_sphere_degree_one_harmonic():
    # eigenvalue l(l+1) = 2; the max error is dominated by the cotangent
    # operator's known pointwise inconsistency at the 12 valence-5 vertices,
    # the mean error refines with subdivision
    means = []
    for s in (3, 4):
        m = hl.build_sphere(s)
        z = m.positions[:, 2]
        err = np.abs(hl.laplacian(hl.ScalarField(z, m)).values + 2 * z)
        assert err.max() < 0.26
        means.append(err.mean())
    assert means[1] < 0.5 * means[0]


# ---------------------------------------------------------------------------
# gradients


def test_grad_norm_sq_constant():
    for m in (hl.build_torus(1, [1.0], [32]), hl.build_sphere(2)):
        gns = hl.grad_norm_sq(hl.constant_field(m, 2.0))
        assert np.max(np.abs(gns.values)) < 1e-24


def test_grad_norm_sq_single_mode():
    m = hl.build_torus(2, [1.0, 1.0], [64, 64])
    x = m.positions[:, 0]
    gns = hl.grad_norm_sq(hl.ScalarField(np.sin(2 * np.pi * x), m))
    assert np.max(np.abs(gns.values - 4 * np.pi**2 * np.cos(2 * np.pi * x) ** 2)) < 0.2


def test_grad_norm_sq_refines_second_order():
    errs = []
    for res in (32, 64):
        m = hl.build_torus(1, [1.0], [res])
        x = m.positions[:, 0]
        gns = hl.grad_norm_sq(hl.ScalarField(np.sin(2 * np.pi * x), m))
        errs.append(np.max(np.abs(gns.values - 4 * np.pi**2 * np.cos(2 * np.pi * x) ** 2)))
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_grad_norm_sq_sphere_linear_function():
    # |grad z|^2 = 1 - z^2 on the unit sphere
    for s in (3, 4):
        m = hl.build_sphere(s)
        z = m.positions[:, 2]
        gns = hl.grad_norm_sq(hl.ScalarField(z, m))
        assert np.max(np.abs(gns.values - (1 - z * z))) < 0.02


# ---------------------------------------------------------------------------
# hessian penalty


def test_hessian_penalty_constant_field():
    m = hl.build_torus(2, [1.0, 1.0], [16, 16])
    pen = hl.hessian_penalty(hl.constant_field(m, 5.0), lam=2.0, t=1.0)
    # n (lam / 2t)^2 = 2
    assert np.allclose(pen.values, 2.0, atol=1e-14)
    assert np.all(hl.hessian_penalty(hl.constant_field(m, 5.0), 0.0, 1.0).values == 0.0)


def test_hessian_penalty_single_mode_symbolic():
    # g = A cos(2 pi (x + 2y)): continuum Hessian H_ij = -k_i k_j g
    amp, t, lam = 0.3, 0.7, 1.3
    errs = []
    for res in (32, 64):
        m = hl.build_torus(2, [1.0, 1.0], [res, res])
        theta = 2 * np.pi * (m.positions[:, 0] + 2 * m.positions[:, 1])
        g = amp * np.cos(theta)
        k = 2 * np.pi * np.array([1.0, 2.0])
        shift = lam / (2 * t)
        exact = np.zeros(m.node_count)
        for i in range(2):
            for j in range(2):
                hij = -k[i] * k[j] * g
                exact += (hij - (shift if i == j else 0.0)) ** 2
        pen = hl.hessian_penalty(hl.ScalarField(g, m), lam, t)
        errs.append(np.max(np.abs(pen.values - exact)) / np.max(np.abs(exact)))
    assert errs[0] < 0.06
    assert 3.3 < errs[0] / errs[1] < 4.7


def _roll_reference_operators(m, values, lam, t):
    # the torus stencils written with np.roll, in the library's operation order
    a = values.reshape(m.torus_resolution)
    hs = [s / r for s, r in zip(m.torus_side_lengths, m.torus_resolution)]
    stiff = np.zeros_like(a)
    hess = np.zeros_like(a)
    for ax, h in enumerate(hs):
        diag = (np.roll(a, -1, ax) - 2.0 * a + np.roll(a, 1, ax)) / (h * h)
        stiff += diag
        hess += (diag - lam / (2.0 * t)) ** 2
    for ax1 in range(m.dimension):
        for ax2 in range(ax1 + 1, m.dimension):
            app = np.roll(np.roll(a, -1, ax1), -1, ax2)
            apm = np.roll(np.roll(a, -1, ax1), 1, ax2)
            amp = np.roll(np.roll(a, 1, ax1), -1, ax2)
            amm = np.roll(np.roll(a, 1, ax1), 1, ax2)
            mixed = (app - apm - amp + amm) / (4.0 * hs[ax1] * hs[ax2])
            hess += 2.0 * mixed * mixed
    grads = [
        ((np.roll(a, -1, ax) - np.roll(a, 1, ax)) / (2.0 * h)).ravel() for ax, h in enumerate(hs)
    ]
    return stiff.ravel(), grads, hess.ravel()


@pytest.mark.parametrize(
    "args", [(1, [1.0], [16]), (2, [1.0, 2.0], [16, 8]), (3, [1.0, 1.0, 0.5], [8, 10, 12])]
)
def test_torus_stencils_match_np_roll_exactly(args):
    m = hl.build_torus(*args)
    values = np.random.default_rng(4).uniform(0.5, 2.0, m.node_count)
    field = hl.ScalarField(values, m)
    stiff, grads, hess = _roll_reference_operators(m, values, 1.3, 0.7)
    assert np.array_equal(torus_stiffness_apply(m, values), stiff)
    comps = grad_components(field)
    assert all(np.array_equal(c, g) for c, g in zip(comps, grads))
    assert np.array_equal(hl.grad_norm_sq(field).values, components_norm_sq(grads))
    assert np.array_equal(hl.hessian_penalty(field, 1.3, 0.7).values, hess)


def test_hessian_penalty_sphere_unsupported():
    m = hl.build_sphere(2)
    with pytest.raises(BackendError):
        hl.hessian_penalty(hl.constant_field(m, 1.0), 2.0, 1.0)


# ---------------------------------------------------------------------------
# ricci form


def test_ricci_quadratic_zero_on_torus():
    m = hl.build_torus(2, [1.0, 1.0], [16, 16])
    rng = np.random.default_rng(0)
    f = hl.ScalarField(rng.standard_normal(m.node_count), m)
    assert np.all(hl.ricci_quadratic(f).values == 0.0)


def test_ricci_quadratic_equals_grad_norm_sq_on_sphere():
    m = hl.build_sphere(3)
    f = hl.ScalarField(m.positions[:, 2], m)
    assert np.array_equal(hl.ricci_quadratic(f).values, hl.grad_norm_sq(f).values)


def test_ricci_quadratic_constant_sphere():
    m = hl.build_sphere(2)
    assert np.max(np.abs(hl.ricci_quadratic(hl.constant_field(m, 4.0)).values)) < 1e-24


def test_ricci_quadratic_nonnegative_everywhere():
    rng = np.random.default_rng(7)
    for m in (hl.build_torus(2, [1.0, 2.0], [16, 32]), hl.build_sphere(3)):
        f = hl.ScalarField(rng.standard_normal(m.node_count), m)
        assert np.all(hl.ricci_quadratic(f).values >= 0.0)


# ---------------------------------------------------------------------------
# integration


def test_integrate_constant():
    m = hl.build_torus(2, [1.0, 1.0], [32, 32])
    assert abs(hl.integrate(hl.constant_field(m, 1.0)) - 1.0) < 1e-13
    s = hl.build_sphere(4)
    assert abs(hl.integrate(hl.constant_field(s, 1.0)) - 4 * np.pi) / (4 * np.pi) < 0.01


def test_integrate_mean_zero_mode():
    m = hl.build_torus(2, [1.0, 1.0], [32, 32])
    f = torus_field(m, lambda p: np.cos(2 * np.pi * p[:, 0]))
    assert abs(hl.integrate(f)) < 1e-13


def test_integrate_laplacian_vanishes():
    rng = np.random.default_rng(3)
    m = hl.build_torus(2, [1.0, 1.0], [32, 32])
    f = hl.ScalarField(rng.standard_normal(m.node_count), m)
    assert abs(hl.integrate(hl.laplacian(f))) < 1e-10
    s = hl.build_sphere(3)
    g = hl.ScalarField(rng.standard_normal(s.node_count), s)
    assert abs(hl.integrate(hl.laplacian(g))) < 1e-10


def test_green_identity_both_backends():
    rng = np.random.default_rng(5)
    for m in (hl.build_torus(2, [1.0, 1.0], [32, 32]), hl.build_sphere(3)):
        phi = rng.standard_normal(m.node_count)
        psi = rng.standard_normal(m.node_count)
        a = hl.integrate(hl.ScalarField(phi * hl.laplacian(hl.ScalarField(psi, m)).values, m))
        b = hl.integrate(hl.ScalarField(psi * hl.laplacian(hl.ScalarField(phi, m)).values, m))
        assert abs(a - b) < 1e-10 * max(1.0, abs(a))


# ---------------------------------------------------------------------------
# geodesic distance


def test_geodesic_torus_straight():
    m = hl.build_torus(2, [1.0, 1.0], [64, 64])
    # node (0, 0) and node at (0.5, 0)
    assert hl.geodesic_distance(m, 0, 32 * 64) == pytest.approx(0.5, abs=1e-15)


def test_geodesic_torus_wraps():
    m = hl.build_torus(1, [1.0], [10])
    # node at 0.9 is one grid step from 0 through the seam
    assert hl.geodesic_distance(m, 0, 9) == pytest.approx(0.1, abs=1e-12)


def test_geodesic_sphere_antipodal():
    m = hl.build_sphere(3)
    dots = m.positions @ m.positions[0]
    antipode = int(np.argmin(dots))
    assert dots[antipode] == pytest.approx(-1.0, abs=1e-12)
    assert hl.geodesic_distance(m, 0, antipode) == pytest.approx(np.pi, abs=1e-6)


def test_geodesic_symmetry():
    m = hl.build_torus(2, [1.0, 2.0], [16, 16])
    assert hl.geodesic_distance(m, 3, 77) == hl.geodesic_distance(m, 77, 3)


# ---------------------------------------------------------------------------
# field validation


def test_scalar_field_length_checked():
    m = hl.build_torus(1, [1.0], [16])
    with pytest.raises(ValueError):
        hl.ScalarField(np.zeros(5), m)
