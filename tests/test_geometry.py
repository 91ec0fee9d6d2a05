"""Manifold builders and differential operators."""

import numpy as np
import pytest
from scipy import sparse

import harnacklab as hl
from harnacklab import sphere
from harnacklab.geometry import (
    BackendError, ManifoldDescriptor, components_norm_sq, grad_components,
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
    assert isinstance(m, hl.FlatTorus)


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
        (1, [1.0], [100_000_000]),    # over MAX_NODES, rejected before building
        (2, [1.0, 1.0], [514, 512]),
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
    assert isinstance(m, sphere.RoundSphere)


def test_build_sphere_area_converges_monotonically():
    errs = [
        abs(hl.build_sphere(s).total_volume - 4 * np.pi) for s in (3, 4, 5)
    ]
    assert errs[0] > errs[1] > errs[2]


def test_build_sphere_rejects_low_subdivision():
    with pytest.raises(ValueError):
        hl.build_sphere(1)


def _loop_subdivide(verts, faces):
    """The icosphere refinement as a Python loop over faces, with a dict of
    midpoints: the reference for ``sphere._subdivide``."""
    vlist = list(verts)
    midpoint = {}

    def mid(i, j):
        key = (i, j) if i < j else (j, i)
        k = midpoint.get(key)
        if k is None:
            p = (vlist[i] + vlist[j]) / 2.0
            p = p / np.linalg.norm(p)
            k = len(vlist)
            vlist.append(p)
            midpoint[key] = k
        return k

    new_faces = []
    for a, b, c in faces:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        new_faces.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
    return np.array(vlist), np.array(new_faces, dtype=np.int64)


def test_subdivide_matches_the_loop_bit_for_bit():
    # same vertex numbering, and each midpoint normalised by the same dot
    # product, so every sphere report is as the loop would give it
    verts, faces = sphere._icosahedron()
    want_verts, want_faces = verts, faces
    for _ in range(5):
        verts, faces = sphere._subdivide(verts, faces)
        want_verts, want_faces = _loop_subdivide(want_verts, want_faces)
        assert np.array_equal(faces, want_faces)
        assert np.array_equal(verts, want_verts)


def test_node_ceiling_admits_the_meshes_in_use():
    # 128^2 and 16^3 tori, the 64^3 calibrate builds for a 3-D config, and
    # spheres through subdivision 7 pass; subdivision 8 does not, and a huge
    # one is rejected without 4**s being computed
    from harnacklab.geometry import check_sphere_args, check_torus_args

    for args in ((2, (1.0, 1.0), (128, 128)), (3, (1.0,) * 3, (16,) * 3), (3, (1.0,) * 3, (64,) * 3)):
        check_torus_args(*args)
    check_sphere_args(7)  # 163,842 nodes
    for subdivision in (8, 10**9):
        with pytest.raises(ValueError, match="nodes"):
            check_sphere_args(subdivision)


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
    # every difference of equal values is exactly zero, and so its square
    for m in (hl.build_torus(1, [1.0], [32]), hl.build_sphere(2)):
        gns = hl.grad_norm_sq(hl.constant_field(m, 2.0))
        assert np.all(gns.values == 0.0)


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


# T^1, T^2 with unequal spacings, and T^3, whose padded corners feed the
# mixed Hessian terms
TORUS_STENCIL_CASES = [
    (1, [1.0], [16]),
    (2, [1.0, 2.0], [16, 8]),
    (3, [1.0, 1.0, 0.5], [8, 10, 12]),
]


def _roll_reference_operators(m, values, lam, t):
    # the torus stencils written with np.roll, in the library's operation order
    a = values.reshape(m.resolution)
    hs = [s / r for s, r in zip(m.side_lengths, m.resolution)]
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


@pytest.mark.parametrize("args", TORUS_STENCIL_CASES)
def test_torus_stencils_match_np_roll_exactly(args):
    m = hl.build_torus(*args)
    values = np.random.default_rng(4).uniform(0.5, 2.0, m.node_count)
    field = hl.ScalarField(values, m)
    stiff, grads, hess = _roll_reference_operators(m, values, 1.3, 0.7)
    assert np.array_equal(m.laplacian(values), stiff)
    comps = grad_components(field)
    assert all(np.array_equal(c, g) for c, g in zip(comps, grads))
    assert np.array_equal(hl.grad_norm_sq(field).values, components_norm_sq(grads))
    assert np.array_equal(hl.hessian_penalty(field, 1.3, 0.7).values, hess)


@pytest.mark.parametrize("args", TORUS_STENCIL_CASES)
def test_stacked_stencils_match_np_roll_per_row(args):
    # two distinct rows through one padded copy: each row's operators equal
    # its own np.roll reference, so no row reads the other's pad or corner
    m = hl.build_torus(*args)
    rng = np.random.default_rng(5)
    rows = rng.uniform(0.5, 2.0, (2, m.node_count))
    lap, grad_sq, grad, hess = m.stencils(
        rows, laplacian=True, grad_norm_sq=True, gradient=True, hessian=(1.3, 0.7)
    )
    assert lap.shape == grad_sq.shape == hess.shape == (2, m.node_count)
    assert len(grad) == m.dimension
    for k, values in enumerate(rows):
        stiff, grads, pen = _roll_reference_operators(m, values, 1.3, 0.7)
        assert np.array_equal(lap[k], stiff)
        assert all(np.array_equal(comp[k], g) for comp, g in zip(grad, grads))
        assert np.array_equal(grad_sq[k], components_norm_sq(grads))
        assert np.array_equal(hess[k], pen)
    assert [x is None for x in m.stencils(rows, gradient=True)] == [True, True, False, True]
    for t in (0.0, -0.5):
        with pytest.raises(ValueError, match="t must be positive"):
            m.stencils(rows, hessian=(1.3, t))


def _add_at_stiffness(m, values):
    """The sphere stiffness as scattered edge differences (np.add.at form)."""
    diff = m.edge_weights * (values[m.edge_j] - values[m.edge_i])
    out = np.zeros(m.node_count)
    np.add.at(out, m.edge_i, diff)
    np.add.at(out, m.edge_j, -diff)
    return out


def _add_at_grad_norm_sq(m, values):
    """The sphere |grad f|^2 as face gradients scattered to vertices (np.add.at form)."""
    p0, p1, p2 = (m.positions[m.faces[:, k]] for k in range(3))
    cross = np.cross(p1 - p0, p2 - p0)
    double_area = np.linalg.norm(cross, axis=1)
    normals = cross / double_area[:, None]
    # the gradient of the hat function at corner k is (n x e_k) / (2A), with
    # e_k the edge opposite corner k, traversed consistently
    opposite = np.stack([p2 - p1, p0 - p2, p1 - p0], axis=1)  # (F, 3, 3)
    grad_vectors = np.cross(normals[:, None, :], opposite) / double_area[:, None, None]
    grad = np.einsum("fm,fmd->fd", values[m.faces], grad_vectors)
    gsq = np.einsum("fd,fd->f", grad, grad)
    out = np.zeros(m.node_count)
    np.add.at(out, m.faces.ravel(), np.repeat(double_area / 6.0 * gsq, 3))
    out /= m.quadrature_weights
    return out


@pytest.mark.parametrize("subdivision", [2, 4])
def test_sphere_sparse_operators_match_add_at_reference(subdivision):
    m = hl.build_sphere(subdivision)
    rough = np.random.default_rng(6).uniform(0.5, 2.0, m.node_count)
    smooth = np.exp(m.positions[:, 2]) + np.sin(3.0 * m.positions[:, 0])
    for values in (rough, smooth):
        for got, want in (
            (m.stiffness(values), _add_at_stiffness(m, values)),
            (m.grad_norm_sq(values), _add_at_grad_norm_sq(m, values)),
        ):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("subdivision", [2, 3, 4, 5])
def test_sphere_edge_energy_weights_are_positive(subdivision):
    # every icosphere triangle is acute, so every cotangent weight of the
    # squared gradient is positive and |grad f|^2 >= 0
    m = hl.build_sphere(subdivision)
    assert m.edge_energy.shape == (m.node_count, len(m.edge_i))
    assert m.edge_energy.nnz == 4 * len(m.edge_i)  # two endpoints, two opposite corners
    assert np.all(m.edge_energy.data > 0.0)


def _edge_major_operators(m):
    """The three sparse operators built edge-major, one row per edge, and
    transposed by ``.T.tocsr()`` where they sum into vertices: the reference
    for the sphere's assembly in row order."""
    n, e = m.node_count, len(m.edge_i)
    p = [m.positions[m.faces[:, k]] for k in range(3)]
    half_cot = np.empty(m.faces.shape)
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        u, v = p[i] - p[k], p[j] - p[k]
        cot = np.einsum("fd,fd->f", u, v) / np.linalg.norm(np.cross(u, v), axis=1)
        half_cot[:, k] = 0.5 * cot
    # the edge opposite each face corner, found by its key lo * N + hi, and
    # the two corners opposite each edge, as flat indices into faces
    a, b = m.faces[:, [1, 2, 0]], m.faces[:, [2, 0, 1]]
    keys = (np.minimum(a, b) * n + np.maximum(a, b)).ravel()
    opposite_edge = np.searchsorted(m.edge_i * n + m.edge_j, keys)
    opposite = np.argsort(opposite_edge, kind="stable").reshape(-1, 2)

    def edge_rows(values, columns):
        indptr = np.arange(0, columns.size + 1, columns.shape[1])
        return sparse.csr_matrix((values.ravel(), columns.ravel(), indptr), shape=(e, n))

    w = m.edge_weights
    ends = np.stack([m.edge_i, m.edge_j], axis=1)
    reached = np.concatenate([ends, m.faces.ravel()[opposite]], axis=1)
    energy = np.concatenate([np.stack([w, w], axis=1), half_cot.ravel()[opposite]], axis=1)
    return {
        "edge_difference": edge_rows(np.tile([-1.0, 1.0], (e, 1)), ends),
        "edge_scatter": edge_rows(np.stack([w, -w], axis=1), ends).T.tocsr(),
        "edge_energy": edge_rows(energy / (3.0 * m.quadrature_weights[reached]), reached).T.tocsr(),
    }


@pytest.mark.parametrize("subdivision", [2, 3, 4, 5])
def test_sphere_operators_equal_transposed_construction(subdivision):
    # the operators assembled in row order hold exactly the arrays of the
    # edge-major construction and its transpose: same entries, same order
    m = hl.build_sphere(subdivision)
    for name, want in _edge_major_operators(m).items():
        got = getattr(m, name)
        assert got.shape == want.shape, name
        for part in ("indptr", "indices", "data"):
            got_part, want_part = getattr(got, part), getattr(want, part)
            assert got_part.dtype == want_part.dtype, (name, part)
            assert np.array_equal(got_part, want_part), (name, part)


def _traced(call):
    """``call()``, the tracemalloc size of what it keeps, and its peak."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


def test_build_sphere_peaks_at_most_twice_what_it_keeps():
    # at sub4 the mesh and its three operators keep about 1.2 MB.  The build
    # holds at most one operator's assembly on top of that (edge_energy: four
    # entries an edge, E = 7680, each a value, a row and a sort position,
    # 3 * 4E * 8 B = 0.74 MB) and peaks at 1.7x.  An operator assembled edge
    # by edge and then transposed holds both copies, and per-corner point
    # arrays kept alive through the assembly add 0.37 MB more: 3.0x
    hl.build_sphere(2)  # scipy is loaded before the trace
    _, kept, peak = _traced(lambda: hl.build_sphere(4))
    assert peak <= 2.0 * kept


def test_sphere_band_order_peaks_at_most_five_times_what_it_keeps():
    # at sub4 the order keeps perm (N int64) and each edge's band row and
    # column (E int64 each), 0.14 MB.  The sort of the 2E incidences holds
    # their heads, tails, degrees and sort order, 2E * 8 B each (4 B for the
    # degrees), and peaks at 3.5x.  The incidences as a list of Python ints add 2E * 36 B
    # = 0.55 MB, 3.9x by themselves: 8.2x
    m = hl.build_sphere(4)
    _, kept, peak = _traced(lambda: m._band_order)
    assert peak <= 5.0 * kept


def test_sphere_cn_band_is_the_permuted_sparse_matrix():
    # the band written from the edges holds exactly the entries of the
    # sparse M - a W, in reverse Cuthill-McKee order
    m = hl.build_sphere(2)
    a = 2.5e-4
    perm, _, _, kd = m._band_order
    assert np.array_equal(np.sort(perm), np.arange(m.node_count))
    band = m._cn_band(a)
    dense = np.zeros((m.node_count, m.node_count))
    for k in range(kd + 1):  # band row kd - k holds superdiagonal k
        j = np.arange(k, m.node_count)
        dense[j - k, j] = dense[j, j - k] = band[kd - k, k:]
    lhs = sparse.diags(m.quadrature_weights) - a * (m.edge_scatter @ m.edge_difference)
    assert np.array_equal(dense, lhs.toarray()[perm][:, perm])


def _edge_graph(edge_i, edge_j, n):
    heads, tails = np.concatenate([edge_i, edge_j]), np.concatenate([edge_j, edge_i])
    return sparse.csr_matrix((np.ones(len(heads)), (heads, tails)), shape=(n, n))


@pytest.mark.parametrize("subdivision, kd", [(2, 21), (3, 41), (4, 81), (5, 161)])
def test_sphere_band_order_is_scipys_reverse_cuthill_mckee(subdivision, kd):
    # the sphere orders its band without csgraph, node for node as csgraph does
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    m = hl.build_sphere(subdivision)
    perm, _, _, got_kd = m._band_order
    graph = _edge_graph(m.edge_i, m.edge_j, m.node_count)
    assert np.array_equal(perm, reverse_cuthill_mckee(graph, symmetric_mode=True))
    assert got_kd == kd


def test_reverse_cuthill_mckee_orders_each_component_as_scipy():
    # two meshes side by side: one search per component, seeded in argsort order
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    small, large = hl.build_sphere(2), hl.build_sphere(3)
    offset = large.node_count
    edge_i = np.concatenate([large.edge_i, small.edge_i + offset])
    edge_j = np.concatenate([large.edge_j, small.edge_j + offset])
    n = offset + small.node_count
    want = reverse_cuthill_mckee(_edge_graph(edge_i, edge_j, n), symmetric_mode=True)
    assert np.array_equal(sphere._reverse_cuthill_mckee(edge_i, edge_j, n), want)


def test_hessian_penalty_sphere_unsupported():
    m = hl.build_sphere(2)
    with pytest.raises(BackendError):
        hl.hessian_penalty(hl.constant_field(m, 1.0), 2.0, 1.0)
    # the one operator call refuses them too, whatever else it is asked for
    for ask in ({"gradient": True}, {"hessian": (2.0, 1.0)}):
        with pytest.raises(BackendError):
            m.stencils((m.positions[:, 2],), laplacian=True, grad_norm_sq=True, **ask)


# ---------------------------------------------------------------------------
# ricci form


def test_ricci_constant_is_the_papers_hypothesis():
    # every backend is Einstein, Ric = kappa g, with the paper's Ric >= 0
    backends = ManifoldDescriptor.__subclasses__()
    assert set(backends) == {hl.FlatTorus, sphere.RoundSphere}
    assert all(backend.ricci_constant >= 0.0 for backend in backends)
    assert hl.FlatTorus.ricci_constant == 0.0
    assert sphere.RoundSphere.ricci_constant == 1.0


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
    assert m.geodesic_distance(0, 32 * 64) == pytest.approx(0.5, abs=1e-15)


def test_geodesic_torus_wraps():
    m = hl.build_torus(1, [1.0], [10])
    # node at 0.9 is one grid step from 0 through the seam
    assert m.geodesic_distance(0, 9) == pytest.approx(0.1, abs=1e-12)


def test_geodesic_sphere_antipodal():
    m = hl.build_sphere(3)
    dots = m.positions @ m.positions[0]
    antipode = int(np.argmin(dots))
    assert dots[antipode] == pytest.approx(-1.0, abs=1e-12)
    assert m.geodesic_distance(0, antipode) == pytest.approx(np.pi, abs=1e-6)


def test_geodesic_symmetry():
    m = hl.build_torus(2, [1.0, 2.0], [16, 16])
    assert m.geodesic_distance(3, 77) == m.geodesic_distance(77, 3)


# ---------------------------------------------------------------------------
# field validation


def test_scalar_field_length_checked():
    m = hl.build_torus(1, [1.0], [16])
    with pytest.raises(ValueError):
        hl.ScalarField(np.zeros(5), m)
