"""The step's and the snapshot's in-place arithmetic, bit for bit against the
expressions it replaced.

Each rewritten function evaluates its formula term by term into arrays it
allocates itself.  Every operation, its order and its association stay, so
each output must equal the allocate-per-operation expression written out
here.  Outputs are compared as int64 bits, so -0.0 against +0.0 and NaN
payloads count.  The data are seeded uniform values with special values
mixed in: +-0.0, +-1.0 (u = -ln 1 = -0.0), subnormals and +-1e300, whose
squares overflow.  Every input must be unchanged afterwards.  The last two
tests bound the tracemalloc peak of one snapshot and of one step, so the
per-operation temporaries do not come back.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

import harnacklab as hl
from harnacklab import entropy, harnack, heatflow
from harnacklab.geometry import components_norm_sq
from test_geometry import _roll_reference_operators

SPECIALS = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.5e-310, 1e300, -1e300])
TORI = [(1, [1.0], [16]), (2, [1.0, 2.0], [16, 8]), (3, [1.0, 1.0, 0.5], [8, 10, 12])]
PARAMS = [
    harnack.CAO_HAMILTON_H_PARAMS,
    harnack.LI_YAU_PARAMS,
    harnack.NI_PARAMS,
    harnack.HarnackParams(1.5, 0.25, 0.75, -0.5, 1.25, harnack.Variant.V),
]


@pytest.fixture(autouse=True)
def _quiet_overflow():
    # the 1e300 rows overflow in the old expressions as in the new ones
    with np.errstate(all="ignore"):
        yield


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def assert_same_bits(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(bits(got), bits(want))


def mixed(rng, shape, low=-2.0, high=2.0) -> np.ndarray:
    """Seeded uniform values, a special value at about one entry in four."""
    values = rng.uniform(low, high, shape)
    hit = rng.random(shape) < 0.25
    values[hit] = rng.choice(SPECIALS, int(hit.sum()))
    return values


def data_rows(rng, n: int) -> np.ndarray:
    """Two mixed rows, a row near 1e-160 (its squares are subnormal, where
    (2x) x and 2 (x x) can differ), then one constant row of each special
    value."""
    return np.concatenate([
        mixed(rng, (2, n)),
        rng.uniform(-2.0, 2.0, (1, n)) * 1e-160,
        np.repeat(SPECIALS[:, None], n, axis=1),
    ])


def checkerboard_zeros(m) -> np.ndarray:
    """+0.0 and -0.0 alternating along every axis of a torus grid: at each
    +0.0 node every second difference is -0.0, so a sum of them started from
    its first term, not from +0.0, keeps the sign."""
    parity = np.indices(m.resolution).sum(axis=0).ravel() % 2
    return np.where(parity == 0, 0.0, -0.0)


def positive_values(rng, n: int) -> np.ndarray:
    """Flow data: finite and > 0, with exact 1.0s, subnormals and 1e300s."""
    values = rng.uniform(0.5, 2.0, n)
    hit = rng.random(n) < 0.25
    values[hit] = rng.choice([1.0, 5e-324, 2.5e-310, 1e300], int(hit.sum()))
    return values


class Unchanged:
    """Copies of the inputs, checked bit for bit against them on exit."""

    def __init__(self, *arrays):
        self.arrays = arrays

    def __enter__(self):
        self.copies = [np.array(a, copy=True) for a in self.arrays]

    def __exit__(self, *exc):
        for a, copy in zip(self.arrays, self.copies):
            assert_same_bits(a, copy)


# ---------------------------------------------------------------------------
# the expressions before the rewrite


def norm_sq_before(components):
    out = np.zeros(components[0].shape)
    for comp in components:
        out += comp * comp
    return out


def stencils_before(m, rows, lam, t):
    """FlatTorus.stencils as it was, stacked from the np.roll reference of
    each row: the same operations in the same order on the same values."""
    per_row = [_roll_reference_operators(m, row, lam, t) for row in rows]
    grad = [np.array([g[ax] for _, g, _ in per_row]) for ax in range(m.dimension)]
    return np.array([r[0] for r in per_row]), grad, np.array([r[2] for r in per_row])


def stiffness_before(m, values):
    if m.has_hessian:
        return m.quadrature_weights * stencils_before(m, (values,), 0.0, 1.0)[0][0]
    return m.edge_scatter @ (m.edge_difference @ values)


def torus_solver_before(m, a):
    n, res = m.dimension, m.resolution
    lam = np.zeros(res[:-1] + (res[-1] // 2 + 1,))
    for ax, (r, h) in enumerate(zip(res, m.spacings)):
        k = np.arange(lam.shape[ax]).reshape([-1 if i == ax else 1 for i in range(n)])
        lam = lam + (2.0 * np.cos(2.0 * np.pi * k / r) - 2.0) / (h * h)
    factor = (1.0 + a * lam) / (1.0 - a * lam)
    axes = tuple(range(n))

    def solve(f):
        c = f[0]
        spectrum = np.fft.rfftn((f - c).reshape(res))
        return c + np.fft.irfftn(spectrum * factor, s=res, axes=axes).ravel()

    return solve


def H_before(lap, grad_sq, t, n):
    return 2.0 * lap - grad_sq - 2.0 * n / t


def liyau_before(lap, t, n):
    return 2.0 * lap - n / t


def general_before(p, w, lap, grad_sq, t, n):
    return p.alpha * lap - p.beta * grad_sq - p.b * w / t - p.c * n / t


def rhs_before(p, t, n, w, grad_w, grad_sq, hess, ricci, q, lap_q, grad_q):
    ab = p.alpha - p.beta
    k = 2.0 * ab * p.lam / p.alpha
    cross = np.zeros(w.shape)
    for cq, cw in zip(grad_q, grad_w):
        cross += cq * cw
    vals = (
        lap_q
        - 2.0 * cross
        - 2.0 * ab * hess
        - 2.0 * ab * ricci
        - (k / t) * q
        - (p.b + k * p.beta) * grad_sq / t
        + (1.0 - k) * p.b * w / (t * t)
        + (1.0 - k) * p.c * n / (t * t)
        + ab * n * p.lam * p.lam / (2.0 * t * t)
    )
    if p.variant is harnack.Variant.V:
        vals += p.b * n / (2.0 * t * t)
    return vals


def entropy_pair_before(weights, n, t, f, grad_sq, q):
    direct = float(np.dot(weights, (t * t * grad_sq - 2.0 * n * t) * f))
    via_q = float(np.dot(weights, t * t * q * f))
    return direct, via_q


def dissipation_before(weights, t, f, hess, ricci, grad_sq):
    integrand = hess + ricci + grad_sq / t
    return -2.0 * t * t * float(np.dot(weights, f * integrand))


# ---------------------------------------------------------------------------
# geometry


@pytest.mark.parametrize("shape", [(64,), (3, 64)])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_components_norm_sq_equals_the_zero_started_sum(shape, count):
    comps = [mixed(np.random.default_rng(count), shape) for _ in range(count)]
    with Unchanged(*comps):
        assert_same_bits(components_norm_sq(comps), norm_sq_before(comps))


@pytest.mark.parametrize("args", TORI)
@pytest.mark.parametrize("lam", [1.3, 0.0])  # at 0, tiny squares are not absorbed
def test_torus_stencils_and_stiffness_equal_the_old_expressions(args, lam):
    m = hl.build_torus(*args)
    rows = np.concatenate([data_rows(np.random.default_rng(7), m.node_count), [checkerboard_zeros(m)]])
    t = 0.7
    lap, grad, hess = stencils_before(m, rows, lam, t)
    with Unchanged(rows):
        got = m.stencils(rows, laplacian=True, grad_norm_sq=True, gradient=True, hessian=(lam, t))
        assert_same_bits(got[0], lap)
        assert_same_bits(got[1], norm_sq_before(grad))
        assert all(np.array_equal(bits(g), bits(w)) for g, w in zip(got[2], grad))
        assert_same_bits(got[3], hess)
        # each operator alone takes the same path through the buffers
        assert_same_bits(m.stencils(rows, laplacian=True)[0], lap)
        assert_same_bits(m.stencils(rows, hessian=(lam, t))[3], hess)
        for row, want in zip(rows, lap):
            assert_same_bits(m.stiffness(row), m.quadrature_weights * want)


@pytest.mark.parametrize("args", TORI)
def test_torus_solver_equals_rfftn_and_irfftn(args):
    if args[0] == 3 and np.lib.NumpyVersion(np.__version__) < "2.0.0":
        pytest.skip("numpy 1.x's rfftn transforms the leading axes in the other order")
    m = hl.build_torus(*args)
    a = 0.25 * min(m.spacings) ** 2
    solve, before = m.cn_solver(a), torus_solver_before(m, a)
    for f in data_rows(np.random.default_rng(8), m.node_count):
        with Unchanged(f):
            assert_same_bits(solve(f), before(f))


@pytest.fixture(scope="module")
def sphere2():
    return hl.build_sphere(2)


def test_sphere_operators_and_solver_equal_the_old_expressions(sphere2):
    from scipy.linalg import lapack

    m = sphere2
    a = 1e-3
    perm = m._band_order[0]
    factor, _ = lapack.dpbtrf(m._cn_band(a))
    solve = m.cn_solver(a)
    rows = data_rows(np.random.default_rng(9), m.node_count)
    with Unchanged(rows):
        # the stack's operators equal each row's, bit for bit
        stacked = m.stencils(rows, laplacian=True, grad_norm_sq=True)
    for k, f in enumerate(rows):
        with Unchanged(f):
            diff = m.edge_difference @ f
            lap = (m.edge_scatter @ diff) / m.quadrature_weights
            grad_sq = m.edge_energy @ (diff * diff)
            got_lap, got_grad_sq, _, _ = m.stencils((f,), laplacian=True, grad_norm_sq=True)
            assert_same_bits(got_lap[0], lap)
            assert_same_bits(got_grad_sq[0], grad_sq)
            assert_same_bits(stacked[0][k], lap)
            assert_same_bits(stacked[1][k], grad_sq)
            assert_same_bits(m.laplacian(f), lap)
            assert_same_bits(m.grad_norm_sq(f), grad_sq)

            c = f[0]
            d = f - c
            y, _ = lapack.dpbtrs(factor, (m.quadrature_weights * d)[perm])
            x = np.empty_like(d)
            x[perm] = y
            assert_same_bits(solve(f), c + (2.0 * x - d))


# ---------------------------------------------------------------------------
# heatflow


@pytest.mark.parametrize("backend", ["torus", "sphere"])
def test_cn_solve_takes_the_old_norms_and_error_text(backend, sphere2, monkeypatch):
    m = hl.build_torus(2, [1.0, 2.0], [16, 8]) if backend == "torus" else sphere2
    a = 1e-4
    solver = m.cn_solver(a)
    f_old = positive_values(np.random.default_rng(10), m.node_count)
    f_old[f_old > 1e3] = 3.0  # a finite right side, so the check runs to its norms

    normed = []
    norm = np.linalg.norm

    def recording_norm(x, *args, **kwargs):
        normed.append(np.array(x, copy=True))
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", recording_norm)

    def norms_before(x, f_old, stiffness_old):
        mass = m.quadrature_weights
        rhs = mass * f_old + a * stiffness_old
        peak = float(np.abs(rhs).max())
        scale = math.ldexp(1.0, -max(math.frexp(peak)[1], 0))
        resid = (rhs - (mass * x - a * stiffness_before(m, x))) * scale
        return rhs * scale, resid

    # max|rhs| below 1 (scale 1) and far above it (scale 2^-21)
    for f in (f_old, f_old * 1e6):
        stiffness_old = stiffness_before(m, f)
        for given in (None, stiffness_old):
            normed.clear()
            with Unchanged(f, stiffness_old):
                x, stiffness_new = heatflow._cn_solve(m, a, solver, f, given)
            assert_same_bits(x, solver(f))
            assert_same_bits(stiffness_new, stiffness_before(m, x))
            want = norms_before(x, f, stiffness_old)
            assert len(normed) == 2
            assert_same_bits(normed[0], want[0])
            assert_same_bits(normed[1], want[1])

    # a solver off by 1e-9 fails with the old relative residual in its text
    def leaky(f):
        return solver(f) * (1.0 + 1e-9)

    rhs_scaled, resid = norms_before(leaky(f), f, stiffness_old)
    ratio = norm(resid) / norm(rhs_scaled)
    with pytest.raises(hl.SolverError, match=re.escape(f"relative residual {ratio:.3e}")):
        heatflow._cn_solve(m, a, leaky, f, stiffness_old)


def test_finite_positive_equals_min_and_isfinite():
    cases = [
        [1.0, 2.0], [5e-324, 1e300], [0.0, 1.0], [-0.0, 1.0], [-5e-324, 1.0],
        [np.nan, 1.0], [1.0, np.nan], [np.inf, 1.0], [-np.inf, 1.0], [np.inf], [np.nan],
        [1.7976931348623157e308, 1.0],
    ]
    for case in cases:
        values = np.array(case)
        before = bool(values.min() > 0) and bool(np.isfinite(values).all())
        assert heatflow._finite_positive(values) is before, case


# ---------------------------------------------------------------------------
# harnack and entropy


def test_log_u_negates_in_place():
    m = hl.build_torus(1, [1.0], [64])
    f = positive_values(np.random.default_rng(11), m.node_count)
    state = hl.FlowState(hl.ScalarField(f, m), 0.3)
    with Unchanged(f):
        u = harnack.log_u(state).values
    assert_same_bits(u, -np.log(f))
    assert (bits(u) == bits(-0.0)).any()  # the 1.0 nodes: u is -0.0


@pytest.mark.parametrize("t", [0.05, 0.7, 1e-3])
def test_quantity_formulas_equal_the_old_expressions(t):
    rng = np.random.default_rng(12)
    w, lap, grad_sq = mixed(rng, 256), mixed(rng, 256), np.abs(mixed(rng, 256))
    for n in (1, 2, 3):
        with Unchanged(w, lap, grad_sq):
            assert_same_bits(harnack.quantity_H_values(lap, grad_sq, t, n), H_before(lap, grad_sq, t, n))
            assert_same_bits(harnack.quantity_liyau_values(lap, t, n), liyau_before(lap, t, n))
            for p in PARAMS:
                assert_same_bits(
                    harnack.quantity_general_values(p, w, lap, grad_sq, t, n),
                    general_before(p, w, lap, grad_sq, t, n),
                )


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", PARAMS)
def test_evolution_rhs_values_equals_the_old_expression(n, p):
    rng = np.random.default_rng(13 + n)
    w, grad_sq, hess, ricci, q, lap_q = (mixed(rng, 256) for _ in range(6))
    grad_w = [mixed(rng, 256) for _ in range(n)]
    grad_q = [mixed(rng, 256) for _ in range(n)]
    args = (w, grad_w, grad_sq, hess, ricci, q, lap_q, grad_q)
    inputs = [w, grad_sq, hess, ricci, q, lap_q, *grad_w, *grad_q]
    for t in (0.05, 0.7):
        with Unchanged(*inputs):
            got = harnack.evolution_rhs_values(p, t, n, *args)
        assert_same_bits(got, rhs_before(p, t, n, *args))


@pytest.mark.parametrize("special", [False, True])
def test_evolution_residual_values_equals_the_old_expression(special):
    # plain data too: a reduction over the special values reads inf or NaN
    rng = np.random.default_rng(14)
    draw = (lambda: mixed(rng, 256)) if special else (lambda: rng.uniform(-2.0, 2.0, 256))
    q_prev, q_next, rhs = draw(), draw(), draw()
    for dt in (5e-4, 0.3, 1.0):
        # the whole arrays, then each node alone, so the max hides no node
        for at in [slice(None)] + [slice(i, i + 1) for i in range(256)]:
            args = q_prev[at], q_next[at], rhs[at]
            with Unchanged(q_prev, q_next, rhs):
                got = harnack.evolution_residual_values(*args, dt)
            want = float(np.max(np.abs((args[1] - args[0]) / (2.0 * dt) - args[2])))
            assert_same_bits(got, want)


@pytest.mark.parametrize("special", [False, True])
def test_entropy_integrals_equal_the_old_expressions(special):
    m = hl.build_torus(2, [1.0, 2.0], [16, 16])
    rng = np.random.default_rng(15)
    if special:
        f = positive_values(rng, m.node_count)
        grad_sq, q, hess, ricci = (mixed(rng, m.node_count) for _ in range(4))
    else:
        f = rng.uniform(0.5, 2.0, m.node_count)
        grad_sq, q, hess, ricci = rng.uniform(-2.0, 2.0, (4, m.node_count))
    for t in (0.05, 0.7):
        with Unchanged(f, grad_sq, q, hess, ricci):
            pair = entropy._entropy_pair(m, t, f, grad_sq, q)
            dissipation = entropy._dissipation_value(m, t, f, hess, ricci, grad_sq)
        assert_same_bits(pair, entropy_pair_before(m.quadrature_weights, 2, t, f, grad_sq, q))
        assert_same_bits(
            dissipation, dissipation_before(m.quadrature_weights, t, f, hess, ricci, grad_sq)
        )


@pytest.mark.parametrize("special", [False, True])
@pytest.mark.parametrize("backend", ["torus", "sphere"])
def test_snapshot_equals_the_old_kernel(backend, special, sphere2):
    # the whole snapshot, built from the old expressions above: signs, the
    # P-H gap, both entropies, the dissipation and the residual's Q and right
    # side, on smooth flow data and on data with special values
    m = hl.build_torus(2, [1.0, 2.0], [16, 16]) if backend == "torus" else sphere2
    if special:
        f = positive_values(np.random.default_rng(16), m.node_count)
    else:
        data = hl.RandomSmoothData(seed=16, mode_cutoff=3, amplitude=0.4, floor=1.0)
        f = hl.build_initial_field(data, m).values
    t, n = 0.05, m.dimension
    state = hl.FlowState(hl.ScalarField(f, m), t)
    with Unchanged(f):
        values, q, rhs = entropy._snapshot(m, state, m.has_hessian)

    u = -np.log(f)
    v = u - 0.5 * n * np.log(4.0 * np.pi * t)
    if m.has_hessian:
        lap, grad, hess = stencils_before(m, (u, v), entropy.DISSIPATION_LAMBDA, t)
        grad_sq = norm_sq_before(grad)
        zeros = np.zeros(m.node_count)
        for row, name in ((0, "dF_formula"), (1, "dW_formula")):
            assert_same_bits(
                values[name],
                dissipation_before(m.quadrature_weights, t, f, hess[row], zeros, grad_sq[row]),
            )
    else:
        diffs = [m.edge_difference @ w for w in (u, v)]
        lap = [(m.edge_scatter @ d) / m.quadrature_weights for d in diffs]
        grad_sq = [m.edge_energy @ (d * d) for d in diffs]
    h = H_before(lap[0], grad_sq[0], t, n)
    p = H_before(lap[1], grad_sq[1], t, n)
    assert_same_bits(values["max_H"], h.max())
    assert_same_bits(values["max_liyau"], liyau_before(lap[1], t, n).max())
    assert_same_bits(values["P_vs_H_gap"], float(np.max(np.abs(p - h))))
    weights = m.quadrature_weights
    assert_same_bits(
        (values["F_direct"], values["F_via_H"]), entropy_pair_before(weights, n, t, f, grad_sq[0], h)
    )
    assert_same_bits(
        (values["W_direct"], values["W_via_P"]), entropy_pair_before(weights, n, t, f, grad_sq[1], p)
    )
    if m.has_hessian:
        lap_q, grad_q, _ = stencils_before(m, (h,), 2.0, 1.0)
        assert_same_bits(q, h)
        assert_same_bits(
            rhs,
            rhs_before(
                harnack.CAO_HAMILTON_H_PARAMS, t, n, u, [g[0] for g in grad], grad_sq[0],
                hess[0], np.zeros(m.node_count), h, lap_q[0], [g[0] for g in grad_q],
            ),
        )
    else:
        assert q is None and rhs is None


# ---------------------------------------------------------------------------
# what one snapshot and one step hold at once


def _peak(call) -> int:
    """The tracemalloc peak of ``call()`` above what was traced before it."""
    call()  # warm: lazily built index tables are not the call's own
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def torus64_state():
    m = hl.build_torus(2, [1.0, 1.0], [64, 64])
    data = hl.RandomSmoothData(seed=5, mode_cutoff=3, amplitude=0.4, floor=1.0)
    solver = m.cn_solver(2.5e-4)
    state = heatflow.step(hl.FlowState(hl.build_initial_field(data, m), 0.05), 5e-4, solver)
    return m, state, solver


# One 64^2 field is 32 KB.  Measured with numpy 2.4, a snapshot with the
# residual peaks at 649 KB (20.3 fields), in its stencil pass over [u, v]: u
# and v (2 fields), the padded stack (2.1), the Laplacian and the Hessian
# (4), the two work arrays (4), the gradient (4) and numpy's buffers for the
# strided views (4).  Before the rewrite it peaked at 777 KB (24.3 fields),
# in the residual's stencil pass, with the dead v, Laplacians and P and a
# fresh array per operation still held.  The bound, 22 fields, sits between.
SNAPSHOT_PEAK_FIELDS = 22
# A step peaks at 197 KB (6.1 fields): the solution and the stencil pass that
# takes its stiffness, made before the right side's arrays.  Before the
# rewrite, 293 KB (9.2 fields).  The bound, 7.5 fields, sits between.
STEP_PEAK_FIELDS = 7.5


def test_snapshot_peak_holds_no_per_operation_temporaries(torus64_state):
    m, state, _ = torus64_state
    field = 8 * m.node_count
    peak = _peak(lambda: entropy._snapshot(m, state, True))
    assert peak <= SNAPSHOT_PEAK_FIELDS * field, peak / field


def test_step_peak_holds_no_per_operation_temporaries(torus64_state):
    m, state, solver = torus64_state
    field = 8 * m.node_count
    peak = _peak(lambda: heatflow.step(state, 5e-4, solver))
    assert peak <= STEP_PEAK_FIELDS * field, peak / field
