"""Discrete closed manifolds and their differential-geometric primitives.

Each manifold family is one backend class that owns its operators.
:class:`FlatTorus` is a flat torus T^n (n = 1, 2, 3) on a periodic uniform
grid; :class:`RoundSphere` is the round unit sphere S^2 as an icosphere
mesh.  They are the canonical closed examples with Ric = 0 and Ric > 0, and
both have closed-form geodesic distances.  Both derive from
:class:`ManifoldDescriptor`, which holds what every backend has (dimension,
nodes, quadrature weights, positions, mesh scale) and declares the
operators on flat value arrays: ``stiffness``, ``laplacian``,
``grad_norm_sq``, ``ricci_quadratic`` and ``geodesic_distance``.  Only the
torus supplies ``grad_components`` and ``hessian_penalty``; the base class
raises :class:`BackendError` for them.  The module-level functions of the
same names apply the field operators to a :class:`ScalarField`.

The torus has one stencil implementation, :meth:`FlatTorus.stencils`: it
copies a stack of k fields once into a wrap-padded array and takes the
Laplacian, gradient and Hessian penalty of every field from views of that
copy.  The single-field operators, ``stiffness`` and so the flow's residual
checks are thin calls into it, and the snapshot kernel passes it u and v
together.

Operator conventions
--------------------
The Laplacian is the analyst's (negative-spectrum) g^{ij} d_i d_j, so the
Laplacian of cos is negative.  On the torus all operators are 2nd-order
central-difference stencils with periodic wrap; on the sphere the Laplacian
is the cotangent-weight operator divided by lumped (barycentric) vertex
areas, and the squared gradient is the per-triangle linear-element |grad f|^2
area-averaged to vertices.  ``stiffness`` is the symmetric weighted form W
with Lap = W / quadrature weight.  On the sphere W is applied in its edge
form -D^T (w * D f), with D the edge-difference matrix, so every edge term is
exactly zero on constants.  By the cotangent identity Integral_T |grad f|^2 =
Sum_k cot(theta_k)/2 (f_i - f_j)^2 the squared gradient is E (D f)^2, with E
a sparse matrix of positive weights assembled at build time, so it is >= 0,
exactly zero on constants, and shares D f with the Laplacian
(``RoundSphere.laplacian_and_grad_norm_sq``).

Crank-Nicolson solve
--------------------
A step of size dt = 2a solves (M - a W) x = (M + a W) f, with M the diagonal
quadrature mass.  Each backend supplies a direct solver for it,
``cn_solver(a)``, built once per flow: on the torus the stencil is diagonal
under the discrete Fourier transform, so the solve is one real FFT pair with
the multiplier (1 + a lam_k) / (1 - a lam_k).  On the sphere M - a W is
symmetric positive definite; with the nodes in reverse Cuthill-McKee order
its upper band is written from the edges and factored once by a banded
Cholesky factorization (LAPACK ``dpbtrf``).  A step is then one banded solve
(``dpbtrs``) y = (M - a W)^{-1} M d and x = 2y - d, so its right side needs
no stiffness apply.  Both backends solve for d = f - f[0] and add f[0] back,
so constant data stays bit-for-bit stationary.  ``linear_solver`` names the
method.  The flow checks the residual of every solve against ``stiffness``.
Only sphere code imports scipy (at parse, in :func:`check_sphere_args`).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, ClassVar

import numpy as np

if TYPE_CHECKING:  # for the annotations of the sphere's matrices
    from scipy import sparse

MAX_NODES = 2**18  # the most nodes a manifold may have: a 512^2 or 64^3 torus


class BackendError(ValueError):
    """Raised when an operation is asked of a backend that cannot supply it."""


class SolverError(RuntimeError):
    """A Crank-Nicolson linear system could not be solved: its matrix has no
    factor, or a solution missed the required residual."""


@dataclass(frozen=True, eq=False)
class ManifoldDescriptor:
    """A discretized closed manifold with quadrature data and its operators.

    ``quadrature_weights`` sum to the total volume: the product of the side
    lengths on a torus, the total triangle area (which converges to 4*pi) on
    the sphere.  ``mesh_scale`` is the h that enters discretization
    tolerances: the largest grid spacing on a torus, the largest edge length
    on a sphere.  ``has_hessian`` tells whether the backend supplies
    ``grad_components`` and ``hessian_penalty``; ``linear_solver`` names the
    method of its ``cn_solver``.
    """

    has_hessian: ClassVar[bool] = False
    linear_solver: ClassVar[str]

    dimension: int
    node_count: int
    quadrature_weights: np.ndarray
    positions: np.ndarray
    mesh_scale: float

    @property
    def total_volume(self) -> float:
        return float(np.sum(self.quadrature_weights))

    def stiffness(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad_norm_sq(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def ricci_quadratic(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def geodesic_distance(self, x1: int, x2: int) -> float:
        raise NotImplementedError

    def cn_solver(self, a: float) -> Callable[[np.ndarray], np.ndarray]:
        """The solver f -> x of (M - a W) x = (M + a W) f, for one fixed a > 0."""
        raise NotImplementedError

    def grad_components(self, values: np.ndarray) -> list[np.ndarray]:
        raise BackendError("componentwise gradients are only available on the torus")

    def hessian_penalty(self, values: np.ndarray, lam: float, t: float) -> np.ndarray:
        raise BackendError("hessian_penalty is only available on the torus")


@dataclass(eq=False)
class ScalarField:
    """One real value per discretization node, tied to its manifold."""

    values: np.ndarray
    manifold: ManifoldDescriptor

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.manifold.node_count,):
            raise ValueError(
                f"field has {self.values.shape} values, manifold has "
                f"{self.manifold.node_count} nodes"
            )

    def copy(self) -> "ScalarField":
        return ScalarField(self.values.copy(), self.manifold)


def constant_field(m: ManifoldDescriptor, value: float) -> ScalarField:
    return ScalarField(np.full(m.node_count, float(value)), m)


# ---------------------------------------------------------------------------
# flat torus


def components_norm_sq(components: list[np.ndarray]) -> np.ndarray:
    """Sum of the squared components, accumulated in axis order.

    Applied to :func:`grad_components` this is the torus |grad f|^2, so a
    caller that already holds the components need not take them again.
    """
    out = np.zeros(components[0].shape)
    for comp in components:
        out += comp * comp
    return out


@dataclass(frozen=True, eq=False)
class FlatTorus(ManifoldDescriptor):
    """Periodic uniform grid on a flat torus, Ric = 0.  Built by :func:`build_torus`."""

    has_hessian: ClassVar[bool] = True
    linear_solver: ClassVar[str] = "fft"

    side_lengths: tuple[float, ...]
    resolution: tuple[int, ...]
    spacings: tuple[float, ...]

    def stencils(
        self,
        rows: Sequence[np.ndarray],
        *,
        laplacian: bool = False,
        gradient: bool = False,
        hessian: tuple[float, float] | None = None,
    ) -> tuple[np.ndarray | None, list[np.ndarray] | None, np.ndarray | None]:
        """The torus stencils of each of k flat arrays ``rows``, in one pass.

        Returns ``(lap, grad, hess)``, each None unless asked for: the
        Laplacian as a (k, N) array, the central-difference gradient as one
        (k, N) array per axis, and, for ``hessian = (lam, t)``, the squared
        Frobenius norm of (discrete Hessian - lam/(2t) * identity) as a
        (k, N) array.

        The rows are copied once into an array wrap-padded by one node on
        both sides of every axis.  The axes are padded in turn, each across
        the full extent of the others, so the corners hold the diagonal
        neighbours that the mixed differences read, and every shifted
        operand is a view of that one copy.  Each axis's second difference f+ - 2f + f- is taken once
        and serves both the Laplacian and the Hessian diagonal.
        """
        if hessian is not None and hessian[1] <= 0:
            raise ValueError(f"t must be positive, got {hessian[1]}")
        n, res, spacings = self.dimension, self.resolution, self.spacings
        centre_at, plus_at, minus_at, diagonal_at = self._neighbours
        padded = np.empty((len(rows),) + tuple(r + 2 for r in res))
        for i, row in enumerate(rows):
            padded[(i,) + centre_at[1:]] = row.reshape(res)
        for d in range(1, n + 1):
            lead = (slice(None),) * d
            padded[lead + (0,)] = padded[lead + (-2,)]
            padded[lead + (-1,)] = padded[lead + (1,)]
        centre = padded[centre_at]
        plus = [padded[at] for at in plus_at]
        minus = [padded[at] for at in minus_at]
        flat = (len(rows), self.node_count)

        lap = np.zeros(centre.shape) if laplacian else None
        hess = None
        if hessian is not None:
            lam, t = hessian
            shift = lam / (2.0 * t)
            hess = np.zeros(centre.shape)
        if lap is not None or hess is not None:
            two_f = 2.0 * centre
            for fp, fm, h in zip(plus, minus, spacings):
                diff = (fp - two_f + fm) / (h * h)
                if lap is not None:
                    lap += diff
                if hess is not None:
                    hess += (diff - shift) ** 2
        grad = None
        if gradient:
            grad = [
                ((fp - fm) / (2.0 * h)).reshape(flat) for fp, fm, h in zip(plus, minus, spacings)
            ]
        if hess is not None:
            for (ax1, ax2), (pp, pm, mp, mm) in diagonal_at.items():
                mixed = (padded[pp] - padded[pm] - padded[mp] + padded[mm]) / (
                    4.0 * spacings[ax1] * spacings[ax2]
                )
                hess += 2.0 * mixed * mixed
            hess = hess.reshape(flat)
        if lap is not None:
            lap = lap.reshape(flat)
        return lap, grad, hess

    @cached_property
    def _neighbours(self) -> tuple:
        """Where :meth:`stencils` reads its wrap-padded stack: the index of
        the centre, of the +1 and -1 neighbours along each axis, and, for
        each pair of axes ax1 < ax2, of the diagonal neighbours ++, +-, -+
        and -- (the sign of the step along ax1, then along ax2)."""
        n, res = self.dimension, self.resolution

        def index(moves: dict[int, int]) -> tuple[slice, ...]:
            # the stack at each node's neighbour moves[ax] steps along each axis ax
            return (slice(None),) + tuple(
                slice(1 + moves.get(ax, 0), r + 1 + moves.get(ax, 0)) for ax, r in enumerate(res)
            )

        signs = ((1, 1), (1, -1), (-1, 1), (-1, -1))
        diagonal = {
            (ax1, ax2): [index({ax1: s1, ax2: s2}) for s1, s2 in signs]
            for ax1 in range(n)
            for ax2 in range(ax1 + 1, n)
        }
        plus = [index({ax: 1}) for ax in range(n)]
        minus = [index({ax: -1}) for ax in range(n)]
        return index({}), plus, minus, diagonal

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        """Periodic stencil sum of the second differences f+ - 2f + f-.

        Exact on constants: 2f is exact, f+ - 2f = c - 2c has the
        representable exact result -c, and -c + c = 0, so each correctly
        rounded step is exact and every axis contributes exactly zero.
        """
        return self.stencils((values,), laplacian=True)[0][0]

    def stiffness(self, values: np.ndarray) -> np.ndarray:
        return self.quadrature_weights * self.laplacian(values)

    def grad_components(self, values: np.ndarray) -> list[np.ndarray]:
        """Central-difference gradient components, one flat array per axis."""
        return [comp[0] for comp in self.stencils((values,), gradient=True)[1]]

    def grad_norm_sq(self, values: np.ndarray) -> np.ndarray:
        return components_norm_sq(self.grad_components(values))

    def hessian_penalty(self, values: np.ndarray, lam: float, t: float) -> np.ndarray:
        """Pointwise squared Frobenius norm of (discrete Hessian - lam/(2t) * identity)."""
        return self.stencils((values,), hessian=(lam, t))[2][0]

    def ricci_quadratic(self, values: np.ndarray) -> np.ndarray:
        return np.zeros(self.node_count)

    def cn_solver(self, a: float) -> Callable[[np.ndarray], np.ndarray]:
        """Crank-Nicolson solve by one real FFT pair.

        The stencil's eigenvalue at wave number k is
        lam_k = sum_axes (2 cos(2 pi k / r) - 2) / h^2, so the step multiplies
        each Fourier coefficient by (1 + a lam_k) / (1 - a lam_k); the zero
        mode's factor is exactly 1.  The last axis is the half spectrum.
        """
        n, res = self.dimension, self.resolution
        lam = np.zeros(res[:-1] + (res[-1] // 2 + 1,))
        for ax, (r, h) in enumerate(zip(res, self.spacings)):
            k = np.arange(lam.shape[ax]).reshape([-1 if i == ax else 1 for i in range(n)])
            lam = lam + (2.0 * np.cos(2.0 * np.pi * k / r) - 2.0) / (h * h)
        factor = (1.0 + a * lam) / (1.0 - a * lam)
        axes = tuple(range(n))

        def solve(f: np.ndarray) -> np.ndarray:
            c = f[0]
            spectrum = np.fft.rfftn((f - c).reshape(res))
            return c + np.fft.irfftn(spectrum * factor, s=res, axes=axes).ravel()

        return solve

    def minimum_image(self, delta: np.ndarray) -> np.ndarray:
        """|delta| per coordinate, reduced to the nearest periodic image."""
        delta = np.abs(delta)
        return np.minimum(delta, np.asarray(self.side_lengths) - delta)

    def geodesic_distance(self, x1: int, x2: int) -> float:
        """Minimum over coordinate wraps of the Euclidean distance."""
        return float(np.linalg.norm(self.minimum_image(self.positions[x1] - self.positions[x2])))


def check_torus_args(n: int, sides: tuple[float, ...], res: tuple[int, ...]) -> None:
    """Raise ValueError unless :func:`build_torus` accepts these arguments."""
    if not 1 <= n <= 3:
        raise ValueError(f"torus dimension must be 1, 2 or 3, got {n}")
    if len(sides) != n or len(res) != n:
        raise ValueError("side_lengths and resolution must have length n")
    if any(s <= 0 for s in sides):
        raise ValueError(f"side lengths must be positive, got {sides}")
    if any(r < 8 or r % 2 != 0 for r in res):
        raise ValueError(f"resolutions must be even and >= 8, got {res}")
    # the stencils weight by 1/h^2, by multiplication: float ** 2 raises OverflowError
    if not all(math.isfinite((r / s) * (r / s)) for s, r in zip(sides, res)):
        raise ValueError(f"side_lengths {sides} at resolution {res} overflow the weight 1/h^2")
    if math.prod(res) > MAX_NODES:
        raise ValueError(f"resolution {res} makes {math.prod(res)} nodes; at most {MAX_NODES}")


def build_torus(n: int, side_lengths, resolution) -> FlatTorus:
    """Periodic uniform grid on a flat torus with Ric = 0.

    Each resolution must be even (so central differences commute with the
    half-period symmetries used in tests) and at least 8.
    """
    sides = tuple(float(s) for s in side_lengths)
    res = tuple(int(r) for r in resolution)
    check_torus_args(n, sides, res)
    spacings = tuple(s / r for s, r in zip(sides, res))
    node_count = int(np.prod(res))
    axes = [np.arange(r) * h for r, h in zip(res, spacings)]
    grids = np.meshgrid(*axes, indexing="ij")
    positions = np.stack([g.ravel() for g in grids], axis=1)
    cell_volume = float(np.prod(spacings))
    return FlatTorus(
        dimension=n,
        node_count=node_count,
        quadrature_weights=np.full(node_count, cell_volume),
        positions=positions,
        mesh_scale=float(max(spacings)),
        side_lengths=sides,
        resolution=res,
        spacings=spacings,
    )


# ---------------------------------------------------------------------------
# round sphere


@dataclass(frozen=True, eq=False)
class RoundSphere(ManifoldDescriptor):
    """Icosphere mesh of the round unit sphere, Ric(X,X) = |X|^2.  Built by
    :func:`build_sphere`, with the mesh arrays and the sparse (CSR) operator
    matrices assembled from them."""

    linear_solver: ClassVar[str] = "band_cholesky"

    faces: np.ndarray          # (F, 3) vertex indices
    face_areas: np.ndarray     # (F,)
    grad_vectors: np.ndarray   # (F, 3, 3): per face, per corner, gradient of the hat function
    edge_i: np.ndarray         # (E,) endpoints with edge_i < edge_j
    edge_j: np.ndarray
    edge_weights: np.ndarray   # (E,) cotangent weights (w_ij = (cot a + cot b)/2)
    edge_difference: sparse.csr_matrix   # (E, N): row e gives f[edge_j] - f[edge_i]
    edge_scatter: sparse.csr_matrix      # (N, E): -D^T diag(edge_weights)
    edge_energy: sparse.csr_matrix       # (N, E): |grad f|^2 = edge_energy @ (D f)^2

    def stiffness(self, values: np.ndarray) -> np.ndarray:
        """Cotangent-weight edge-difference form Sum_j w_ij (f_j - f_i).

        Symmetric with zero row sums by construction; each edge difference,
        and so the whole form, is exactly zero on constant fields.
        """
        return self.edge_scatter @ (self.edge_difference @ values)

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        return self.stiffness(values) / self.quadrature_weights

    def grad_norm_sq(self, values: np.ndarray) -> np.ndarray:
        """The linear-element |grad f|^2 of each face, area-averaged to its
        corners, as a sum of squared edge differences (see :func:`build_sphere`).

        Every weight is positive, so the result is >= 0, and exactly 0 on
        constant fields.
        """
        diff = self.edge_difference @ values
        return self.edge_energy @ (diff * diff)

    def laplacian_and_grad_norm_sq(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(laplacian(values), grad_norm_sq(values))``, bit for bit, from one
        edge-difference product shared by both."""
        diff = self.edge_difference @ values
        lap = (self.edge_scatter @ diff) / self.quadrature_weights
        return lap, self.edge_energy @ (diff * diff)

    @cached_property
    def _band_order(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Where :meth:`_cn_band` writes the band: ``(perm, rows, cols, kd)``.

        ``perm`` is the reverse Cuthill-McKee order of the edge graph, so
        ``perm[k]`` is the node at band position k; it keeps the number of
        superdiagonals ``kd`` small (81 at subdivision 4, against 154 when
        the nodes are sorted by height).  ``rows[e], cols[e]`` is where
        edge e's entry of the upper triangle sits in LAPACK upper band
        storage, ``band[kd + i - j, j] = A[i, j]`` for i <= j.
        """
        # only sphere code imports scipy: at module level it would cost torus runs 0.25 s, 25 MB
        from scipy import sparse
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        n = self.node_count
        heads = np.concatenate([self.edge_i, self.edge_j])
        tails = np.concatenate([self.edge_j, self.edge_i])
        graph = sparse.csr_matrix((np.ones(len(heads)), (heads, tails)), shape=(n, n))
        perm = reverse_cuthill_mckee(graph, symmetric_mode=True).astype(np.int64)
        rank = np.empty(n, dtype=np.int64)
        rank[perm] = np.arange(n)
        p, q = rank[self.edge_i], rank[self.edge_j]
        lo, hi = np.minimum(p, q), np.maximum(p, q)
        kd = int((hi - lo).max())
        return perm, kd + lo - hi, hi, kd

    def _cn_band(self, a: float) -> np.ndarray:
        """The upper band of M - a W, nodes in :attr:`_band_order`, in LAPACK
        band storage: a new (kd + 1, N) Fortran-ordered array.

        It is written straight from the edges and the mass.  Each diagonal
        entry of W sums its edges' -w in edge order, as the product of
        ``edge_scatter`` and ``edge_difference`` does, so the band holds
        exactly the entries of that sparse product's M - a W.
        """
        perm, rows, cols, kd = self._band_order
        ends = np.stack([self.edge_i, self.edge_j], axis=1).ravel()
        w_diagonal = np.bincount(
            ends, weights=np.repeat(-self.edge_weights, 2), minlength=self.node_count
        )
        band = np.zeros((kd + 1, self.node_count), order="F")
        band[rows, cols] = -a * self.edge_weights
        band[kd] = (self.quadrature_weights - a * w_diagonal)[perm]
        return band

    def cn_solver(self, a: float) -> Callable[[np.ndarray], np.ndarray]:
        """Crank-Nicolson solve by one banded Cholesky factor of M - a W.

        For a > 0, M - a W is symmetric positive definite: M is the positive
        lumped mass and W the negative semidefinite cotangent stiffness.  Its
        band (:meth:`_cn_band`) is factored in place by LAPACK ``dpbtrf``.
        A step with d = f - f[0] solves (M - a W) y = M d by one ``dpbtrs``
        and returns f[0] + (2y - d), since (M - a W)^{-1} (M + a W) d =
        2 (M - a W)^{-1} M d - d: the right side needs no stiffness apply.
        Raises SolverError when M - a W is not positive definite, and when a
        solve reports a failure.  The factor lives as long as the returned
        solver, so a flow holds it only while it runs.
        """
        from scipy.linalg import lapack

        perm = self._band_order[0]
        mass = self.quadrature_weights
        factor, info = lapack.dpbtrf(self._cn_band(a), overwrite_ab=1)
        if info != 0:
            raise SolverError(
                f"M - a W (a = {a}) is not positive definite: no Cholesky factor "
                f"(LAPACK dpbtrf info {info})"
            )

        def solve(f: np.ndarray) -> np.ndarray:
            c = f[0]
            d = f - c
            y, info = lapack.dpbtrs(factor, (mass * d)[perm], overwrite_b=1)
            if info != 0:
                raise SolverError(f"banded Cholesky solve failed (LAPACK dpbtrs info {info})")
            x = np.empty_like(d)
            x[perm] = y
            return c + (2.0 * x - d)

        return solve

    def ricci_quadratic(self, values: np.ndarray) -> np.ndarray:
        return self.grad_norm_sq(values)

    def geodesic_distance(self, x1: int, x2: int) -> float:
        """Great-circle distance arccos(p1 . p2)."""
        p1, p2 = self.positions[x1], self.positions[x2]
        return float(np.arccos(np.clip(np.dot(p1, p2), -1.0, 1.0)))


def _icosahedron() -> tuple[np.ndarray, np.ndarray]:
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
            (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
            (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array(
        [
            (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
            (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
            (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
            (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
        ],
        dtype=np.int64,
    )
    return verts, faces


def _subdivide(verts: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vlist = list(verts)
    midpoint: dict[tuple[int, int], int] = {}

    def mid(i: int, j: int) -> int:
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


def _csr_rows(values: np.ndarray, columns: np.ndarray, width: int) -> sparse.csr_matrix:
    """The sparse matrix whose row r holds ``values[r]`` at ``columns[r]``."""
    from scipy import sparse

    rows, per_row = columns.shape
    indptr = np.arange(0, rows * per_row + 1, per_row)
    return sparse.csr_matrix((values.ravel(), columns.ravel(), indptr), shape=(rows, width))


def _edge_operators(corner_pts, faces: np.ndarray, lumped: np.ndarray) -> dict:
    """The edges of a closed triangle mesh and its sparse edge operators, by
    the names of the :class:`RoundSphere` fields ``edge_i`` .. ``edge_energy``.

    ``corner_pts`` holds the positions of every face's corners 0, 1 and 2,
    ``lumped`` the vertex weights.  The intermediate per-corner arrays live
    only in this call, so they are freed before the caller goes on.
    """
    node_count = len(lumped)
    # half the cotangent of each face corner's angle, and the index of the
    # edge opposite that corner; the edges are the sorted keys lo * N + hi
    half_cot = np.empty(faces.shape)
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        u = corner_pts[i] - corner_pts[k]
        v = corner_pts[j] - corner_pts[k]
        cot = np.einsum("fd,fd->f", u, v) / np.linalg.norm(np.cross(u, v), axis=1)
        half_cot[:, k] = 0.5 * cot
    ends_a, ends_b = faces[:, [1, 2, 0]], faces[:, [2, 0, 1]]
    keys = (np.minimum(ends_a, ends_b) * node_count + np.maximum(ends_a, ends_b)).ravel()
    keys, opposite_edge = np.unique(keys, return_inverse=True)
    edge_i, edge_j = np.divmod(keys, node_count)
    # each edge's weight sums the half-cotangents of its two opposite corners
    edge_weights = np.bincount(opposite_edge, weights=half_cot.ravel(), minlength=len(keys))
    # the two face corners opposite each edge, as flat indices into faces
    opposite = np.argsort(opposite_edge, kind="stable").reshape(-1, 2)

    # the operators as sparse matrices, one row per edge, transposed where
    # they sum into vertices.  Per face, Integral |grad f|^2 =
    # Sum_k cot(theta_k)/2 (f_i - f_j)^2 over the edges ij opposite its
    # corners k; a third of it goes to each corner, over that corner's
    # weight.  So edge e reaches its two endpoints with w_e / (3 M) and its
    # two opposite corners with cot(theta)/2 / (3 M).
    endpoints = np.stack([edge_i, edge_j], axis=1)
    edge_difference = _csr_rows(np.tile([-1.0, 1.0], (len(edge_i), 1)), endpoints, node_count)
    edge_scatter = _csr_rows(
        np.stack([edge_weights, -edge_weights], axis=1), endpoints, node_count
    ).T.tocsr()
    reached = np.concatenate([endpoints, faces.ravel()[opposite]], axis=1)
    energy = np.concatenate(
        [np.stack([edge_weights, edge_weights], axis=1), half_cot.ravel()[opposite]], axis=1
    )
    edge_energy = _csr_rows(energy / (3.0 * lumped[reached]), reached, node_count).T.tocsr()

    return {
        "edge_i": edge_i,
        "edge_j": edge_j,
        "edge_weights": edge_weights,
        "edge_difference": edge_difference,
        "edge_scatter": edge_scatter,
        "edge_energy": edge_energy,
    }


def check_sphere_args(subdivision: int) -> None:
    """Raise ValueError unless :func:`build_sphere` accepts this argument."""
    # load the sphere's scipy when its config is parsed, not inside its run
    import scipy.linalg.lapack  # noqa: F401
    import scipy.sparse.csgraph  # noqa: F401
    if subdivision < 2:
        raise ValueError(f"sphere subdivision must be >= 2, got {subdivision}")
    if 10 * 4 ** min(subdivision, 16) + 2 > MAX_NODES:  # 4**16 alone is over it
        raise ValueError(f"sphere subdivision {subdivision} makes over {MAX_NODES} nodes")


def build_sphere(subdivision: int) -> RoundSphere:
    """Icosphere mesh of the round unit sphere, Ric(X,X) = |X|^2.

    ``subdivision`` is the number of 4-way refinement passes applied to the
    icosahedron (vertex count 10 * 4**s + 2).  Vertex quadrature weights are
    lumped barycentric triangle areas.
    """
    check_sphere_args(subdivision)
    verts, faces = _icosahedron()
    for _ in range(subdivision):
        verts, faces = _subdivide(verts, faces)

    p0, p1, p2 = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    cross = np.cross(p1 - p0, p2 - p0)
    double_area = np.linalg.norm(cross, axis=1)
    face_areas = 0.5 * double_area
    normals = cross / double_area[:, None]

    # gradient of the hat function at corner m is (n x e_m) / (2A), where
    # e_m is the opposite edge traversed consistently
    edges_opp = np.stack([p2 - p1, p0 - p2, p1 - p0], axis=1)  # (F, 3, 3)
    grad_vectors = np.cross(normals[:, None, :], edges_opp) / double_area[:, None, None]

    node_count = len(verts)
    lumped = np.zeros(node_count)
    np.add.at(lumped, faces.ravel(), np.repeat(face_areas / 3.0, 3))

    edges = _edge_operators((p0, p1, p2), faces, lumped)
    edge_lengths = np.linalg.norm(verts[edges["edge_i"]] - verts[edges["edge_j"]], axis=1)
    return RoundSphere(
        dimension=2,
        node_count=node_count,
        quadrature_weights=lumped,
        positions=verts,
        mesh_scale=float(edge_lengths.max()),
        faces=faces,
        face_areas=face_areas,
        grad_vectors=grad_vectors,
        **edges,
    )


# ---------------------------------------------------------------------------
# operators on fields


def laplacian(field: ScalarField) -> ScalarField:
    return ScalarField(field.manifold.laplacian(field.values), field.manifold)


def grad_components(field: ScalarField) -> list[np.ndarray]:
    """Central-difference gradient components, one flat array per axis (torus only)."""
    return field.manifold.grad_components(field.values)


def grad_norm_sq(field: ScalarField) -> ScalarField:
    return ScalarField(field.manifold.grad_norm_sq(field.values), field.manifold)


def hessian_penalty(field: ScalarField, lam: float, t: float) -> ScalarField:
    """Pointwise squared Frobenius norm of (discrete Hessian - lam/(2t) * identity).

    Torus only: a convergent covariant Hessian on unstructured meshes is out
    of proportion to its single cross-check role here.
    """
    return ScalarField(field.manifold.hessian_penalty(field.values, lam, t), field.manifold)


def ricci_quadratic(field: ScalarField) -> ScalarField:
    """Ric(grad f, grad f): zero on the flat torus, |grad f|^2 on the unit sphere."""
    return ScalarField(field.manifold.ricci_quadratic(field.values), field.manifold)


def integrate(field: ScalarField) -> float:
    return float(np.dot(field.manifold.quadrature_weights, field.values))
