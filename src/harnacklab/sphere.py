"""The round unit sphere S^2 as an icosphere mesh, :class:`RoundSphere`.

The one module that imports scipy at its top, and only ``scipy.sparse``
and ``scipy.linalg.lapack``: only sphere code loads them, through
:func:`harnacklab.geometry.check_sphere_args` when a sphere config is
parsed, so a torus run never imports scipy.

The Laplacian is the cotangent-weight stiffness W divided by lumped
(barycentric) vertex areas.  W is applied in its edge form -D^T (w * D f),
with D the edge-difference matrix, so it is exactly zero on constants.  The
squared gradient, the linear-element |grad f|^2 area-averaged to vertices,
is E (D f)^2 by the cotangent identity Integral_T |grad f|^2 = Sum_k
cot(theta_k)/2 (f_i - f_j)^2, with E a sparse matrix of positive weights:
it is >= 0, exactly zero on constants, and shares D f with the Laplacian.
The Crank-Nicolson matrix M - a W is factored once by a banded Cholesky
factorization in reverse Cuthill-McKee order (:meth:`RoundSphere.cn_solver`),
an order this module takes itself by a breadth-first search in numpy and
plain Python (:func:`_reverse_cuthill_mckee`).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np
from scipy import sparse
from scipy.linalg import lapack

from .geometry import BackendError, ManifoldDescriptor, SolverError


@dataclass(frozen=True, eq=False)
class RoundSphere(ManifoldDescriptor):
    """Icosphere mesh of the round unit sphere, Ric(X,X) = |X|^2.  Built by
    :func:`icosphere`, with the mesh arrays and the sparse (CSR) operator
    matrices assembled from them."""

    linear_solver: ClassVar[str] = "band_cholesky"
    ricci_constant: ClassVar[float] = 1.0

    faces: np.ndarray          # (F, 3) vertex indices
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

    def stencils(
        self, rows: Sequence[np.ndarray], *, laplacian: bool = False, grad_norm_sq: bool = False,
        gradient: bool = False, hessian: tuple[float, float] | None = None,
    ) -> tuple[list[np.ndarray] | None, list[np.ndarray] | None, None, None]:
        """The Laplacian and |grad f|^2, one array per row, both from one
        edge-difference product per row (:func:`_edge_operators`); the mesh
        has no gradient components or Hessian."""
        if gradient or hessian is not None:
            raise BackendError("the sphere has no gradient components or Hessian penalty")
        lap = [] if laplacian else None
        grad_sq = [] if grad_norm_sq else None
        for row in rows:
            diff = self.edge_difference @ row
            if lap is not None:
                lap.append(np.divide(self.edge_scatter @ diff, self.quadrature_weights))
            if grad_sq is not None:
                diff *= diff
                grad_sq.append(self.edge_energy @ diff)
        return lap, grad_sq, None, None

    @cached_property
    def _band_order(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Where :meth:`_cn_band` writes the band: ``(perm, rows, cols, kd)``.

        ``perm`` is the reverse Cuthill-McKee order of the edge graph
        (:func:`_reverse_cuthill_mckee`), so ``perm[k]`` is the node at band
        position k; it keeps the number of superdiagonals ``kd`` small (81
        at subdivision 4, against 154 when the nodes are sorted by height).
        ``rows[e], cols[e]`` is where edge e's entry of the upper triangle
        sits in LAPACK upper band storage, ``band[kd + i - j, j] = A[i, j]``
        for i <= j.
        """
        n = self.node_count
        perm = _reverse_cuthill_mckee(self.edge_i, self.edge_j, n)
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
            x *= 2.0
            x -= d
            x += c
            return x

        return solve

    def geodesic_distance(self, x1: int, x2: int) -> float:
        """Great-circle distance arccos(p1 . p2)."""
        p1, p2 = self.positions[x1], self.positions[x2]
        return float(np.arccos(np.clip(np.dot(p1, p2), -1.0, 1.0)))


def _reverse_cuthill_mckee(edge_i: np.ndarray, edge_j: np.ndarray, n: int) -> np.ndarray:
    """The reverse Cuthill-McKee order of the graph on ``n`` nodes with the
    undirected edges ``edge_i[e]``--``edge_j[e]`` (Cuthill & McKee 1969).

    A breadth-first search from a node of least degree, which appends each
    node's unvisited neighbours by increasing degree, ties by increasing
    node number; seeds are tried in ``np.argsort`` order of the degrees, so
    a disconnected graph is ordered component by component; the order is
    then reversed.  These are the choices of scipy's
    ``csgraph.reverse_cuthill_mckee(graph, symmetric_mode=True)`` on the
    graph's CSR matrix, and the order equals its node for node.
    """
    heads = np.concatenate([edge_i, edge_j])
    tails = np.concatenate([edge_j, edge_i])
    # int32, as scipy's degrees: np.argsort's order of ties can depend on the dtype
    degree = np.bincount(heads, minlength=n).astype(np.int32)
    # each node's neighbours, sorted by degree, ties by number: a stable sort
    # of any subset of them, the unvisited ones, keeps this order.  They stay
    # one numpy array; only the node being visited takes its slice as a list
    neighbours = tails[np.lexsort((tails, degree[tails], heads))]
    del heads, tails  # the search holds only the sorted neighbours
    starts = np.concatenate([[0], np.cumsum(degree)]).tolist()

    visited = bytearray(n)
    order = []
    for seed in np.argsort(degree).tolist():
        if visited[seed]:
            continue
        visited[seed] = 1
        order.append(seed)
        head = len(order) - 1
        while head < len(order):  # order doubles as the queue
            node = order[head]
            head += 1
            for other in neighbours[starts[node]:starts[node + 1]].tolist():
                if not visited[other]:
                    visited[other] = 1
                    order.append(other)
    return np.array(order[::-1], dtype=np.int64)


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
    """One 4-way refinement: face (a, b, c) becomes (a, ab, ca), (b, bc, ab),
    (c, ca, bc) and (ab, bc, ca).  The edge midpoints are numbered from N on
    in the order the faces first meet them, and each is divided by sqrt(p . p),
    a matmul of the row by itself: the BLAS dot ``np.linalg.norm`` takes."""
    node_count = len(verts)
    ends_b = faces[:, [1, 2, 0]]
    keys = (np.minimum(faces, ends_b) * node_count + np.maximum(faces, ends_b)).ravel()
    keys, first, edge = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty(len(keys), dtype=np.int64)
    number[order] = np.arange(node_count, node_count + len(keys))
    lo, hi = np.divmod(keys[order], node_count)
    p = (verts[lo] + verts[hi]) / 2.0
    p /= np.sqrt(p[:, None, :] @ p[:, :, None])[:, 0]
    (a, b, c), (ab, bc, ca) = faces.T, number[edge].reshape(-1, 3).T
    new_faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1)
    return np.concatenate([verts, p]), new_faces.reshape(-1, 3)


def _csr_rows(values: np.ndarray, columns: np.ndarray, width: int) -> sparse.csr_matrix:
    """The sparse matrix whose row r holds ``values[r]`` at ``columns[r]``."""
    rows, per_row = columns.shape
    indptr = np.arange(0, rows * per_row + 1, per_row)
    return sparse.csr_matrix((values.ravel(), columns.ravel(), indptr), shape=(rows, width))


def _csr_columns(values: np.ndarray, rows: np.ndarray, height: int) -> sparse.csr_matrix:
    """The sparse matrix whose column c holds ``values[c]`` at ``rows[c]``:
    the transpose of ``_csr_rows(values, rows, height)``, assembled in row
    order.  One stable argsort of each entry's row keeps a row's entries in
    increasing column order, as ``.T.tocsr()`` does, so ``indptr``,
    ``indices`` and ``data`` equal that transpose's, with no copy of it held."""
    columns, per_column = rows.shape
    flat = rows.ravel()
    order = np.argsort(flat, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(flat, minlength=height))])
    data = values.ravel()[order]
    indices = np.floor_divide(order, per_column, out=order)  # each entry's column
    return sparse.csr_matrix((data, indices, indptr), shape=(height, columns))


def _corner_weights(verts: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lumped (barycentric) vertex areas, and half the cotangent of each
    face corner's angle, an (F, 3) array.  The per-corner point arrays live
    only in this call, so they are freed before the edges are assembled."""
    p = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    face_areas = 0.5 * np.linalg.norm(np.cross(p[1] - p[0], p[2] - p[0]), axis=1)
    lumped = np.zeros(len(verts))
    np.add.at(lumped, faces.ravel(), np.repeat(face_areas / 3.0, 3))
    half_cot = np.empty(faces.shape)
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        u = p[i] - p[k]
        v = p[j] - p[k]
        cot = np.einsum("fd,fd->f", u, v) / np.linalg.norm(np.cross(u, v), axis=1)
        half_cot[:, k] = 0.5 * cot
    return lumped, half_cot


def _edge_operators(faces: np.ndarray, half_cot: np.ndarray, lumped: np.ndarray) -> dict:
    """The edges of a closed triangle mesh and its sparse edge operators, by
    the names of the :class:`RoundSphere` fields ``edge_i`` .. ``edge_energy``.

    ``half_cot`` holds half the cotangent of each face corner's angle,
    ``lumped`` the vertex weights (:func:`_corner_weights`).  Each
    intermediate is freed once used, so the call holds, besides what it
    returns, at most one operator's assembly.
    """
    node_count = len(lumped)
    # the index of the edge opposite each face corner; the edges are the
    # sorted keys lo * N + hi
    ends_a, ends_b = faces[:, [1, 2, 0]], faces[:, [2, 0, 1]]
    keys = (np.minimum(ends_a, ends_b) * node_count + np.maximum(ends_a, ends_b)).ravel()
    del ends_a, ends_b
    keys, opposite_edge = np.unique(keys, return_inverse=True)
    edge_i, edge_j = np.divmod(keys, node_count)
    del keys
    # each edge's weight sums the half-cotangents of its two opposite corners
    edge_weights = np.bincount(opposite_edge, weights=half_cot.ravel(), minlength=len(edge_i))
    # the two face corners opposite each edge, as flat indices into faces
    opposite = np.argsort(opposite_edge, kind="stable").reshape(-1, 2)
    del opposite_edge

    # the operators as sparse matrices, one row per edge, or one column per
    # edge where they sum into vertices.  Per face, Integral |grad f|^2 =
    # Sum_k cot(theta_k)/2 (f_i - f_j)^2 over the edges ij opposite its
    # corners k; a third of it goes to each corner, over that corner's
    # weight.  So edge e reaches its two endpoints with w_e / (3 M) and its
    # two opposite corners with cot(theta)/2 / (3 M).
    endpoints = np.stack([edge_i, edge_j], axis=1)
    edge_difference = _csr_rows(np.tile([-1.0, 1.0], (len(edge_i), 1)), endpoints, node_count)
    edge_scatter = _csr_columns(
        np.stack([edge_weights, -edge_weights], axis=1), endpoints, node_count
    )
    reached = np.concatenate([endpoints, faces.ravel()[opposite]], axis=1)
    energy = np.concatenate(
        [np.stack([edge_weights, edge_weights], axis=1), half_cot.ravel()[opposite]], axis=1
    )
    del endpoints, opposite
    energy /= 3.0 * lumped[reached]
    edge_energy = _csr_columns(energy, reached, node_count)

    return {
        "edge_i": edge_i,
        "edge_j": edge_j,
        "edge_weights": edge_weights,
        "edge_difference": edge_difference,
        "edge_scatter": edge_scatter,
        "edge_energy": edge_energy,
    }


def icosphere(subdivision: int) -> RoundSphere:
    """The icosahedron refined ``subdivision`` times, with its lumped vertex
    areas and edge operators; :func:`harnacklab.geometry.build_sphere`, the
    entry point, checks the argument."""
    verts, faces = _icosahedron()
    for _ in range(subdivision):
        verts, faces = _subdivide(verts, faces)

    lumped, half_cot = _corner_weights(verts, faces)
    edges = _edge_operators(faces, half_cot, lumped)
    edge_lengths = np.linalg.norm(verts[edges["edge_i"]] - verts[edges["edge_j"]], axis=1)
    return RoundSphere(
        dimension=2,
        node_count=len(verts),
        quadrature_weights=lumped,
        positions=verts,
        mesh_scale=float(edge_lengths.max()),
        faces=faces,
        **edges,
    )
