"""Discrete closed manifolds and their differential-geometric primitives.

Two manifold families are supported: flat tori T^n (n = 1, 2, 3) as periodic
uniform grids, and the round unit sphere S^2 as an icosphere mesh.  They are
the canonical closed examples with Ric = 0 and Ric > 0, and both have
closed-form geodesic distances.

Operator conventions
--------------------
The Laplacian is the analyst's (negative-spectrum) g^{ij} d_i d_j, so the
Laplacian of cos is negative.  On the torus all operators are 2nd-order
central-difference stencils with periodic wrap; on the sphere the Laplacian
is the cotangent-weight operator divided by lumped (barycentric) vertex
areas, and squared gradients come from per-triangle linear-element gradients
area-averaged to vertices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class ManifoldKind(enum.Enum):
    FLAT_TORUS = "flat_torus"
    ROUND_SPHERE = "round_sphere"


class RicciKind(enum.Enum):
    ZERO = "zero"
    UNIT_SPHERE_METRIC = "unit_sphere_metric"


class BackendError(ValueError):
    """Raised when an operation is asked of a backend that cannot supply it."""


@dataclass(frozen=True, eq=False)
class SphereMesh:
    """Icosphere connectivity and the precomputed arrays the operators need."""

    faces: np.ndarray          # (F, 3) vertex indices
    face_areas: np.ndarray     # (F,)
    grad_vectors: np.ndarray   # (F, 3, 3): per face, per corner, gradient of the hat function
    edge_i: np.ndarray         # (E,) endpoints with edge_i < edge_j
    edge_j: np.ndarray
    edge_weights: np.ndarray   # (E,) cotangent weights (w_ij = (cot a + cot b)/2)


@dataclass(frozen=True, eq=False)
class ManifoldDescriptor:
    """A discretized closed manifold with quadrature and Ricci data.

    ``quadrature_weights`` sum to the total volume: the product of the side
    lengths on a torus, the total triangle area (which converges to 4*pi) on
    the sphere.  ``mesh_scale`` is the h that enters discretization
    tolerances: the largest grid spacing on a torus, the largest edge length
    on a sphere.
    """

    kind: ManifoldKind
    dimension: int
    node_count: int
    quadrature_weights: np.ndarray
    ricci_form_kind: RicciKind
    positions: np.ndarray
    mesh_scale: float
    torus_side_lengths: tuple[float, ...] | None = None
    torus_resolution: tuple[int, ...] | None = None
    sphere_subdivision: int | None = None
    sphere_mesh: SphereMesh | None = field(default=None, repr=False)

    @property
    def total_volume(self) -> float:
        return float(np.sum(self.quadrature_weights))

    @property
    def is_torus(self) -> bool:
        return self.kind is ManifoldKind.FLAT_TORUS


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
# builders


def build_torus(n: int, side_lengths, resolution) -> ManifoldDescriptor:
    """Periodic uniform grid on a flat torus with Ric = 0.

    Each resolution must be even (so central differences commute with the
    half-period symmetries used in tests) and at least 8.
    """
    if not 1 <= n <= 3:
        raise ValueError(f"torus dimension must be 1, 2 or 3, got {n}")
    sides = tuple(float(s) for s in side_lengths)
    res = tuple(int(r) for r in resolution)
    if len(sides) != n or len(res) != n:
        raise ValueError("side_lengths and resolution must have length n")
    if any(s <= 0 for s in sides):
        raise ValueError(f"side lengths must be positive, got {sides}")
    if any(r < 8 or r % 2 != 0 for r in res):
        raise ValueError(f"resolutions must be even and >= 8, got {res}")

    spacings = [s / r for s, r in zip(sides, res)]
    node_count = int(np.prod(res))
    axes = [np.arange(r) * h for r, h in zip(res, spacings)]
    grids = np.meshgrid(*axes, indexing="ij")
    positions = np.stack([g.ravel() for g in grids], axis=1)
    cell_volume = float(np.prod(spacings))
    return ManifoldDescriptor(
        kind=ManifoldKind.FLAT_TORUS,
        dimension=n,
        node_count=node_count,
        quadrature_weights=np.full(node_count, cell_volume),
        ricci_form_kind=RicciKind.ZERO,
        positions=positions,
        mesh_scale=float(max(spacings)),
        torus_side_lengths=sides,
        torus_resolution=res,
    )


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


def build_sphere(subdivision: int) -> ManifoldDescriptor:
    """Icosphere mesh of the round unit sphere, Ric(X,X) = |X|^2.

    ``subdivision`` is the number of 4-way refinement passes applied to the
    icosahedron (vertex count 10 * 4**s + 2).  Vertex quadrature weights are
    lumped barycentric triangle areas.
    """
    if subdivision < 2:
        raise ValueError(f"sphere subdivision must be >= 2, got {subdivision}")
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

    # cotangent weights, accumulated per face corner then summed over the
    # (at most two) faces sharing each edge
    from scipy.sparse import coo_matrix

    rows, cols, vals = [], [], []
    corner_pts = (p0, p1, p2)
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        u = corner_pts[i] - corner_pts[k]
        v = corner_pts[j] - corner_pts[k]
        cot = np.einsum("fd,fd->f", u, v) / np.linalg.norm(np.cross(u, v), axis=1)
        rows.append(faces[:, i])
        cols.append(faces[:, j])
        vals.append(0.5 * cot)
    w = coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(node_count, node_count),
    ).tocsr()
    w = w + w.T
    wc = w.tocoo()
    upper = wc.row < wc.col
    edge_i = wc.row[upper].astype(np.int64)
    edge_j = wc.col[upper].astype(np.int64)
    edge_weights = wc.data[upper]

    edge_lengths = np.linalg.norm(verts[edge_i] - verts[edge_j], axis=1)
    mesh = SphereMesh(
        faces=faces,
        face_areas=face_areas,
        grad_vectors=grad_vectors,
        edge_i=edge_i,
        edge_j=edge_j,
        edge_weights=edge_weights,
    )
    return ManifoldDescriptor(
        kind=ManifoldKind.ROUND_SPHERE,
        dimension=2,
        node_count=node_count,
        quadrature_weights=lumped,
        ricci_form_kind=RicciKind.UNIT_SPHERE_METRIC,
        positions=verts,
        mesh_scale=float(edge_lengths.max()),
        sphere_subdivision=subdivision,
        sphere_mesh=mesh,
    )


# ---------------------------------------------------------------------------
# differential operators


def _grid(field: ScalarField) -> np.ndarray:
    return field.values.reshape(field.manifold.torus_resolution)


def _torus_spacings(m: ManifoldDescriptor) -> list[float]:
    return [s / r for s, r in zip(m.torus_side_lengths, m.torus_resolution)]


def _roll(a: np.ndarray, shift: int, axis: int) -> np.ndarray:
    """``np.roll(a, shift, axis)`` for shift = +-1, by two slice copies.

    Same element values as np.roll, without its general-case overhead; the
    torus stencils call it on every operator application and CG matvec.
    """
    out = np.empty_like(a)
    lead = (slice(None),) * axis
    if shift == 1:
        out[lead + (slice(1, None),)] = a[lead + (slice(None, -1),)]
        out[lead + (slice(None, 1),)] = a[lead + (slice(-1, None),)]
    else:
        out[lead + (slice(None, -1),)] = a[lead + (slice(1, None),)]
        out[lead + (slice(-1, None),)] = a[lead + (slice(None, 1),)]
    return out


def torus_stiffness_apply(m: ManifoldDescriptor, values: np.ndarray) -> np.ndarray:
    """Raw periodic stencil sum, without the quadrature normalization.

    Exact on constants: each axis contributes (f+ - f) + (f- - f) which
    vanishes identically in floating point.
    """
    a = values.reshape(m.torus_resolution)
    out = np.zeros_like(a)
    for ax, h in enumerate(_torus_spacings(m)):
        out += (_roll(a, -1, ax) - 2.0 * a + _roll(a, 1, ax)) / (h * h)
    return out.ravel()


def sphere_stiffness_apply(m: ManifoldDescriptor, values: np.ndarray) -> np.ndarray:
    """Cotangent-weight edge-difference form Sum_j w_ij (f_j - f_i).

    Symmetric with zero row sums by construction; each edge term is exactly
    zero on constant fields.
    """
    mesh = m.sphere_mesh
    diff = mesh.edge_weights * (values[mesh.edge_j] - values[mesh.edge_i])
    out = np.zeros(m.node_count)
    np.add.at(out, mesh.edge_i, diff)
    np.add.at(out, mesh.edge_j, -diff)
    return out


def laplacian(field: ScalarField) -> ScalarField:
    m = field.manifold
    if m.is_torus:
        out = torus_stiffness_apply(m, field.values)
    else:
        out = sphere_stiffness_apply(m, field.values) / m.quadrature_weights
    return ScalarField(out, m)


def grad_components(field: ScalarField) -> list[np.ndarray]:
    """Central-difference gradient components, one flat array per axis (torus only)."""
    m = field.manifold
    if not m.is_torus:
        raise BackendError("componentwise gradients are only available on the torus")
    a = _grid(field)
    return [
        ((_roll(a, -1, ax) - _roll(a, 1, ax)) / (2.0 * h)).ravel()
        for ax, h in enumerate(_torus_spacings(m))
    ]


def components_norm_sq(components: list[np.ndarray]) -> np.ndarray:
    """Sum of the squared components, accumulated in axis order.

    Applied to :func:`grad_components` this is the torus |grad f|^2, so a
    caller that already holds the components need not take them again.
    """
    out = np.zeros(components[0].shape)
    for comp in components:
        out += comp * comp
    return out


def grad_norm_sq(field: ScalarField) -> ScalarField:
    m = field.manifold
    if m.is_torus:
        out = components_norm_sq(grad_components(field))
    else:
        mesh = m.sphere_mesh
        fv = field.values[mesh.faces]                      # (F, 3)
        grad = np.einsum("fm,fmd->fd", fv, mesh.grad_vectors)
        gsq = np.einsum("fd,fd->f", grad, grad)            # (F,)
        out = np.zeros(m.node_count)
        np.add.at(out, mesh.faces.ravel(), np.repeat(mesh.face_areas / 3.0 * gsq, 3))
        out /= m.quadrature_weights
    return ScalarField(out, m)


def hessian_penalty(field: ScalarField, lam: float, t: float) -> ScalarField:
    """Pointwise squared Frobenius norm of (discrete Hessian - lam/(2t) * identity).

    Torus only: a convergent covariant Hessian on unstructured meshes is out
    of proportion to its single cross-check role here.
    """
    m = field.manifold
    if not m.is_torus:
        raise BackendError("hessian_penalty is only available on the torus")
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    a = _grid(field)
    spacings = _torus_spacings(m)
    shift = lam / (2.0 * t)
    out = np.zeros_like(a)
    for ax, h in enumerate(spacings):
        diag = (_roll(a, -1, ax) - 2.0 * a + _roll(a, 1, ax)) / (h * h)
        out += (diag - shift) ** 2
    for ax1 in range(m.dimension):
        for ax2 in range(ax1 + 1, m.dimension):
            h1, h2 = spacings[ax1], spacings[ax2]
            ap, am = _roll(a, -1, ax1), _roll(a, 1, ax1)
            app = _roll(ap, -1, ax2)
            apm = _roll(ap, 1, ax2)
            amp = _roll(am, -1, ax2)
            amm = _roll(am, 1, ax2)
            mixed = (app - apm - amp + amm) / (4.0 * h1 * h2)
            out += 2.0 * mixed * mixed
    return ScalarField(out.ravel(), m)


def ricci_quadratic(field: ScalarField) -> ScalarField:
    """Ric(grad f, grad f): zero on the flat torus, |grad f|^2 on the unit sphere."""
    m = field.manifold
    if m.ricci_form_kind is RicciKind.ZERO:
        return ScalarField(np.zeros(m.node_count), m)
    return grad_norm_sq(field)


def integrate(field: ScalarField) -> float:
    return float(np.dot(field.manifold.quadrature_weights, field.values))


def geodesic_distance(m: ManifoldDescriptor, x1: int, x2: int) -> float:
    """Exact geodesic distance between two nodes.

    Torus: minimum over coordinate wraps of the Euclidean distance.
    Sphere: great-circle distance arccos(p1 . p2).
    """
    p1, p2 = m.positions[x1], m.positions[x2]
    if m.is_torus:
        delta = np.abs(p1 - p2)
        sides = np.asarray(m.torus_side_lengths)
        delta = np.minimum(delta, sides - delta)
        return float(np.linalg.norm(delta))
    return float(np.arccos(np.clip(np.dot(p1, p2), -1.0, 1.0)))
