"""Discrete closed manifolds and their differential-geometric primitives.

Each manifold family is one backend class that owns its operators:
:class:`FlatTorus`, a flat torus T^n (n = 1, 2, 3) on a periodic uniform
grid, and :class:`harnacklab.sphere.RoundSphere`, the round unit sphere S^2
as an icosphere mesh, in its own module.  They are the canonical closed
examples with Ric = 0 and Ric > 0, with closed-form geodesic distances.
Both derive from :class:`ManifoldDescriptor`, which holds what every backend
has (dimension, nodes, quadrature weights, positions, mesh scale, and the
Einstein constant ``ricci_constant``: Ric = kappa g, so Ric(grad f, grad f)
is kappa |grad f|^2) and declares the operators on flat value arrays:
``stencils``, the one call that gives a stack of fields' Laplacians,
|grad f|^2, gradients and Hessian penalties, ``stiffness``,
``geodesic_distance`` and the Crank-Nicolson solver ``cn_solver``: those
four are a backend's whole interface.  Only the torus supplies the gradient
and the Hessian penalty; the sphere raises :class:`BackendError` for them.
The module-level ``laplacian``, ``grad_norm_sq``, ``grad_components`` and
``hessian_penalty`` are the one per-field layer: each applies one operator
to a :class:`ScalarField` by taking its one row from ``stencils``.

The Laplacian is the analyst's (negative-spectrum) g^{ij} d_i d_j, so the
Laplacian of cos is negative, and ``stiffness`` is the symmetric weighted
form W with Lap = W / quadrature weight.  On the torus every operator is a
2nd-order central-difference stencil with periodic wrap, all from one pass,
:meth:`FlatTorus.stencils`: it copies the stack once into a wrap-padded
array and takes the Laplacian, gradient and Hessian penalty of every field
from views of that copy.  ``stiffness``, and so the flow's
residual checks, is a thin call into it.  The operators write into arrays
they allocate themselves, in their formulas' order, with no fresh array per
operation and no argument written.

A Crank-Nicolson step of size dt = 2a solves (M - a W) x = (M + a W) f, with
M the diagonal quadrature mass, by the backend's direct ``cn_solver(a)``,
built once per flow: on the torus, one real FFT pair (the stencil is
diagonal under the discrete Fourier transform); on the sphere, a banded
Cholesky factor.  Both solve for d = f - f[0] and add f[0] back, so constant
data stays bit-for-bit stationary.  ``linear_solver`` names the method.
The flow checks the residual of every solve against ``stiffness``.

:func:`build_sphere` and :func:`check_sphere_args` load
:mod:`harnacklab.sphere` when called, so a torus run never loads it.
"""

from __future__ import annotations

import importlib
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

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
    on a sphere.  ``ricci_constant`` is the kappa of Ric = kappa g.
    ``has_hessian`` tells whether the backend's ``stencils`` supply the
    gradient and the Hessian penalty; ``linear_solver`` names the method of
    its ``cn_solver``.  Each backend defines all four operators declared
    here itself; the field functions read one field's row from ``stencils``.
    """

    has_hessian: ClassVar[bool] = False
    linear_solver: ClassVar[str]
    ricci_constant: ClassVar[float]

    dimension: int
    node_count: int
    quadrature_weights: np.ndarray
    positions: np.ndarray
    mesh_scale: float

    @property
    def total_volume(self) -> float:
        return float(np.sum(self.quadrature_weights))

    def stencils(
        self, rows: Sequence[np.ndarray], *, laplacian: bool = False, grad_norm_sq: bool = False,
        gradient: bool = False, hessian: tuple[float, float] | None = None,
    ) -> tuple[Sequence | None, Sequence | None, list[Sequence] | None, Sequence | None]:
        """``(lap, grad_sq, grad, hess)`` of the k flat arrays ``rows``, each
        None unless asked for and each one array per row (a sequence of k
        arrays, as a (k, N) array is): the Laplacian, |grad f|^2, the
        gradient as one such sequence per axis and, for ``hessian = (lam,
        t)``, |Hessian - lam/(2t) identity|^2.  A backend without
        ``has_hessian`` raises BackendError for ``gradient`` or ``hessian``."""
        raise NotImplementedError

    def stiffness(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def geodesic_distance(self, x1: int, x2: int) -> float:
        raise NotImplementedError

    def cn_solver(self, a: float) -> Callable[[np.ndarray], np.ndarray]:
        """The solver f -> x of (M - a W) x = (M + a W) f, for one fixed a > 0."""
        raise NotImplementedError


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
    # started from the first square: 0.0 + x * x is x * x, which is never -0.0
    out = components[0] * components[0]
    square = np.empty_like(out)
    for comp in components[1:]:
        out += np.multiply(comp, comp, out=square)
    return out


@dataclass(frozen=True, eq=False)
class FlatTorus(ManifoldDescriptor):
    """Periodic uniform grid on a flat torus, Ric = 0.  Built by :func:`build_torus`."""

    has_hessian: ClassVar[bool] = True
    linear_solver: ClassVar[str] = "fft"
    ricci_constant: ClassVar[float] = 0.0

    side_lengths: tuple[float, ...]
    resolution: tuple[int, ...]
    spacings: tuple[float, ...]

    def stencils(
        self, rows: Sequence[np.ndarray], *, laplacian: bool = False, grad_norm_sq: bool = False,
        gradient: bool = False, hessian: tuple[float, float] | None = None,
    ) -> tuple[np.ndarray | None, np.ndarray | None, list[np.ndarray] | None, np.ndarray | None]:
        """The torus operators of the k flat arrays ``rows``, in one pass.

        The rows are copied once into an array wrap-padded by one node on
        both sides of every axis.  The axes are padded in turn, each across
        the full extent of the others, so the corners hold the diagonal
        neighbours that the mixed differences read, and every shifted
        operand is a view of that one copy.  Each axis's second difference
        f+ - 2f + f- is taken once and serves both the Laplacian and the
        Hessian diagonal.  Each difference is formed in place, in its
        operations' written order, in one of two work arrays: the second
        difference and 2f, which then hold 2 x mixed x mixed and each mixed
        difference.  The Laplacian and Hessian sums start from +0.0.
        |grad f|^2 is formed from the gradient only once the padded copy and
        the work arrays are freed, so they are never live with it.

        The Laplacian is exact on constants: 2f is exact, f+ - 2f = c - 2c
        has the representable exact result -c, and -c + c = 0, so each
        correctly rounded step is exact and every axis contributes exactly
        zero.
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
            diff = np.empty(centre.shape)
            for fp, fm, h in zip(plus, minus, spacings):
                np.subtract(fp, two_f, out=diff)
                diff += fm
                diff /= h * h
                if lap is not None:
                    lap += diff
                if hess is not None:
                    diff -= shift
                    diff *= diff
                    hess += diff
        grad = None
        if gradient or grad_norm_sq:
            grad = []
            for fp, fm, h in zip(plus, minus, spacings):
                comp = np.subtract(fp, fm)
                comp /= 2.0 * h
                grad.append(comp.reshape(flat))
        if hess is not None:
            mixed, term = two_f, diff  # free: the second differences are done
            for (ax1, ax2), (pp, pm, mp, mm) in diagonal_at.items():
                np.subtract(padded[pp], padded[pm], out=mixed)
                mixed -= padded[mp]
                mixed += padded[mm]
                mixed /= 4.0 * spacings[ax1] * spacings[ax2]
                np.multiply(mixed, 2.0, out=term)
                term *= mixed
                hess += term
            hess = hess.reshape(flat)
        if lap is not None:
            lap = lap.reshape(flat)
        # fp and fm are the last views of the copy; they and the work arrays
        # exist only for some requests, so they are rebound, not deleted
        del padded, centre, plus, minus
        fp = fm = two_f = diff = mixed = term = None
        grad_sq = components_norm_sq(grad) if grad_norm_sq else None
        return lap, grad_sq, grad if gradient else None, hess

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

    def stiffness(self, values: np.ndarray) -> np.ndarray:
        lap = self.stencils((values,), laplacian=True)[0][0]
        lap *= self.quadrature_weights
        return lap

    def cn_solver(self, a: float) -> Callable[[np.ndarray], np.ndarray]:
        """Crank-Nicolson solve by one real FFT pair.

        The stencil's eigenvalue at wave number k is
        lam_k = sum_axes (2 cos(2 pi k / r) - 2) / h^2, so the step multiplies
        each Fourier coefficient by (1 + a lam_k) / (1 - a lam_k); the zero
        mode's factor is exactly 1.  The last axis is the half spectrum.  The
        pair is taken as the one-axis transforms ``np.fft.rfftn`` and
        ``irfftn`` make in numpy 2 (forward from the last axis down, inverse
        from the first axis up), with the factor applied in place, so it
        equals ``irfftn(rfftn(d) * factor)`` bit for bit there.
        """
        n, res = self.dimension, self.resolution
        lam = np.zeros(res[:-1] + (res[-1] // 2 + 1,))
        for ax, (r, h) in enumerate(zip(res, self.spacings)):
            k = np.arange(lam.shape[ax]).reshape([-1 if i == ax else 1 for i in range(n)])
            lam = lam + (2.0 * np.cos(2.0 * np.pi * k / r) - 2.0) / (h * h)
        # complex, as numpy casts it to multiply a complex spectrum
        factor = ((1.0 + a * lam) / (1.0 - a * lam)).astype(complex)

        def solve(f: np.ndarray) -> np.ndarray:
            c = f[0]
            # rfftn and irfftn, one axis at a time, in the order numpy takes them
            spectrum = np.fft.rfft((f - c).reshape(res), axis=n - 1)
            for ax in range(n - 2, -1, -1):
                spectrum = np.fft.fft(spectrum, axis=ax)
            spectrum *= factor
            for ax in range(n - 1):
                spectrum = np.fft.ifft(spectrum, axis=ax)
            x = np.fft.irfft(spectrum, res[-1], axis=n - 1).ravel()
            x += c
            return x

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
# round sphere: entry points into .sphere


def check_sphere_args(subdivision: int) -> None:
    """Raise ValueError unless :func:`build_sphere` accepts this argument.
    It loads the sphere module, so a sphere config pays for that import when
    it is parsed, not inside its run."""
    importlib.import_module(".sphere", __package__)
    if subdivision < 2:
        raise ValueError(f"sphere subdivision must be >= 2, got {subdivision}")
    if 10 * 4 ** min(subdivision, 16) + 2 > MAX_NODES:  # 4**16 alone is over it
        raise ValueError(f"sphere subdivision {subdivision} makes over {MAX_NODES} nodes")


def build_sphere(subdivision: int) -> ManifoldDescriptor:
    """Icosphere mesh of the round unit sphere, Ric(X,X) = |X|^2: the
    icosahedron refined ``subdivision`` times (10 * 4**s + 2 vertices), a
    :class:`harnacklab.sphere.RoundSphere` with lumped vertex areas."""
    check_sphere_args(subdivision)
    from .sphere import icosphere

    return icosphere(subdivision)


# ---------------------------------------------------------------------------
# operators on fields


def laplacian(field: ScalarField) -> ScalarField:
    m = field.manifold
    return ScalarField(m.stencils((field.values,), laplacian=True)[0][0], m)


def grad_components(field: ScalarField) -> list[np.ndarray]:
    """Central-difference gradient components, one flat array per axis (torus only)."""
    return [comp[0] for comp in field.manifold.stencils((field.values,), gradient=True)[2]]


def grad_norm_sq(field: ScalarField) -> ScalarField:
    m = field.manifold
    return ScalarField(m.stencils((field.values,), grad_norm_sq=True)[1][0], m)


def hessian_penalty(field: ScalarField, lam: float, t: float) -> ScalarField:
    """Pointwise squared Frobenius norm of (discrete Hessian - lam/(2t) * identity).

    Torus only: a convergent covariant Hessian on unstructured meshes is out
    of proportion to its single cross-check role here.
    """
    m = field.manifold
    return ScalarField(m.stencils((field.values,), hessian=(lam, t))[3][0], m)


def ricci_quadratic(field: ScalarField) -> ScalarField:
    """Ric(grad f, grad f) = kappa |grad f|^2, for the backend's Ric = kappa g:
    zero on the flat torus, |grad f|^2 on the unit sphere."""
    ric = grad_norm_sq(field)
    ric.values *= field.manifold.ricci_constant
    return ric


def integrate(field: ScalarField) -> float:
    return float(np.dot(field.manifold.quadrature_weights, field.values))
