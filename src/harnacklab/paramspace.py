"""Sign analysis of the five-parameter Harnack family for the v-equation.

Killing the indefinite-sign b*w/t^2 term in the evolution equation leaves
two cases:

    case one:  1 - 2 (alpha - beta) lam / alpha = 0
    case two:  b = 0

In case one the maximum principle additionally needs alpha - beta >= 0,
b + beta >= 0 and alpha^2 / (4 (alpha - beta)) + b <= 0, which together
force (alpha - 2 beta)^2 <= 0: the parameters collapse onto the single ray
alpha = 2 beta = -2 b > 0 (lam = 1), i.e. Ni's quantity up to positive
rescaling.  ``case_one_uniqueness_scan`` verifies that collapse by brute
force over a parameter grid, which is its own oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .harnack import HarnackParams

# relative slack for float rounding in the case conditions and sign
# constraints; positively homogeneous (scaled by |alpha|) so that jointly
# rescaling (alpha, beta, b, c) by any positive constant changes nothing
_REL_EPS = 1e-9


class CaseTag(enum.Enum):
    CASE_ONE = "case_one"
    CASE_TWO = "case_two"
    BOTH = "both"
    NEITHER = "neither"


class NamedMatch(enum.Enum):
    NONE = "none"
    NI = "ni"
    CAO_HAMILTON_H = "cao_hamilton_h"
    LI_YAU = "li_yau"


@dataclass(frozen=True)
class ConstraintFlags:
    alpha_minus_beta_nonneg: bool
    b_plus_beta_nonneg: bool
    quarter_square_nonpos: bool
    maximum_principle_applicable: bool


@dataclass(frozen=True)
class ParamClassification:
    case_tag: CaseTag
    constraints: ConstraintFlags
    named_match: NamedMatch
    kill_term_value: float        # 1 - 2 (alpha - beta) lam / alpha
    quarter_square_value: float   # alpha^2 / (4 (alpha - beta)) + b


# named tuples normalized to alpha = 2: (beta, b, c, lam)
_NAMED = {
    NamedMatch.NI: (1.0, -1.0, 1.0, 1.0),
    NamedMatch.CAO_HAMILTON_H: (1.0, 0.0, 2.0, 2.0),
    NamedMatch.LI_YAU: (0.0, 0.0, 1.0, 1.0),
}


def classify(p: HarnackParams) -> ParamClassification:
    """Case membership, sign constraints, and recognition of the canonical tuples.

    Recognition normalizes (alpha, beta, b, c) by alpha/2 first, so any
    positive rescaling of a named tuple still matches.
    """
    a, beta, b, c, lam = p.alpha, p.beta, p.b, p.c, p.lam
    if a == 0:
        raise ValueError("alpha must be nonzero")
    eps = _REL_EPS * abs(a)

    kill = 1.0 - 2.0 * (a - beta) * lam / a
    case_one = abs(kill) <= eps
    case_two = abs(b) <= eps
    if case_one and case_two:
        tag = CaseTag.BOTH
    elif case_one:
        tag = CaseTag.CASE_ONE
    elif case_two:
        tag = CaseTag.CASE_TWO
    else:
        tag = CaseTag.NEITHER

    c1 = a - beta
    c2 = b + beta
    c3 = a * a / (4.0 * c1) + b if c1 != 0 else np.inf
    c1_ok = c1 >= -eps
    c2_ok = c2 >= -eps
    c3_ok = c3 <= eps
    if tag in (CaseTag.CASE_ONE, CaseTag.BOTH):
        applicable = c1_ok and c2_ok and c3_ok
    elif tag is CaseTag.CASE_TWO:
        # with b = 0, the square/Ricci terms need alpha >= beta and the
        # gradient term needs beta >= 0 (for positive lam)
        applicable = c1_ok and c2_ok
    else:
        applicable = False

    named = NamedMatch.NONE
    if a > 0:
        scale = 2.0 / a
        normalized = (scale * beta, scale * b, scale * c, lam)
        for match, ref in _NAMED.items():
            if all(abs(x - y) <= _REL_EPS for x, y in zip(normalized, ref)):
                named = match
                break

    return ParamClassification(
        case_tag=tag,
        constraints=ConstraintFlags(
            alpha_minus_beta_nonneg=bool(c1_ok),
            b_plus_beta_nonneg=bool(c2_ok),
            quarter_square_nonpos=bool(c3_ok),
            maximum_principle_applicable=bool(applicable),
        ),
        named_match=named,
        kill_term_value=float(kill),
        quarter_square_value=float(c3),
    )


@dataclass(frozen=True)
class ScanSpec:
    MAX_POINTS: ClassVar[int] = 5_000_000  # grid points; the reference scan has 580,851

    # spec values from the analysis: alpha over (0, 4], beta and b wide enough
    # to bracket the ray on both sides
    alpha_range: tuple[float, float] = (0.5, 4.0)
    beta_range: tuple[float, float] = (-2.0, 3.0)
    b_range: tuple[float, float] = (-3.0, 1.0)
    step: float = 0.05

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")
        points = 1.0  # a float, so a step too small to count the points gives inf
        for name, (lo, hi) in (
            ("alpha", self.alpha_range),
            ("beta", self.beta_range),
            ("b", self.b_range),
        ):
            if not hi > lo:
                raise ValueError(f"degenerate {name} range [{lo}, {hi}]")
            points *= (hi - lo) / self.step + 1
        if not points <= self.MAX_POINTS:
            raise ValueError(
                f"step = {self.step} makes {points:.4g} grid points; at most {self.MAX_POINTS}"
            )


@dataclass(eq=False)
class ScanResult:
    """The case-one scan's counts and survivors; the caller keeps its ScanSpec."""

    tolerance: float          # constraint slack step^2/4: one-grid-step quantization
    n_points: int
    n_alpha_eq_beta: int      # grid points with alpha = beta, excluded (lam undefined)
    survivors: np.ndarray     # (S, 4): alpha, beta, b, lam
    max_ray_deviation: float  # max over survivors of max(|alpha - 2 beta|, |b + beta|)
    n_boundary: int           # survivors sitting exactly on a constraint boundary


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    n = int(round((hi - lo) / step)) + 1
    return lo + step * np.arange(n)


def survivor_mask(
    degenerate: np.ndarray, c1: np.ndarray, c2: np.ndarray, c3: np.ndarray, delta: float
) -> np.ndarray:
    """The case-one survivors among grid points: not alpha = beta, c1 =
    alpha - beta > 0, c2 = b + beta >= -delta and c3 = alpha^2/(4 c1) + b
    <= delta.  :func:`case_one_uniqueness_scan` looks it up by name for
    each alpha block."""
    return (~degenerate) & (c1 > 0) & (c2 >= -delta) & (c3 <= delta)


def case_one_uniqueness_scan(spec: ScanSpec, on_block=None) -> ScanResult:
    """Brute-force enumeration of the case-one constraint set.

    lam is pinned by the case condition, lam = alpha / (2 (alpha - beta)),
    and c is fixed to -b (any strictly positive c works; this matches the
    survivors' normalization).  The sign constraints are evaluated with
    slack step^2/4: exactly the violation a grid point one step off the ray
    picks up through the quadratic constraint, so the survivor set is the
    discrete neighborhood of the ray and its transverse extent shrinks
    linearly with the step.

    ``on_block`` (if given) receives one dict of flat per-point columns per
    alpha slice, which is how the runner streams the full grid to CSV.
    """
    a_grid = _grid(*spec.alpha_range, spec.step)
    beta_grid = _grid(*spec.beta_range, spec.step)
    b_grid = _grid(*spec.b_range, spec.step)
    delta = spec.step * spec.step / 4.0

    survivors = []
    n_alpha_eq_beta = 0
    n_boundary = 0
    max_dev = 0.0
    bb, b2 = np.meshgrid(beta_grid, b_grid, indexing="ij")
    c2 = b2 + bb  # the only constraint that does not depend on alpha

    for alpha in a_grid:
        g = alpha - bb
        degenerate = np.abs(g) <= 1e-12 * max(1.0, abs(alpha))
        n_alpha_eq_beta += int(np.count_nonzero(degenerate[:, 0])) * len(b_grid)
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = np.where(degenerate, np.nan, alpha / (2.0 * g))
            c3 = np.where(degenerate, np.inf, alpha * alpha / (4.0 * g) + b2)
        c1 = g
        surv = survivor_mask(degenerate, c1, c2, c3, delta)

        if on_block is not None:
            on_block(
                {
                    "alpha": np.full(bb.size, alpha),
                    "beta": bb.ravel(),
                    "b": b2.ravel(),
                    "lam": lam.ravel(),
                    "alpha_minus_beta": c1.ravel(),
                    "b_plus_beta": c2.ravel(),
                    "quarter_square_plus_b": c3.ravel(),
                    "survivor": surv.ravel(),
                }
            )

        if np.any(surv):
            beta_s = bb[surv]
            b_s = b2[surv]
            lam_s = lam[surv]
            survivors.append(
                np.column_stack([np.full(beta_s.size, alpha), beta_s, b_s, lam_s])
            )
            dev = np.maximum(np.abs(alpha - 2.0 * beta_s), np.abs(b_s + beta_s))
            max_dev = max(max_dev, float(dev.max()))
            on_bdry = (np.abs(c2[surv]) <= 1e-10) | (np.abs(c3[surv]) <= 1e-10)
            n_boundary += int(np.count_nonzero(on_bdry))

    surv_arr = (
        np.concatenate(survivors, axis=0) if survivors else np.empty((0, 4))
    )
    return ScanResult(
        tolerance=delta,
        n_points=a_grid.size * beta_grid.size * b_grid.size,
        n_alpha_eq_beta=n_alpha_eq_beta,
        survivors=surv_arr,
        max_ray_deviation=max_dev,
        n_boundary=n_boundary,
    )
