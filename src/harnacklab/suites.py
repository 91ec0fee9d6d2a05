"""The verification suites: each a pure verdict over values a run computed.

A suite steps no flow, builds no manifold and opens no file: ``runner``
computes every value a suite reads, and the suite returns its report for
``summary.json``, built from its ``Gate``s by ``_verdict``.
"""

from __future__ import annotations

import sys
import typing
from dataclasses import asdict, dataclass

import numpy as np

from .config import ConfigError, RunConfig
from .entropy import SnapshotSeries
from .geometry import ManifoldDescriptor
from .harnack import CAO_HAMILTON_H_PARAMS, LI_YAU_PARAMS, NI_PARAMS, HarnackParams
from .paramspace import CaseTag, NamedMatch, ScanResult, classify
from .pathwise import PairReport


def discretization_tolerance(m: ManifoldDescriptor, c: float, dt: float) -> float:
    """tol_disc = C (h^2 + dt), the declared discrete form of the continuum
    sign statements; a ConfigError unless it is finite, since every gate
    passes under an infinite bound."""
    h = m.mesh_scale
    tol_disc = c * (h * h + dt)
    if not np.isfinite(tol_disc):
        raise ConfigError(f"tol_disc is not finite: tol_disc_constant {c} at mesh scale {h}")
    return tol_disc


@dataclass(frozen=True, eq=False)
class Gate:
    """One check of a suite: ``values`` (a number or an array) against
    ``bound``.  ``name`` is the summary.json key that reports the largest
    value.  Gates compare by identity, as their values may be arrays."""

    name: str
    values: typing.Any
    bound: float


def _verdict(ranked: list[Gate], unranked: list[Gate]) -> dict:
    """A suite's report from its gates: each gate's largest value under its
    name, and in ``gates`` with its bound and pass.  A gate passes only when
    every value and the bound are finite and the largest value is at most
    the bound; ``pass`` is the AND of the gates.  ``worst_slack`` is the
    largest value - bound over the ``ranked`` gates, +inf when any gate's
    values or bound are not finite."""
    report, table, slacks = {}, {}, []
    for gate in ranked + unranked:
        value, bound = float(np.max(gate.values)), float(gate.bound)
        finite = bool(np.all(np.isfinite(gate.values)) and np.isfinite(bound))
        report[gate.name] = value
        table[gate.name] = {"value": value, "bound": bound, "pass": finite and value <= bound}
        if not finite:
            slacks.append(np.inf)
        elif gate in ranked:
            slacks.append(value - bound)
    report["pass"] = all(entry["pass"] for entry in table.values())
    report["worst_slack"] = max(slacks)
    report["gates"] = table
    return report


def harnack_signs(series: SnapshotSeries, tol_disc: float) -> dict:
    identity_tol = 1e-9
    report = _verdict(
        [
            Gate("worst_max_H", series.max_H, tol_disc),
            Gate("worst_max_liyau", series.max_liyau, tol_disc),
        ],
        [Gate("p_vs_h_max_abs_diff", series.P_vs_H_gap, identity_tol)],
    )
    # P == H pointwise; the identity gap is gated
    report.update(tol=tol_disc, worst_max_P=report["worst_max_H"], p_vs_h_identity_tol=identity_tol)
    return report


def evolution_residual(
    config: RunConfig, residuals: list[tuple[HarnackParams, float, float]],
    comparison_time: float, series: SnapshotSeries,
) -> dict:
    # the canonical H tuple's residual at every interior snapshot comes from
    # the snapshot pass (it is the diagnostics column); each random tuple
    # comes with its residual on the fine and on the once-coarsened flow at
    # ``comparison_time``, a two-level convergence check
    lo, hi = config.tolerances.residual_ratio_window
    rows, slacks = [], []
    for p, r_fine, r_coarse in residuals:
        ratio = r_coarse / r_fine if r_fine > 0 else np.inf
        slack = max(lo - ratio, ratio - hi)  # <= 0 inside the window
        slacks.append(slack)
        rows.append(
            {
                **asdict(p),
                "variant": p.variant.value,
                "residual_fine": r_fine,
                "residual_coarse": r_coarse,
                "ratio": ratio,
                "pass": bool(slack <= 0),
            }
        )
    # the canonical residual at the interior snapshots need only be finite;
    # the two end entries have no centered difference and are not gated
    report = _verdict(
        [Gate("worst_ratio_slack", slacks, 0.0)],
        [Gate("canonical_max_residual", series.residual[1:-1], sys.float_info.max)],
    )
    report.update(ratio_window=[lo, hi], comparison_time=comparison_time, tuples=rows)
    return report


def entropy(
    config: RunConfig, m: ManifoldDescriptor, tol_disc: float, mass: float, mass_drift: float,
    series: SnapshotSeries,
) -> dict:
    scale = max(1.0, abs(mass))
    tol_value = tol_disc * scale
    identity_tol = 1e-11 * scale

    # the one-sided end differences dF_fd[0], dF_fd[-1] are not gated
    f_direct, w_direct = series.F_direct, series.W_direct
    df_fd, dw_fd = series.dF_fd[1:-1], series.dW_fd[1:-1]
    gaps = np.maximum(np.abs(f_direct - series.F_via_H), np.abs(w_direct - series.W_via_P))
    s_tols = config.tolerances.quadrature_tol * np.maximum(1.0, series.time * series.time * scale)
    # each snapshot's Stokes slack, floored at 0; NaN where its tolerance is not finite
    stokes = np.where(np.isfinite(s_tols), np.maximum(0.0, gaps - s_tols), np.nan)
    ranked = [
        Gate("worst_F_direct", f_direct, tol_value),
        Gate("worst_W_direct", w_direct, tol_value),
        Gate("worst_dF_fd_centered", df_fd, tol_value),
        Gate("worst_dW_fd_centered", dw_fd, tol_value),
    ]
    unranked = [
        Gate("stokes_worst_slack", stokes, 0.0),
        Gate("w_equals_f_max_gap", np.abs(w_direct - f_direct), identity_tol),
        # each step may move the mass by a few roundoffs of itself, no more
        Gate("mass_drift_rel", mass_drift, 4.0 * sys.float_info.epsilon * config.flow.n_steps),
    ]
    facts = {"tol_value": tol_value, "w_equals_f_tol": identity_tol}
    if series.dF_formula is not None:
        h, dt = m.mesh_scale, config.flow.dt
        facts["xcheck_tol"] = config.tolerances.tol_disc_constant * (dt * dt + h * h) * scale
        df_formula, dw_formula = series.dF_formula, series.dW_formula
        xcheck = (np.abs(df_fd - df_formula[1:-1]), np.abs(dw_fd - dw_formula[1:-1]))
        diss_identity = np.abs(df_formula - dw_formula)
        unranked += [
            Gate("dissipation_max", (df_formula, dw_formula), 1e-12 * scale),
            Gate("xcheck_worst_gap", xcheck, facts["xcheck_tol"]),
            Gate("dissipation_F_vs_W_gap", diss_identity, identity_tol),
        ]
    report = _verdict(ranked, unranked)
    report.update(facts)
    if config.flow.direction == "backward":
        # series are in tau; the implied t-derivatives flip sign
        report["implied_dF_dt_min"] = -report["worst_dF_fd_centered"]
        report["implied_dW_dt_min"] = -report["worst_dW_fd_centered"]
        report["implied_dF_dt_gate"] = -tol_value
    return report


def pathwise(config: RunConfig, reports: list[PairReport], tol_disc: float) -> dict:
    report = _verdict([Gate("worst_raw_slack", [r.slack for r in reports], tol_disc)], [])
    report.update(tol=tol_disc, pair_count=len(reports), seed=config.tolerances.rng_seed)
    return report


def paramscan(config: RunConfig, result: ScanResult) -> dict:
    ni = classify(NI_PARAMS)
    named_ok = (
        ni.named_match is NamedMatch.NI
        and ni.case_tag is CaseTag.CASE_ONE
        and classify(CAO_HAMILTON_H_PARAMS).named_match is NamedMatch.CAO_HAMILTON_H
        and classify(LI_YAU_PARAMS).named_match is NamedMatch.LI_YAU
    )
    n_survivors = int(result.survivors.shape[0])
    report = _verdict(
        [Gate("max_ray_deviation", result.max_ray_deviation, config.paramscan.step + 1e-12)],
        [
            Gate("no_survivors", float(n_survivors == 0), 0.0),
            Gate("named_tuples_unrecognized", float(not named_ok), 0.0),
        ],
    )
    report.update(
        step=config.paramscan.step,
        constraint_slack=result.tolerance,
        n_points=result.n_points,
        n_survivors=n_survivors,
        n_alpha_eq_beta_excluded=result.n_alpha_eq_beta,
        n_boundary_survivors=result.n_boundary,
        named_tuples_recognized=bool(named_ok),
    )
    return report
