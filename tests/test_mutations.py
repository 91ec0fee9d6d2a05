"""The mutation table: what the gates catch and what they miss.

Each row runs a shipped config, cut down to a fraction of a second, under
one deliberate defect (a mutation, in the sense of DeMillo, Lipton &
Sayward 1978), and asserts the run's exit code and the exact set of gates
that fail across every suite.  A row that pins a known defect, one the
gates miss or fail for the wrong reason, names it in ``found``: its
ROADMAP item or CHANGES.md FOUND line.  Every row asserts today's outcome,
so a change that mends a defect flips its row, and a change that hides a
caught one fails.

Rows are named ``<cut>-<mutation>``: ``pytest -k sphere3-clock`` selects
the clock rows on the sphere.

``CLAIMS``, the claim ledger, files every row but the exact ones under the
claims it exercises, one cell per (claim, backend): caught by a gate of the
claim, carrying ``found``, or, in a cell with no gate, unchecked with the
reason.  ``test_claim_ledger`` holds it to the rows and to the gates the
cuts report, so a row or a gate that no claim names fails it.
"""

from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from harnacklab import entropy, harnack, heatflow, paramspace, pathwise, runner
from harnacklab.config import parse_config_text
from harnacklab.geometry import FlatTorus
from harnacklab.runner import EXIT_GATE_FAILURE, EXIT_PASS, EXIT_SOLVER_FAILURE, run_config
from harnacklab.sphere import RoundSphere

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
BACKENDS = (FlatTorus, RoundSphere)

# each cut: a shipped config and the edits that shrink it, each made once
CUTS = {
    "smoke": ("torus_smoke", ()),
    "torus16": ("torus_full", (
        ("resolution: [64, 64]", "resolution: [16, 16]"),
        ("t_end: 1.0", "t_end: 0.1"),
        ("suites: [harnack_signs, evolution_residual, entropy, pathwise]",
         "suites: [harnack_signs]"),
    )),
    "sphere3": ("sphere_signs", (("subdivision: 4", "subdivision: 3"), ("t_end: 1.0", "t_end: 0.1"))),
    "scan": ("paramscan", (("step: 0.05", "step: 0.25"),)),
}


def _wrap(monkeypatch, owner, name, wrapper):
    """Replace ``owner.name`` by ``wrapper(original)``."""
    monkeypatch.setattr(owner, name, wrapper(getattr(owner, name)))


def _scale_solvers(monkeypatch, k):
    # each backend's Crank-Nicolson solver is built for k*a
    for backend in BACKENDS:
        _wrap(monkeypatch, backend, "cn_solver", lambda build: lambda m, a: build(m, k * a))


def scale_clock(monkeypatch, k):
    """A flow that runs k times as fast as its labelled clock: each solver
    is built, and each step's residual checked, with k*a, so every solve
    meets its residual bound."""
    _scale_solvers(monkeypatch, k)
    _wrap(monkeypatch, heatflow, "_cn_solve", lambda check: lambda m, a, *args: check(m, k * a, *args))


def change_laplacian(monkeypatch, change, everywhere=False):
    """Each Laplacian row ``lap`` of a row ``w`` becomes ``change(lap, w)``
    in the ``stencils`` calls: in the diagnostics only (the calls that also
    ask for |grad|^2 or a gradient, which only the snapshot kernel makes),
    or ``everywhere``."""

    def changing(stencils):
        def changed(m, rows, **kw):
            lap, grad_sq, grad, hess = stencils(m, rows, **kw)
            if lap is not None and (everywhere or grad_sq is not None or grad is not None):
                lap = [change(lap_row, row) for lap_row, row in zip(lap, rows)]
            return lap, grad_sq, grad, hess

        return changed

    for backend in BACKENDS:
        _wrap(monkeypatch, backend, "stencils", changing)


def scale_laplacian(monkeypatch, k, everywhere):
    """The Laplacian times k: in the diagnostics only, or ``everywhere``,
    the flow's stiffness and solver included."""
    change_laplacian(monkeypatch, lambda lap, row: k * lap, everywhere)
    if everywhere:
        _wrap(monkeypatch, RoundSphere, "stiffness", lambda w: lambda m, values: k * w(m, values))
        _scale_solvers(monkeypatch, k)


def leak(monkeypatch, rate, resolution=None):
    """Each solve's result scaled by 1 + rate: mass leaks at every step; with
    ``resolution``, only on the torus of that resolution."""

    def leaky(build):
        def cn_solver(m, a):
            solve = build(m, a)
            if resolution is not None and getattr(m, "resolution", None) != resolution:
                return solve
            return lambda f: solve(f) * (1.0 + rate)

        return cn_solver

    for backend in BACKENDS:
        _wrap(monkeypatch, backend, "cn_solver", leaky)


def wrap_harnack(monkeypatch, name, wrapper):
    """Replace the harnack function ``name`` by ``wrapper(original)`` in
    both its bindings: in ``harnack`` and in ``entropy``'s kernel."""
    for owner in (harnack, entropy):
        _wrap(monkeypatch, owner, name, wrapper)


def halve_entropy_2nt(pair):
    """``_entropy_pair`` with 2nt halved in both forms: in (t^2 |grad w|^2 -
    2nt) f directly, and in t^2 q f through q's -2n/t; each gains n t
    integral f."""

    def halved(m, t, f, grad_sq, q):
        direct, via_q = pair(m, t, f, grad_sq, q)
        extra = m.dimension * t * float(np.dot(m.quadrature_weights, f))
        return direct + extra, via_q + extra

    return halved


def halve_hessian_shift(stencils):
    """A torus ``stencils`` whose Hessian penalty is taken at (lam/2, t)."""

    def halved(m, rows, *, hessian=None, **kw):
        if hessian is not None:
            hessian = (hessian[0] / 2.0, hessian[1])
        return stencils(m, rows, hessian=hessian, **kw)

    return halved


def drop_time_factor(check):
    """``check_integrated_harnack`` with n ln(t2/t1) taken off each rhs, and
    each slack and verdict taken again against the same tol."""

    def checked(traj, pairs, tol, values=None):
        n = traj.manifold.dimension
        reports = []
        for r in check(traj, pairs, tol=tol, values=values):
            rhs = r.rhs - n * np.log(r.pair.t2 / r.pair.t1)
            slack = r.lhs - rhs
            passed = bool(np.isfinite(slack)) and slack <= tol
            reports.append(replace(r, rhs=rhs, slack=slack, passed=passed))
        return reports

    return checked


# each mutation: a monkeypatch applied before the run, or config edits made
# after the cut's
MUTATIONS = {
    "exact": (),
    # the Li-Yau quantity 2 lap v - n/t with its constant n halved
    "liyau_halved": lambda mp: mp.setattr(
        entropy, "quantity_liyau_values", lambda lap, t, n: 2.0 * lap - n / (2.0 * t)
    ),
    # the closed-form dF/dt with its sign flipped
    "dissipation_flipped": lambda mp: _wrap(
        mp, entropy, "_dissipation_value", lambda value: lambda *args: -value(*args)
    ),
    # the closed-form dF/dt without its |grad u|^2 / t term
    "dissipation_no_grad": lambda mp: _wrap(
        mp, entropy, "_dissipation_value",
        lambda value: lambda m, t, f, hess, ricci, grad_sq: value(
            m, t, f, hess, ricci, np.zeros_like(grad_sq)
        ),
    ),
    # the integrated Harnack bound without its Gamma/2 term, or without its
    # n ln(t2/t1) term
    "pathwise_gamma_zero": lambda mp: mp.setattr(pathwise, "gamma_infimum", lambda m, pair: 0.0),
    "pathwise_no_time_factor": lambda mp: _wrap(
        mp, runner, "check_integrated_harnack", drop_time_factor
    ),
    "leak_1e-13": lambda mp: leak(mp, 1e-13),
    "leak_1e-12": lambda mp: leak(mp, 1e-12),
    # torus_smoke's once-coarsened flow (32 nodes) only, which the residual
    # suite steps after the fine pass
    "coarse_leak_1e-12": lambda mp: leak(mp, 1e-12, resolution=(32,)),
    "clock_x2": lambda mp: scale_clock(mp, 2.0),
    "clock_x0.5": lambda mp: scale_clock(mp, 0.5),
    "diag_lap_x1.01": lambda mp: scale_laplacian(mp, 1.01, everywhere=False),
    "diag_lap_x0.99": lambda mp: scale_laplacian(mp, 0.99, everywhere=False),
    "lap_x1.01": lambda mp: scale_laplacian(mp, 1.01, everywhere=True),
    # a diagnostics Laplacian that does not annihilate constants: L w + 1e-9 w
    "diag_lap_shift_1e-9": lambda mp: change_laplacian(mp, lambda lap, row: lap + 1e-9 * row),
    # H = 2 lap u - |grad u|^2 - 2n/t with its constant halved, to n/t
    "H_const_halved": lambda mp: wrap_harnack(
        mp, "quantity_H_values",
        lambda values: lambda lap, grad_sq, t, n: values(lap, grad_sq, t, n) + n / t,
    ),
    # the evolution right side without its ab n lam^2 / (2 t^2) term
    "rhs_lam_term_dropped": lambda mp: wrap_harnack(
        mp, "evolution_rhs_values",
        lambda rhs: lambda p, t, n, *args: rhs(p, t, n, *args)
        - (p.alpha - p.beta) * n * p.lam * p.lam / (2.0 * t * t),
    ),
    # the evolution right side's cross term -2 grad Q . grad w halved
    "rhs_cross_halved": lambda mp: wrap_harnack(
        mp, "evolution_rhs_values",
        lambda rhs: lambda *args: rhs(*args[:-1], [comp / 2.0 for comp in args[-1]]),
    ),
    # F and W, which share _entropy_pair, with 2nt halved in both forms
    "F_2nt_halved": lambda mp: _wrap(mp, entropy, "_entropy_pair", halve_entropy_2nt),
    # the torus's Einstein constant kappa (Ric = kappa g) at 1 or -1, not 0
    "ricci_one": lambda mp: mp.setattr(FlatTorus, "ricci_constant", 1.0),
    "ricci_minus_one": lambda mp: mp.setattr(FlatTorus, "ricci_constant", -1.0),
    # the Hessian penalty |Hess w - lam/(2t) g|^2 taken at lam/2
    "hess_shift_halved": lambda mp: _wrap(mp, FlatTorus, "stencils", halve_hessian_shift),
    # the scan's survivor predicate without its quarter-square constraint c3
    "quarter_square_dropped": lambda mp: mp.setattr(
        paramspace, "survivor_mask",
        lambda degenerate, c1, c2, c3, delta: (~degenerate) & (c1 > 0) & (c2 >= -delta),
    ),
    # torus_smoke's data times 1e200, where the Stokes gate's floor of 1 no
    # longer binds
    "data_x1e200": (("floor: 1.0", "floor: 1.0e200"), ("amplitude: 0.15", "amplitude: 0.15e200")),
}

CLOCK_FOUND = "ROADMAP items 1 and 14: no sphere gate sees a wrong clock"
DIAG_LAP_FOUND = "ROADMAP item 14; CHANGES.md FOUND: a ±1% error in the diagnostics' Laplacian"
LIYAU_FOUND = "ROADMAP item 3; CHANGES.md FOUND: a halved Li-Yau constant"
PATHWISE_FOUND = "ROADMAP item 18: the pathwise gate passes without a term of its bound"


def row(cut, mutation, exit_code, failing=(), found=None):
    return pytest.param(cut, mutation, exit_code, set(failing), found, id=f"{cut}-{mutation}")


ROWS = [
    row("smoke", "exact", EXIT_PASS),
    row("torus16", "exact", EXIT_PASS),
    row("sphere3", "exact", EXIT_PASS),
    row("torus16", "liyau_halved", EXIT_GATE_FAILURE, {"worst_max_liyau"}),
    row("smoke", "dissipation_flipped", EXIT_GATE_FAILURE, {"dissipation_max", "xcheck_worst_gap"}),
    # a leak of 1e-13 per step stays inside the solve's residual bound, so
    # only the mass gate sees it; at 1e-12 the residual check stops the run
    row("smoke", "leak_1e-13", EXIT_GATE_FAILURE, {"mass_drift_rel"}),
    row("sphere3", "leak_1e-13", EXIT_GATE_FAILURE, {"mass_drift_rel"}),
    row("smoke", "leak_1e-12", EXIT_SOLVER_FAILURE),
    row("sphere3", "leak_1e-12", EXIT_SOLVER_FAILURE),
    # a failure in the coarse flow ends the run like one in the fine flow
    row("smoke", "coarse_leak_1e-12", EXIT_SOLVER_FAILURE),
    row("smoke", "clock_x2", EXIT_GATE_FAILURE, {"worst_ratio_slack"}),
    row("smoke", "clock_x0.5", EXIT_GATE_FAILURE, {"worst_ratio_slack"}),
    row("smoke", "lap_x1.01", EXIT_GATE_FAILURE, {"worst_ratio_slack"}),
    row("sphere3", "clock_x2", EXIT_PASS, found=CLOCK_FOUND),
    row("sphere3", "clock_x0.5", EXIT_PASS, found=CLOCK_FOUND),
    row("smoke", "diag_lap_x1.01", EXIT_PASS, found=DIAG_LAP_FOUND),
    row("smoke", "diag_lap_x0.99", EXIT_PASS, found=DIAG_LAP_FOUND),
    row("sphere3", "diag_lap_x1.01", EXIT_PASS, found=DIAG_LAP_FOUND),
    row("sphere3", "diag_lap_x0.99", EXIT_PASS, found=DIAG_LAP_FOUND),
    row("sphere3", "lap_x1.01", EXIT_PASS,
        found="ROADMAP item 1: no gate pins the flow Laplacian's scale"),
    # the identity gates see the shift through v = u - (n/2) ln(4 pi t):
    # max|P - H| = 2e-9 max|(n/2) ln(4 pi t)|, 1.146e-9 on smoke and 9.29e-10
    # on sphere3, against 1e-9
    row("smoke", "diag_lap_shift_1e-9", EXIT_GATE_FAILURE, {"p_vs_h_max_abs_diff"}),
    row("sphere3", "diag_lap_shift_1e-9", EXIT_PASS,
        found="ROADMAP item 14: the P-vs-H gate misses the shift by the clock's range of ln(4 pi t)"),
    row("sphere3", "liyau_halved", EXIT_PASS, found=LIYAU_FOUND),
    row("smoke", "liyau_halved", EXIT_PASS, found=LIYAU_FOUND),
    row("smoke", "data_x1e200", EXIT_GATE_FAILURE, {"stokes_worst_slack"},
        found="ROADMAP item 10; CHANGES.md FOUND: the Stokes gate passes on its floor of 1"),
    # xcheck_worst_gap reads 0.0343 against its bound 0.0713
    row("smoke", "dissipation_no_grad", EXIT_PASS,
        found="ROADMAP item 17: the dissipation cross-check passes without a whole term"),
    # worst_raw_slack reads 0.063 against 0.561 on smoke, 0.019 against
    # 1.104 on sphere3 without Gamma; 0.028 and -0.734 without the time factor
    row("smoke", "pathwise_gamma_zero", EXIT_PASS, found=PATHWISE_FOUND),
    row("sphere3", "pathwise_gamma_zero", EXIT_PASS, found=PATHWISE_FOUND),
    row("smoke", "pathwise_no_time_factor", EXIT_PASS, found=PATHWISE_FOUND),
    row("sphere3", "pathwise_no_time_factor", EXIT_PASS, found=PATHWISE_FOUND),
    # formula mutations.  H's constant halved moves F_via_H by n t integral
    # f, so the Stokes gap reads 0.287 on smoke and 3.59 on sphere3, against
    # 0.  The right side's lam term dropped and its cross term halved move
    # the residual's ratio (slack 2.00 and 2.13).  F's 2nt halved moves F by
    # n t integral f and dF_fd by n integral f, which only the torus's
    # dissipation cross-check sees (1.15 against 0.0713); on sphere3 F's
    # sign bound is 19.8, against F = -1.79 and dF_fd = -35.9.  The Hessian
    # shift halved moves both the closed-form dF/dt (1.725) and the
    # residual (slack 2.17)
    row("smoke", "H_const_halved", EXIT_GATE_FAILURE, {"stokes_worst_slack"}),
    row("sphere3", "H_const_halved", EXIT_GATE_FAILURE, {"stokes_worst_slack"}),
    row("smoke", "rhs_lam_term_dropped", EXIT_GATE_FAILURE, {"worst_ratio_slack"}),
    row("smoke", "rhs_cross_halved", EXIT_GATE_FAILURE, {"worst_ratio_slack"}),
    row("smoke", "F_2nt_halved", EXIT_GATE_FAILURE, {"xcheck_worst_gap"}),
    row("smoke", "hess_shift_halved", EXIT_GATE_FAILURE, {"xcheck_worst_gap", "worst_ratio_slack"}),
    row("sphere3", "F_2nt_halved", EXIT_PASS,
        found="ROADMAP item 2: the sphere has no dissipation cross-check, and F's sign bound is loose"),
    # kappa = 1 on the torus adds 2 t^2 integral f |grad u|^2 to dF/dt:
    # xcheck_worst_gap reads 1.778e-3, 172 times the exact 1.035e-5, against
    # 0.0713.  At kappa = -1 the residual's ratio fails (slack 0.982)
    row("smoke", "ricci_one", EXIT_PASS,
        found="ROADMAP item 17: the dissipation cross-check passes a wrong Ricci constant"),
    row("smoke", "ricci_minus_one", EXIT_GATE_FAILURE, {"worst_ratio_slack"}),
    # 17 survivors at step 0.25, max_ray_deviation 0.25; without c3, 1393
    # survivors reach 6.0
    row("scan", "exact", EXIT_PASS),
    row("scan", "quarter_square_dropped", EXIT_GATE_FAILURE, {"max_ray_deviation"}),
]


def run_row(out_dir, monkeypatch, cut, mutation):
    """The outcome of ``cut`` under ``mutation``, reports in ``out_dir``."""
    name, edits = CUTS[cut]
    change = MUTATIONS[mutation]
    if callable(change):
        change(monkeypatch)
        change = ()
    text = (CONFIG_DIR / f"{name}.yaml").read_text()
    for old, new in edits + change + ((f"directory: out/{name}", f"directory: {out_dir}"),):
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    return run_config(parse_config_text(text))


@pytest.mark.parametrize("cut, mutation, exit_code, failing, found", ROWS)
def test_mutation(tmp_path, monkeypatch, cut, mutation, exit_code, failing, found):
    """Run ``cut`` under ``mutation`` and assert the row's outcome."""
    outcome = run_row(tmp_path, monkeypatch, cut, mutation)
    suites = outcome.summary.get("suites", {})
    failed = {gate for suite in suites.values() for gate, g in suite["gates"].items() if not g["pass"]}
    assert (outcome.exit_code, failed) == (exit_code, failing), found
    if exit_code == EXIT_SOLVER_FAILURE:
        assert "suites" not in outcome.summary
        assert "residual bound" in outcome.summary["solver_error"]
        assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]


class Cell(NamedTuple):
    """One (claim, backend) cell of the claim ledger: the gates that check
    the claim there, the rows they catch, the rows that carry ``found`` with
    the ROADMAP ``item`` that is to give the gates teeth, or, with no gate,
    why nothing checks the claim."""

    gates: tuple[str, ...] = ()
    caught: tuple[str, ...] = ()
    found: tuple[str, ...] = ()
    item: str | None = None
    unchecked: str | None = None


# a solve that misses its residual bound ends the run with summary.json's
# ``solver_error`` and no suites; the ledger counts that check as a gate
SOLVE_CHECK = "solver_error"
CUT_BACKENDS = {"smoke": "torus", "torus16": "torus", "sphere3": "sphere", "scan": "no manifold"}
SIGNS = ("worst_max_H", "worst_max_liyau")
F_AND_W = ("worst_F_direct", "worst_W_direct", "worst_dF_fd_centered", "worst_dW_fd_centered",
           "w_equals_f_max_gap")
CLOCK_ROWS = ("smoke-clock_x2", "smoke-clock_x0.5", "smoke-lap_x1.01")
NO_HESSIAN = "the sphere has no Hessian penalty (ROADMAP item 2)"

# the claim ledger (Oberkampf & Roy 2010): each claim of the lab, on each
# backend, is caught by the rows above, found by them, or unchecked
CLAIMS = {
    ("Harnack signs (H, Li-Yau)", "torus"): Cell(
        SIGNS, caught=("torus16-liyau_halved",), found=("smoke-liyau_halved",), item="3"),
    ("Harnack signs (H, Li-Yau)", "sphere"): Cell(SIGNS, found=("sphere3-liyau_halved",), item="3"),
    ("evolution identity", "torus"): Cell(
        ("worst_ratio_slack", "canonical_max_residual"),
        caught=CLOCK_ROWS + ("smoke-rhs_lam_term_dropped", "smoke-rhs_cross_halved",
                             "smoke-hess_shift_halved", "smoke-ricci_minus_one")),
    ("evolution identity", "sphere"): Cell(unchecked=NO_HESSIAN),
    ("F and W formulas", "torus"): Cell(F_AND_W + ("xcheck_worst_gap",), caught=("smoke-F_2nt_halved",)),
    ("F and W formulas", "sphere"): Cell(F_AND_W, found=("sphere3-F_2nt_halved",), item="2"),
    ("Stokes identity", "torus"): Cell(
        ("stokes_worst_slack",), caught=("smoke-H_const_halved",), found=("smoke-data_x1e200",),
        item="10"),
    ("Stokes identity", "sphere"): Cell(("stokes_worst_slack",), caught=("sphere3-H_const_halved",)),
    ("dissipation identity", "torus"): Cell(
        ("dissipation_max", "xcheck_worst_gap", "dissipation_F_vs_W_gap"),
        caught=("smoke-dissipation_flipped", "smoke-hess_shift_halved"),
        found=("smoke-dissipation_no_grad", "smoke-ricci_one"), item="17"),
    ("dissipation identity", "sphere"): Cell(unchecked=NO_HESSIAN),
    ("mass conservation", "torus"): Cell(("mass_drift_rel",), caught=("smoke-leak_1e-13",)),
    ("mass conservation", "sphere"): Cell(("mass_drift_rel",), caught=("sphere3-leak_1e-13",)),
    ("Crank-Nicolson solves", "torus"): Cell(
        (SOLVE_CHECK,), caught=("smoke-leak_1e-12", "smoke-coarse_leak_1e-12")),
    ("Crank-Nicolson solves", "sphere"): Cell((SOLVE_CHECK,), caught=("sphere3-leak_1e-12",)),
    ("the flow's clock and operator", "torus"): Cell(
        ("worst_ratio_slack", "p_vs_h_max_abs_diff"),
        caught=CLOCK_ROWS + ("smoke-diag_lap_shift_1e-9",),
        found=("smoke-diag_lap_x1.01", "smoke-diag_lap_x0.99"), item="14"),
    ("the flow's clock and operator", "sphere"): Cell(
        ("p_vs_h_max_abs_diff",),
        found=("sphere3-clock_x2", "sphere3-clock_x0.5", "sphere3-lap_x1.01", "sphere3-diag_lap_x1.01",
               "sphere3-diag_lap_x0.99", "sphere3-diag_lap_shift_1e-9"),
        item="1 and 14"),
    ("integrated Harnack", "torus"): Cell(
        ("worst_raw_slack",), found=("smoke-pathwise_gamma_zero", "smoke-pathwise_no_time_factor"),
        item="18"),
    ("integrated Harnack", "sphere"): Cell(
        ("worst_raw_slack",), found=("sphere3-pathwise_gamma_zero", "sphere3-pathwise_no_time_factor"),
        item="18"),
    ("uniqueness scan", "no manifold"): Cell(
        ("max_ray_deviation", "no_survivors", "named_tuples_unrecognized"),
        caught=("scan-quarter_square_dropped",)),
}


def test_claim_ledger(tmp_path, monkeypatch):
    """``CLAIMS`` agrees with ``ROWS`` and with the gates the cuts report:
    each cell's gates are reported on its backend, each caught row fails
    one of them, each found row carries ``found``, every row but the exact
    ones is filed, and every gate the exact cuts report belongs to a claim."""
    rows = {param.id: param.values for param in ROWS}
    reported = {}  # backend -> the gates its exact cuts report
    for cut, backend in CUT_BACKENDS.items():
        suites = run_row(tmp_path / cut, monkeypatch, cut, "exact").summary["suites"]
        reported.setdefault(backend, {SOLVE_CHECK}).update(
            gate for suite in suites.values() for gate in suite["gates"]
        )
    claimed, caught, found = set(), set(), set()
    for key, cell in CLAIMS.items():
        assert set(cell.gates) <= reported[key[1]], key
        assert bool(cell.gates) == bool(cell.caught or cell.found) != bool(cell.unchecked), key
        assert bool(cell.found) == bool(cell.item), key
        for row_id in cell.caught + cell.found:
            assert CUT_BACKENDS[rows[row_id][0]] == key[1], (key, row_id)
        for row_id in cell.caught:
            _, _, exit_code, failing, _ = rows[row_id]
            if exit_code == EXIT_SOLVER_FAILURE:
                failing = failing | {SOLVE_CHECK}
            assert failing & set(cell.gates), (key, row_id)
        claimed.update(cell.gates)
        caught.update(cell.caught)
        found.update(cell.found)
    assert set().union(*reported.values()) <= claimed
    exact = {row_id for row_id, (_, mutation, *_) in rows.items() if mutation == "exact"}
    with_found = {row_id for row_id, (*_, row_found) in rows.items() if row_found is not None}
    assert found == with_found
    assert caught == rows.keys() - exact - with_found
