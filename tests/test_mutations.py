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
"""

from pathlib import Path

import pytest

from harnacklab import entropy, heatflow
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


def scale_laplacian(monkeypatch, k, everywhere):
    """The Laplacian times k: in the diagnostics only (the torus ``stencils``
    calls that ask for a gradient, which only the snapshot kernel and the
    evolution residual make, and the sphere's
    ``laplacian_and_grad_norm_sq``), or ``everywhere``, the flow's
    stiffness and solver included."""

    def torus(stencils):
        def scaled(m, rows, **kw):
            lap, grad, hess = stencils(m, rows, **kw)
            if lap is not None and (everywhere or grad is not None):
                lap = k * lap
            return lap, grad, hess

        return scaled

    def sphere(pair):
        def scaled(m, values):
            lap, grad_sq = pair(m, values)
            return k * lap, grad_sq

        return scaled

    _wrap(monkeypatch, FlatTorus, "stencils", torus)
    _wrap(monkeypatch, RoundSphere, "laplacian_and_grad_norm_sq", sphere)
    if everywhere:
        _wrap(monkeypatch, RoundSphere, "stiffness", lambda w: lambda m, values: k * w(m, values))
        _scale_solvers(monkeypatch, k)


def leak(monkeypatch, rate):
    """Each solve's result scaled by 1 + rate: mass leaks at every step."""

    def leaky(build):
        def cn_solver(m, a):
            solve = build(m, a)
            return lambda f: solve(f) * (1.0 + rate)

        return cn_solver

    for backend in BACKENDS:
        _wrap(monkeypatch, backend, "cn_solver", leaky)


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
    "leak_1e-13": lambda mp: leak(mp, 1e-13),
    "leak_1e-12": lambda mp: leak(mp, 1e-12),
    "clock_x2": lambda mp: scale_clock(mp, 2.0),
    "clock_x0.5": lambda mp: scale_clock(mp, 0.5),
    "diag_lap_x1.01": lambda mp: scale_laplacian(mp, 1.01, everywhere=False),
    "diag_lap_x0.99": lambda mp: scale_laplacian(mp, 0.99, everywhere=False),
    "lap_x1.01": lambda mp: scale_laplacian(mp, 1.01, everywhere=True),
    # torus_smoke's data times 1e200, where the Stokes gate's floor of 1 no
    # longer binds
    "data_x1e200": (("floor: 1.0", "floor: 1.0e200"), ("amplitude: 0.15", "amplitude: 0.15e200")),
}

CLOCK_FOUND = "ROADMAP items 1 and 14: no sphere gate sees a wrong clock"
DIAG_LAP_FOUND = "ROADMAP item 14; CHANGES.md FOUND: a ±1% error in the diagnostics' Laplacian"
LIYAU_FOUND = "ROADMAP item 3; CHANGES.md FOUND: a halved Li-Yau constant"


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
    row("sphere3", "liyau_halved", EXIT_PASS, found=LIYAU_FOUND),
    row("smoke", "liyau_halved", EXIT_PASS, found=LIYAU_FOUND),
    row("smoke", "data_x1e200", EXIT_GATE_FAILURE, {"stokes_worst_slack"},
        found="ROADMAP item 10; CHANGES.md FOUND: the Stokes gate passes on its floor of 1"),
]


# each row's values by its id, for the tests that keep an older name
ROW = {param.id: param.values for param in ROWS}


@pytest.mark.parametrize("cut, mutation, exit_code, failing, found", ROWS)
def test_mutation(tmp_path, monkeypatch, cut, mutation, exit_code, failing, found):
    check_row(tmp_path, monkeypatch, cut, mutation, exit_code, failing, found)


def check_row(tmp_path, monkeypatch, cut, mutation, exit_code, failing, found):
    """Run ``cut`` under ``mutation`` and assert the row's outcome."""
    name, edits = CUTS[cut]
    change = MUTATIONS[mutation]
    if callable(change):
        change(monkeypatch)
        change = ()
    text = (CONFIG_DIR / f"{name}.yaml").read_text()
    for old, new in edits + change + ((f"directory: out/{name}", f"directory: {tmp_path}"),):
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    outcome = run_config(parse_config_text(text))
    suites = outcome.summary.get("suites", {})
    failed = {gate for suite in suites.values() for gate, g in suite["gates"].items() if not g["pass"]}
    assert (outcome.exit_code, failed) == (exit_code, failing), found
    if exit_code == EXIT_SOLVER_FAILURE:
        assert "suites" not in outcome.summary
        assert "residual bound" in outcome.summary["solver_error"]
