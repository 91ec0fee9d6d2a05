"""Config parsing, the run/calibrate/scan drivers, and report files.

The parse table (``test_parse_errors_name_the_field``) gives each config
the parser rejects one row: a text edit of ``CONSTANT_CONFIG`` and a
fragment of the error it must raise.  How each command ends through
``main`` (exit code, message, files left) is ``tests/test_cli.py``'s exit
table; the tests here check what the drivers compute and write.  The
``test_main_*`` tests of a malformed value, an unusable output directory,
an unwritable report, a solver failure and ``calibrate`` each repeat an
exit-table row, and are kept under their names."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

import harnacklab as hl
from harnacklab import initialdata, runner, suites
from harnacklab.config import (
    ConfigError,
    Flow,
    Output,
    Tolerances,
    TorusSpec,
    parse_config,
    parse_config_text,
)
from harnacklab.entropy import SnapshotSeries
from harnacklab.pathwise import SpaceTimePair
from harnacklab.report import (
    _CSV_CHUNK_CELLS,
    _RUN_CSV_CHUNK_CELLS,
    DIAGNOSTIC_COLUMNS,
    _column_text,
    _write_columns,
    manifold_hash,
    write_diagnostics,
)
from harnacklab.runner import (
    EXIT_CONFIG_ERROR,
    EXIT_PASS,
    EXIT_SOLVER_FAILURE,
    calibrate_tolerance,
    main,
    run_config,
)
from harnacklab.suites import discretization_tolerance
from test_cli import no_step
from test_pathwise import check_pairs, pair_values

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

CONSTANT_CONFIG = """
manifold: {kind: torus, dimension: 2, side_lengths: [1.0, 1.0], resolution: [16, 16]}
initial_data: {kind: constant, value: 1.0}
flow: {t0: 1.0, t_end: 1.5, dt: 0.01, direction: forward}
suites: [harnack_signs, entropy, pathwise]
tolerances:
  tol_disc_constant: 10.0
  quadrature_tol: 1.0e-6
  pair_count: 20
  rng_seed: 7
output: {directory: PLACEHOLDER}
"""


def _fmt(x) -> str:
    """The CSV text of one value, the oracle of the byte tests below, kept
    apart from the writer's code: None is an empty cell, a boolean 1/0, an
    integer itself and any other number the repr of its float."""
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def random_smooth(old, new):
    """A text edit of ``CONSTANT_CONFIG``: random_smooth data, with ``old`` made ``new``."""
    data = "{kind: random_smooth, seed: 1, mode_cutoff: 2, amplitude: 0.6, floor: 1.0}"
    return lambda s: s.replace("{kind: constant, value: 1.0}", data.replace(old, new))


def constant_config(tmp_path, **kw):
    config = parse_config_text(CONSTANT_CONFIG.replace("PLACEHOLDER", str(tmp_path / "out")))
    if kw:
        from dataclasses import replace

        config = replace(config, **kw)
    return config


# ---------------------------------------------------------------------------
# parsing


def test_parse_round_trip(tmp_path):
    config = constant_config(tmp_path)
    assert config.manifold.kind == "torus"
    assert config.flow.dt == pytest.approx(0.01)
    assert config.suites == ("harnack_signs", "entropy", "pathwise")
    assert config.tolerances.pair_count == 20


@pytest.mark.parametrize(
    "mangle, fragment",
    [
        (lambda s: s.replace("t0: 1.0", "tz: 1.0"), "t0"),
        (lambda s: s.replace("kind: torus", "kind: cube"), "kind"),
        (lambda s: s.replace("dt: 0.01", "dt: 0.013"), "divide"),
        (lambda s: s.replace("direction: forward", "direction: sideways"), "direction"),
        (lambda s: s.replace("harnack_signs", "mystery_suite"), "suite"),
        (lambda s: s.replace("tol_disc_constant: 10.0", "tol_disc_constant: -1.0"), "positive"),
        # misspelled or foreign keys are rejected by name in every section
        (lambda s: s.replace("pair_count: 20", "pair_cont: 20"), "'pair_cont'"),
        (lambda s: s.replace("dimension: 2", "dimension: 2, subdivision: 3"), "'subdivision'"),
        (lambda s: s.replace("value: 1.0}", "value: 1.0, seed: 3}"), "'seed'"),
        (lambda s: s.replace("direction: forward}", "direction: forward, dtau: 1}"), "'dtau'"),
        (lambda s: s.replace("output: {", "output: {export: true, "), "'export'"),
        (lambda s: s + "paramscan: {stepsize: 0.1}\n", "'stepsize'"),
        (lambda s: s + "tolerance: {}\n", "'tolerance'"),
        (lambda s: s.replace("flow: {t0: 1.0, t_end: 1.5, dt: 0.01, direction: forward}",
                             "flow: 3"), "mapping"),
        # the residual window is two numbers with lo < hi
        (lambda s: s.replace("rng_seed: 7", "rng_seed: 7\n  residual_ratio_window: [5, 3]"),
         "lo < hi"),
        (lambda s: s.replace("rng_seed: 7", "rng_seed: 7\n  residual_ratio_window: [3]"),
         "residual_ratio_window"),
        (lambda s: s.replace("rng_seed: 7", "rng_seed: 7\n  residual_ratio_window: [a, 5]"),
         "residual_ratio_window"),
        # every value is converted by its field's type and checked by its
        # dataclass, so a malformed one is a config error, never a traceback
        (lambda s: s.replace("dt: 0.01", "dt: fast"), "flow.dt"),
        (lambda s: s.replace("resolution: [16, 16]", "resolution: 16"), "resolution"),
        (lambda s: s.replace("suites: [harnack_signs, entropy, pathwise]",
                             "suites: harnack_signs"), "suites must be a list"),
        (lambda s: s.replace("value: 1.0}", "value: -1.0}"), "initial_data"),
        (lambda s: s.replace("resolution: [16, 16]", "resolution: [6, 6]"), "resolution"),
        (lambda s: s.replace("pair_count: 20", "pair_count: 2.5"), "pair_count"),
        (lambda s: s.replace("dt: 0.01", "dt: .nan"), "finite"),
        (lambda s: s.replace("dimension: 2", "dimension: 4"), "dimension"),
        (lambda s: s.replace("rng_seed: 7", "rng_seed: -7"), "rng_seed"),
        # a dt too small to count the steps or to advance the clock
        (lambda s: s.replace("dt: 0.01", "dt: 5.0e-324"), "flow: dt = 5e-324"),
        (lambda s: s.replace("dt: 0.01", "dt: 1.0e-300"), "flow: dt = 1e-300"),
        # a dt 4% of a 1e-8 span short of dividing it, and one so small that
        # rounding repeats the snapshot times near t_end
        (lambda s: s.replace("t_end: 1.5, dt: 0.01", "t_end: 1.00000001, dt: 3.2e-9"),
         "dt = 3.2e-09 does not divide"),
        (lambda s: s.replace("t_end: 1.5, dt: 0.01", "t_end: 1.0000000000000004, dt: 1.2e-16"),
         "too small"),
        (lambda s: s.replace("quadrature_tol: 1.0e-6", "quadrature_tol: -1.0"), "quadrature_tol"),
        # run size is bounded: the step count and the random datum's mode count
        (lambda s: s.replace("dt: 0.01", "dt: 1.0e-5"), "makes 50000 steps"),
        (lambda s: s.replace("{kind: constant, value: 1.0}",
                             "{kind: random_smooth, seed: 1, mode_cutoff: 100000, "
                             "amplitude: 0.5, floor: 1.0}"), "initial_data.mode_cutoff"),
        # ... and so are the manifold's node count, the pathwise pair count and
        # the scan's grid point count, each checked without building anything
        (lambda s: s.replace("dimension: 2, side_lengths: [1.0, 1.0], resolution: [16, 16]",
                             "dimension: 1, side_lengths: [1.0], resolution: [100000000]"),
         "manifold: resolution (100000000,) makes 100000000 nodes"),
        (lambda s: s.replace("{kind: torus, dimension: 2, side_lengths: [1.0, 1.0], "
                             "resolution: [16, 16]}", "{kind: sphere, subdivision: 14}"),
         "manifold: sphere subdivision 14"),
        (lambda s: s.replace("pair_count: 20", "pair_count: 1000000000"), "tolerances: pair_count"),
        (lambda s: s + "paramscan: {step: 1.0e-4}\n", "paramscan: step = 0.0001"),
        (lambda s: s + "paramscan: {step: 5.0e-324}\n", "paramscan: step = 5e-324"),
        (lambda s: s + "paramscan: {step: 1.0e-300}\n", "paramscan: step = 1e-300"),
        # one step is below the run's two-step minimum, not a dt that fails to divide
        (lambda s: s.replace("dt: 0.01", "dt: 0.5"), "flow: dt = 0.5 makes 1 step"),
        # a key given twice in one mapping, or a suite listed twice, is
        # rejected, never resolved to one of the copies
        (lambda s: s.replace("dt: 0.01", "dt: 0.01, dt: 0.02"), "duplicate key 'dt'"),
        (lambda s: s.replace("suites: [harnack_signs, entropy, pathwise]",
                             "suites: [harnack_signs, entropy, harnack_signs]"),
         "suite 'harnack_signs' is listed twice"),
        # a missing required field is named with its section, in every section
        (lambda s: s.replace("  rng_seed: 7\n", ""), "missing field 'rng_seed' in tolerances"),
        (lambda s: s.replace("dt: 0.01, ", ""), "missing field 'dt' in flow"),
        (lambda s: s.replace(", resolution: [16, 16]", ""), "missing field 'resolution' in manifold"),
        (lambda s: s.replace("{kind: torus, dimension: 2, side_lengths: [1.0, 1.0], "
                             "resolution: [16, 16]}", "{kind: sphere}"),
         "missing field 'subdivision' in manifold"),
        (lambda s: s.replace("{kind: constant, value: 1.0}",
                             "{kind: trig_polynomial, floor: 1.0, modes: [{index: [1, 0]}]}"),
         "missing field 'amplitude' in initial_data.modes"),
        # a datum whose closed-form bound, floor + 2 * amplitudes, overflows
        (lambda s: s.replace("{kind: constant, value: 1.0}",
                             "{kind: random_smooth, seed: 1, mode_cutoff: 2, "
                             "amplitude: 1.7e308, floor: 1.0e308}"),
         "initial_data: floor + 2 * amplitudes is inf"),
        (lambda s: s.replace("{kind: constant, value: 1.0}",
                             "{kind: trig_polynomial, floor: 1.0, modes: "
                             "[{index: [1, 0], amplitude: 1e308}, {index: [0, 1], amplitude: 1e308}]}"),
         "initial_data: floor + 2 * amplitudes is inf"),
        # strict is a command-line flag, not a config key
        (lambda s: s + "strict: true\n", "unknown key 'strict' in config"),
        # a side so small that the stencil weight 1/h^2 overflows
        (lambda s: s.replace("side_lengths: [1.0, 1.0]", "side_lengths: [1.0e-200, 1.0]"),
         "side_lengths (1e-200, 1.0)"),
        (lambda s: s.replace("side_lengths: [1.0, 1.0]", "side_lengths: [1.0e-160, 1.0]"),
         "side_lengths (1e-160, 1.0)"),
        # a run with no suite would pass without checking anything
        (lambda s: s.replace("suites: [harnack_signs, entropy, pathwise]", "suites: []"),
         "suites is empty"),
        # trig_polynomial modes: known keys only, one index entry per axis,
        # and on a torus only
        (lambda s: s.replace("{kind: constant, value: 1.0}",
                             "{kind: trig_polynomial, floor: 0.8, "
                             "modes: [{index: [1, 0], amplitude: 0.4, phaze: 1}]}"),
         "unknown key 'phaze' in initial_data.modes"),
        (lambda s: s.replace("{kind: constant, value: 1.0}",
                             "{kind: trig_polynomial, floor: 0.8, modes: [{index: [1], amplitude: 0.4}]}"),
         "initial_data.modes: each index needs one entry per torus axis"),
        (lambda s: s.replace("manifold: {kind: torus, dimension: 2, side_lengths: [1.0, 1.0], "
                             "resolution: [16, 16]}", "manifold: {kind: sphere, subdivision: 2}")
         .replace("{kind: constant, value: 1.0}",
                  "{kind: trig_polynomial, floor: 1.0, modes: [{index: [1], amplitude: 0.1}]}"),
         "trig_polynomial initial data is only defined on tori"),
        (lambda s: s.replace("suites: [harnack_signs, entropy, pathwise]",
                             "suites: [harnack_signs, entropy, pathwise"),
         "config is not valid YAML"),
        # a suite the manifold, the direction or the grid cannot serve
        (lambda s: s.replace("manifold: {kind: torus, dimension: 2, side_lengths: [1.0, 1.0], "
                             "resolution: [16, 16]}", "manifold: {kind: sphere, subdivision: 2}")
         .replace("suites: [harnack_signs, entropy, pathwise]", "suites: [evolution_residual]"),
         "suite 'evolution_residual' needs the torus backend"),
        (lambda s: s.replace("direction: forward", "direction: backward"),
         "suite 'pathwise' applies to forward flows only"),
        (lambda s: s.replace("resolution: [16, 16]", "resolution: [18, 18]")
         .replace("suites: [harnack_signs, entropy, pathwise]", "suites: [evolution_residual]"),
         "suite 'evolution_residual' halves the grid"),
        (lambda s: s.replace("t_end: 1.5", "t_end: 1.49")
         .replace("suites: [harnack_signs, entropy, pathwise]", "suites: [evolution_residual]"),
         "needs an even step count of at least 4"),
        # a kind is required wherever a section is a union
        (lambda s: s.replace("{kind: torus, ", "{"), "missing field 'kind' in manifold"),
        (lambda s: s.replace("{kind: constant, ", "{"), "missing field 'kind' in initial_data"),
        # a str or a bool field takes no other type
        (lambda s: s.replace("direction: forward", "direction: 5"), "flow.direction must be a str"),
        (lambda s: s.replace("output: {", "output: {export_trajectory: 'yes', "),
         "output.export_trajectory must be a bool"),
        # an empty path would write the reports into the current directory
        (lambda s: s.replace("directory: PLACEHOLDER", "directory: ''"),
         "output: output.directory must be non-empty"),
        # each initial-data class's own range checks
        (lambda s: s.replace("{kind: constant, value: 1.0}",
                             "{kind: trig_polynomial, floor: 0.0, "
                             "modes: [{index: [1, 0], amplitude: 0.4}]}"),
         "initial_data: floor must be positive"),
        (lambda s: s.replace("{kind: constant, value: 1.0}",
                             "{kind: trig_polynomial, floor: 0.8, "
                             "modes: [{index: [1, 0], amplitude: -0.15}]}"),
         "mode amplitudes must be nonnegative"),
        (random_smooth("floor: 1.0", "floor: 0.0"), "initial_data: floor must be positive"),
        (random_smooth("amplitude: 0.6", "amplitude: -0.6"),
         "initial_data: amplitude must be nonnegative"),
        (random_smooth("mode_cutoff: 2", "mode_cutoff: 0"),
         "initial_data: mode cutoff must be >= 1"),
        (random_smooth("seed: 1", "seed: -1"), "initial_data: seed must be nonnegative"),
    ],
)
def test_parse_errors_name_the_field(mangle, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config_text(mangle(CONSTANT_CONFIG))
    assert fragment in str(err.value)


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda p: p.name)
def test_shipped_configs_parse(path):
    parse_config(path)


# the manifold hash of each shipped config: a report key, so reading the
# manifold section differently must not move it
SHIPPED_MANIFOLD_HASHES = {
    "paramscan.yaml": "69f0b4381770b3ec",
    "sphere_backward.yaml": "dc17d0fa76a34aa8",
    "sphere_signs.yaml": "dc17d0fa76a34aa8",
    "torus_backward.yaml": "64bb749b66da347d",
    "torus_full.yaml": "64bb749b66da347d",
    "torus_smoke.yaml": "69f0b4381770b3ec",
}


def test_shipped_manifold_hashes_are_pinned():
    assert sorted(p.name for p in CONFIG_DIR.glob("*.yaml")) == sorted(SHIPPED_MANIFOLD_HASHES)
    for name, expected in SHIPPED_MANIFOLD_HASHES.items():
        config = parse_config(CONFIG_DIR / name)
        assert manifold_hash(config.manifold) == expected, name


def test_parse_fills_defaults_from_the_dataclasses():
    text = CONSTANT_CONFIG.replace("  pair_count: 20\n", "").replace(
        "suites: [harnack_signs, entropy, pathwise]", "suites: [paramscan]"
    )
    config = parse_config_text(text)
    assert config.tolerances == Tolerances(
        tol_disc_constant=10.0, quadrature_tol=1.0e-6, rng_seed=7
    )
    assert config.tolerances.pair_count == 100
    assert config.tolerances.residual_ratio_window == (3.0, 5.0)
    assert config.paramscan == hl.ScanSpec()


def test_parse_accepts_residual_window(tmp_path):
    text = CONSTANT_CONFIG.replace("rng_seed: 7", "rng_seed: 7\n  residual_ratio_window: [2, 6]")
    assert parse_config_text(text).tolerances.residual_ratio_window == (2.0, 6.0)


def test_parse_flattens_a_merge_key_and_the_explicit_key_wins():
    text = CONSTANT_CONFIG.replace(
        "flow: {t0: 1.0, t_end: 1.5, dt: 0.01,",
        "flow: {<<: {t0: 2.0, dt: 0.01}, t0: 1.0, t_end: 1.5,",
    )
    assert parse_config_text(text).flow == Flow(t0=1.0, t_end=1.5, dt=0.01)


TORUS16 = "{kind: torus, dimension: 2, side_lengths: [1.0, 1.0], resolution: [16, 16]}"


# initial data that does not fit its manifold: the config's text for both,
# and the same datum and manifold as a library caller gives them
@pytest.mark.parametrize(
    "manifold_text, data_text, data, build",
    [
        ("{kind: sphere, subdivision: 2}",
         "{kind: trig_polynomial, floor: 1.0, modes: [{index: [1], amplitude: 0.1}]}",
         hl.TrigPolynomialData(1.0, (hl.TrigMode((1,), 0.1),)), lambda: hl.build_sphere(2)),
        (TORUS16, "{kind: trig_polynomial, floor: 0.8, modes: [{index: [1], amplitude: 0.4}]}",
         hl.TrigPolynomialData(0.8, (hl.TrigMode((1,), 0.4),)),
         lambda: hl.build_torus(2, [1.0, 1.0], [16, 16])),
        # 400,040,001 modes on T^2, 16,000 plane waves on the sphere
        (TORUS16, "{kind: random_smooth, seed: 1, mode_cutoff: 10000, amplitude: 0.5, floor: 1.0}",
         hl.RandomSmoothData(seed=1, mode_cutoff=10000, amplitude=0.5, floor=1.0),
         lambda: hl.build_torus(2, [1.0, 1.0], [16, 16])),
        ("{kind: sphere, subdivision: 2}",
         "{kind: random_smooth, seed: 1, mode_cutoff: 2000, amplitude: 0.5, floor: 1.0}",
         hl.RandomSmoothData(seed=1, mode_cutoff=2000, amplitude=0.5, floor=1.0),
         lambda: hl.build_sphere(2)),
    ],
    ids=["trig_on_sphere", "short_mode_index", "torus_modes_over_ceiling",
         "sphere_modes_over_ceiling"],
)
def test_builder_rejects_initial_data_in_the_configs_words(
    monkeypatch, manifold_text, data_text, data, build
):
    text = CONSTANT_CONFIG.replace(TORUS16, manifold_text)
    with pytest.raises(ConfigError) as parsed:
        parse_config_text(text.replace("{kind: constant, value: 1.0}", data_text))
    m = build()

    def refuse(*args):
        raise AssertionError("a mode was built")

    for name in ("_build_trig", "_random_smooth_torus", "_random_smooth_sphere"):
        monkeypatch.setattr(initialdata, name, refuse)
    with pytest.raises(ValueError) as built:
        hl.build_initial_field(data, m)
    assert str(parsed.value) == f"config: {built.value}"


def test_tolerance_model():
    m = hl.build_torus(1, [1.0], [64])
    assert discretization_tolerance(m, 2.0, 1e-3) == pytest.approx(
        2.0 * ((1 / 64) ** 2 + 1e-3)
    )


# ---------------------------------------------------------------------------
# run


def test_constant_run_passes_and_reports(tmp_path):
    config = constant_config(tmp_path)
    outcome = run_config(config)
    assert outcome.exit_code == EXIT_PASS
    assert outcome.summary["overall_pass"]

    diag = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    assert diag[0] == ",".join(DIAGNOSTIC_COLUMNS)
    assert len(diag) == 1 + 51
    # F column is exactly linear: -2 n t c Vol = -4t
    first = diag[1].split(",")
    t0, f_direct = float(first[0]), float(first[4])
    assert f_direct == pytest.approx(-4.0 * t0, rel=1e-12)
    assert float(first[1]) == pytest.approx(-4.0, abs=1e-12)   # max_H at t=1

    meta = json.loads((tmp_path / "out" / "trajectory_meta.json").read_text())
    assert meta["mass_drift_rel"] < 1e-12
    assert meta["n_states"] == 51
    assert "manifold_hash" in meta

    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert set(summary["suites"]) == {"harnack_signs", "entropy", "pathwise"}
    assert all(s["pass"] for s in summary["suites"].values())

    pw = (tmp_path / "out" / "pathwise.csv").read_text().splitlines()
    assert pw[0] == "x1,x2,t1,t2,gamma,lhs,rhs,slack,pass"
    assert len(pw) == 1 + 20


def test_runs_are_byte_deterministic(tmp_path):
    out_a = run_config(constant_config(tmp_path, output=Output(str(tmp_path / "a"))))
    out_b = run_config(constant_config(tmp_path, output=Output(str(tmp_path / "b"))))
    assert out_a.exit_code == out_b.exit_code == EXIT_PASS
    for name in ("summary.json", "diagnostics.csv", "trajectory_meta.json", "pathwise.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_strict_halves_tolerance(tmp_path):
    base = run_config(constant_config(tmp_path, output=Output(str(tmp_path / "n"))))
    strict = run_config(
        constant_config(tmp_path, output=Output(str(tmp_path / "s"))), strict=True
    )
    assert strict.summary["tol_disc"] == pytest.approx(base.summary["tol_disc"] / 2.0)
    # the shipped smoke run passes under --strict, and both reports record it
    out = tmp_path / "smoke"
    args = ["run", str(CONFIG_DIR / "torus_smoke.yaml"), "--strict", "--output-dir", str(out)]
    assert main(args) == EXIT_PASS
    for name in ("summary.json", "trajectory_meta.json"):
        assert '"strict": true' in (out / name).read_text()


def test_huge_constant_datum_stays_stationary(tmp_path):
    # the torus_smoke shape at 1.0e200: the solver's residual norms are taken
    # on scaled vectors, so their sums of squares do not overflow
    text = """
manifold: {kind: torus, dimension: 1, side_lengths: [1.0], resolution: [64]}
initial_data: {kind: constant, value: 1.0e200}
flow: {t0: 0.05, t_end: 0.25, dt: 2.0e-3, direction: forward}
suites: [harnack_signs, evolution_residual, entropy, pathwise]
tolerances: {tol_disc_constant: 250.0, quadrature_tol: 1.0e-4, pair_count: 50, rng_seed: 20240601}
output: {directory: PLACEHOLDER}
""".replace("PLACEHOLDER", str(tmp_path / "huge"))
    assert run_config(parse_config_text(text)).exit_code == EXIT_PASS
    assert '"mass_drift_rel": 0.0' in (tmp_path / "huge" / "summary.json").read_text()


@pytest.fixture(scope="module")
def smoke_snapshots():
    config = parse_config(CONFIG_DIR / "torus_smoke.yaml")
    m = runner.build_manifold(config.manifold)
    f0 = hl.build_initial_field(config.initial_data, m)
    traj = hl.solve(m, f0, config.flow.t0, config.flow.t_end, config.flow.dt)
    tol_disc = discretization_tolerance(m, config.tolerances.tol_disc_constant, config.flow.dt)
    masses = []
    series = hl.entropy_series(
        traj, with_residual=True, on_state=lambda k, state: masses.append(hl.integrate(state.f))
    )
    drift = np.max(np.abs(np.array(masses) - masses[0])) / abs(masses[0])
    return config, traj, series, tol_disc, masses[0], drift


SIGN_FIELDS = ("max_H", "max_liyau", "P_vs_H_gap")

# each input a NaN or an inf is put in, and the gate that must then fail by
# name: a series field, the random tuples' evolution residual ("tuples"),
# one pathwise pair's f-value ("pairs") or the run's mass drift ("mass_drift")
NAN_GATES = {
    "max_H": "worst_max_H",
    "max_liyau": "worst_max_liyau",
    "P_vs_H_gap": "p_vs_h_max_abs_diff",
    "F_direct": "worst_F_direct",
    "F_via_H": "stokes_worst_slack",
    "W_direct": "worst_W_direct",
    "W_via_P": "stokes_worst_slack",
    "time": "stokes_worst_slack",
    "dF_fd": "worst_dF_fd_centered",
    "dW_fd": "worst_dW_fd_centered",
    "dF_formula": "dissipation_max",
    "dW_formula": "dissipation_max",
    "residual": "canonical_max_residual",
    "tuples": "worst_ratio_slack",
    "pairs": "worst_raw_slack",
    "mass_drift": "mass_drift_rel",
}


def suite_with(smoke_snapshots, case, bad=None):
    """The report of the suite that reads ``case``, with ``bad`` (if given)
    at one later entry of it."""
    from dataclasses import replace

    config, traj, series, tol_disc, mass, drift = smoke_snapshots
    if case == "pairs":
        pairs = hl.sample_pairs(traj, config.tolerances.pair_count, config.tolerances.rng_seed)
        values = pair_values(traj, pairs)
        if bad is not None:
            values.f[5, 0] = bad
        reports = hl.check_integrated_harnack(traj, pairs, tol=tol_disc, values=values)
        return suites.pathwise(config, reports, tol_disc)
    if case == "mass_drift":
        drift = drift if bad is None else bad
    elif bad is not None and case != "tuples":
        values = getattr(series, case).copy()
        values[5] = bad
        series = replace(series, **{case: values})
    if case in SIGN_FIELDS:
        return suites.harnack_signs(series, tol_disc)
    if case not in ("residual", "tuples"):
        return suites.entropy(config, traj.manifold, tol_disc, mass, drift, series)
    fine_idx = runner._residual_index(len(traj))
    window = list(traj)[fine_idx - 1 : fine_idx + 2]
    residuals = runner.residual_tuples(config, window, fine_idx)
    if case == "tuples" and bad is not None:
        # every evolution residual of the tuples, fine and coarse, is ``bad``
        residuals = [(p, bad, bad) for p, _, _ in residuals]
    return suites.evolution_residual(config, residuals, window[1].time, series)


@pytest.mark.parametrize("case", list(NAN_GATES))
def test_nan_at_a_later_snapshot_fails_its_suite(smoke_snapshots, case):
    # builtin max skips a NaN that is not first; the gates must not, and an
    # inf must fail them too, with worst_slack +inf
    assert suite_with(smoke_snapshots, case)["pass"] is True
    for bad in (float("nan"), float("inf")):
        report = suite_with(smoke_snapshots, case, bad)
        assert report["pass"] is False
        assert report["worst_slack"] == np.inf
        assert report["gates"][NAN_GATES[case]]["pass"] is False


def test_every_gate_fails_on_a_nan_in_its_input(smoke_snapshots):
    # a gate that no NaN case above fails has no NaN coverage
    names, failed = set(), set()
    for case in NAN_GATES:
        names |= set(suite_with(smoke_snapshots, case)["gates"])
        gates = suite_with(smoke_snapshots, case, float("nan"))["gates"]
        failed |= {name for name, gate in gates.items() if not gate["pass"]}
    assert failed == names


def test_entropy_suite_fails_an_overflowing_bound(smoke_snapshots):
    # the entropy bounds scale tol_disc by the mass, so a finite tol_disc
    # can still give tol_value = inf, under which every value passes
    config, traj, series, _, _, drift = smoke_snapshots
    report = suites.entropy(config, traj.manifold, 1e10, 1e300, drift, series)
    assert report["pass"] is False
    assert report["worst_slack"] == np.inf


def test_pathwise_suite_fails_an_overflowing_gamma(tmp_path):
    # on a side of 1e154, d^2 / (t2 - t1) overflows: the pair's slack is -inf,
    # which proves nothing, so the suite fails with worst_slack +inf
    m = hl.build_torus(1, [1.0e154], [64])
    traj = hl.solve(m, hl.constant_field(m, 1.0), 0.1, 0.2, 0.01)
    reports = check_pairs(traj, [SpaceTimePair(0, 32, 0.1, 0.2)], tol=1.0)
    report = suites.pathwise(constant_config(tmp_path), reports, 1.0)
    assert report["pass"] is False
    assert report["worst_slack"] == np.inf


def test_solver_failure_exit_code(tmp_path, monkeypatch):
    # the config grammar cannot express positivity-losing data (raised
    # cosines keep their coefficient sum inside the floor), so inject a
    # spiky admissible field to exercise the failure path
    config = constant_config(
        tmp_path,
        flow=Flow(t0=1.0, t_end=21.0, dt=5.0),
        output=Output(str(tmp_path / "out"), export_trajectory=True),
    )

    def spiky(data, m):
        x = m.positions[:, 0]
        return hl.ScalarField(1e-3 + 0.5 * (1 + np.cos(2 * np.pi * x)) ** 2, m)

    monkeypatch.setattr(runner, "build_initial_field", spiky)
    outcome = run_config(config)
    assert outcome.exit_code == EXIT_SOLVER_FAILURE
    assert "positivity" in outcome.summary["solver_error"]
    assert "6" in outcome.summary["solver_error"]  # names the failing time
    # the export is written during the pass, which failed after its first
    # state: no partial trajectory.csv is left beside the summary
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["summary.json"]


def test_main_solver_failure_prints_no_verdicts(tmp_path, monkeypatch, capsys):
    # no suite ran, so the CLI names the failure and prints no verdict
    text = CONSTANT_CONFIG.replace("PLACEHOLDER", str(tmp_path / "out")).replace(
        "t_end: 1.5, dt: 0.01", "t_end: 21.0, dt: 5.0"
    )

    def spiky(data, m):
        x = m.positions[:, 0]
        return hl.ScalarField(1e-3 + 0.5 * (1 + np.cos(2 * np.pi * x)) ** 2, m)

    monkeypatch.setattr(runner, "build_initial_field", spiky)
    code = main(["run", write_config(tmp_path, text)])
    captured = capsys.readouterr()
    assert code == EXIT_SOLVER_FAILURE
    assert captured.out == ""
    assert captured.err.startswith("solver failure:")
    assert "positivity" in captured.err


def test_backward_run_reports_implied_derivatives(tmp_path):
    out = tmp_path / "bwd"
    text = CONSTANT_CONFIG.replace("direction: forward", "direction: backward").replace(
        "suites: [harnack_signs, entropy, pathwise]", "suites: [harnack_signs, entropy]"
    ).replace("directory: PLACEHOLDER", f"directory: {out}, export_trajectory: true")
    outcome = run_config(parse_config_text(text))
    assert outcome.exit_code == EXIT_PASS
    ent = outcome.summary["suites"]["entropy"]
    assert "implied_dF_dt_min" in ent
    assert ent["implied_dF_dt_min"] >= ent["implied_dF_dt_gate"]
    # the runner is the one place that knows the direction: every report carries it
    assert json.loads((out / "trajectory_meta.json").read_text())["direction"] == "backward"
    assert json.loads((out / "summary.json").read_text())["config"]["flow"]["direction"] == "backward"
    assert (out / "trajectory.csv").read_text().splitlines()[2] == "# direction=backward"


def test_trajectory_export(tmp_path):
    data = hl.RandomSmoothData(seed=3, mode_cutoff=2, amplitude=0.4, floor=1.0)
    config = constant_config(
        tmp_path, output=Output(str(tmp_path / "out"), export_trajectory=True),
        initial_data=data,
    )
    run_config(config)
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("# manifold_hash=")
    assert lines[1].startswith("# dt=")
    assert lines[2] == "# direction=forward"
    assert len(lines) == 3 + 51
    row = lines[3].split(",")
    assert len(row) == 1 + 16 * 16
    assert float(row[0]) == pytest.approx(1.0)
    # every row is exactly the _fmt text of time and node values
    m = runner.build_manifold(config.manifold)
    flow = config.flow
    traj = hl.solve(m, hl.build_initial_field(data, m), flow.t0, flow.t_end, flow.dt)
    for line, state in zip(lines[3:], traj):
        assert line == ",".join(_fmt(x) for x in [state.time, *state.f.values])


# ---------------------------------------------------------------------------
# calibrate


def test_calibrate_fits_stable_constant(tmp_path):
    text = """
manifold: {kind: torus, dimension: 1, side_lengths: [1.0], resolution: [128]}
initial_data: {kind: trig_polynomial, floor: 0.8, modes: [{index: [1], amplitude: 0.4}]}
flow: {t0: 0.1, t_end: 0.3, dt: 2.0e-3}
suites: [harnack_signs]
tolerances: {tol_disc_constant: 1.0, quadrature_tol: 1.0e-4, rng_seed: 1}
"""
    cal = calibrate_tolerance(parse_config_text(text))
    assert cal["calibrated_C"] > runner.C_FLOOR
    assert abs(cal["fits"][0] - cal["fits"][1]) / cal["fits"][0] < 0.2
    assert 3.5 < cal["error_ratio"] < 4.5


def test_calibrate_constant_data_floors(tmp_path):
    outcome = runner.run_calibrate(constant_config(tmp_path))

    def not_json(name):
        raise ValueError(f"{name} is not JSON")

    text = (outcome.output_dir / "trajectory_meta.json").read_text()
    cal = json.loads(text, parse_constant=not_json)
    assert cal["calibrated_C"] == runner.C_FLOOR
    assert cal["max_errors"][0] < 1e-10
    assert cal["max_errors"][1] == 0.0 and cal["error_ratio"] is None


@pytest.mark.parametrize("side, resolution", [(1.0e-3, "[32]"), (0.2, "[64]")])
def test_calibrate_clock_has_the_step_ceiling(monkeypatch, side, resolution):
    # both levels' clocks are checked before either flow is stepped: at side
    # 0.2 the coarse level takes 10,240 steps and the fine one 40,960
    from dataclasses import replace

    no_step(monkeypatch)
    config = parse_config(CONFIG_DIR / "torus_smoke.yaml")
    config = replace(config, manifold=TorusSpec(1, (side,), (64,)))
    with pytest.raises(ConfigError) as err:
        calibrate_tolerance(config)
    assert f"resolution {resolution}" in str(err.value) and "steps" in str(err.value)


# ---------------------------------------------------------------------------
# CLI


def write_config(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return str(path)


def test_main_run_and_seed_override(tmp_path, capsys):
    path = write_config(tmp_path, CONSTANT_CONFIG.replace("PLACEHOLDER", str(tmp_path / "cli")))
    code = main(["run", path, "--seed", "99"])
    assert code == EXIT_PASS
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    summary = json.loads((tmp_path / "cli" / "summary.json").read_text())
    assert summary["config"]["tolerances"]["rng_seed"] == 99


@pytest.mark.parametrize(
    "command, name, old, new, fragment",
    [
        # h^2 overflows, and every gate would pass under tol_disc = inf
        ("run", "torus_smoke", "side_lengths: [1.0]", "side_lengths: [1.0e200]",
         "tol_disc_constant"),
        # calibrating would take 409,600,001 steps on the coarse grid
        ("calibrate", "torus_smoke", "side_lengths: [1.0]", "side_lengths: [1.0e-3]",
         "resolution [32]"),
    ],
    ids=["overflowing_tol_disc", "calibration_step_ceiling"],
)
def test_main_malformed_value_is_a_config_error(
    tmp_path, capsys, monkeypatch, command, name, old, new, fragment
):
    # each input is rejected before a flow is stepped
    no_step(monkeypatch)
    text = (CONFIG_DIR / f"{name}.yaml").read_text()
    assert text.count(old) == 1
    path = write_config(tmp_path, text.replace(old, new))
    code = main([command, path, "--output-dir", str(tmp_path / "out")])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "config error:" in err and fragment in err


@pytest.mark.parametrize(
    "command, name", [("run", "torus_smoke"), ("calibrate", "torus_smoke"), ("scan", "paramscan")],
    ids=["run", "calibrate", "scan"],
)
def test_main_unusable_output_directory_is_a_config_error(
    tmp_path, capsys, monkeypatch, command, name
):
    # an --output-dir that is an existing file is refused before a flow is
    # stepped or a scan is made
    no_step(monkeypatch)
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main([command, str(CONFIG_DIR / f"{name}.yaml"), "--output-dir", str(taken)])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "config error:" in err and "output.directory" in err


@pytest.mark.parametrize(
    "command, name, report",
    [
        ("run", "torus_smoke", "diagnostics.csv"),
        ("calibrate", "torus_smoke", "trajectory_meta.json"),
        ("scan", "paramscan", "paramscan.csv"),
    ],
    ids=["run", "calibrate", "scan"],
)
def test_main_unwritable_report_file_is_a_config_error(tmp_path, capsys, command, name, report):
    # the output directory exists, but a report file's path is a directory:
    # the command ends as a config error naming output.directory, not as a
    # traceback with the gate-failure code
    (tmp_path / report).mkdir()
    code = main([command, str(CONFIG_DIR / f"{name}.yaml"), "--output-dir", str(tmp_path)])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "config error:" in err and "output.directory" in err


def test_main_scan(tmp_path, capsys):
    text = """
manifold: {kind: torus, dimension: 1, side_lengths: [1.0], resolution: [64]}
initial_data: {kind: constant, value: 1.0}
flow: {t0: 0.1, t_end: 0.3, dt: 2.0e-3}
suites: [paramscan]
tolerances: {tol_disc_constant: 1.0, quadrature_tol: 1.0e-4, rng_seed: 1}
output: {directory: PLACEHOLDER}
paramscan: {alpha_range: [1.5, 2.5], beta_range: [0.5, 1.5], b_range: [-1.5, -0.5], step: 0.05}
""".replace("PLACEHOLDER", str(tmp_path / "scan"))
    code = main(["scan", write_config(tmp_path, text)])
    assert code == EXIT_PASS
    assert "paramscan: PASS" in capsys.readouterr().out
    # the slack is taken against the bound that is gated, so a pass is <= 0
    scan = json.loads((tmp_path / "scan" / "summary.json").read_text())["suites"]["paramscan"]
    assert scan["pass"] is True and scan["worst_slack"] <= 0
    lines = (tmp_path / "scan" / "paramscan.csv").read_text().splitlines()
    assert lines[0] == "alpha,beta,b,lam,alpha_minus_beta,b_plus_beta,quarter_square_plus_b,survivor"
    assert len(lines) == 1 + 21 * 21 * 21


def test_paramscan_csv_matches_rowwise_reference(tmp_path):
    # the column-wise writer must give exactly the bytes of csv.writer with
    # _fmt per value; 2091-row blocks cross the chunk boundary, and alpha = beta
    # points carry an empty (NaN) lam
    spec = hl.ScanSpec(
        alpha_range=(1.5, 2.5), beta_range=(-2.0, 3.0), b_range=(-3.0, 1.0), step=0.1
    )
    config = constant_config(tmp_path, suites=("paramscan",), paramscan=spec)
    runner.run_scan(config)
    header = (
        "alpha", "beta", "b", "lam",
        "alpha_minus_beta", "b_plus_beta", "quarter_square_plus_b", "survivor",
    )
    ref = tmp_path / "reference.csv"
    with open(ref, "w", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(header)

        def sink(block):
            for i in range(block["alpha"].size):
                lam = block["lam"][i]
                row = [_fmt(block[name][i]) for name in header[:7]]
                row[3] = "" if np.isnan(lam) else _fmt(lam)
                writer.writerow(row + [_fmt(bool(block["survivor"][i]))])

        hl.case_one_uniqueness_scan(spec, on_block=sink)
    written = (tmp_path / "out" / "paramscan.csv").read_bytes()
    assert written == ref.read_bytes()
    assert b",," in written


def test_write_columns_matches_csv_writer_on_edge_values(tmp_path):
    # the writer formats each distinct bit pattern of a chunk once, so -0.0
    # and 0.0 (equal as floats, different text) must keep their own text;
    # at each budget the table spans three chunks and a part of a fourth, so
    # rows repeat the values across the chunk boundaries
    for cells in (_CSV_CHUNK_CELLS, _RUN_CSV_CHUNK_CELLS):
        n = 3 * (cells // 3) + 100  # a chunk holds cells // 3 rows of 3 columns
        edge = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, np.nan, 1.0, 0.1])
        flat = np.resize(edge, n)
        nan_or_one = np.resize([np.nan, np.nan, 1.0, -0.0], n)
        blank = np.resize([True, False, False, True], n)
        flags = np.resize([True, False, False], n)
        written = tmp_path / f"written{cells}.csv"
        with open(written, "w", newline="") as fp:
            _write_columns(fp, [flat, nan_or_one, flags], blank={1: blank}, cells=cells)
        ref = tmp_path / f"reference{cells}.csv"
        with open(ref, "w", newline="") as fp:
            writer = csv.writer(fp, lineterminator="\n")
            for i in range(n):
                writer.writerow(
                    [_fmt(flat[i]), "" if blank[i] else _fmt(nan_or_one[i]), _fmt(flags[i])]
                )
        text = written.read_bytes()
        assert text == ref.read_bytes()
        assert b"\n-0.0,," in text and b"\n0.0,nan," in text


@pytest.mark.parametrize("change", ["signed_zero", "nan_payload"])
def test_write_columns_reuses_text_only_for_equal_bits(tmp_path, monkeypatch, change):
    # a block reuses the text kept from the block before only when every bit
    # repeats: -0.0 == 0.0 as floats, and two NaN payloads both read "nan"
    # one column: a chunk holds _CSV_CHUNK_CELLS rows, so this is three chunks
    base = np.resize([0.0, 1.5, np.nan, -2.25, 0.1], 3 * _CSV_CHUNK_CELLS - 72)
    other = base.copy()
    if change == "signed_zero":
        other[0] = -0.0
    else:
        other.view(np.int64)[2] ^= 1
    assert np.array_equal(other, base, equal_nan=True)
    blocks = [base, base, other, other, other]

    formatted = []
    column_text = _column_text

    def recording(part, blank=None):
        formatted[-1].append(part.view(np.int64).copy())
        return column_text(part, blank)

    monkeypatch.setattr("harnacklab.report._column_text", recording)
    kept = {}
    with open(tmp_path / "kept.csv", "w", newline="") as fp:
        for block in blocks:
            formatted.append([])
            _write_columns(fp, [block], kept=kept)
    # three chunks, then the repeat formatted whole, once; the changed block
    # chunk by chunk from its own bits; its repeats once, then not at all
    assert [len(parts) for parts in formatted] == [3, 1, 3, 1, 0]
    assert np.array_equal(np.concatenate(formatted[2]), other.view(np.int64))

    with open(tmp_path / "plain.csv", "w", newline="") as fp:
        for block in blocks:
            _write_columns(fp, [block])
    assert (tmp_path / "kept.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_write_columns_peak_does_not_grow_with_rows():
    # each chunk's text is released before the next chunk is formatted, so
    # three chunks of rows peak no higher than one
    chunk = _CSV_CHUNK_CELLS // 13  # rows per chunk of 13 columns
    columns = _random_columns(13, 3 * chunk)
    one = _writer_peak([col[:chunk] for col in columns])
    assert _writer_peak(columns) <= 1.1 * one


def test_write_columns_peak_does_not_grow_with_columns():
    # a chunk holds a fixed number of cells, so twice the columns take half
    # the rows a chunk and peak no higher.  With a fixed number of rows a
    # chunk instead, the text of a chunk, and the peak, doubles (about 1.96x
    # here), so 1.2x separates the two with room for the per-call overhead
    rows = 3 * (_CSV_CHUNK_CELLS // 13)  # three chunks of 13 columns, six of 26
    columns = _random_columns(26, rows)
    assert _writer_peak(columns) <= 1.2 * _writer_peak(columns[:13])


# write_diagnostics on a series shaped like torus2_full's (1,901 snapshots,
# all 13 columns filled) writes 193 KiB of floats.  With 8,192-cell chunks
# (630 rows) it peaked at 934-938 KiB (4.8x those floats), mostly the text
# of one chunk of distinct floats, and set the workload's peak RSS; with
# 2,048-cell chunks (157 rows) it peaked at 286-295 KiB (1.5x) while the
# residual went through a Python list, and at 239-246 KiB (1.2x) with every
# column a typed array.  The bound, 3x, sits between.
DIAGNOSTICS_PEAK_FLOATS = 3.0


def test_write_diagnostics_peak_is_a_small_multiple_of_its_floats(tmp_path):
    rows = 1901
    rng = np.random.default_rng(5)
    floats = {name: rng.random(rows) for name in SnapshotSeries.__dataclass_fields__}
    floats["residual"][[0, -1]] = np.nan  # no residual at the two ends
    series = SnapshotSeries(**{**floats, "argmax_H": rng.integers(0, 64 * 64, rows)})
    path = tmp_path / "diagnostics.csv"
    peak = _traced_peak(lambda: write_diagnostics(path, series))
    assert path.read_text().count("\n") == rows + 1
    written = 8 * rows * len(DIAGNOSTIC_COLUMNS)
    assert peak <= DIAGNOSTICS_PEAK_FLOATS * written, peak / written


def test_three_state_residual_is_written_at_its_one_interior_snapshot(tmp_path):
    # the residual has one entry per snapshot, NaN until the pass writes it:
    # three states have one interior snapshot, and diagnostics.csv leaves the
    # residual blank in its first and last rows
    m = hl.build_torus(1, [1.0], [32])
    data = hl.RandomSmoothData(seed=2, mode_cutoff=2, amplitude=0.4, floor=1.0)
    traj = hl.solve(m, hl.build_initial_field(data, m), 0.1, 0.12, 0.01)
    series = hl.entropy_series(traj, with_residual=True)
    assert len(traj) == len(series.residual) == 3
    assert np.isfinite(series.residual).tolist() == [False, True, False]
    path = tmp_path / "diagnostics.csv"
    write_diagnostics(path, series)
    cells = [line.split(",")[-1] for line in path.read_text().splitlines()[1:]]
    assert cells == ["", repr(float(series.residual[1])), ""]


@pytest.mark.parametrize(
    "part", [[0.5, 1.5], np.array([0.5, "1.5"], dtype=object)], ids=["list", "object_array"]
)
def test_column_text_rejects_a_column_that_is_not_a_typed_array(part):
    # the writer formats float, integer and bool arrays only
    with pytest.raises(TypeError):
        _column_text(part)


def _random_columns(count, rows):
    rng = np.random.default_rng(3)
    return [rng.random(rows) for _ in range(count)]


def _writer_peak(columns):
    """The tracemalloc peak of writing ``columns`` to the null device."""
    import os

    with open(os.devnull, "w") as fp:
        return _traced_peak(lambda: _write_columns(fp, columns))


def _traced_peak(call):
    """The tracemalloc peak of ``call()``."""
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


SPHERE_CONFIG = CONSTANT_CONFIG.replace(
    "manifold: {kind: torus, dimension: 2, side_lengths: [1.0, 1.0], resolution: [16, 16]}",
    "manifold: {kind: sphere, subdivision: 2}",
).replace(
    "initial_data: {kind: constant, value: 1.0}",
    "initial_data: {kind: random_smooth, seed: 5, mode_cutoff: 2, amplitude: 0.4, floor: 1.0}",
)


@pytest.mark.parametrize(
    "text, linear_solver",
    [(CONSTANT_CONFIG, "fft"), (SPHERE_CONFIG, "band_cholesky")],
    ids=["torus", "sphere"],
)
def test_meta_names_the_backend_solver(tmp_path, text, linear_solver):
    from dataclasses import replace

    run_config(replace(parse_config_text(text), output=Output(str(tmp_path / "out"))))
    meta = json.loads((tmp_path / "out" / "trajectory_meta.json").read_text())
    assert meta["solver"] == {
        "scheme": "crank_nicolson", "linear_solver": linear_solver, "rtol": 1e-12
    }


@pytest.mark.parametrize(
    "text",
    [
        SPHERE_CONFIG.replace(
            "manifold: {kind: sphere, subdivision: 2}",
            "manifold: {kind: torus, dimension: 2, side_lengths: [1.0, 1.0], resolution: [16, 16]}",
        )
        .replace("flow: {t0: 1.0, t_end: 1.5,", "flow: {t0: 0.05, t_end: 0.25,")
        .replace("quadrature_tol: 1.0e-6", "quadrature_tol: 1.0e-4"),
        SPHERE_CONFIG,
    ],
    ids=["T2", "S2"],
)
def test_backward_twin_computes_the_forward_diagnostics(tmp_path, text):
    # on a static metric the backward equation in the tau clock is the
    # forward equation: every computed diagnostics column matches byte for
    # byte, and the direction changes labels only
    from dataclasses import replace

    text = text.replace(
        "suites: [harnack_signs, entropy, pathwise]", "suites: [harnack_signs, entropy]"
    )
    computed = DIAGNOSTIC_COLUMNS.index("dW_formula") + 1
    columns = {}
    for direction in ("forward", "backward"):
        config = parse_config_text(text.replace("direction: forward", f"direction: {direction}"))
        out = tmp_path / direction
        assert run_config(replace(config, output=Output(str(out)))).exit_code == EXIT_PASS
        lines = (out / "diagnostics.csv").read_text().splitlines()
        columns[direction] = [line.split(",")[:computed] for line in lines]
    flow = config.flow
    assert len(columns["forward"]) == 2 + round((flow.t_end - flow.t0) / flow.dt)  # header + states
    assert columns["forward"][0] == list(DIAGNOSTIC_COLUMNS[:computed])
    assert columns["backward"] == columns["forward"]


@pytest.mark.parametrize(
    "text",
    [(CONFIG_DIR / "torus_smoke.yaml").read_text(), SPHERE_CONFIG],
    ids=["torus_smoke", "sphere"],
)
def test_diagnostics_and_pathwise_csv_match_rowwise_reference(tmp_path, text):
    # the column writer must give exactly the bytes of csv.writer with _fmt
    # per value, built from the series and pairs the run computes: the torus
    # run fills dissipation and residual (blank at the two end rows), the
    # sphere run leaves dissipation and residual blank
    from dataclasses import replace

    config = replace(parse_config_text(text), output=Output(str(tmp_path / "out")))
    run_config(config)
    m = runner.build_manifold(config.manifold)
    f0 = hl.build_initial_field(config.initial_data, m)
    traj = hl.solve(m, f0, config.flow.t0, config.flow.t_end, config.flow.dt)
    series = hl.entropy_series(traj, with_residual="evolution_residual" in config.suites)
    tol_disc = discretization_tolerance(m, config.tolerances.tol_disc_constant, config.flow.dt)
    pairs = check_pairs(
        traj,
        hl.sample_pairs(traj, config.tolerances.pair_count, config.tolerances.rng_seed),
        tol=tol_disc,
    )

    def reference(header, rows) -> bytes:
        path = tmp_path / "reference.csv"
        with open(path, "w", newline="") as fp:
            writer = csv.writer(fp, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(x) for x in row])
        return path.read_bytes()

    residual = [None] * len(traj)
    if series.residual is not None:
        residual[1:-1] = series.residual[1:-1]
    diag_rows = [
        [None if getattr(series, name) is None else getattr(series, name)[i]
         for name in DIAGNOSTIC_COLUMNS[:-1]] + [residual[i]]
        for i in range(len(traj))
    ]
    diag = (tmp_path / "out" / "diagnostics.csv").read_bytes()
    assert diag == reference(DIAGNOSTIC_COLUMNS, diag_rows)
    pw_rows = [
        (r.pair.x1, r.pair.x2, r.pair.t1, r.pair.t2, r.gamma, r.lhs, r.rhs, r.slack, r.passed)
        for r in pairs
    ]
    header = ("x1", "x2", "t1", "t2", "gamma", "lhs", "rhs", "slack", "pass")
    assert (tmp_path / "out" / "pathwise.csv").read_bytes() == reference(header, pw_rows)

    rows = [line.split(",") for line in diag.decode().splitlines()[1:]]
    torus = m.has_hessian
    for i, cells in enumerate(rows):
        assert len(cells) == len(DIAGNOSTIC_COLUMNS)
        assert (cells[9] != "" and cells[11] != "") is torus  # dF_formula, dW_formula
        assert (cells[12] != "") is (torus and 0 < i < len(rows) - 1)  # residual_maxnorm


@pytest.mark.parametrize(
    "text, steps",
    [
        # the fine flow's 100 steps, then the coarse flow's coarse_idx + 1 = 3
        ((CONFIG_DIR / "torus_smoke.yaml").read_text(), 100 + 3),
        (SPHERE_CONFIG, 50),
    ],
    ids=["torus_smoke", "sphere"],
)
def test_fine_flow_is_stepped_once(tmp_path, monkeypatch, text, steps):
    # a second pass over the fine flow would pass every report check and
    # only double the solve time, so count the Crank-Nicolson steps
    from dataclasses import replace

    from harnacklab import heatflow

    calls = []
    step = heatflow.step

    def counted(*args, **kwargs):
        calls.append(None)
        return step(*args, **kwargs)

    monkeypatch.setattr(heatflow, "step", counted)
    config = replace(parse_config_text(text), output=Output(str(tmp_path / "out")))
    assert run_config(config).exit_code == EXIT_PASS
    assert len(calls) == steps


def test_run_holds_no_trajectory(tmp_path):
    # a stored trajectory holds (n_steps + 1) * node_count * 8 bytes; the run
    # must peak below a quarter of that.  The column writer holds up to 157
    # rows of diagnostics text at once (2,048 cells of 13 columns), about
    # 1.4 kB a row against the 2 kB a snapshot the bound allows here, so the
    # run needs many more snapshots than that; 1600 steps are ten times as
    # many
    import tracemalloc
    from dataclasses import replace

    text = """
manifold: {kind: torus, dimension: 2, side_lengths: [1.0, 1.0], resolution: [32, 32]}
initial_data: {kind: random_smooth, seed: 11, mode_cutoff: 3, amplitude: 0.4, floor: 1.0}
flow: {t0: 0.05, t_end: 0.85, dt: 5.0e-4}
suites: [harnack_signs, evolution_residual, entropy, pathwise]
tolerances: {tol_disc_constant: 260.0, quadrature_tol: 1.0e-4, rng_seed: 11}
"""
    config = replace(parse_config_text(text), output=Output(str(tmp_path / "out")))
    stored = (1600 + 1) * 32 * 32 * 8
    tracemalloc.start()
    try:
        outcome = run_config(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome.exit_code == EXIT_PASS
    assert peak < stored / 4


def test_main_calibrate(tmp_path, capsys):
    text = """
manifold: {kind: torus, dimension: 1, side_lengths: [1.0], resolution: [64]}
initial_data: {kind: trig_polynomial, floor: 0.8, modes: [{index: [1], amplitude: 0.4}]}
flow: {t0: 0.1, t_end: 0.3, dt: 2.0e-3}
suites: [harnack_signs]
tolerances: {tol_disc_constant: 1.0, quadrature_tol: 1.0e-4, rng_seed: 1}
output: {directory: PLACEHOLDER}
""".replace("PLACEHOLDER", str(tmp_path / "cal"))
    code = main(["calibrate", write_config(tmp_path, text)])
    assert code == EXIT_PASS
    assert "calibrated C" in capsys.readouterr().out
    meta = json.loads((tmp_path / "cal" / "trajectory_meta.json").read_text())
    assert meta["calibrated_C"] > 0
