"""Config parsing, the run/calibrate/scan drivers, and report files."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

import harnacklab as hl
from harnacklab import runner
from harnacklab.runner import (
    EXIT_CONFIG_ERROR,
    EXIT_GATE_FAILURE,
    EXIT_PASS,
    EXIT_SOLVER_FAILURE,
    ConfigError,
    calibrate_tolerance,
    discretization_tolerance,
    main,
    parse_config_text,
    run_config,
)

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
    assert config.dt == pytest.approx(0.01)
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
    ],
)
def test_parse_errors_name_the_field(mangle, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config_text(mangle(CONSTANT_CONFIG))
    assert fragment in str(err.value)


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda p: p.name)
def test_shipped_configs_parse(path):
    runner.parse_config(path)


def test_parse_rejects_unknown_mode_key():
    text = """
manifold: {kind: torus, dimension: 1, side_lengths: [1.0], resolution: [64]}
initial_data: {kind: trig_polynomial, floor: 0.8, modes: [{index: [1], amplitude: 0.4, phaze: 1}]}
flow: {t0: 0.1, t_end: 0.3, dt: 2.0e-3}
suites: [harnack_signs]
tolerances: {tol_disc_constant: 1.0, quadrature_tol: 1.0e-4, rng_seed: 1}
"""
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert "phaze" in str(err.value)


def test_parse_accepts_residual_window(tmp_path):
    text = CONSTANT_CONFIG.replace("rng_seed: 7", "rng_seed: 7\n  residual_ratio_window: [2, 6]")
    assert parse_config_text(text).tolerances.residual_ratio_window == (2.0, 6.0)


def test_parse_rejects_bad_yaml():
    with pytest.raises(ConfigError) as err:
        parse_config_text("manifold: [unclosed")
    assert "YAML" in str(err.value)


def test_parse_rejects_torus_only_suite_on_sphere():
    text = CONSTANT_CONFIG.replace(
        "manifold: {kind: torus, dimension: 2, side_lengths: [1.0, 1.0], resolution: [16, 16]}",
        "manifold: {kind: sphere, subdivision: 2}",
    ).replace("suites: [harnack_signs, entropy, pathwise]", "suites: [evolution_residual]")
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert "evolution_residual" in str(err.value)


def test_parse_rejects_pathwise_on_backward():
    text = CONSTANT_CONFIG.replace("direction: forward", "direction: backward")
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert "pathwise" in str(err.value)


def test_parse_rejects_trig_data_on_sphere():
    text = """
manifold: {kind: sphere, subdivision: 2}
initial_data:
  kind: trig_polynomial
  floor: 1.0
  modes: [{index: [1], amplitude: 0.1}]
flow: {t0: 0.1, t_end: 0.2, dt: 0.01}
suites: [harnack_signs]
tolerances: {tol_disc_constant: 1.0, quadrature_tol: 1.0e-4, rng_seed: 1}
"""
    with pytest.raises(ConfigError):
        parse_config_text(text)


def test_parse_rejects_uncoarsenable_grid_for_residual_suite():
    text = CONSTANT_CONFIG.replace(
        "resolution: [16, 16]", "resolution: [18, 18]"
    ).replace("suites: [harnack_signs, entropy, pathwise]", "suites: [evolution_residual]")
    with pytest.raises(ConfigError):
        parse_config_text(text)


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
    assert diag[0] == ",".join(runner.DIAGNOSTIC_COLUMNS)
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
    out_a = run_config(constant_config(tmp_path, output_dir=str(tmp_path / "a")))
    out_b = run_config(constant_config(tmp_path, output_dir=str(tmp_path / "b")))
    assert out_a.exit_code == out_b.exit_code == EXIT_PASS
    for name in ("summary.json", "diagnostics.csv", "trajectory_meta.json", "pathwise.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_strict_halves_tolerance(tmp_path):
    base = run_config(constant_config(tmp_path, output_dir=str(tmp_path / "n")))
    strict = run_config(constant_config(tmp_path, output_dir=str(tmp_path / "s"), strict=True))
    assert strict.summary["tol_disc"] == pytest.approx(base.summary["tol_disc"] / 2.0)


def test_gate_failure_exit_code(tmp_path):
    # sign-incompatible data at t0: 2 lap u exceeds n/t0 somewhere, so the
    # Li-Yau gate fails honestly
    text = CONSTANT_CONFIG.replace(
        "initial_data: {kind: constant, value: 1.0}",
        """initial_data:
  kind: trig_polynomial
  floor: 0.8
  modes: [{index: [1, 0], amplitude: 0.4}]""",
    ).replace("flow: {t0: 1.0, t_end: 1.5, dt: 0.01, direction: forward}",
              "flow: {t0: 1.0, t_end: 1.2, dt: 0.01, direction: forward}")
    text = text.replace("PLACEHOLDER", str(tmp_path / "fail"))
    outcome = run_config(parse_config_text(text))
    assert outcome.exit_code == EXIT_GATE_FAILURE
    assert not outcome.summary["suites"]["harnack_signs"]["pass"]


def test_solver_failure_exit_code(tmp_path, monkeypatch):
    # the config grammar cannot express positivity-losing data (raised
    # cosines keep their coefficient sum inside the floor), so inject a
    # spiky admissible field to exercise the failure path
    config = constant_config(tmp_path, dt=5.0, t0=1.0, t_end=21.0)

    def spiky(data, m):
        x = m.positions[:, 0]
        return hl.ScalarField(1e-3 + 0.5 * (1 + np.cos(2 * np.pi * x)) ** 2, m)

    monkeypatch.setattr(runner, "build_initial_field", spiky)
    outcome = run_config(config)
    assert outcome.exit_code == EXIT_SOLVER_FAILURE
    assert "positivity" in outcome.summary["solver_error"]
    assert "6" in outcome.summary["solver_error"]  # names the failing time


def test_backward_run_reports_implied_derivatives(tmp_path):
    text = CONSTANT_CONFIG.replace("direction: forward", "direction: backward").replace(
        "suites: [harnack_signs, entropy, pathwise]", "suites: [harnack_signs, entropy]"
    ).replace("PLACEHOLDER", str(tmp_path / "bwd"))
    outcome = run_config(parse_config_text(text))
    assert outcome.exit_code == EXIT_PASS
    ent = outcome.summary["suites"]["entropy"]
    assert "implied_dF_dt_min" in ent
    assert ent["implied_dF_dt_min"] >= ent["implied_dF_dt_gate"]


def test_trajectory_export(tmp_path):
    data = hl.RandomSmoothData(seed=3, mode_cutoff=2, amplitude=0.4, floor=1.0)
    config = constant_config(tmp_path, export_trajectory=True, initial_data=data)
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
    m = config.manifold.build()
    traj = hl.solve(m, hl.build_initial_field(data, m), config.t0, config.t_end, config.dt)
    for line, state in zip(lines[3:], traj.states):
        assert line == ",".join(runner._fmt(x) for x in [state.time, *state.f.values])


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
    assert cal.constant > runner.C_FLOOR
    assert abs(cal.fits[0] - cal.fits[1]) / cal.fits[0] < 0.2
    assert 3.5 < cal.error_ratio < 4.5


def test_calibrate_constant_data_floors(tmp_path):
    cal = calibrate_tolerance(constant_config(tmp_path))
    assert cal.constant == runner.C_FLOOR
    assert cal.errors[0] < 1e-10


def test_calibrate_rejects_sphere():
    text = """
manifold: {kind: sphere, subdivision: 2}
initial_data: {kind: constant, value: 1.0}
flow: {t0: 0.1, t_end: 0.3, dt: 2.0e-3}
suites: [harnack_signs]
tolerances: {tol_disc_constant: 1.0, quadrature_tol: 1.0e-4, rng_seed: 1}
"""
    with pytest.raises(ConfigError):
        calibrate_tolerance(parse_config_text(text))


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


def test_main_config_error_exit(tmp_path, capsys):
    code = main(["run", str(tmp_path / "missing.yaml")])
    assert code == EXIT_CONFIG_ERROR
    assert "config error" in capsys.readouterr().err


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
    config = constant_config(tmp_path, suites=("paramscan",), scan=spec)
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
                row = [runner._fmt(block[name][i]) for name in header[:7]]
                row[3] = "" if np.isnan(lam) else runner._fmt(lam)
                writer.writerow(row + [runner._fmt(bool(block["survivor"][i]))])

        hl.case_one_uniqueness_scan(spec, on_block=sink)
    written = (tmp_path / "out" / "paramscan.csv").read_bytes()
    assert written == ref.read_bytes()
    assert b",," in written


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
