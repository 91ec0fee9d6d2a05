"""Report files: their layouts, their writers and the config echo.

No writer catches an OSError: ``runner.main`` makes it a config error
naming ``output.directory`` (exit 2).  ``main`` runs each command inside
``removed_on_error``, so a command that ends in an error removes every
report file it had written and every directory level it made, once empty,
and leaves every other file alone.

Output files (all byte-deterministic for a fixed config + seed: no
timestamps, shortest round-trip float formatting, LF line endings)
------------------------------------------------------------------
Every CSV but the ``trajectory.csv`` export, which joins each state's
row itself, is written column by column through one writer, and every
column is a typed array or None: a float column as repr, taken once per
distinct bit pattern of each chunk of rows (so -0.0 and 0.0 keep their own
text), an integer column as integers, a boolean column as 1/0 and a None
column as empty cells; a float column may mark rows blank.  Rows are
joined in chunks of a fixed number of cells: 8,192 for the scan, whose
580,851 rows make its per-chunk cost count, and 2,048 for a run's
``diagnostics.csv`` and ``pathwise.csv``, whose cells are all distinct
floats, so that one chunk's text stays small.  The scan writes its table
in blocks, one per alpha; a float column that repeats the previous block
bit for bit (beta, b, b_plus_beta) reuses that block's text, so it is
formatted once per scan.

``trajectory_meta.json``
    manifold hash and shape; the solver (``linear_solver`` is the backend's
    direct Crank-Nicolson solver, ``fft`` on a torus and ``band_cholesky``
    on the sphere, and ``rtol`` the relative residual every solve is checked
    against); the tolerance constant in effect and the resulting tol_disc,
    initial mass and relative drift.  A ``calibrate`` that succeeds writes
    only this file, with its fit (error_ratio null where the fine level is
    exact); its two clocks are ``Flow``s, so they have a run's step ceiling.
``diagnostics.csv``
    one row per snapshot, fixed column order::

        time,max_H,argmax_H,max_liyau,F_direct,F_via_H,W_direct,W_via_P,
        dF_fd,dF_formula,dW_fd,dW_formula,residual_maxnorm

    dF_fd/dW_fd are centered in the interior and one-sided at the two end
    rows (ends are excluded from gates); dF_formula/dW_formula are empty on
    the sphere; residual_maxnorm (the canonical H tuple) is filled at
    interior rows when evolution_residual is requested, and empty at the two
    end rows and without it.
    It reads as the second-order discretization residual only while the
    datum has structure.  Once the flow has flattened it, the column is
    solver roundoff: past t = 0.3 or so on the benchmark's torus2_full
    (T^2 64x64 from t0 = 0.05), solvers that agree to 1e-12 per step give
    values there that differ by up to 30%.
``pathwise.csv``
    x1,x2,t1,t2,gamma,lhs,rhs,slack,pass  -- one row per sampled pair.
``paramscan.csv``
    alpha,beta,b,lam,alpha_minus_beta,b_plus_beta,quarter_square_plus_b,survivor
    -- one row per grid point; lam is empty where alpha = beta.
``summary.json``
    per suite, a ``gates`` map (each gate's name -> value, bound, pass, the
    value also under the gate's name), ``pass`` and ``worst_slack``
    (``harnacklab.suites`` gives each suite's report).  overall_pass is the
    AND of every gate.  Also the tolerance model actually applied.  Never
    contains paths.  After a solver failure it is the only file left, with
    ``solver_error`` in place of the suites.
``trajectory.csv`` (only with output.export_trajectory)
    comment header (# manifold_hash=..., # dt=..., # direction=...), then
    one row per state: time, then all node values.  Rows are written
    during the pass to ``trajectory.csv.part``, which is renamed once the
    run's flows are stepped; a solver failure in either flow removes it.
"""

from __future__ import annotations

import contextlib
import itertools
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .config import RunConfig, SphereSpec, TorusSpec
from .entropy import SnapshotSeries
from .geometry import ManifoldDescriptor
from .heatflow import CN_SOLVE_RTOL, FlowState
from .pathwise import PairReport

DIAGNOSTIC_COLUMNS = (
    "time", "max_H", "argmax_H", "max_liyau", "F_direct", "F_via_H",
    "W_direct", "W_via_P", "dF_fd", "dF_formula", "dW_fd", "dW_formula",
    "residual_maxnorm",
)
PATHWISE_COLUMNS = ("x1", "x2", "t1", "t2", "gamma", "lhs", "rhs", "slack", "pass")
PARAMSCAN_COLUMNS = (
    "alpha", "beta", "b", "lam",
    "alpha_minus_beta", "b_plus_beta", "quarter_square_plus_b", "survivor",
)


def output_dir(config: RunConfig) -> Path:
    """output.directory, made if missing; each level it makes is marked as
    written, outermost first."""
    out_dir = Path(config.output.directory)
    missing = list(itertools.takewhile(lambda p: not p.exists(), (out_dir, *out_dir.parents)))
    out_dir.mkdir(parents=True, exist_ok=True)
    for level in reversed(missing):
        _mark_written(level)
    return out_dir


# cells per write of the CSV column writer: 1024 rows of the scan's 8
# columns.  Its 580,851 rows pay a formatting cost per chunk, so smaller
# chunks would slow it (ROADMAP, "Measured and rejected")
_CSV_CHUNK_CELLS = 8192
# cells per write of a run's tables, 157 rows of the 13 diagnostics columns:
# every cell there is a distinct float, so one chunk's text sets the
# writer's peak (at 8,192 cells it set torus2_full's peak RSS)
_RUN_CSV_CHUNK_CELLS = 2048


def _column_text(part, blank=None):
    """The text of each value of one column, or of a chunk of its rows,
    formatted in one pass: for a float array, repr of each distinct bit
    pattern once (-0.0 and 0.0 differ), gathered to every entry holding it,
    and blank where the boolean array ``blank`` is True; for an integer
    array, each integer; for a boolean array, 1/0.  A None column is blank;
    anything else is a TypeError."""
    if part is None:
        return itertools.repeat("")
    dtype = part.dtype if isinstance(part, np.ndarray) else None
    if dtype == float:
        bits, index = np.unique(part.view(np.int64), return_inverse=True)
        text = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)[index]
        if blank is not None:
            text[blank] = ""
        return text.tolist()
    if dtype == bool:
        return np.where(part, "1", "0").tolist()
    if dtype is not None and dtype.kind in "iu":
        return map(str, part.tolist())
    raise TypeError(f"a CSV column is a float, integer or bool array or None, not {part!r:.80}")


def _repeated_text(columns, blank, kept) -> dict:
    """The text of each float column without blanks that repeats the
    previous block's column bit for bit, by column index.  ``kept`` carries,
    from block to block, each such column's bits (its ``int64`` view, so
    -0.0 and 0.0 differ, and so do two NaN payloads) and, once the column
    has repeated, its text."""
    text = {}
    for k, col in enumerate(columns):
        if k in blank or col is None or col.dtype != float:
            continue
        bits = col.view(np.int64)
        last_bits, last_text = kept.get(k, (None, None))
        if last_bits is None or not np.array_equal(bits, last_bits):
            kept[k] = (bits.copy(), None)
            continue
        text[k] = _column_text(col) if last_text is None else last_text
        kept[k] = (last_bits, text[k])
    return text


def _write_columns(fp, columns, blank=None, kept=None, cells=_CSV_CHUNK_CELLS) -> None:
    """Write one CSV row per index of the equal-length ``columns`` (1-D
    float, integer or bool arrays, or None, formatted by
    :func:`_column_text`), joining as many rows at a time as fit in
    ``cells`` cells (at least one), so the text of a long or wide table is
    never held at once.  ``blank`` maps the index of a float column to a
    boolean array of its length: its True entries are written as blank
    cells.

    A table written in blocks passes one ``kept`` dict with every block.  A
    float column without blanks that repeats the previous block's bits is
    then formatted once, for its whole block, and that text is reused
    while the column keeps repeating (:func:`_repeated_text`).  Every other
    column is formatted chunk by chunk and holds no text."""
    blank = blank or {}
    whole = {} if kept is None else _repeated_text(columns, blank, kept)
    n = max(len(col) for col in columns if col is not None)
    rows = max(1, cells // len(columns))
    for lo in range(0, n, rows):
        hi = lo + rows
        chunk = [
            whole[k][lo:hi] if k in whole else _column_text(
                None if col is None else col[lo:hi], blank[k][lo:hi] if k in blank else None
            )
            for k, col in enumerate(columns)
        ]
        fp.write("\n".join(map(",".join, zip(*chunk))) + "\n")
        del chunk  # released before the next chunk is formatted


# the report files and directory levels made since ``removed_on_error`` was
# entered, in the order they were made, or None outside it
_written: list[Path] | None = None


@contextlib.contextmanager
def removed_on_error():
    """A block that removes again every report file written in it if it
    ends in an exception, and then every directory level it made that is
    left empty, so a command that cannot finish leaves none of its reports
    and no directory it made.  A file no writer opened in the block, and a
    directory that existed before it, are left alone."""
    global _written
    _written = []
    try:
        yield
    except BaseException:
        # latest first: the files, then the levels, innermost first
        for path in reversed(_written):
            if path.is_dir():
                with contextlib.suppress(OSError):  # a level holding anything stays
                    path.rmdir()
            else:
                path.unlink(missing_ok=True)
        raise
    finally:
        _written = None


def _mark_written(path: Path) -> None:
    if _written is not None:
        _written.append(path)


def _create(path: Path):
    """``path`` opened for writing (LF line endings), marked as written."""
    fp = open(path, "w", newline="")
    _mark_written(path)
    return fp


def _open_csv(path: Path, header):
    """``path`` opened for writing, with the header row written."""
    fp = _create(path)
    fp.write(",".join(header) + "\n")
    return fp


def write_diagnostics(path: Path, series: SnapshotSeries) -> None:
    # each column is the series field of its name; residual_maxnorm is the
    # residual, blank at the two end rows, which have no centered difference
    fields = (*DIAGNOSTIC_COLUMNS[:-1], "residual")
    ends = np.zeros(len(series.time), dtype=bool)
    ends[[0, -1]] = True
    with _open_csv(path, DIAGNOSTIC_COLUMNS) as fp:
        _write_columns(
            fp, [getattr(series, name) for name in fields],
            blank={len(fields) - 1: ends}, cells=_RUN_CSV_CHUNK_CELLS,
        )


def write_pathwise(path: Path, reports: list[PairReport]) -> None:
    rows = [
        (r.pair.x1, r.pair.x2, r.pair.t1, r.pair.t2, r.gamma, r.lhs, r.rhs, r.slack, r.passed)
        for r in reports
    ]
    dtypes = (int, int, float, float, float, float, float, float, bool)
    with _open_csv(path, PATHWISE_COLUMNS) as fp:
        columns = [np.array(col, dtype=dtype) for col, dtype in zip(zip(*rows), dtypes)]
        _write_columns(fp, columns, cells=_RUN_CSV_CHUNK_CELLS)


@contextlib.contextmanager
def paramscan_csv(path: Path):
    """``path`` with its header row, open for the scan: yields the sink
    that writes each block of ``paramspace.case_one_uniqueness_scan``."""
    # beta, b and b_plus_beta repeat in every alpha block: formatted once
    kept = {}
    lam = PARAMSCAN_COLUMNS.index("lam")
    with _open_csv(path, PARAMSCAN_COLUMNS) as fp:

        def sink(block: dict) -> None:
            # an alpha = beta point has no lam (NaN): a blank cell
            columns = [block[name] for name in PARAMSCAN_COLUMNS]
            _write_columns(fp, columns, blank={lam: np.isnan(block["lam"])}, kept=kept)

        yield sink


def write_json(path: Path, obj) -> None:
    with _create(path) as fp:
        json.dump(obj, fp, sort_keys=True, indent=2)
        fp.write("\n")


def _manifold_echo(spec: TorusSpec | SphereSpec) -> dict:
    """The manifold as reports give it: its kind and all four size keys,
    None where the kind has no such key."""
    sizes = dict.fromkeys(("dimension", "side_lengths", "resolution", "subdivision"))
    return {"kind": spec.kind, **sizes, **asdict(spec)}


def manifold_hash(spec: TorusSpec | SphereSpec) -> str:
    # imported here, its only use: hashlib loads OpenSSL (about 3.7 MB of
    # peak RSS), which a scan never needs
    import hashlib

    blob = json.dumps(_manifold_echo(spec), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def config_echo(config: RunConfig, strict: bool) -> dict:
    return {
        "manifold": _manifold_echo(config.manifold),
        "initial_data": {"kind": config.initial_data.kind, **asdict(config.initial_data)},
        "flow": asdict(config.flow),
        "suites": list(config.suites),
        "tolerances": asdict(config.tolerances),
        "strict": strict,
    }


def run_meta(
    config: RunConfig, m: ManifoldDescriptor, n_states: int, strict: bool, **facts
) -> dict:
    """A run's ``trajectory_meta.json``; ``facts`` are tol_disc, mass_initial
    and mass_drift_rel."""
    flow = config.flow
    return {
        "manifold_hash": manifold_hash(config.manifold),
        "manifold": _manifold_echo(config.manifold),
        "direction": flow.direction,
        "t0": flow.t0,
        "t_end": flow.t_end,
        "dt": flow.dt,
        "n_states": n_states,
        "mesh_scale": m.mesh_scale,
        "node_count": m.node_count,
        "total_volume": m.total_volume,
        "tol_disc_constant": config.tolerances.tol_disc_constant,
        "strict": strict,
        **facts,
        "solver": {
            "scheme": "crank_nicolson",
            "linear_solver": m.linear_solver,
            "rtol": CN_SOLVE_RTOL,
        },
    }


@contextlib.contextmanager
def trajectory_csv(path: Path, config: RunConfig):
    """trajectory.csv, its comment header written: yields the function that
    writes one state's row (time, then the node values), or None without
    export_trajectory.  The rows go to a side file that becomes ``path``
    only when the block completes, so a pass that fails leaves no partial
    export."""
    if not config.output.export_trajectory:
        yield None
        return
    part = path.with_name(path.name + ".part")
    try:
        with open(part, "w", newline="") as fp:
            fp.write(f"# manifold_hash={manifold_hash(config.manifold)}\n")
            fp.write(f"# dt={config.flow.dt!r}\n")
            fp.write(f"# direction={config.flow.direction}\n")

            def write_state(state: FlowState) -> None:
                fp.write(",".join(map(repr, [state.time, *state.f.values.tolist()])) + "\n")

            yield write_state
        part.replace(path)
        _mark_written(path)
    finally:
        part.unlink(missing_ok=True)
