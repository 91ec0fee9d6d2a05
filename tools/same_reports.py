"""Compare what two source trees of harnacklab report, byte for byte.

Usage (from anywhere; PARENT and CHANGE are repository roots):

    python3 tools/same_reports.py PARENT CHANGE [CONFIG ...]

Each tree runs these commands:

- every ``configs/*.yaml`` of its own, with ``scan`` for ``paramscan.yaml``
  and ``run`` for the rest;
- ``calibrate configs/torus_smoke.yaml``;
- ``run`` on each extra CONFIG, the same file for both trees.

Each command runs as ``python -m harnacklab.runner`` with
``PYTHONPATH=<tree>/src``, in a fresh temporary directory that holds a copy
of its config, with ``--output-dir out``.  Every file the command leaves
there, its stdout, its stderr and its exit code are compared between the
trees.  The tree's root and the temporary directory are replaced by
placeholders in stdout and stderr, so a traceback compares by its text.
Each difference is printed; the exit code is 1 on any difference, else 0.
Standard library only.
"""

from __future__ import annotations

import argparse
import difflib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path


def commands(tree: Path, extra: list[str]) -> dict[str, tuple[str, Path]]:
    """Each command of ``tree`` by label: (command, config path)."""
    todo = {}
    for config in sorted((tree / "configs").glob("*.yaml")):
        command = "scan" if config.name == "paramscan.yaml" else "run"
        todo[f"{command} configs/{config.name}"] = (command, config)
    todo["calibrate configs/torus_smoke.yaml"] = ("calibrate", tree / "configs" / "torus_smoke.yaml")
    for path in extra:
        todo[f"run {path}"] = ("run", Path(path).resolve())
    return todo


def run_one(tree: Path, command: str, config: Path) -> dict[str, bytes]:
    """Every output of one command, by name: each file it leaves, under its
    path, and ``<stdout>``, ``<stderr>`` and ``<exit code>``."""
    with tempfile.TemporaryDirectory(prefix="same_reports_") as tmp:
        work = Path(tmp)
        shutil.copyfile(config, work / "config.yaml")
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "harnacklab.runner", command, "config.yaml", "--output-dir", "out"],
            cwd=work, env=env, capture_output=True, check=False,
        )
        outputs = {
            str(path.relative_to(work)): path.read_bytes()
            for path in sorted(work.rglob("*"))
            if path.is_file() and path.name != "config.yaml"
        }
        for name, text in (("<stdout>", done.stdout), ("<stderr>", done.stderr)):
            for real, placeholder in ((work, b"<cwd>"), (tree, b"<tree>")):
                text = text.replace(str(real).encode(), placeholder)
            outputs[name] = text
        outputs["<exit code>"] = str(done.returncode).encode()
    return outputs


def differences(parent: dict[str, bytes], change: dict[str, bytes]) -> list[str]:
    """One line per output that differs, with a short diff of its text."""
    found = []
    for name in sorted(parent.keys() | change.keys()):
        if name not in change or name not in parent:
            found.append(f"  {name}: only in {'PARENT' if name in parent else 'CHANGE'}")
        elif parent[name] != change[name]:
            old = parent[name].decode(errors="replace").splitlines()
            new = change[name].decode(errors="replace").splitlines()
            diff = list(difflib.unified_diff(old, new, "PARENT", "CHANGE", n=0, lineterm=""))
            shown = [line[:200] for line in diff[2:12]]
            more = [f"... {len(diff) - 12} more diff lines"] if len(diff) > 12 else []
            found.append(f"  {name} differs:\n" + "\n".join("    " + line for line in shown + more))
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent tree")
    parser.add_argument("change", type=Path, help="root of the changed tree")
    parser.add_argument("config", nargs="*", help="an extra config to run")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    for tree in (parent, change):
        if not (tree / "src" / "harnacklab").is_dir():
            parser.error(f"{tree} is not a harnacklab tree: it has no src/harnacklab")

    todo = {}  # label -> side -> (tree, command, config)
    for side, tree in (("PARENT", parent), ("CHANGE", change)):
        for label, job in commands(tree, args.config).items():
            todo.setdefault(label, {})[side] = (tree, *job)
    differ = 0
    for label, jobs in todo.items():
        if len(jobs) < 2:
            print(f"DIFFERS {label}: its config is only in {next(iter(jobs))}")
            differ += 1
            continue
        found = differences(run_one(*jobs["PARENT"]), run_one(*jobs["CHANGE"]))
        print(f"{'DIFFERS' if found else 'same'} {label}")
        for line in found:
            print(line)
        differ += bool(found)
        sys.stdout.flush()
    print(f"{differ} of {len(todo)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
