"""cli_cold: every README CLI example as its own ``python -m isolab.cli`` process.

The processes run one at a time against the checkout's ``src`` through
PYTHONPATH, so nothing is installed.  This module does not import isolab:
the workload process only starts the children, which pay the import.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

from stats import Op, Workload

# The README's CLI examples verbatim, `isolab` standing for `python -m isolab.cli`.
README_EXAMPLES = (
    "isolab families",
    "isolab eval --family cube --s 2",
    "isolab eval --family rect_similar --param k=0.5 --s 2",
    "isolab inradius --family cube --s0 0 --grid 0.5:4:48 --format csv",
    "isolab classify --family hexagon_120 --grid 0.2:3:40 --expect homogeneous",
    "isolab kmin --class cone --starts 16",
    "isolab kmin-table",
    "isolab solve-coordinate --class parallelogram3 --k 32 --j 2 --s 2 "
    "--fixed '0=sqrt(s)' --fixed '1=s-sqrt(s)'",
    "isolab trace --class parallelogram3 --k 32 --start 2,2,0.6435 --steps 100 --format csv",
    "isolab starlike --file cube.json",
    "isolab support-volume --file cube.json",
    "isolab cohen --file cube.json --r 1.0",
    "isolab lift --family disk --rho-scale 2 --grid 0.5:4:8",
    "isolab steiner --box 1,1,1 --s 1",
    "isolab bonnesen --d 3 --V 1 --A 6",
    "isolab bonnesen --2d --P 6 --A 2 --r 0.5",
    "isolab deficit --d 2 --V 1 --A 4",
)
# README examples that fail at this commit, and how.  They stay in the cycle
# and count as failures: the trace start has Q = 26.67, not 32, and the
# default cube has inradius 0.5, not 1.
KNOWN_DEFECTS = {"trace": "exit 2", "cohen": "exit 2"}
# cube.json as the README says to make it, from the default cube_polyhedron()
CUBE_JSON = "from isolab.polytope import cube_polyhedron; print(cube_polyhedron().to_json())"
CLI_SUBCOMMANDS = ["cube_json"] + sorted({shlex.split(e)[1] for e in README_EXAMPLES})
CHILD_TIMEOUT_S = 60


def child_env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src))


def _parse_output(text: str, csv_format: bool) -> str | None:
    try:
        if not csv_format:
            json.loads(text)
            return None
        rows = list(csv.reader(io.StringIO(text)))
        if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
            return "ragged or empty CSV"
        for row in rows[1:]:
            for cell in row:
                float(cell)
        return None
    except ValueError as exc:
        return f"unparseable output: {exc}"


def _cli_op(tr, name: str, argv: list[str], cwd: Path, env: dict, to_file: str | None = None) -> Op:
    csv_format = "--format" in argv and argv[argv.index("--format") + 1] == "csv"

    def call():
        with tr.span(f"cli.{name}"):
            proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            if to_file is not None and proc.returncode == 0:
                (cwd / to_file).write_text(proc.stdout)
        return proc

    def check(proc):
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines()
            return f"exit {proc.returncode}: {lines[-1] if lines else ''}"
        return _parse_output(proc.stdout, csv_format)

    return Op(f"cli:{' '.join(argv[3:]) or name}", "cli", call, check, KNOWN_DEFECTS.get(name))


def cli_cold(seed: int, src: Path, out: Path) -> Workload:
    cwd = out / "cli"
    cwd.mkdir(parents=True, exist_ok=True)
    env = child_env(src)
    # cube.json comes first; the seed fixes the order of the README examples after it
    order = random.Random(seed).sample(range(len(README_EXAMPLES)), len(README_EXAMPLES))
    examples = [shlex.split(README_EXAMPLES[i]) for i in order]
    python = sys.executable

    def build(tr) -> list[Op]:
        ops = [_cli_op(tr, "cube_json", [python, "-c", CUBE_JSON], cwd, env, to_file="cube.json")]
        for argv in examples:
            ops.append(_cli_op(tr, argv[1], [python, "-m", "isolab.cli", *argv[1:]], cwd, env))
        return ops

    # two cycles give the tail rule 36 samples
    return Workload(build, nominal_cycle_s=30.0, min_cycles=2)
