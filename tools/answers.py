"""Print the answers of every pool input, one JSON line each.

    python3 tools/answers.py > answers.txt

Two checkouts answer alike exactly when their outputs are equal (``diff``):
to check a change, copy the script into a ``git archive`` export of the
parent revision and compare the two outputs.
In order, the lines are:

- each dimension r x c with r <= 7 and c <= 8: its path count and the
  sha256 of ``serialize_paths(enumerate_paths(r x c))``;
- each ``solve_lattice`` run of the benchmark's ``forward`` workload for
  seeds 1 to 3, then each degenerate grid on 6x6 and 7x7 (all 1, three
  letters and 1, twelve letters): its dimension and the sha256 of
  ``serialize_function`` of the listing;
- each negative of ``bench/data/pools.json``, mapped on 3x3 (its id indexes
  ``bench/goldens.STUDY8``);
- each kept entry of the ``solved`` library pools, mapped on its pool's
  dimension;
- each CLI run of the benchmark's ``pipeline`` workload: its exit code and
  one sha256 per output (stdout, stderr and every file it writes);
- each case of ``CLI_CASES`` (every subcommand, its verdicts, a usage error
  and every ``--help``), hashed the same way.

A mapping line holds the status, grid codes, order and points of interest.
The script reads only under ``bench/`` and imports latmap from ``src/`` of
its own checkout; the CLI runs write to a temporary directory, and ``--help``
is formatted for 80 columns.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402  (bench/, on the path above)
import latmap  # noqa: E402
from latmap import (  # noqa: E402
    LatticeDim,
    cli,
    enumerate_paths,
    LatticeAssignment,
    generate_library,
    serialize_function,
    serialize_paths,
    solve_lattice,
)
from latmap.mapper import map_function  # noqa: E402


def _sha(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _map_line(input_id: str, dim, terms, paths) -> str:
    result = map_function(terms, dim, None, paths)
    sol = result.solution
    return json.dumps({
        "id": input_id,
        "status": result.status,
        "codes": None if sol is None else list(sol.assignment.codes),
        "order": None if sol is None else list(sol.order),
        "poi": None if sol is None else [ev.text() for ev in sol.poi],
    })


# Input files of CLI_CASES, written to the case directory's parent.
CLI_INPUTS = {
    "grid.lat": "3 3\n0 101 1\n1 1 998\n2 2 101\n",
    "a.lat": "2 2\n0 100\n101 100\n",
    "a.fn": "1\n1 0\n",
    "b.fn": "1\n1 1\n",
    "three.fn": "3\n2 997 999\n4 997 5 4 998\n2 1000 5\n",
    "abc.fn": "1\n3 0 1 2\n",
    "split.fn": "2\n3 0 1 2\n3 1000 999 998\n",
}
# Spelled out, not read from latmap.cli, so every checkout runs the same cases.
COMMANDS = ("paths", "solve", "genlib", "map", "decompose", "synth", "verify")
# (id, argv): "{in}" is the inputs' directory, "{out}" the case's own.
CLI_CASES = (
    ("cli/paths", ["paths", "--dim", "3", "3"]),
    ("cli/solve", ["solve", "{in}/grid.lat"]),
    ("cli/genlib", ["genlib", "--dim", "3", "3", "--trials", "5", "--seed", "9"]),
    ("cli/genlib-paper", ["genlib", "--dim", "2", "2", "--trials", "3", "--paper-style"]),
    ("cli/map-pretty", ["map", "{in}/three.fn", "--dim", "3", "3", "--pretty",
                        "-o", "{out}/sol.lat"]),
    ("cli/map-no-solution", ["map", "{in}/abc.fn", "--dim", "2", "2"]),
    ("cli/verify-equivalent", ["verify", "{in}/a.lat", "{in}/a.fn"]),
    ("cli/verify-not", ["verify", "{in}/a.lat", "{in}/b.fn"]),
    ("cli/decompose-no-solution", ["decompose", "{in}/split.fn", "--dim", "2", "2",
                                   "--outdir", "{out}/split"]),
    ("cli/usage", ["paths", "--dim", "x", "3"]),
    ("cli/help", ["--help"]),
    *((f"cli/help-{c}", [c, "--help"]) for c in COMMANDS),
)


def _cli_line(name: str, argv: list[str], outdir: Path) -> str:
    """Run ``cli.main(argv)`` and hash its outputs and the files under
    ``outdir``; an exit through ``SystemExit`` gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    written = sorted(p for p in outdir.rglob("*") if p.is_file())
    files = {str(p.relative_to(outdir)): _sha(p.read_bytes()) for p in written}
    return json.dumps({
        "id": name,
        "exit": code,
        "stdout": _sha(out.getvalue()),
        "stderr": _sha(err.getvalue()),
        "files": files,
    })


def _paths_line(dim: LatticeDim) -> str:
    ps = enumerate_paths(dim)
    return json.dumps({
        "id": f"paths/{dim.rows}x{dim.cols}",
        "paths": len(ps),
        "sha256": _sha(serialize_paths(ps)),
    })


def _solve_line(input_id: str, dim: LatticeDim, terms) -> str:
    return json.dumps({
        "id": input_id,
        "dim": f"{dim.rows}x{dim.cols}",
        "sha256": _sha(serialize_function(terms)),
    })


def _degenerate_grids():
    for side in (6, 7):
        n = side * side
        rng = random.Random(n)
        yield side, "one", (101,) * n
        yield side, "three", tuple(rng.choice((0, 1, 2, 101)) for _ in range(n))
        yield side, "twelve", tuple(rng.choice(range(12)) for _ in range(n))


def main() -> None:
    for r in range(1, 8):
        for c in range(1, 9):
            print(_paths_line(LatticeDim(r, c)))
    for seed in (1, 2, 3):
        inputs = sorted(workloads.forward(latmap, seed), key=lambda inp: inp.stage)
        for inp in inputs:
            out = inp.run()  # the enumerations run first: the solves read them
            if inp.id.startswith("solve/"):
                dim = LatticeDim(*map(int, inp.id.split("/")[1].split("x")))
                print(_solve_line(f"forward/s{seed}/{inp.id}", dim, out))
    for side, kind, codes in _degenerate_grids():
        dim = LatticeDim(side, side)
        terms = solve_lattice(LatticeAssignment(dim, codes))
        print(_solve_line(f"solve/{kind}/{side}x{side}", dim, terms))
    pools = workloads.load_pools()
    dim = LatticeDim(3, 3)
    paths = enumerate_paths(dim)
    for row in pools["negative"]:
        print(_map_line(row["id"], dim, workloads.negative_terms(row["id"]), paths))
    for name, pool in pools["solved"].items():
        dim = LatticeDim(*map(int, name.split("x")))
        paths = enumerate_paths(dim)
        for trial, _ in pool["kept"]:
            (entry,) = generate_library(dim, pool["num_vars"], 1, pool["seed"] + trial)
            print(_map_line(f"{name}/t{trial}", dim, entry.function, paths))
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name, subcommand, terms, _ in workloads.PIPELINE:
            fn_file = workdir / (name.replace("/", "-") + ".fn")
            fn_file.write_text(workloads._function_text(terms))
            outdir = workdir / name.replace("/", "-")
            argv = [subcommand, str(fn_file), "--dim", "3", "3"]
            argv += ["--verify"] if subcommand == "synth" else []
            argv += ["--outdir", str(outdir)]
            print(_cli_line(name, argv, outdir))
        for file_name, text in CLI_INPUTS.items():
            (workdir / file_name).write_text(text)
        os.environ["COLUMNS"] = "80"
        for name, argv in CLI_CASES:
            outdir = workdir / name.replace("/", "-")
            outdir.mkdir()
            argv = [a.format(**{"in": workdir, "out": outdir}) for a in argv]
            print(_cli_line(name, argv, outdir))


if __name__ == "__main__":
    main()
