"""Print the answers of every pool input, one JSON line each.

    python3 tools/answers.py > answers.txt

Two checkouts answer alike exactly when their outputs are equal (``diff``).
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
  one sha256 per output (stdout, stderr and every file it writes).

A mapping line holds the status, grid codes, order and points of interest.
The script reads only under ``bench/`` and imports latmap from ``src/`` of
its own checkout; the CLI runs write to a temporary directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
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


def _pipeline_line(name: str, argv: list[str], workdir: Path) -> str:
    outdir = workdir / name.replace("/", "-")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--outdir", str(outdir)])
    files = {p.name: _sha(p.read_bytes()) for p in sorted(outdir.iterdir())}
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
            argv = [subcommand, str(fn_file), "--dim", "3", "3"]
            argv += ["--verify"] if subcommand == "synth" else []
            print(_pipeline_line(name, argv, workdir))


if __name__ == "__main__":
    main()
