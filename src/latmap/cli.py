"""Command-line interface: one binary, subcommand per tool stage.

Exit codes: 0 success/solution, 1 no-solution or not-equivalent,
2 inconclusive (time limit), 64+ usage/IO errors.  Machine-parseable payloads
go to the output file (or stdout with "-"); human summaries go to stderr.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path
from typing import NoReturn

from . import codes, decompose, mapper, paths, solver, synth
from .grid import LatticeDim

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_IO = 66


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _load_function(path: str) -> codes.Sop:
    warnings: list[str] = []
    f = codes.parse_function(_read(path), warnings)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return f


def _not_solved(status: str) -> int:
    """Print a verdict other than solved; its exit code."""
    if status == mapper.NO_SOLUTION:
        print("NO SOLUTION")
        return EXIT_NEGATIVE
    print("INCONCLUSIVE (budget)")
    return EXIT_INCONCLUSIVE


def _check_outdir(outdir: str) -> None:
    """Raise before the search the error ``_write_outdir`` would meet after
    it where ``outdir`` names a file (EEXIST) or its nearest existing
    ancestor is one (ENOTDIR), so a failed run still makes nothing."""
    out = Path(outdir)
    for at in (out, *out.parents):
        if at.is_dir():
            return
        if at.exists():
            # OSError picks FileExistsError or NotADirectoryError by the code
            code = errno.EEXIST if at == out else errno.ENOTDIR
            raise OSError(code, os.strerror(code), str(out))


def _write_outdir(outdir: str, files: dict[str, str]) -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)


def cmd_paths(args: argparse.Namespace) -> int:
    ps = paths.enumerate_paths(LatticeDim(*args.dim))
    _write(args.output, paths.serialize_paths(ps))
    print(f"paths: {len(ps)}", file=sys.stderr)
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    lat = solver.parse_lattice(_read(args.lattice))
    f = solver.solve_lattice(lat)
    _write(args.output, codes.serialize_function(f))
    print(f"product terms: {len(f)}", file=sys.stderr)
    return EXIT_OK


def cmd_genlib(args: argparse.Namespace) -> int:
    dim = LatticeDim(*args.dim)
    entries = solver.generate_library(dim, args.num_vars, args.trials, args.seed)
    header = f"# seed {args.seed}\n" if args.paper_style else ""
    _write(args.output, header + solver.serialize_library(entries, args.paper_style))
    print(f"library entries: {len(entries)} (seed {args.seed})", file=sys.stderr)
    return EXIT_OK


def cmd_map(args: argparse.Namespace) -> int:
    f = _load_function(args.function)
    dim = LatticeDim(*args.dim)
    result = mapper.map_function(f, dim, mapper.SearchBudget(args.time_limit))
    if result.status != mapper.SOLVED:
        return _not_solved(result.status)
    sol = result.solution
    show = codes.pretty_code if args.pretty else str
    lattice = solver.serialize_lattice(sol.assignment)
    if args.output not in (None, "-"):
        _write(args.output, lattice)  # first, so a failed write prints no solution
    print("SOLUTION FOUND:")
    print("ASSG " + " ".join(f"v{i}={show(c)}" for i, c in enumerate(sol.assignment.codes)))
    for ev in sol.poi:
        print(f"POI: {ev.text()}")
    print("ORDER: " + " ".join(str(i + 1) for i in sol.order))
    if args.output == "-":
        _write(args.output, lattice)
    return EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> int:
    f = _load_function(args.function)
    dim = LatticeDim(*args.dim)
    budget = mapper.SearchBudget(args.time_limit)
    _check_outdir(args.outdir)
    outcome = decompose.decompose_two(f, dim, budget)
    if outcome.status != mapper.SOLVED:
        return _not_solved(outcome.status)
    res = outcome.result
    files, manifest = {}, []
    for name, indices, sol in (
        ("sub1", res.indices_a, res.solution_a),
        ("sub2", res.indices_b, res.solution_b),
    ):
        files[f"{name}.lat"] = solver.serialize_lattice(sol.assignment)
        manifest.append(f"{name}: terms " + " ".join(str(i + 1) for i in indices))
        manifest += (f"{name} POI: {ev.text()}" for ev in sol.poi)
    files["manifest.txt"] = "\n".join(manifest) + "\n"
    _write_outdir(args.outdir, files)
    print(f"decomposed into {len(res.indices_a)} + {len(res.indices_b)} terms", file=sys.stderr)
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    f = _load_function(args.function)
    dim = LatticeDim(*args.dim)
    budget = mapper.SearchBudget(args.time_limit)
    _check_outdir(args.outdir)
    plan = synth.synthesize(f, dim, budget)
    if plan is None:
        return _not_solved(mapper.INCONCLUSIVE)
    files, manifest, aux = {}, [], []
    for i, pl in enumerate(plan.lattices, 1):
        name = f"lattice{i}.lat"
        files[name] = solver.serialize_lattice(pl.assignment)
        what = "output"
        if pl.aux_code is not None:
            what = f"aux x{pl.aux_code - codes.AUX_MIN + 1}"
            term = sorted(pl.terms[0])
            aux.append(f"{pl.aux_code} {len(term)} " + " ".join(map(str, term)))
        manifest.append(
            f"{name}: {what}: " + " + ".join(codes.pretty_term(t) for t in pl.terms)
        )
    files["aux.txt"] = "".join(line + "\n" for line in aux)
    files["manifest.txt"] = "\n".join(manifest) + "\n"
    _write_outdir(args.outdir, files)
    n = len(plan.lattices)
    print(f"plan: {n} lattice{'' if n == 1 else 's'}", file=sys.stderr)
    if args.verify:
        ok = synth.realizes(plan, f)
        print(f"verify: {'equivalent' if ok else 'NOT equivalent'}", file=sys.stderr)
        if not ok:
            return EXIT_NEGATIVE
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    lat = solver.parse_lattice(_read(args.lattice))
    f = _load_function(args.function)
    if solver.verify_witness(lat, f):
        print("equivalent")
        return EXIT_OK
    print("NOT equivalent")
    return EXIT_NEGATIVE


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 64: argparse's own 2 means inconclusive here."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _arg(*names: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return names, kwargs


DIM = _arg("--dim", nargs=2, type=int, required=True, metavar=("R", "C"))
OUTPUT = _arg("-o", "--output", default="-")
TIME_LIMIT = _arg("--time-limit", type=float, default=None)
FUNCTION, LATTICE = _arg("function"), _arg("lattice")

# The --help description of map, decompose and synth (see latmap.mapper).
NO_SOLUTION_MEANS = (
    "The mapper's NO SOLUTION, for a function or a part of one, proves only that no R x C "
    "grid houses its terms one per path, with constant-1 fillers, the other cells 0 and no "
    "completed path outside the function. It is not a proof that no lattice does: map may "
    "miss a grid, decompose a split, and synth may use more lattices than needed."
)

# name: (handler, help, arguments in the order --help lists them)
COMMANDS = {
    "paths": (cmd_paths, "enumerate irredundant lattice paths", [DIM, OUTPUT]),
    "solve": (cmd_solve, "solve a literal-assigned lattice", [LATTICE, OUTPUT]),
    "genlib": (cmd_genlib, "generate a seeded function library", [
        DIM, _arg("--num-vars", type=int, default=5), _arg("--trials", type=int, default=20),
        _arg("--seed", type=int, default=0), _arg("--paper-style", action="store_true"), OUTPUT,
    ]),
    "map": (cmd_map, "map a function onto a lattice", [
        FUNCTION, DIM, _arg("--pretty", action="store_true"),
        _arg(*OUTPUT[0], default=None, help="also write the lattice file"), TIME_LIMIT,
    ]),
    "decompose": (cmd_decompose, "split a function over two lattices", [
        FUNCTION, DIM, _arg("--outdir", default="decomposition"), TIME_LIMIT,
    ]),
    "synth": (cmd_synth, "systematic multi-lattice synthesis", [
        FUNCTION, DIM, _arg("--outdir", default="plan"), _arg("--verify", action="store_true"),
        TIME_LIMIT,
    ]),
    "verify": (cmd_verify, "check a lattice against a function", [LATTICE, FUNCTION]),
}


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="latmap")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (func, help_text, arguments) in COMMANDS.items():
        description = NO_SOLUTION_MEANS if name in ("map", "decompose", "synth") else None
        p = sub.add_parser(name, help=help_text, description=description)
        for names, kwargs in arguments:
            p.add_argument(*names, **kwargs)
        p.set_defaults(func=func)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
