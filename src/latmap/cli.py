"""Command-line interface: one binary, subcommand per tool stage.

Exit codes: 0 success/solution, 1 no-solution or not-equivalent,
2 inconclusive (time limit), 64+ usage/IO errors.  Machine-parseable payloads
go to the output file (or stdout with "-"); human summaries go to stderr.
"""

from __future__ import annotations

import argparse
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


def _budget(args: argparse.Namespace) -> mapper.SearchBudget:
    return mapper.SearchBudget(args.time_limit)


def _load_function(path: str) -> codes.Sop:
    warnings: list[str] = []
    f = codes.parse_function(_read(path), warnings)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return f


def _print_solution(sol: mapper.MappingSolution, pretty: bool) -> None:
    lat = sol.assignment
    if pretty:
        assg = " ".join(
            f"v{i}={codes.pretty_code(code)}" for i, code in enumerate(lat.codes)
        )
    else:
        assg = " ".join(f"v{i}={code}" for i, code in enumerate(lat.codes))
    print("SOLUTION FOUND:")
    print(f"ASSG {assg}")
    for ev in sol.poi:
        print(f"POI: {ev.text()}")
    print("ORDER: " + " ".join(str(i + 1) for i in sol.order))


def cmd_paths(args: argparse.Namespace) -> int:
    dim = LatticeDim(args.dim[0], args.dim[1])
    ps = paths.enumerate_paths(dim)
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
    dim = LatticeDim(args.dim[0], args.dim[1])
    entries = solver.generate_library(dim, args.num_vars, args.trials, args.seed)
    header = f"# seed {args.seed}\n" if args.paper_style else ""
    _write(args.output, header + solver.serialize_library(entries, args.paper_style))
    print(f"library entries: {len(entries)} (seed {args.seed})", file=sys.stderr)
    return EXIT_OK


def cmd_map(args: argparse.Namespace) -> int:
    f = _load_function(args.function)
    result = mapper.map_function(f, LatticeDim(*args.dim), _budget(args))
    if result.status == mapper.SOLVED:
        _print_solution(result.solution, args.pretty)
        if args.output:
            _write(args.output, solver.serialize_lattice(result.solution.assignment))
        return EXIT_OK
    if result.status == mapper.NO_SOLUTION:
        print("NO SOLUTION")
        return EXIT_NEGATIVE
    print("INCONCLUSIVE (budget)")
    return EXIT_INCONCLUSIVE


def cmd_decompose(args: argparse.Namespace) -> int:
    f = _load_function(args.function)
    dim = LatticeDim(args.dim[0], args.dim[1])
    outcome = decompose.decompose_two(f, dim, _budget(args))
    if outcome.status == mapper.SOLVED:
        res = outcome.result
        outdir = Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        manifest = []
        for name, indices, sol in (
            ("sub1", res.indices_a, res.solution_a),
            ("sub2", res.indices_b, res.solution_b),
        ):
            (outdir / f"{name}.lat").write_text(
                solver.serialize_lattice(sol.assignment)
            )
            manifest.append(f"{name}: terms " + " ".join(str(i + 1) for i in indices))
            for ev in sol.poi:
                manifest.append(f"{name} POI: {ev.text()}")
        (outdir / "manifest.txt").write_text("\n".join(manifest) + "\n")
        print(
            f"decomposed into {len(res.indices_a)} + {len(res.indices_b)} terms",
            file=sys.stderr,
        )
        return EXIT_OK
    if outcome.status == mapper.NO_SOLUTION:
        print("NO SOLUTION")
        return EXIT_NEGATIVE
    print("INCONCLUSIVE (budget)")
    return EXIT_INCONCLUSIVE


def cmd_synth(args: argparse.Namespace) -> int:
    f = _load_function(args.function)
    dim = LatticeDim(args.dim[0], args.dim[1])
    plan = synth.synthesize(f, dim, _budget(args))
    if plan is None:
        print("INCONCLUSIVE (budget)")
        return EXIT_INCONCLUSIVE
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for i, pl in enumerate(plan.lattices):
        name = f"lattice{i + 1}.lat"
        (outdir / name).write_text(solver.serialize_lattice(pl.assignment))
        what = (
            f"aux x{pl.aux_code - codes.AUX_MIN + 1}"
            if pl.aux_code is not None
            else "output"
        )
        manifest.append(
            f"{name}: {what}: " + " + ".join(codes.pretty_term(t) for t in pl.terms)
        )
    aux_lines = [
        f"{pl.aux_code} {len(pl.terms[0])} "
        + " ".join(str(c) for c in sorted(pl.terms[0]))
        for pl in plan.lattices
        if pl.aux_code is not None
    ]
    (outdir / "aux.txt").write_text("\n".join(aux_lines) + "\n" if aux_lines else "")
    (outdir / "manifest.txt").write_text("\n".join(manifest) + "\n")
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


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--time-limit", type=float, default=None)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 64: argparse's own 2 means inconclusive here."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="latmap")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("paths", help="enumerate irredundant lattice paths")
    p.add_argument("--dim", nargs=2, type=int, required=True, metavar=("R", "C"))
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("solve", help="solve a literal-assigned lattice")
    p.add_argument("lattice")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("genlib", help="generate a seeded function library")
    p.add_argument("--dim", nargs=2, type=int, required=True, metavar=("R", "C"))
    p.add_argument("--num-vars", type=int, default=5)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--paper-style", action="store_true")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_genlib)

    p = sub.add_parser("map", help="map a function onto a lattice")
    p.add_argument("function")
    p.add_argument("--dim", nargs=2, type=int, required=True, metavar=("R", "C"))
    p.add_argument("--pretty", action="store_true")
    p.add_argument("-o", "--output", default=None, help="also write the lattice file")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("decompose", help="split a function over two lattices")
    p.add_argument("function")
    p.add_argument("--dim", nargs=2, type=int, required=True, metavar=("R", "C"))
    p.add_argument("--outdir", default="decomposition")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("synth", help="systematic multi-lattice synthesis")
    p.add_argument("function")
    p.add_argument("--dim", nargs=2, type=int, required=True, metavar=("R", "C"))
    p.add_argument("--outdir", default="plan")
    p.add_argument("--verify", action="store_true")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="check a lattice against a function")
    p.add_argument("lattice")
    p.add_argument("function")
    p.set_defaults(func=cmd_verify)

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
