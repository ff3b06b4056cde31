"""The four workloads: seeded inputs, the timed call, and its check.

Every input is built from the workload seed and checked against an answer
that does not come from the code under test: the flood-fill oracle of
``oracle.py``, the frozen counts of ``goldens.py``, or the verdicts and
witness grids recorded in ``data/pools.json``.  Checks run outside the
timed region.

Calls go through the latmap module attribute (``mapper.map_function``),
looked up at call time, so that a ``Tracer`` sees them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import goldens
import oracle

POOLS = Path(__file__).resolve().parent / "data" / "pools.json"

# Costs within a stratum differ by at most this factor.
STRATUM_RATIO = 1.1
# map-solved inputs dearer than this (reference ms) are deep searches; each
# alone moves total_s by more than the bound, so all of them are in every
# draw and the seed draws the rest.
DEEP_SEARCH_MS = 50.0


@dataclass
class Outcome:
    verdict: str
    failed: bool
    lattices: Optional[int] = None
    note: str = ""


@dataclass
class Input:
    id: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]
    # inputs of a lower stage run first in every round (forward's solves
    # use the path sets its enumerations produce)
    stage: int = 0


def draw(costs: dict[str, float], n: int, rng: random.Random,
         keep_above: float = math.inf, kinds: Optional[dict[str, str]] = None) -> list[str]:
    """Seeded draw of ``n`` keys whose cost profile hardly depends on the seed.

    Keys dearer than ``keep_above`` are always drawn, on top of the ``n``.
    The rest are sorted into strata of one kind (``kinds``, e.g. the
    recorded verdict) and costs within ``STRATUM_RATIO`` of each other; the
    ``n`` places are shared among the strata in proportion to their size by
    largest remainder, so the count per stratum is the same for every seed,
    and the seed picks the members.
    """
    fixed = sorted(k for k, c in costs.items() if c > keep_above)
    strata: dict[tuple[str, int], list[str]] = {}
    for k in sorted(k for k, c in costs.items() if c <= keep_above):
        level = math.floor(math.log(max(costs[k], 1e-3)) / math.log(STRATUM_RATIO))
        strata.setdefault(((kinds or {}).get(k, ""), level), []).append(k)
    total = sum(len(s) for s in strata.values())
    n = min(n, total)
    shares = {lv: n * len(s) / total for lv, s in strata.items()}
    quota = {lv: math.floor(x) for lv, x in shares.items()}
    by_remainder = sorted(strata, key=lambda lv: (quota[lv] - shares[lv], lv))
    for lv in by_remainder[: n - sum(quota.values())]:
        quota[lv] += 1
    picked = list(fixed)
    for lv in sorted(strata):
        picked += rng.sample(strata[lv], quota[lv])
    return picked


def load_pools() -> dict:
    return json.loads(POOLS.read_text())


def _failure(verdict: str, note: str) -> Outcome:
    return Outcome(verdict, True, None, note)


def _check_witness(latmap, dim, codes, terms) -> str:
    """Empty when the grid realizes the terms by both the oracle and a
    truth table of ``solve_lattice``'s listing; else what failed."""
    universe = sorted(oracle.variables_of(codes)
                      | oracle.variables_of(c for t in terms for c in t))
    want = oracle.sop_table(terms, universe)
    if oracle.lattice_table(dim.rows, dim.cols, codes, universe) != want:
        return "witness fails the flood-fill oracle"
    listing = latmap.solve_lattice(latmap.LatticeAssignment(dim, tuple(codes)))
    if oracle.sop_table(listing, universe) != want:
        return "solve_lattice listing of the witness differs from the function"
    return ""


# -- forward ---------------------------------------------------------------

# Grids per dimension.  Most are cheap 6x6 grids, so that the median input
# is one of many alike; the eight 7x8 solves and two large enumerations are
# the ten inputs beyond the tail, which is then the dearest 7x7 solve.
FORWARD_GRIDS = {(6, 6): 40, (7, 7): 8, (7, 8): 8}
FORWARD_VARS = 8
# Random grids of one size differ in solve time by a quarter, which would
# show as spread between seeds.  The grid layouts are therefore drawn once
# from this seed, and the workload seed renames the variables of each grid
# and flips their polarities: every literal changes, the solve cost does not.
FORWARD_LAYOUT_SEED = 2022
MINIMALITY_SAMPLE = 100


def _check_paths(ps, rows: int, cols: int, want: int, rng: random.Random) -> Outcome:
    n = len(ps.paths)
    if n != want:
        return _failure(f"paths={n}", f"expected {want} paths")
    if len({frozenset(p) for p in ps.paths}) != n:
        return _failure(f"paths={n}", "repeated cell sets")
    for p in rng.sample(ps.paths, min(MINIMALITY_SAMPLE, n)):
        cells = set(p)
        on = [i in cells for i in range(rows * cols)]
        if not oracle.conducts(rows, cols, on):
            return _failure(f"paths={n}", f"path {p} does not connect")
        for c in p:
            on[c] = False
            if oracle.conducts(rows, cols, on):
                return _failure(f"paths={n}", f"path {p} is redundant at cell {c}")
            on[c] = True
    return Outcome(f"paths={n}", False)


def _relabel(codes, rng: random.Random) -> tuple[int, ...]:
    """The grid with its variables permuted and polarities flipped at random."""
    target = rng.sample(range(FORWARD_VARS), FORWARD_VARS)
    flip = [rng.random() < 0.5 for _ in range(FORWARD_VARS)]
    out = []
    for c in codes:
        v = oracle.variable(c)
        if v is None:
            out.append(c)
        else:
            negated = (c != v) != flip[v]
            out.append(oracle.COMPLEMENT - target[v] if negated else target[v])
    return tuple(out)


def forward(latmap, seed: int, small: bool = False) -> list[Input]:
    """Path enumeration, then solves of random grids on the fresh paths."""
    layout_rng, rng = random.Random(FORWARD_LAYOUT_SEED), random.Random(seed)
    grids = {(3, 3): 2, (4, 4): 2} if small else FORWARD_GRIDS
    literals = list(range(FORWARD_VARS))
    literals += [oracle.COMPLEMENT - v for v in range(FORWARD_VARS)]
    literals += [oracle.ZERO, oracle.ONE]
    paths_of: dict[tuple[int, int], Any] = {}
    inputs = []
    for (rows, cols), count in grids.items():
        dim = latmap.LatticeDim(rows, cols)

        def enumerate_run(dim=dim, key=(rows, cols)):
            # free the previous path set first: peak memory must not depend
            # on how often this input ran
            paths_of.pop(key, None)
            paths_of[key] = latmap.paths.enumerate_paths(dim)
            return paths_of[key]

        def enumerate_check(ps, rows=rows, cols=cols):
            want = goldens.PATH_COUNTS[(rows, cols)]
            return _check_paths(ps, rows, cols, want, random.Random(seed))

        inputs.append(Input(f"enumerate/{rows}x{cols}", enumerate_run, enumerate_check))
        for g in range(count):
            layout = [layout_rng.choice(literals) for _ in range(rows * cols)]
            lat = latmap.LatticeAssignment(dim, _relabel(layout, rng))

            def solve_run(lat=lat, key=(rows, cols)):
                return latmap.solver.solve_lattice(lat, paths_of[key])

            def solve_check(sop, lat=lat):
                universe = sorted(oracle.variables_of(lat.codes))
                want = oracle.lattice_table(lat.dim.rows, lat.dim.cols, lat.codes, universe)
                verdict = f"terms={len(sop)}"
                if oracle.sop_table(sop, universe) != want:
                    return _failure(verdict, "listing differs from flood-fill oracle")
                return Outcome(verdict, False)

            inputs.append(Input(f"solve/{rows}x{cols}/{g}", solve_run, solve_check, stage=1))
    return inputs


# -- map-solved ------------------------------------------------------------

SOLVED_PER_DIM = 60


def _map_outcome(latmap, dim, terms, result, known_witness: bool) -> Outcome:
    status = result.status
    if status == latmap.SOLVED:
        problem = _check_witness(latmap, dim, result.solution.assignment.codes, terms)
        if problem:
            return _failure(status, problem)
        return Outcome(status, False, 1, "" if known_witness else "verdict change")
    if status == latmap.NO_SOLUTION and not known_witness:
        return Outcome(status, False, 0)
    return _failure(status, "input has a known witness" if known_witness else "inconclusive")


def _map_input(latmap, input_id, dim, terms, paths, known_witness) -> Input:
    def run():
        return latmap.mapper.map_function(terms, dim, None, paths)

    def check(result):
        return _map_outcome(latmap, dim, terms, result, known_witness)

    return Input(input_id, run, check)


def map_solved(latmap, seed: int, small: bool = False) -> list[Input]:
    """Round trips of ``generate_library`` functions: every one has a witness."""
    rng = random.Random(seed)
    inputs = []
    for name, pool in load_pools()["solved"].items():
        rows, cols = map(int, name.split("x"))
        dim = latmap.LatticeDim(rows, cols)
        costs = {str(trial): ms for trial, ms in pool["kept"]}
        if small:
            trials = draw(costs, 3, rng)
        else:
            trials = draw(costs, SOLVED_PER_DIM, rng, keep_above=DEEP_SEARCH_MS)
        paths = latmap.enumerate_paths(dim)
        for trial in sorted(trials, key=int):
            (entry,) = latmap.generate_library(
                dim, pool["num_vars"], 1, pool["seed"] + int(trial))
            inputs.append(_map_input(latmap, f"{name}/t{trial}", dim,
                                     entry.function, paths, known_witness=True))
    return inputs


# -- map-negative ----------------------------------------------------------

NEGATIVE_DRAW = 40
# Subsets whose reference search takes longer are left out (217 of 652): one
# of them would weigh a fifth of a run, and a search's time moves by up to a
# quarter from one process to the next, so a few of them would dominate
# total_s.  Deep searches still run in the pipeline workload.
NEGATIVE_MAX_MS = 500.0


def negative_terms(input_id: str) -> list[frozenset[int]]:
    """Terms of a pool id such as ``DECOMP_EVEN8/1257`` (1-based indices)."""
    name, digits = input_id.split("/")
    fn = goldens.STUDY8[name]
    return [fn[int(d) - 1] for d in digits]


def map_negative(latmap, seed: int, small: bool = False) -> list[Input]:
    """Exhaustive mapper searches on subsets of the 8-term study functions."""
    rng = random.Random(seed)
    pool = {row["id"]: row for row in load_pools()["negative"]}
    costs = {k: row["ref_ms"] for k, row in pool.items() if row["ref_ms"] <= NEGATIVE_MAX_MS}
    if small:
        costs = dict(sorted(costs.items(), key=lambda kv: kv[1])[:40])
    kinds = {k: row["verdict"] for k, row in pool.items()}
    picked = draw(costs, 2 if small else NEGATIVE_DRAW, rng, kinds=kinds)
    dim = latmap.LatticeDim(3, 3)
    paths = latmap.enumerate_paths(dim)
    return [
        _map_input(latmap, k, dim, negative_terms(k), paths,
                   known_witness=pool[k]["witness"] is not None)
        for k in sorted(picked)
    ]


# -- pipeline --------------------------------------------------------------

# (name, subcommand, function, known lattice count)
PIPELINE = (
    ("synth/SYNTH_Q", "synth", goldens.SYNTH_Q, 3),
    ("synth/SYNTH_EIGHT", "synth", goldens.SYNTH_EIGHT, 3),
    ("decompose/DECOMP_EVEN8", "decompose", goldens.DECOMP_EVEN8, 2),
)


def _function_text(terms) -> str:
    lines = [str(len(terms))]
    lines += [f"{len(t)} " + " ".join(map(str, sorted(t))) for t in terms]
    return "\n".join(lines) + "\n"


def _read_lattice(path: Path) -> tuple[int, int, list[int]]:
    head, *rows = path.read_text().split("\n")
    r, c = map(int, head.split())
    codes = [int(x) for row in rows[:r] for x in row.split()]
    if len(codes) != r * c:
        raise ValueError(f"{path.name}: {len(codes)} codes for {r}x{c}")
    return r, c, codes


def _plan_table(outdir: Path, subcommand: str, universe: list[int]) -> tuple[int, int]:
    """(truth table over ``universe``, lattice count) of a CLI output dir.

    synth: manifest lines ``latticeN.lat: aux xK: ...`` feed auxiliary
    signal 25+K, ``latticeN.lat: output: ...`` lattices are ORed.
    decompose: sub1.lat OR sub2.lat.
    """
    aux: list[tuple[int, tuple]] = []
    outputs: list[tuple] = []
    if subcommand == "synth":
        for line in (outdir / "manifest.txt").read_text().splitlines():
            name, role, _ = line.split(": ", 2)
            lat = _read_lattice(outdir / name)
            if role.startswith("aux x"):
                aux.append((25 + int(role[5:]), lat))
            else:
                outputs.append(lat)
    else:
        outputs = [_read_lattice(outdir / f"{n}.lat") for n in ("sub1", "sub2")]
    table = 0
    for i, env in enumerate(oracle.assignments(universe)):
        for code, lat in aux:
            env[code] = oracle.lattice_on(*lat, env)
        if any(oracle.lattice_on(*lat, env) for lat in outputs):
            table |= 1 << i
    return table, len(aux) + len(outputs)


def pipeline(latmap, seed: int, workdir: Path, small: bool = False) -> list[Input]:
    """``latmap.cli.main`` in-process: synth --verify and decompose.

    The inputs are fixed; the seed only orders the measuring rounds.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    cases = [c for c in PIPELINE if not (small and c[0] == "synth/SYNTH_EIGHT")]
    inputs = []
    for name, subcommand, terms, want_lattices in cases:
        stem = name.replace("/", "-")
        fn_file = workdir / f"{stem}.fn"
        fn_file.write_text(_function_text(terms))
        argv = [subcommand, str(fn_file), "--dim", "3", "3"]
        argv += ["--verify"] if subcommand == "synth" else []
        reps = itertools.count()

        def run(argv=argv, stem=stem, reps=reps):
            outdir = workdir / f"{stem}-{next(reps)}"
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = latmap.cli.main(argv + ["--outdir", str(outdir)])
            return code, outdir

        def check(out, subcommand=subcommand, terms=terms, want=want_lattices):
            code, outdir = out
            if code != 0:
                return _failure(f"exit={code}", "nonzero exit")
            universe = sorted(oracle.variables_of(c for t in terms for c in t))
            table, count = _plan_table(outdir, subcommand, universe)
            if table != oracle.sop_table(terms, universe):
                return _failure("exit=0", "output lattices not equivalent to input")
            if count != want:
                return Outcome("exit=0", True, count, f"expected {want} lattices")
            return Outcome("exit=0", False, count)

        inputs.append(Input(name, run, check))
    return inputs


def build(name: str, latmap, seed: int, workdir: Path, small: bool = False) -> list[Input]:
    if name == "forward":
        return forward(latmap, seed, small)
    if name == "map-solved":
        return map_solved(latmap, seed, small)
    if name == "map-negative":
        return map_negative(latmap, seed, small)
    if name == "pipeline":
        return pipeline(latmap, seed, workdir, small)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("forward", "map-solved", "map-negative", "pipeline")
