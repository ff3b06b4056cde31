"""Time the mapper on grids larger than the benchmark's, one line per case.

    python3 tools/bigmaps.py

Each case runs in a fresh worker process, so that its peak RSS is its own.
The worker enumerates the paths and builds the path set's tables first,
then times ``map_function`` alone: the minimum of 3 runs when the first takes
under 2 s, else that one run.  A line holds the case, its answer, a
digest of the answer (the first 12 hex digits of the sha256 of its status,
grid codes and points of interest, each as (kind, subject)), the search
time and the worker's peak RSS.

The script takes no options, reads only under ``bench/`` and imports latmap
from ``src/`` of its own checkout, so two checkouts' answers and times can
be compared case by case.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from goldens import DECOMP_EVEN8, DECOMP_NOSPLIT8, DECOMP_UNEVEN8  # noqa: E402
from latmap import LatticeDim, enumerate_paths  # noqa: E402
from latmap.codes import COMPLEMENT_BASE  # noqa: E402
from latmap.mapper import SearchBudget, map_function  # noqa: E402
from latmap.paths import ALL_MIRRORS  # noqa: E402

A, B, C, D = range(4)


def _not(v: int) -> int:
    return COMPLEMENT_BASE - v


def _f(*terms: set[int]) -> list[frozenset[int]]:
    return [frozenset(t) for t in terms]


SMALL = (
    ("ab + c", _f({A, B}, {C})),
    ("ab + cd'", _f({A, B}, {C, _not(D)})),
    ("a'b + bc + ac'", _f({_not(A), B}, {B, C}, {A, _not(C)})),
)
# (name, function, rows, cols, time limit in seconds or None)
CASES = (
    ("DECOMP_EVEN8", DECOMP_EVEN8, 6, 6, None),
    ("DECOMP_EVEN8", DECOMP_EVEN8, 4, 5, None),
    ("DECOMP_UNEVEN8", DECOMP_UNEVEN8, 4, 4, None),
    ("DECOMP_NOSPLIT8", DECOMP_NOSPLIT8, 4, 4, None),
    ("DECOMP_NOSPLIT8", DECOMP_NOSPLIT8, 6, 6, 30.0),
    *((name, fn, 7, cols, None) for cols in (7, 8) for name, fn in SMALL),
)
# a first run shorter than this is repeated, and the minimum of 3 reported
REPEAT_BELOW_S = 2.0


def _search(fn, rows: int, cols: int, limit) -> str:
    """Build the tables, time the mapping and describe it in one line, with
    the peak RSS of the process."""
    dim = LatticeDim(rows, cols)
    paths = enumerate_paths(dim)
    # the tables, each mask's canonical paths too, built before the clock
    paths.cell_masks, paths.through, paths.mirrors, paths.fixes
    for mask in range(ALL_MIRRORS + 1):
        paths.canonical[mask]
    times = []
    while len(times) < 3:
        start = time.perf_counter()
        result = map_function(fn, dim, SearchBudget(limit), paths)
        times.append(time.perf_counter() - start)
        if times[0] >= REPEAT_BELOW_S:
            break
    runs = "min of 3" if len(times) > 1 else "1 run"
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sol = result.solution
    answer = (result.status,) if sol is None else (
        result.status, sol.assignment.codes, tuple((e.kind, e.subject) for e in sol.poi))
    digest = hashlib.sha256(repr(answer).encode()).hexdigest()[:12]
    return (f"{result.status:<13} {digest}  search {min(times):8.3f} s, {runs:<8}"
            f"  peak RSS {rss:7.1f} MB")


def main() -> None:
    # a fresh process per case, so that each peak RSS is the case's own
    with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
        for name, fn, rows, cols, limit in CASES:
            line = pool.apply(_search, (fn, rows, cols, limit))
            label = f"{name} {rows}x{cols}" + ("" if limit is None else f" limit {limit:g} s")
            print(f"{label:<32} {line}", flush=True)


if __name__ == "__main__":
    main()
