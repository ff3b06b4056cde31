"""Regenerate ``data/pools.json``: the input pools of the map-* workloads.

    python3 bench/make_answers.py

The file records, for the code at the commit it was made at:

* ``negative``: every 4- to 8-term subset of the four 8-term study
  functions, with the mapper's verdict on 3x3, the witness grid when it
  is ``solved`` (checked here by the flood-fill oracle), and its wall
  time.  Runs compare their verdicts against these answers.
* ``solved``: ``generate_library`` entries on 3x3 and 3x4 with 5
  variables, with their mapping wall time.  Entries that do not map
  within ``CAP_S`` are listed as left out, with the reason.

The wall times only sort inputs into cost strata (``workloads.draw``);
they are not compared against anything.  Regenerating takes about ten minutes.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from pathlib import Path

import goldens
import oracle
from source import git_sha, import_latmap

OUT = Path(__file__).resolve().parent / "data" / "pools.json"

# Library draws: (rows, cols, first seed, trials).
LIBRARIES = ((3, 3, 10000, 400), (3, 4, 20000, 150))
NUM_VARS = 5
# A map-solved input must fit a run several times over.
CAP_S = 1.0


def negative_id(name: str, combo: tuple[int, ...]) -> str:
    return f"{name}/" + "".join(str(i + 1) for i in combo)


def negative_pool():
    """(id, terms) for every 4- to 8-term subset, in a fixed order."""
    for name, fn in goldens.STUDY8.items():
        for k in range(4, len(fn) + 1):
            for combo in itertools.combinations(range(len(fn)), k):
                yield negative_id(name, combo), [fn[i] for i in combo]


def main() -> int:
    latmap = import_latmap()
    from latmap.mapper import SOLVED, SearchBudget, map_function

    dim3 = latmap.LatticeDim(3, 3)
    paths3 = latmap.enumerate_paths(dim3)
    negative = []
    for nid, terms in negative_pool():
        t0 = time.perf_counter()
        r = map_function(terms, dim3, None, paths3)
        ms = (time.perf_counter() - t0) * 1e3
        row = {"id": nid, "verdict": r.status, "witness": None, "ref_ms": round(ms, 3)}
        if r.status == SOLVED:
            codes = list(r.solution.assignment.codes)
            if not oracle.grid_realizes(3, 3, codes, terms):
                raise SystemExit(f"{nid}: witness fails the oracle")
            row["witness"] = " ".join(map(str, codes))
        negative.append(row)
        print(nid, r.status, f"{ms:.1f} ms", file=sys.stderr)

    solved = {}
    for rows, cols, seed, trials in LIBRARIES:
        dim = latmap.LatticeDim(rows, cols)
        paths = latmap.enumerate_paths(dim)
        kept, left_out = [], []
        for e in latmap.generate_library(dim, NUM_VARS, trials, seed):
            t0 = time.perf_counter()
            r = map_function(e.function, dim, SearchBudget(time_limit=CAP_S), paths)
            ms = (time.perf_counter() - t0) * 1e3
            if ms > CAP_S * 1e3 or r.status != SOLVED:
                left_out.append(
                    {"trial": e.trial, "verdict": r.status, "ref_ms": round(ms, 3),
                     "reason": f"does not map within {CAP_S} s"}
                )
            else:
                kept.append([e.trial, round(ms, 3)])
        solved[f"{rows}x{cols}"] = {
            "seed": seed, "num_vars": NUM_VARS, "trials": trials,
            "kept": kept, "left_out": left_out,
        }
        print(f"{rows}x{cols}: kept {len(kept)}, left out {len(left_out)}", file=sys.stderr)

    OUT.write_text(json.dumps({
        "made_by": "bench/make_answers.py",
        "commit": git_sha(),
        "python": sys.version.split()[0],
        "negative": negative,
        "solved": solved,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
