"""Time this checkout's latmap against another revision's, in one process.

    python3 tools/ab.py REV

REV's ``src/`` is exported with ``git archive`` into a temporary directory.
Both latmap packages are loaded in one process: REV's first, whose
``sys.modules`` entries are then moved aside, and then this checkout's.
Each input runs on both sides in turn, 5 times each, and its time on a side
is the minimum of its runs; the inputs run in a seeded random order.  Both
sides must give the same status, grid codes and points of interest (each
event's kind and subject; a synthesis plan's lattices carry none), or for
an enumeration the same tuple of paths, or the script stops.

One line per group: the sum of REV's times, the sum of this checkout's,
their ratio (this checkout over REV) and the median of the per-input
ratios.  A second line gives each side's search counts over the group,
from one more untimed run of each input: the interior nodes opened
(``_node`` calls; REV must have ``_node``, as every revision since
1d89859 does), the leaves checked (``_finish`` calls) and the
share-memo entries (the sizes of each search's per-pool ``reach`` memos at
its end, summed; REV must keep one memo per pool, keyed first by the bound,
as every revision since the literal pool does), split into those filled for
a path with no fixed cell (bound ``full``) and the rest, and the share
tables each search built (the filled slots of its ``linked`` and
``untouched`` tables at its end, summed; a side may key them in a dict by
(term, pool), as revisions up to 87da623 do, or index them in a list by
pool).  So a change shows whether it explores fewer nodes or handles each
node faster, and what memo and tables it keeps for that.  For the
``enumerate`` group the second line gives the calls of the path walk,
``latmap.paths._extend``, instead.
The groups:

- ``negative``: the negatives of ``bench/data/pools.json`` whose reference
  time is at most 500 ms, mapped on 3x3;
- ``solved RxC``: each kept entry of a solved library pool, mapped on the
  pool's dimension;
- ``synth``: ``synthesize`` of SYNTH_EIGHT and SYNTH_Q on 3x3;
- ``decompose``: ``decompose_two`` of DECOMP_UNEVEN8 and DECOMP_NOSPLIT8
  on 3x3;
- ``enumerate``: ``enumerate_paths`` on 7x7 and 7x8, the sizes of the
  benchmark's ``forward`` workload, and on 8x6, an eight-row shape of
  25,686 paths, where the pocket test's fills span up to six rows; REV
  must hold paths as ``bytes``, as every revision since the
  one-buffer-per-length walk does.

The script reads only under ``bench/`` and writes nothing to the checkout.
"""

from __future__ import annotations

import importlib
import io
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
sys.dont_write_bytecode = True  # nothing is written to the checkout

import goldens  # noqa: E402  (bench/, on the path above)
import workloads  # noqa: E402

RUNS = 5
ORDER_SEED = 2022


def _load(src: Path):
    """Import the latmap package under ``src`` and move its modules out of
    ``sys.modules``, so that another latmap can be imported next."""
    sys.path.insert(0, str(src))
    try:
        latmap = importlib.import_module("latmap")
    finally:
        sys.path.remove(str(src))
    for name in [n for n in sys.modules if n == "latmap" or n.startswith("latmap.")]:
        del sys.modules[name]
    return latmap


def _solution(sol) -> tuple | None:
    """A mapping solution's grid codes and points of interest."""
    if sol is None:
        return None
    return sol.assignment.codes, tuple((ev.kind, ev.subject) for ev in sol.poi)


def _inputs(latmap) -> list[tuple[str, str, object]]:
    """``(group, id, call)`` for each input, where ``call()`` runs it on
    this side's latmap and returns its answer: status, grid codes and
    points of interest."""
    paths = {}

    def mapped(terms, rows, cols):
        if (rows, cols) not in paths:
            paths[rows, cols] = latmap.enumerate_paths(latmap.LatticeDim(rows, cols))
        ps = paths[rows, cols]
        dim = ps.dim

        def call():
            r = latmap.map_function(terms, dim, None, ps)
            return r.status, _solution(r.solution)
        return call

    def synth(terms):
        def call():
            plan = latmap.synthesize(terms, latmap.LatticeDim(3, 3))
            return plan is not None, plan and [p.assignment.codes for p in plan.lattices]
        return call

    def enumerate_(rows, cols):
        def call():
            return latmap.enumerate_paths(latmap.LatticeDim(rows, cols)).paths
        return call

    def decompose(terms):
        def call():
            out = latmap.decompose_two(terms, latmap.LatticeDim(3, 3))
            r = out.result
            parts = r and (r.indices_a, _solution(r.solution_a), _solution(r.solution_b))
            return out.status, parts
        return call

    pools = workloads.load_pools()
    inputs = [
        ("negative", row["id"], mapped(workloads.negative_terms(row["id"]), 3, 3))
        for row in pools["negative"]
        if row["ref_ms"] <= workloads.NEGATIVE_MAX_MS
    ]
    for name, pool in pools["solved"].items():
        rows, cols = map(int, name.split("x"))
        dim = latmap.LatticeDim(rows, cols)
        for trial, _ in pool["kept"]:
            (entry,) = latmap.generate_library(dim, pool["num_vars"], 1, pool["seed"] + trial)
            call = mapped(entry.function, rows, cols)
            inputs.append((f"solved {name}", f"{name}/t{trial}", call))
    for name in ("SYNTH_EIGHT", "SYNTH_Q"):
        inputs.append(("synth", name, synth(getattr(goldens, name))))
    for name in ("DECOMP_UNEVEN8", "DECOMP_NOSPLIT8"):
        inputs.append(("decompose", name, decompose(getattr(goldens, name))))
    for rows, cols in ((7, 7), (7, 8), (8, 6)):
        inputs.append(("enumerate", f"{rows}x{cols}", enumerate_(rows, cols)))
    return inputs


def _filled(table) -> int:
    """The filled slots of a share table: a dict's entries, or a list's
    slots that are not None."""
    return sum(v is not None for v in (table.values() if isinstance(table, dict) else table))


def _count(latmap, inputs) -> dict[str, tuple[int, ...]]:
    """Interior nodes opened, leaves checked, share-memo entries kept for
    bound ``full`` and for other bounds, ``linked`` and ``untouched`` tables
    built, and path-walk calls made by each group's inputs on ``latmap``,
    counted by wrapping its search's methods and ``paths._extend`` for one
    run of each input; they are put back after it."""
    search, paths = latmap.mapper._Search, latmap.paths
    calls = dict.fromkeys(("_node", "_finish", "_extend"), 0)
    searches = {}  # every search of the input, by id
    methods = {name: getattr(search, name) for name in ("_node", "_finish")}
    for name, method in methods.items():
        def counted(self, *args, _name=name, _method=method):
            calls[_name] += 1
            searches[id(self)] = self
            return _method(self, *args)
        setattr(search, name, counted)
    extend = paths._extend

    def walked(*args):
        calls["_extend"] += 1
        return extend(*args)
    paths._extend = walked  # the walk recurses through the module's name
    counts: dict[str, tuple[int, ...]] = {}
    try:
        for group, _, call in inputs:
            calls.update(dict.fromkeys(calls, 0))
            searches.clear()
            call()
            nodes, leaves, untouched, rest, linked, bare, walks = counts.get(group, (0,) * 7)
            for s in searches.values():
                for memo in s.reach:
                    full = sum(key[0] == s.full for key in memo)
                    untouched += full
                    rest += len(memo) - full
                linked += _filled(s.linked)
                bare += _filled(s.untouched)
            counts[group] = (nodes + calls["_node"], leaves + calls["_finish"], untouched, rest,
                             linked, bare, walks + calls["_extend"])
    finally:
        for name, method in methods.items():
            setattr(search, name, method)
        paths._extend = extend
    return counts


def _time(call) -> tuple[float, object]:
    start = time.perf_counter()
    answer = call()
    return time.perf_counter() - start, answer


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit("usage: python3 tools/ab.py REV")
    rev = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
            archive.extractall(tmp)
        base = _load(Path(tmp) / "src")
    change = _load(ROOT / "src")
    pairs = list(zip(_inputs(base), _inputs(change)))
    counts = [_count(side, [pair[k] for pair in pairs]) for k, side in enumerate((base, change))]
    random.Random(ORDER_SEED).shuffle(pairs)
    times: dict[str, list[tuple[float, float]]] = {}
    for (group, input_id, call_base), (_, _, call_change) in pairs:
        best = [float("inf"), float("inf")]
        answers = [None, None]
        for run in range(RUNS):
            for side in ((0, 1) if run % 2 == 0 else (1, 0)):
                t, answers[side] = _time((call_base, call_change)[side])
                best[side] = min(best[side], t)
        if answers[0] != answers[1]:
            sys.exit(f"{input_id}: {rev} answers {answers[0]}, this checkout {answers[1]}")
        times.setdefault(group, []).append((best[0], best[1]))
    for group in sorted(times):
        rows = times[group]
        a, b = sum(t for t, _ in rows), sum(t for _, t in rows)
        median = statistics.median(tb / ta for ta, tb in rows)
        print(f"{group:<12} {len(rows):4d} inputs  {rev} {a:8.3f} s  this {b:8.3f} s"
              f"  ratio {b / a:.3f}  median per input {median:.3f}")
        (nodes_a, leaves_a, full_a, rest_a, linked_a, bare_a, walks_a), (
            nodes_b, leaves_b, full_b, rest_b, linked_b, bare_b, walks_b) = (
            side[group] for side in counts)
        if group == "enumerate":
            print(f"{'':<12} walk calls  {rev} {walks_a}  this {walks_b}")
            continue
        print(f"{'':<12} interior nodes  {rev} {nodes_a}  this {nodes_b}"
              f"  leaves checked  {rev} {leaves_a}  this {leaves_b}"
              f"  share memo (full + rest)  {rev} {full_a} + {rest_a}"
              f"  this {full_b} + {rest_b}"
              f"  tables (linked + untouched)  {rev} {linked_a} + {bare_a}"
              f"  this {linked_b} + {bare_b}")


if __name__ == "__main__":
    main()
