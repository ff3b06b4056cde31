import functools
import math
import operator
import random
import sys
import time
from itertools import combinations, count, product
from types import SimpleNamespace

import pytest

from latmap.codes import (
    COMPLEMENT_BASE,
    CONST_ONE,
    CONST_ZERO,
    absorb,
    function_mask,
    is_complement_code,
    literal_masks,
    normalize_term,
    table_variables,
    variable_of,
)
from latmap.decompose import decompose_two
from latmap.grid import LatticeDim
from latmap import mapper
from latmap.mapper import (
    INCONCLUSIVE,
    NO_SOLUTION,
    SOLVED,
    OutOfTime,
    PoiEvent,
    SearchBudget,
    _Search,
    arrangement_count,
    arrangements,
    map_function,
)
from latmap.paths import ALL_MIRRORS, PathSet, enumerate_paths
from latmap.solver import LatticeAssignment, generate_library, lattice_table, verify_witness

from lattice_goldens import (
    DECOMP_EVEN8,
    DECOMP_NOSPLIT8,
    DECOMP_UNEVEN8,
    MAP_EX1,
    MAP_EX2,
    MAP_EX3,
    MAP_EX4,
    SYNTH_EIGHT,
    f,
)

DIM3 = LatticeDim(3, 3)

# An 8-term function (DECOMP_EVEN8) whose exhaustive 3x3 search is a
# no-solution of 887 interior nodes, about 0.02 s.
HARD = f({998, 996, 1, 1000}, {3, 1, 4}, {3, 996, 999}, {998, 996, 999},
         {3, 1, 1000}, {3, 0, 4}, {3, 0, 999}, {998, 3})

# 1,000 six-literal terms over 9 variables, each longer than the longest
# 3x3 path (5 cells), so a 3x3 search defers every one of them.
DEFERRED = [
    frozenset(v if s else COMPLEMENT_BASE - v for v, s in zip(vs, signs))
    for vs in combinations(range(9), 6) for signs in product((0, 1), repeat=6)
][:1000]


@pytest.mark.parametrize("fn", [MAP_EX1, MAP_EX2, MAP_EX3, MAP_EX4])
def test_walkthrough_examples_solve_and_verify(fn):
    r = map_function(fn, DIM3)
    assert r.status == SOLVED
    assert verify_witness(r.solution.assignment, fn)
    assert len(r.solution.order) == len(fn)


# First solutions of the search without mirror-symmetry breaking:
# (function, grid codes, order, POI as (kind, subject)).  Breaking the
# symmetry only skips subtrees without a solution, so they stay the same.
FIRST_SOLUTIONS = [
    (MAP_EX1, (997, 1000, 100, 997, 5, 4, 999, 1000, 998), (0, 1, 2),
     [("saved-escape-path", 0), ("covered-escape-multi-option", 2),
      ("zero-on-lattice-var", 2)]),
    (MAP_EX2, (4, 996, 0, 4, 996, 0, 997, 999, 4), (0, 1, 2, 3),
     [("saved-escape-path", 2), ("placed-by-xxprime", 0),
      ("placed-by-xxprime", 2), ("placed-by-xxprime", 3),
      ("path-saved-by-xxprime", 3), ("path-saved-by-xxprime", 4),
      ("path-saved-by-xxprime", 5), ("path-saved-by-xxprime", 7),
      ("path-saved-by-xxprime", 8), ("term-hiding", 1)]),
    (MAP_EX3, (1, 997, 996, 1000, 998, 996, 4, 0, 996), (0, 1, 2, 3),
     [("covered-escape-multi-option", 3), ("placed-by-xxprime", 0),
      ("placed-by-xxprime", 2), ("placed-by-xxprime", 3),
      ("path-saved-by-xxprime", 3), ("path-saved-by-xxprime", 8)]),
    (MAP_EX4, (3, 1000, 995, 995, 4, 997, 1000, 4, 999), (0, 1, 2, 3),
     [("covered-escape-multi-option", 1), ("saved-escape-path", 2),
      ("placed-by-xxprime", 0), ("placed-by-xxprime", 3),
      ("path-saved-by-xxprime", 7), ("term-hiding", 1)]),
    # equal-length terms on different literals share their arrangements
    (f({0, 1}, {2, 3}, {4, 997}), (0, 2, 4, 0, 2, 4, 1, 3, 997), (0, 1, 2),
     [("covered-escape-multi-option", 0), ("covered-escape-multi-option", 1),
      ("covered-escape-multi-option", 2)]),
]


@pytest.mark.parametrize("fn,codes,order,poi", FIRST_SOLUTIONS)
def test_walkthrough_first_solutions_pinned(fn, codes, order, poi):
    sol = map_function(fn, DIM3).solution
    assert sol.assignment.codes == codes
    assert sol.order == order
    assert sol.poi == tuple(PoiEvent(kind, subject) for kind, subject in poi)


# First solutions where mirror-symmetry breaking prunes below the root, as
# recorded before it did: the search houses a term on a path that a mirror
# maps onto itself (a 3x3 column, the 3x4 left column (0, 4, 8)) and skips
# mirrored paths below it.  (function, dim, grid codes, order, POI)
BELOW_ROOT = [
    ([DECOMP_EVEN8[i - 1] for i in (4, 5, 7, 8)], DIM3,
     (1, 996, 999, 3, 998, 3, 1000, 999, 0), (0, 1, 2, 3),
     [("covered-escape-multi-option", 3), ("placed-by-xxprime", 0),
      ("placed-by-xxprime", 1), ("path-saved-by-xxprime", 3),
      ("term-hiding", 3)]),
    ([DECOMP_EVEN8[i - 1] for i in (2, 3, 4, 5)], DIM3,
     (3, 996, 998, 1, 3, 996, 1000, 4, 999), (0, 1, 2, 3),
     [("covered-escape-multi-option", 3), ("placed-by-xxprime", 0),
      ("placed-by-xxprime", 1), ("path-saved-by-xxprime", 1),
      ("path-saved-by-xxprime", 6), ("path-saved-by-xxprime", 7)]),
    ([DECOMP_EVEN8[i - 1] for i in (3, 4, 5, 7)], DIM3,
     (996, 0, 1, 999, 3, 3, 998, 999, 1000), (0, 1, 2, 3),
     [("saved-escape-path", 0), ("saved-escape-path", 3),
      ("placed-by-xxprime", 0), ("placed-by-xxprime", 2),
      ("placed-by-xxprime", 3), ("path-saved-by-xxprime", 5),
      ("path-saved-by-xxprime", 6), ("path-saved-by-xxprime", 8)]),
    ([DECOMP_EVEN8[i - 1] for i in (2, 4, 5, 6, 7)], DIM3,
     (3, 0, 998, 1, 3, 996, 1000, 4, 999), (0, 1, 2, 3, 4),
     [("saved-escape-path", 2), ("saved-escape-path", 4),
      ("placed-by-xxprime", 0), ("placed-by-xxprime", 1),
      ("placed-by-xxprime", 2), ("placed-by-xxprime", 3),
      ("path-saved-by-xxprime", 4), ("path-saved-by-xxprime", 6),
      ("path-saved-by-xxprime", 7), ("term-hiding", 4)]),
    # generate_library(LatticeDim(3, 4), 5, 150, 20000), trials 15 and 47
    (f({0}, {997}), LatticeDim(3, 4),
     (0, 997, 100, 100, 0, 997, 100, 100, 0, 997, 100, 100), (0, 1),
     [("covered-escape-multi-option", 0), ("zero-on-lattice-var", 2),
      ("zero-on-lattice-var", 3), ("zero-on-lattice-var", 6),
      ("zero-on-lattice-var", 7), ("zero-on-lattice-var", 10),
      ("zero-on-lattice-var", 11)]),
    (f({1}, {996}, {0, 3, 998}), LatticeDim(3, 4),
     (1, 996, 0, 100, 1, 996, 3, 100, 1, 996, 998, 100), (0, 1, 2),
     [("covered-escape-multi-option", 0), ("covered-escape-multi-option", 1),
      ("zero-on-lattice-var", 3), ("zero-on-lattice-var", 7),
      ("zero-on-lattice-var", 11)]),
    # four 2-literal terms on different literals, one arrangement list
    (f({1, 1000}, {0, 996}, {4, 1000}, {4, 997}), DIM3,
     (1, 0, 4, 1000, 101, 4, 1000, 996, 997), (0, 1, 2, 3),
     [("covered-escape-multi-option", 0), ("saved-escape-path", 3),
      ("placed-by-xxprime", 0), ("placed-by-xxprime", 1),
      ("placed-by-xxprime", 2), ("path-saved-by-xxprime", 4),
      ("path-saved-by-xxprime", 6)]),
]


@pytest.mark.parametrize("fn,dim,codes,order,poi", BELOW_ROOT)
def test_first_solutions_below_root_pinned(fn, dim, codes, order, poi):
    sol = map_function(fn, dim).solution
    assert sol.assignment.codes == codes
    assert sol.order == order
    assert sol.poi == tuple(PoiEvent(kind, subject) for kind, subject in poi)
    assert verify_witness(sol.assignment, fn)


@pytest.mark.parametrize("noptions", range(1, 6))
def test_arrangements_match_their_definition(noptions):
    """Every rank tuple over the free cells that holds the needed ranks (bit
    r for rank r), in lexicographic order, and as many as
    ``arrangement_count`` says; the last option (constant 1) is never
    needed."""
    literals = range(noptions - 1)
    for nfree in range(7):
        for size in range(len(literals) + 1):
            for ranks in map(set, combinations(literals, size)):
                need = sum(1 << r for r in ranks)
                want = [r for r in product(range(noptions), repeat=nfree) if ranks <= set(r)]
                assert list(arrangements((noptions, nfree, need))) == want
                assert arrangement_count((noptions, nfree, need)) == len(want)


def test_arrangements_are_one_shared_table():
    """Every search reads a narrow key's list from one table: the same
    tuples in the same order, built once."""
    key = (4, 3, 0b101)
    listed = arrangements(key)
    assert isinstance(listed, tuple)
    assert arrangements(key) is listed


def test_search_state_is_not_kept_on_the_path_set():
    """A path set outlives its searches, so it holds only the tables of
    its own paths; whatever a search builds goes with the search."""
    ps = PathSet(DIM3, enumerate_paths(DIM3).paths)
    assert map_function(HARD, DIM3, None, ps).status == NO_SOLUTION
    assert set(vars(ps)) == {
        "dim", "paths", "cell_masks", "through", "mirrors", "fixes", "canonical"}


def test_single_variable_on_2x2():
    r = map_function(f({0}), LatticeDim(2, 2))
    assert r.status == SOLVED
    assert verify_witness(r.solution.assignment, f({0}))


def test_too_many_variables_is_no_solution():
    """Nine cells can never depend on ten distinct variables."""
    ten = [frozenset({v}) for v in range(10)]
    r = map_function(ten, DIM3)
    assert r.status == NO_SOLUTION


def test_wide_support_answers_at_once():
    """Twenty single-literal terms fail the 2x2 support check; building
    their 2^20-row truth tables must not take seconds."""
    t0 = time.monotonic()
    r = map_function([frozenset({v}) for v in range(20)], LatticeDim(2, 2))
    assert r.status == NO_SOLUTION
    assert time.monotonic() - t0 < 1.0


def test_too_many_variables_for_a_truth_table_rejected():
    """21 variables would need 2^21-bit truth tables; the mapper refuses
    them before building any."""
    with pytest.raises(ValueError, match="21 variables"):
        map_function([frozenset({v}) for v in range(21)], LatticeDim(2, 2))


@pytest.mark.parametrize("dim", [LatticeDim(2, 2), DIM3])
def test_empty_function_maps_to_zero_grid(dim):
    """Constant 0: every cell is zeroed and every path cancelled."""
    sol = map_function([], dim).solution
    assert sol.assignment.codes == (100,) * dim.cells
    assert sol.order == ()
    zeroed = range(dim.cells)
    assert sol.poi == tuple(PoiEvent("zero-on-lattice-var", c) for c in zeroed)


def test_contradictory_term_housed_by_scan():
    """x x' has an all-zero mask, so only the path scan rules paths out for
    it; answer as recorded before the mask pre-test."""
    fn = [frozenset({0, 1000}), frozenset({1})]
    sol = map_function(fn, LatticeDim(2, 2)).solution
    assert sol.assignment.codes == (0, 1, 1000, 1)
    assert sol.order == (0, 1)
    assert sol.poi == ()


def test_term_longer_than_longest_path_fails():
    r = map_function(f({0, 1, 2}), LatticeDim(2, 2))
    assert r.status == NO_SOLUTION


def test_deterministic():
    a = map_function(MAP_EX2, DIM3)
    b = map_function(MAP_EX2, DIM3)
    assert a.solution.assignment == b.solution.assignment
    assert a.solution.poi == b.solution.poi
    assert a.solution.order == b.solution.order


def test_time_budget_yields_inconclusive(monkeypatch):
    """The mapper's clock moves 1 ms at every read, whatever the machine's
    speed: HARD reads it about 2,000 times, so its 10 ms run out mid-search."""
    clock = SimpleNamespace(monotonic=count(0.0, 0.001).__next__)
    monkeypatch.setattr(mapper, "time", clock)
    r = map_function(HARD, DIM3, SearchBudget(time_limit=0.01))
    assert r.status == INCONCLUSIVE


def test_unbudgeted_negative_is_definite():
    assert map_function(HARD, DIM3).status == NO_SOLUTION


def test_deadline_respected_on_large_grid():
    """On 5x5 a long path has more arrangements than any list could hold;
    it is walked one cell at a time, so the deadline still ends the search
    on time."""
    t0 = time.monotonic()
    r = map_function(HARD, LatticeDim(5, 5), SearchBudget(time_limit=0.3))
    assert r.status == INCONCLUSIVE
    assert time.monotonic() - t0 < 1.0


def test_time_limit_respected_when_reporting_on_7x8():
    """On 7x8 about 24,000 paths cross each cell; the points of interest of
    a found grid must not scan them per literal cell, or the answer comes
    long after the time limit."""
    dim = LatticeDim(7, 8)
    paths = enumerate_paths(dim)
    t0 = time.monotonic()
    r = map_function(HARD, dim, SearchBudget(time_limit=3), paths)
    assert time.monotonic() - t0 < 30.0
    if r.status == SOLVED:
        assert verify_witness(r.solution.assignment, HARD)
    else:
        assert r.status == INCONCLUSIVE


def test_deferring_a_thousand_terms_does_not_recurse():
    """The search loops over deferred terms, so a term list longer than
    the interpreter's recursion limit, every term deferred, still ends
    no-solution."""
    assert len(DEFERRED) >= sys.getrecursionlimit()
    assert map_function(DEFERRED, DIM3).status == NO_SOLUTION


def test_deadline_past_on_entering_the_root_is_inconclusive(monkeypatch):
    """A search whose deadline has passed when it starts opens no node."""
    monkeypatch.setattr(SearchBudget, "deadline", lambda self: time.monotonic() - 1)
    r = map_function(MAP_EX1, DIM3, SearchBudget(time_limit=60))
    assert (r.status, r.solution) == (INCONCLUSIVE, None)


def test_time_cut_ends_the_search_at_once(monkeypatch):
    """A clock that runs out at its k-th check: on HARD for k every 26
    checks from the first, and on terms 1-4 of DECOMP_EVEN8, whose search
    walks a wide pair, at every one of its checks; each input's checks are
    counted on an uncut run.  Cuts land at node entries, in probe loops of
    narrow pairs and inside walks of wide ones.  Each answers inconclusive,
    and after the cut no placement is listed, no node opened and no leaf
    checked."""
    clock = {"checks": 0, "k": math.inf, "cut": False, "after": 0, "walks": 0}
    cut_in = set()

    def check_time(self):
        clock["checks"] += 1
        if clock["checks"] >= clock["k"]:
            if not clock["cut"]:
                clock["cut"] = True
                cut_in.add(sys._getframe(1).f_code.co_name)
            raise OutOfTime

    monkeypatch.setattr(_Search, "_check_time", check_time)
    for name in ("_placements", "_open", "_finish"):
        def counted(self, *args, _method=getattr(_Search, name)):
            clock["after"] += clock["cut"]
            return _method(self, *args)
        monkeypatch.setattr(_Search, name, counted)

    def walk(self, *args, _method=_Search._walk):
        clock["walks"] += 1
        return _method(self, *args)

    monkeypatch.setattr(_Search, "_walk", walk)
    cases = []
    for fn, step in ((HARD, 26), (DECOMP_EVEN8[:4], 1)):
        clock.update(checks=0, walks=0)
        assert map_function(fn, DIM3, SearchBudget(time_limit=60)).status == NO_SOLUTION
        cases.append((fn, range(1, clock["checks"] + 1, step)))
    assert clock["walks"] > 0  # the second input walks a pair
    for fn, ks in cases:
        for k in ks:
            clock.update(checks=0, k=k, cut=False)
            r = map_function(fn, DIM3, SearchBudget(time_limit=60))
            assert (r.status, r.solution, clock["after"]) == (INCONCLUSIVE, None, 0), k
    assert cut_in == {"_try_terms", "_node", "_probes", "_walk"}


def _mapped(monkeypatch, walk_from, fn, dim, paths):
    """The answer of one mapping with the given cut-over, the number of
    interior nodes it opens (``_node`` calls: nodes that are not leaves of
    the last term), the placements that open them in order, as (term, path,
    ranks), the number of leaves it checks and the number of pairs it
    walks.  The patches are undone and the shared arrangement table is
    emptied after it, since a raised cut-over fills it with wide lists."""
    monkeypatch.setattr(mapper, "WALK_FROM", walk_from)
    calls = {"_node": 0, "_finish": 0, "_walk": 0}
    for name in calls:
        def counted(self, *args, _name=name, _method=getattr(_Search, name)):
            calls[_name] += 1
            return _method(self, *args)
        monkeypatch.setattr(_Search, name, counted)
    placed = []

    def opened(self, ti, pi, free, ranks, *args, _method=_Search._open):
        if ti + 1 < len(self.f):
            placed.append((ti, pi, ranks))
        return _method(self, ti, pi, free, ranks, *args)

    monkeypatch.setattr(_Search, "_open", opened)
    r = map_function(fn, dim, None, paths)
    monkeypatch.undo()
    mapper.arrangements.cache_clear()
    sol = r.solution
    answer = (r.status, None) if sol is None else (
        r.status, sol.assignment.codes, sol.order, sol.poi)
    return answer, calls["_node"], placed, calls["_finish"], calls["_walk"]


@pytest.mark.parametrize("dim,seed", [(DIM3, 1800), (LatticeDim(3, 4), 1801),
                                      (LatticeDim(4, 4), 1802)])
def test_walk_and_probe_loop_agree(monkeypatch, dim, seed):
    """Walking every pair (cut-over 0) and probing every arrangement (a
    cut-over no pair reaches) give the same answers, open the same interior
    nodes with the same placements, in the same order, and check the same
    number of leaves.  On 4x4, where probing every pair would list millions
    of arrangements, cut-over 0 is compared with the default one, which
    walks pairs of a 7-term library function and of terms 1, 2, 3, 4 and 8
    of DECOMP_NOSPLIT8."""
    paths = enumerate_paths(dim)
    cases = [e.function for e in generate_library(dim, 5, 10, seed)]
    probe_from = 10**9
    if dim == DIM3:
        cases.append(HARD)
    elif dim == LatticeDim(4, 4):
        cases.append([DECOMP_NOSPLIT8[i - 1] for i in (1, 2, 3, 4, 8)])
        probe_from = mapper.WALK_FROM
    walks = 0
    for fn in cases:
        walked = _mapped(monkeypatch, 0, fn, dim, paths)
        probed = _mapped(monkeypatch, probe_from, fn, dim, paths)
        assert walked[:4] == probed[:4], fn
        walks += probed[4]
    if probe_from == mapper.WALK_FROM:
        assert walks > 0  # the default run walks some pairs, too


def test_walk_yields_what_the_probes_pass(monkeypatch):
    """On each pair the search lists arrangements for, on HARD, on terms 1,
    2 and 6 of DECOMP_EVEN8 and on library maps of 3x3 and 3x4, both the
    walk and the probes run, and at every term, the last included, they
    yield the same ``(ranks, bounds)`` items in the same order."""
    seen = {"above": 0, "last": 0}

    def both(self, ti, pi, free, key, unset, _walk=_Search._walk, _probes=_Search._probes):
        walked = list(_walk(self, ti, pi, free, key[2]))
        probed = list(_probes(self, ti, pi, free, key, unset))
        assert walked == probed, (self.f, ti, pi)
        seen["last" if ti + 1 == len(self.f) else "above"] += bool(probed)
        return iter(probed)

    def walk(self, ti, pi, free, need):
        key = len(self.options[ti]), len(free), need
        return both(self, ti, pi, free, key, self.unset & ~self.cell_masks[pi])

    monkeypatch.setattr(_Search, "_probes", both)
    monkeypatch.setattr(_Search, "_walk", walk)
    try:
        assert map_function(HARD, DIM3).status == NO_SOLUTION
        assert map_function([DECOMP_EVEN8[i - 1] for i in (1, 2, 6)], DIM3).status == SOLVED
        for dim, seed in ((DIM3, 2100), (LatticeDim(3, 4), 2101)):
            paths = enumerate_paths(dim)
            for e in generate_library(dim, 5, 8, seed):
                assert map_function(e.function, dim, None, paths).status == SOLVED
    finally:
        mapper.arrangements.cache_clear()
    assert min(seen.values()) > 0, seen


def test_last_term_reach_rejects_only_failing_leaves(monkeypatch):
    """At the last term a probe takes the reach test, and it rejects only
    leaves that fail exactly.  A leaf passes exactly when no path it
    completes is a live escape and the bounds of the paths with no unset
    cell, ORed, equal the function, since ``_finish`` zeroes the others.
    Each arrangement of each narrow last-term pair the search lists is
    checked, on library functions of 2x2, 2x3, 3x3 and 3x4, on HARD, on
    terms 1, 2 and 6 and terms 1, 2, 3, 4 and 8 of DECOMP_NOSPLIT8 and on
    terms 2, 3, 4 and 5 of DECOMP_EVEN8 on 3x3.  A rejection counts when no
    completed path is a live escape, so the reach test made it; the last
    input gives some."""
    seen = {"passing": 0, "rejected": 0}

    def probes(self, ti, pi, free, key, unset, _method=_Search._probes):
        if ti + 1 == len(self.f):
            placed = self.unset & ~unset
            done = [pj for pj, cells in enumerate(self.cell_masks)
                    if cells & placed and not cells & unset and pj != pi]
            complete = [pj for pj, cells in enumerate(self.cell_masks) if not cells & unset]
            for ranks in arrangements(key):
                bounds = self.path_ub[:]
                for cell, rank in zip(free, ranks):
                    for pj in self.through[cell]:
                        bounds[pj] &= self.option_masks[ti][rank]
                escape = any(bounds[pj] and all(bounds[pj] & ~t for t in self.term_mask)
                             for pj in done)
                cover = functools.reduce(operator.or_, map(bounds.__getitem__, complete), 0)
                exact = not escape and cover == self.f_mask
                passes = self._passes(bounds, done, unset, self.pool[ti + 1])
                assert passes or not exact, (self.f, pi, ranks)
                seen["passing"] += exact
                seen["rejected"] += not passes and not escape
        return _method(self, ti, pi, free, key, unset)

    monkeypatch.setattr(_Search, "_probes", probes)
    for dim, seed in ((LatticeDim(2, 2), 2500), (LatticeDim(2, 3), 2501),
                      (DIM3, 2502), (LatticeDim(3, 4), 2503)):
        paths = enumerate_paths(dim)
        for e in generate_library(dim, 4, 8, seed):
            assert map_function(e.function, dim, None, paths).status == SOLVED
    assert map_function(HARD, DIM3).status == NO_SOLUTION
    for fn, terms in ((DECOMP_NOSPLIT8, (1, 2, 6)), (DECOMP_NOSPLIT8, (1, 2, 3, 4, 8)),
                      (DECOMP_EVEN8, (2, 3, 4, 5))):
        map_function([fn[i - 1] for i in terms], DIM3)
    assert min(seen.values()) > 0, seen


def test_pair_bound_opens_the_same_interior_nodes(monkeypatch):
    """Skipping the pairs whose bound fails gives the same answers and
    opens the same interior nodes with the same placements, in the same
    order, as a bound that passes every pair, and it checks no more leaves:
    on library functions of 2x2, 2x3, 3x2 and 3x3 and on HARD.  The bound
    skips pairs of the pool (none on 2x2 or 2x3, where every pair passes)."""
    skipped = []

    def may_pass(self, *args, _method=_Search._may_pass):
        passes = _method(self, *args)
        skipped.append(not passes)
        return passes

    for dim, seed in ((LatticeDim(2, 2), 1900), (LatticeDim(2, 3), 1901),
                      (LatticeDim(3, 2), 1902), (DIM3, 1903)):
        paths = enumerate_paths(dim)
        cases = [e.function for e in generate_library(dim, 4, 12, seed)]
        if dim == DIM3:
            cases.append(HARD)
        for fn in cases:
            monkeypatch.setattr(_Search, "_may_pass", lambda self, *args: True)
            unbounded = _mapped(monkeypatch, mapper.WALK_FROM, fn, dim, paths)
            monkeypatch.setattr(_Search, "_may_pass", may_pass)
            bounded = _mapped(monkeypatch, mapper.WALK_FROM, fn, dim, paths)
            assert bounded[:3] == unbounded[:3], (dim, fn)
            assert bounded[3] <= unbounded[3], (dim, fn)
    assert any(skipped)


def _pool_literals(search, pool):
    """The literals of pool ``pool``: those of the terms from the first
    whose pool it numbers on.  Equal pools, and only those, share a number,
    and pool 0 holds every literal."""
    sets = [frozenset().union(*search.f[i:]) for i in range(len(search.f) + 1)]
    assert all((search.pool[i] == search.pool[j]) == (sets[i] == sets[j])
               for i in range(len(sets)) for j in range(len(sets)))
    assert search.pool[0] == 0
    return sets[search.pool.index(pool)]


def _popcount_share(search, b, u, pool):
    """A path's share by its definition: the OR of b & T over the terms T
    whose literals outside the literal set ``pool`` each hold wherever b
    does, with ``popcount(b & T) << u >= popcount(b)``."""
    masks = literal_masks(search.var_order)
    size = b.bit_count()
    return functools.reduce(operator.or_, [
        b & t for t, term in zip(search.term_mask, search.f)
        if (b & t).bit_count() << u >= size
        and all(not b & ~masks[v] for v in term - pool)
    ], 0)


def _cube_or_most(search, ti, b, k, u, pool):
    """``_Search._share`` for k > 0 by its definition: the OR, over each cube
    c of at most k of term ``ti``'s literals, of the share of b & c under
    the literal set ``pool``, or of b & c when u is 0 and b & c is no live
    escape."""
    literals = search.option_masks[ti][:-1]
    most = 0
    for n in range(min(k, len(literals)) + 1):
        for cube in combinations(literals, n):
            bc = functools.reduce(operator.and_, cube, b)
            if u:
                most |= _popcount_share(search, bc, u, pool)
            elif not search._escapes([bc], [0]):
                most |= bc
    return most


def test_most_in_closed_form_is_the_or_over_cubes(monkeypatch):
    """``_share`` in closed form equals its definition on each of its
    calls: the popcount and pool test for k = 0, and for k > 0 the OR over
    every cube.  For library functions of 2x2, 2x3, 3x2, 3x3 and 3x4, for
    HARD and for every subset ``decompose_two`` maps of DECOMP_UNEVEN8.
    The calls include pools that lack some literal, and those with k > 0
    include completed paths (u = 0) and k at least the term's length.
    Callers ask ``_share`` again for a memoized share, so each distinct
    call, by function and arguments, is checked once."""
    seen = {"share": 0, "pooled": 0, "placed": 0, "completed": 0, "whole term": 0,
            "untouched": 0}
    checked = set()

    def share(self, b, u, pool, ti=0, k=0, _method=_Search._share):
        got = _method(self, b, u, pool, ti, k)
        call = (tuple(self.f), b, u, pool, ti, k)
        if call in checked:
            return got
        checked.add(call)
        literals = _pool_literals(self, pool)
        seen["pooled"] += literals != _pool_literals(self, 0)
        seen["untouched"] += b == self.full
        if k:
            assert got == _cube_or_most(self, ti, b, k, u, literals), (self.f, ti, b, k, u)
            seen["placed"] += 1
            seen["completed"] += not u
            seen["whole term"] += k >= len(self.f[ti])
        else:
            assert got == _popcount_share(self, b, u, literals), (self.f, b, u, pool)
            seen["share"] += 1
        return got

    monkeypatch.setattr(_Search, "_share", share)
    for dim, seed in ((LatticeDim(2, 2), 2000), (LatticeDim(2, 3), 2001),
                      (LatticeDim(3, 2), 2002), (DIM3, 2003),
                      (LatticeDim(3, 4), 2004)):
        paths = enumerate_paths(dim)
        for e in generate_library(dim, 4, 12, seed):
            assert map_function(e.function, dim, None, paths).status == SOLVED
    assert map_function(HARD, DIM3).status == NO_SOLUTION
    decompose_two(DECOMP_UNEVEN8, DIM3)
    assert min(seen.values()) > 0, seen


def _generic_share(search, b, u, pool, ti, k):
    """``_Search._share``'s loop over the ``_linked`` table, for any bound b."""
    size = b.bit_count().bit_length()
    reach = 0
    for t, s, out in search._linked(ti, pool):
        bt = b & t
        if bt and size - bt.bit_count().bit_length() <= u + (
            k and min(k, size - (b & s).bit_count().bit_length())
        ) and not b & out:
            reach |= bt
    return reach


def test_untouched_share_matches_the_generic_loop():
    """The share of a path with no fixed cell (b = ``full``), which
    ``_share`` takes in closed form without a ``_linked`` table, equals the
    generic loop on seeded random functions of 1 to 5 variables: for every
    pool, every term placed, k from 0 to one past that term's length and u
    from 0 to the longest term's length, each on a fresh search.  Each
    function also holds an xx' term and the empty term, which
    ``map_function`` takes as given where ``parse_function`` would have
    normalized them."""
    rng = random.Random(2400)
    paths = enumerate_paths(LatticeDim(2, 2))
    checked = 0
    for _ in range(30):
        nv = rng.randint(1, 5)
        literals = [*range(nv), *(COMPLEMENT_BASE - v for v in range(nv))]
        x = rng.randrange(nv)
        fn = [frozenset(rng.sample(literals, rng.randint(1, nv)))
              for _ in range(rng.randint(1, 5))]
        fn += [frozenset({x, COMPLEMENT_BASE - x}), frozenset()]
        rng.shuffle(fn)
        probe = _Search(fn, paths, None)
        for pool, ti in product(range(len(probe.pools)), range(len(fn))):
            for k, u in product(range(len(fn[ti]) + 2), range(probe.longest + 1)):
                search = _Search(fn, paths, None)
                got = search._share(search.full, u, pool, ti, k)
                assert not search.linked, (fn, u, pool, ti, k)
                want = _generic_share(search, search.full, u, pool, ti, k)
                assert got == want, (fn, u, pool, ti, k)
                checked += 1
    assert checked > 1000, checked


def test_hard_search_shape_is_pinned(monkeypatch):
    """On HARD the search opens at most 887 interior nodes (nodes that are
    not leaves of the last term), checks at most 193 leaves and reads the
    clock at most 1,987 times, counted by wrapping ``_node``, ``_finish``
    and ``_check_time``: a change that weakens a bound, with every answer
    kept, opens more."""
    calls = {"_node": 0, "_finish": 0, "_check_time": 0}
    for name in calls:
        def counted(self, *args, _name=name, _method=getattr(_Search, name)):
            calls[_name] += 1
            return _method(self, *args)
        monkeypatch.setattr(_Search, name, counted)
    assert map_function(HARD, DIM3).status == NO_SOLUTION
    assert calls["_node"] <= 887, calls
    assert calls["_finish"] <= 193, calls
    assert calls["_check_time"] <= 1987, calls


def test_negatives_failing_at_the_root_build_no_linked_table(monkeypatch):
    """Terms 2, 4, 6 and 8 of DECOMP_NOSPLIT8 (pool id DECOMP_NOSPLIT8/2468)
    fail at the root on 3x3, where every path's bound is ``full``, so every
    share is in closed form and no ``_linked`` table is built; HARD builds
    at most 12.  Counted by wrapping ``_linked``."""
    calls = []

    def linked(self, *args, _method=_Search._linked):
        calls.append(args)
        return _method(self, *args)

    monkeypatch.setattr(_Search, "_linked", linked)
    fn = [DECOMP_NOSPLIT8[i - 1] for i in (2, 4, 6, 8)]
    assert map_function(fn, DIM3).status == NO_SOLUTION
    assert not calls, calls
    assert map_function(HARD, DIM3).status == NO_SOLUTION
    assert len(calls) <= 12, calls


def test_search_sets_every_attribute_when_built():
    """A search adds no attribute after ``__init__``: the instance keeps
    the layout it was built with."""
    paths = enumerate_paths(DIM3)
    search = _Search(HARD, paths, None)
    layout = set(vars(search))
    assert search._try_terms(0, ALL_MIRRORS) is None
    assert set(vars(search)) == layout


@pytest.mark.parametrize("limits", [
    {"time_limit": 0.0},
    {"time_limit": -1.0},
    {"time_limit": float("inf")},
    {"time_limit": float("-inf")},
    {"time_limit": float("nan")},
])
def test_budget_out_of_range_rejected(limits):
    with pytest.raises(ValueError):
        SearchBudget(**limits)


def test_explicit_paths_accepted():
    ps = enumerate_paths(DIM3)
    r = map_function(MAP_EX1, DIM3, None, ps)
    assert r.status == SOLVED


@pytest.mark.parametrize("dim,paths_dim", [(DIM3, LatticeDim(2, 2)), (LatticeDim(2, 2), DIM3)])
def test_paths_of_another_dimension_rejected(dim, paths_dim):
    """Smaller paths would leave cells off every path (a wrong solved),
    larger ones index past the grid."""
    with pytest.raises(ValueError):
        map_function(f({0}, {1}), dim, None, enumerate_paths(paths_dim))


def test_poi_text_vocabulary():
    assert PoiEvent("saved-escape-path", 0).text() == "term 1 saved escape path"
    assert (
        PoiEvent("covered-escape-multi-option", 2).text()
        == "term 3 covered escape path by picking multi options"
    )
    assert PoiEvent("path-saved-by-xxprime", 0).text() == "path 1 saved by xx'"
    assert PoiEvent("zero-on-lattice-var", 6).text() == "zero on lattice var 6"
    assert (
        PoiEvent("term-hiding", 3).text() == "term 4 was present but hiding"
    )
    assert (
        PoiEvent("placed-by-xxprime", 3).text() == "term 4 was placed by xx'"
    )
    with pytest.raises(ValueError):
        PoiEvent("nonsense", 0).text()


def test_zero_poi_reported_when_cells_unused():
    r = map_function(MAP_EX1, DIM3)
    zeroed = [e for e in r.solution.poi if e.kind == "zero-on-lattice-var"]
    grid = r.solution.assignment.codes
    assert [grid[e.subject] for e in zeroed] == [100] * len(zeroed)


def test_solution_escape_paths_are_neutralized():
    """Every path of a solution grid is matched, cancelled, zeroed or a
    superset of some target term."""
    from latmap.codes import COMPLEMENT_BASE, is_complement_code

    for fn in (MAP_EX1, MAP_EX2, MAP_EX3, MAP_EX4):
        r = map_function(fn, DIM3)
        grid = r.solution.assignment.codes
        for p in enumerate_paths(DIM3).paths:
            lits = {grid[c] for c in p}
            if 100 in lits:
                continue
            lits.discard(101)
            if any(is_complement_code(c) and COMPLEMENT_BASE - c in lits for c in lits):
                continue
            assert any(t <= lits for t in fn), (fn, p, lits)


def _reaches(search, cells, pool=0):
    """Whether the search's reach bound passes the state that fixes
    ``cells`` (cell -> code) and no other, under pool ``pool``, and whether
    the OR of its path bounds covers the function.  A pass implies that
    cover, since a share lies in its path's bound; ``_passes`` relies on
    that, and the helper asserts it."""
    masks = literal_masks(search.var_order)
    bounds = [search.full] * len(search.paths)
    unset = (1 << search.dim.cells) - 1
    for cell, code in cells.items():
        unset &= ~(1 << cell)
        for pj in search.through[cell]:
            bounds[pj] &= masks[code]
    reach = search._reaches(bounds, unset, pool)
    covered = not search.f_mask & ~functools.reduce(operator.or_, bounds)
    assert covered or not reach, (search.f, cells, pool)
    return reach, covered


def _writers(fn, paths):
    """The grid a search of ``fn`` finds and the term that wrote each of
    its nonzero cells: the first, in order, whose path holds it."""
    search = _Search(fn, paths, None)
    codes = search._try_terms(0, ALL_MIRRORS).assignment.codes
    writer = {}
    for ti, pi in sorted((ti, pi) for pi, ti in enumerate(search.matched) if ti is not None):
        for cell in search.paths[pi]:
            writer.setdefault(cell, ti)
    return codes, writer


@pytest.mark.parametrize("dim,seed", [(DIM3, 1700), (LatticeDim(3, 4), 1701)])
def test_reach_bound_admits_every_state_on_the_way_to_a_found_grid(dim, seed):
    """The per-path reach bound cuts no subtree that holds a solution: for
    grids the mapper finds, every state that fixes some of the grid's
    nonzero cells and leaves the rest unset passes it under pool 0 (on 8
    library functions), and so does each state the search passes on its way
    to the grid, the cells written by terms before term i fixed, under pool
    i (on 24)."""
    paths = enumerate_paths(dim)
    checked = on_the_way = 0
    for n, e in enumerate(generate_library(dim, 5, 24, seed)):
        r = map_function(e.function, dim, None, paths)
        assert r.status == SOLVED
        search = _Search(e.function, paths, None)
        codes = r.solution.assignment.codes
        nonzero = [c for c, v in enumerate(codes) if v != CONST_ZERO]
        for k in range(1 << len(nonzero) if n < 8 else 0):
            cells = {c: codes[c] for i, c in enumerate(nonzero) if k >> i & 1}
            assert _reaches(search, cells)[0], (e.function, cells)
            checked += 1
        found, writer = _writers(e.function, paths)
        assert found == codes
        for i, pool in enumerate(search.pool):
            cells = {c: codes[c] for c, ti in writer.items() if ti < i}
            assert _reaches(search, cells, pool)[0], (e.function, i, cells)
            on_the_way += pool > 0
    assert checked >= 1000 and on_the_way >= 40


@pytest.mark.parametrize("dim,seed", [(LatticeDim(2, 2), 2200), (LatticeDim(2, 3), 2201),
                                      (LatticeDim(3, 2), 2202), (DIM3, 2203)])
def test_reach_bound_implies_the_cover(dim, seed):
    """Random partial states of library functions, each cell fixed to any
    literal of the function's variables, 0 or 1 or left unset, tested under
    every pool of the function by ``_reaches``, which asserts that a pass
    means the path bounds, ORed, cover the function.  Some covered states
    fail the reach bound, and some pass it under pools that lack a
    literal."""
    rng = random.Random(seed)
    paths = enumerate_paths(dim)
    seen = {"states": 0, "rejected though covered": 0, "passed in a smaller pool": 0}
    for e in generate_library(dim, 4, 10, seed):
        search = _Search(e.function, paths, None)
        codes = sorted(literal_masks(search.var_order))
        for _ in range(120):
            cells = {c: rng.choice(codes) for c in range(dim.cells) if rng.random() < 0.5}
            for pool in sorted(set(search.pool)):
                reach, covered = _reaches(search, cells, pool)
                seen["states"] += 1
                seen["rejected though covered"] += covered and not reach
                seen["passed in a smaller pool"] += reach and pool > 0
    assert min(seen.values()) > 0, seen


def test_reach_bound_cuts_what_the_bounds_alone_keep():
    """a, b down the left column of 2x2 and c over an unset cell: the OR of
    the path bounds, ab | c, covers ab + cde, but the right column can then
    end up only as c times one literal, inside no term, since cde needs two
    more.  ab + cd needs one, so that state passes."""
    paths = enumerate_paths(LatticeDim(2, 2))
    state = {0: 0, 2: 1, 1: 2}
    search = _Search(f({0, 1}, {2, 3, 4}), paths, None)
    assert _reaches(search, state) == (False, True)
    search = _Search(f({0, 1}, {2, 3}), paths, None)
    assert _reaches(search, state) == (True, True)


def test_reach_bound_counts_only_literals_later_terms_write():
    """a over c across the top of 2x2, both lower cells unset: every
    literal can still be written, and ab + cd passes.  With term 1 next,
    b, which only term 0 holds, can no longer be written, so the left
    column can end up inside no term and the state fails."""
    paths = enumerate_paths(LatticeDim(2, 2))
    search = _Search(f({0, 1}, {2, 3}), paths, None)
    state = {0: 0, 1: 2}
    assert _reaches(search, state, search.pool[0]) == (True, True)
    assert _reaches(search, state, search.pool[1]) == (False, True)


def test_library_functions_round_trip():
    from latmap.solver import generate_library

    for e in generate_library(DIM3, 5, 15, 99):
        r = map_function(e.function, DIM3)
        assert r.status == SOLVED
        assert verify_witness(r.solution.assignment, e.function)


def _beside(g1, g2):
    """[g1 | column of 0 | g2] for two grids with the same row count."""
    rows, cols = g1.dim.rows, g1.dim.cols
    codes = []
    for row in range(rows):
        cut = slice(row * cols, (row + 1) * cols)
        codes += g1.codes[cut] + (CONST_ZERO,) + g2.codes[cut]
    return LatticeAssignment(LatticeDim(rows, 2 * cols + 1), tuple(codes))


@pytest.mark.parametrize("rows,cols,seed", [(2, 2, 1), (2, 3, 2), (3, 2, 3)])
def test_or_composition_is_never_no_solution(rows, cols, seed):
    """A column of 0 between two grids joins no path of one to the other,
    so [G1 | 0 | G2] realizes f1 + f2 when G1 realizes f1 and G2 f2.  For
    every pair of library functions with no common term that map on r x c,
    the composed grid realizes f1 + f2 and the mapper, which may not find
    it, never answers no-solution on r x (2c + 1)."""
    dim = LatticeDim(rows, cols)
    mapped = []
    for e in generate_library(dim, 4, 12, seed):
        if e.function and frozenset() not in e.function:
            r = map_function(e.function, dim)
            if r.status == SOLVED:
                mapped.append((e.function, r.solution.assignment))
    pairs = [(a, b) for a, b in combinations(mapped, 2) if not set(a[0]) & set(b[0])]
    assert len(pairs) >= 40
    for (f1, g1), (f2, g2) in pairs:
        fn = f1 + f2
        grid = _beside(g1, g2)
        universe = table_variables(fn)
        assert lattice_table(grid, literal_masks(universe)) == function_mask(fn, universe)
        assert map_function(fn, grid.dim).status != NO_SOLUTION, (f1, f2)


def _above(g1, g2):
    """[g1 ; row of 1 ; g2] for two grids with the same column count."""
    cols = g1.dim.cols
    codes = g1.codes + (CONST_ONE,) * cols + g2.codes
    return LatticeAssignment(LatticeDim(2 * g1.dim.rows + 1, cols), codes)


@pytest.mark.parametrize("rows,cols,seed", [(2, 2, 1), (2, 3, 2), (3, 2, 3)])
def test_and_composition_is_never_no_solution(rows, cols, seed):
    """A row of 1 between two grids joins every path of one to every path
    of the other, so [G1 ; 1 ; G2] realizes f1 f2 when G1 realizes f1 and G2
    f2.  For every pair of library functions that map on r x c and whose
    product is not 0, the composed grid realizes f1 f2 and the mapper, which
    may not find it within 1 s, never answers no-solution on (2r + 1) x c."""
    dim = LatticeDim(rows, cols)
    mapped = []
    for e in generate_library(dim, 4, 12, seed):
        if e.function and frozenset() not in e.function:
            r = map_function(e.function, dim)
            if r.status == SOLVED:
                mapped.append((e.function, r.solution.assignment))
    products = []
    for (f1, g1), (f2, g2) in combinations(mapped, 2):
        terms = (normalize_term(t1 | t2) for t1 in f1 for t2 in f2)
        fn = absorb([t for t in terms if t is not None])
        if fn:
            products.append((f1, f2, fn, _above(g1, g2)))
    assert len(products) >= 30
    for f1, f2, fn, grid in products:
        universe = table_variables(f1, f2)
        assert lattice_table(grid, literal_masks(universe)) == function_mask(fn, universe)
        result = map_function(fn, grid.dim, SearchBudget(time_limit=1.0))
        assert result.status != NO_SOLUTION, (f1, f2)


def _relabel(fn, rename):
    """``fn`` with each literal's variable v replaced by ``rename[v]``,
    keeping its polarity."""
    def code(c):
        w = rename[variable_of(c)]
        return COMPLEMENT_BASE - w if is_complement_code(c) else w
    return [frozenset(map(code, t)) for t in fn]


def _metamorphic_inputs(rng):
    """Seeded 3- to 6-term subsets of the four 8-term study functions on
    3x3, in their own term order, and library functions of 2x2, 2x3 and
    3x3 that depend on some variable."""
    inputs = []
    for fn in (DECOMP_EVEN8, DECOMP_NOSPLIT8, DECOMP_UNEVEN8, SYNTH_EIGHT):
        for _ in range(12):
            picked = sorted(rng.sample(range(len(fn)), rng.randint(3, 6)))
            inputs.append(([fn[i] for i in picked], DIM3))
    for dim, seed in ((LatticeDim(2, 2), 2200), (LatticeDim(2, 3), 2201), (DIM3, 2202)):
        for e in generate_library(dim, 5, 20, seed):
            if e.function and frozenset() not in e.function:
                inputs.append((e.function, dim))
    return inputs


def test_verdict_invariant_under_relabelling_and_term_order():
    """The verdict stays the same when one letter variable is complemented
    throughout, when the variables are renamed by a permutation and when
    the term order is reversed; the inputs hold both verdicts."""
    rng = random.Random(2300)
    paths = {}
    verdicts = set()
    checks = 0
    for fn, dim in _metamorphic_inputs(rng):
        ps = paths.setdefault(dim, enumerate_paths(dim))
        want = map_function(fn, dim, None, ps).status
        verdicts.add(want)
        letters = sorted({variable_of(c) for t in fn for c in t})
        v = rng.choice(letters)
        perm = dict(zip(letters, rng.sample(range(8), len(letters))))
        complemented = [frozenset(c if variable_of(c) != v else COMPLEMENT_BASE - c for c in t)
                        for t in fn]
        for name, variant in (("complement", complemented),
                              ("rename", _relabel(fn, perm)),
                              ("reverse", fn[::-1])):
            got = map_function(variant, dim, None, ps).status
            assert got == want, (name, dim, fn, variant)
            checks += 1
    assert verdicts == {SOLVED, NO_SOLUTION}
    assert checks >= 300


@pytest.mark.parametrize("rows,cols,seed", [(2, 2, 2400), (2, 3, 2401), (3, 2, 2402)])
def test_solved_stays_solved_on_a_larger_grid(rows, cols, seed):
    """A grid the search finds on r x c, with a column of 0 beside it or a
    row of 1 below it, lies in the search's space on r x (c + 1) and
    (r + 1) x c, so a function solved on r x c stays solved on both."""
    dim = LatticeDim(rows, cols)
    wider, taller = LatticeDim(rows, cols + 1), LatticeDim(rows + 1, cols)
    solved = 0
    for e in generate_library(dim, 5, 25, seed):
        if map_function(e.function, dim).status == SOLVED:
            solved += 1
            for bigger in (wider, taller):
                assert map_function(e.function, bigger).status == SOLVED, (bigger, e.function)
    assert solved >= 20
