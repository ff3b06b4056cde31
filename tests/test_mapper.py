import functools
import math
import operator
import sys
import time
from itertools import combinations, product

import pytest

from latmap.codes import (
    CONST_ONE,
    CONST_ZERO,
    absorb,
    function_mask,
    literal_masks,
    normalize_term,
    table_variables,
)
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
from latmap.paths import PathSet, enumerate_paths
from latmap.solver import LatticeAssignment, generate_library, lattice_table, verify_witness

from lattice_goldens import (
    DECOMP_EVEN8,
    DECOMP_NOSPLIT8,
    MAP_EX1,
    MAP_EX2,
    MAP_EX3,
    MAP_EX4,
    f,
)

DIM3 = LatticeDim(3, 3)

# An 8-term function (DECOMP_EVEN8) whose exhaustive 3x3 search is a
# no-solution that takes about a second.
HARD = f({998, 996, 1, 1000}, {3, 1, 4}, {3, 996, 999}, {998, 996, 999},
         {3, 1, 1000}, {3, 0, 4}, {3, 0, 999}, {998, 3})


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
    assert set(vars(ps)) == {"dim", "paths", "cell_masks", "through", "mirrors"}


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


def test_time_budget_yields_inconclusive():
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


def test_deadline_past_on_entering_the_root_is_inconclusive(monkeypatch):
    """A search whose deadline has passed when it starts opens no node."""
    monkeypatch.setattr(SearchBudget, "deadline", lambda self: time.monotonic() - 1)
    r = map_function(MAP_EX1, DIM3, SearchBudget(time_limit=60))
    assert (r.status, r.solution) == (INCONCLUSIVE, None)


def test_time_cut_ends_the_search_at_once(monkeypatch):
    """A clock that runs out at its k-th check: on HARD for k every 52
    checks from the first, and on five terms of DECOMP_NOSPLIT8, whose
    search walks a wide pair, at every one of its checks.  Cuts land at
    node entries, in probe loops of narrow pairs and inside walks of wide
    ones.  Each answers inconclusive, and after the cut no placement is
    listed, no node opened and no leaf checked."""
    clock = {"checks": 0, "k": math.inf, "cut": False, "after": 0}
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
    walked = [DECOMP_NOSPLIT8[i - 1] for i in (1, 3, 4, 6, 7)]
    map_function(walked, DIM3, SearchBudget(time_limit=60))
    for fn, ks in ((HARD, range(1, 4000, 52)), (walked, range(1, clock["checks"] + 1))):
        for k in ks:
            clock.update(checks=0, k=k, cut=False)
            r = map_function(fn, DIM3, SearchBudget(time_limit=60))
            assert (r.status, r.solution, clock["after"]) == (INCONCLUSIVE, None, 0), k
    assert cut_in == {"_try_terms", "_probes", "_walk"}


def _mapped(monkeypatch, walk_from, fn, dim, paths):
    """The answer of one mapping with the given cut-over, the number of
    interior nodes it opens (nodes that are not leaves of the last term),
    the placements that open them in order, as (term, path, ranks), and
    the number of leaves it checks.  The patches are undone and the shared
    arrangement table is emptied after it, since a raised cut-over fills
    it with wide lists."""
    monkeypatch.setattr(mapper, "WALK_FROM", walk_from)
    calls = {"_try_terms": 0, "_finish": 0}
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
    return answer, calls["_try_terms"] - calls["_finish"], placed, calls["_finish"]


@pytest.mark.parametrize("dim,seed", [(DIM3, 1800), (LatticeDim(3, 4), 1801)])
def test_walk_and_probe_loop_agree(monkeypatch, dim, seed):
    """Walking every pair (cut-over 0) and probing every arrangement (a
    cut-over no pair reaches) give the same answers and open the same
    interior nodes with the same placements, in the same order."""
    paths = enumerate_paths(dim)
    cases = [e.function for e in generate_library(dim, 5, 10, seed)]
    if dim == DIM3:
        cases.append(HARD)
    for fn in cases:
        walked = _mapped(monkeypatch, 0, fn, dim, paths)
        probed = _mapped(monkeypatch, 10**9, fn, dim, paths)
        assert walked[:3] == probed[:3], fn


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


def _reaches(search, cells):
    """Whether the search's reach bound passes the state that fixes
    ``cells`` (cell -> code) and no other, and whether the OR of its path
    bounds covers the function."""
    masks = literal_masks(search.var_order)
    bounds = [search.full] * len(search.paths)
    unset = (1 << search.dim.cells) - 1
    for cell, code in cells.items():
        unset &= ~(1 << cell)
        for pj in search.through[cell]:
            bounds[pj] &= masks[code]
    covered = not search.f_mask & ~functools.reduce(operator.or_, bounds)
    return search._reaches(bounds, unset), covered


@pytest.mark.parametrize("dim,seed", [(DIM3, 1700), (LatticeDim(3, 4), 1701)])
def test_reach_bound_admits_every_state_on_the_way_to_a_found_grid(dim, seed):
    """The per-path reach bound cuts no subtree that holds a solution: for
    grids the mapper finds, every state that fixes some of the grid's
    nonzero cells and leaves the rest unset passes it."""
    paths = enumerate_paths(dim)
    checked = 0
    for e in generate_library(dim, 5, 8, seed):
        r = map_function(e.function, dim, None, paths)
        assert r.status == SOLVED
        search = _Search(e.function, paths, None)
        codes = r.solution.assignment.codes
        nonzero = [c for c, v in enumerate(codes) if v != CONST_ZERO]
        for k in range(1 << len(nonzero)):
            cells = {c: codes[c] for i, c in enumerate(nonzero) if k >> i & 1}
            assert _reaches(search, cells)[0], (e.function, cells)
            checked += 1
    assert checked >= 1000


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
