import random
import time

import pytest

import latmap.decompose

from latmap.codes import equivalent
from latmap.decompose import Run, decompose_two, split_schedule
from latmap.grid import LatticeDim
from latmap.mapper import (
    INCONCLUSIVE,
    NO_SOLUTION,
    SOLVED,
    OutOfTime,
    SearchBudget,
    map_function,
)
from latmap.paths import enumerate_paths
from latmap.solver import solve_lattice

from lattice_goldens import DECOMP_EVEN8, DECOMP_UNEVEN8, f

DIM3 = LatticeDim(3, 3)


def test_split_schedule_even():
    assert split_schedule(8) == [(7, 1), (6, 2), (5, 3), (4, 4)]


def test_split_schedule_odd():
    assert split_schedule(9) == [(8, 1), (7, 2), (6, 3), (5, 4)]
    assert split_schedule(7) == [(6, 1), (5, 2), (4, 3)]


def test_split_schedule_edges():
    assert split_schedule(2) == [(1, 1)]
    assert split_schedule(3) == [(2, 1)]
    with pytest.raises(ValueError):
        split_schedule(1)


@pytest.mark.parametrize("dim,paths_dim", [(DIM3, LatticeDim(2, 2)), (LatticeDim(2, 2), DIM3)])
def test_paths_of_another_dimension_rejected(dim, paths_dim):
    with pytest.raises(ValueError):
        decompose_two(f({0}, {1}), dim, None, enumerate_paths(paths_dim))


def test_even8_decomposes_with_or_equivalence():
    out = decompose_two(DECOMP_EVEN8, DIM3)
    assert out.status == SOLVED
    res = out.result
    assert sorted(res.indices_a + res.indices_b) == list(range(8))
    combined = solve_lattice(res.solution_a.assignment) + solve_lattice(
        res.solution_b.assignment
    )
    assert equivalent(combined, DECOMP_EVEN8)
    # the schedule guarantees the largest mappable part comes first
    assert len(res.indices_a) >= len(res.indices_b)


def test_two_single_terms_split_1_1():
    fn = f({0, 1, 2}, {1000, 999, 998})
    out = decompose_two(fn, LatticeDim(2, 2))
    # neither 3-literal term fits a 2-cell path: no pair can work
    assert out.status == NO_SOLUTION

    out3 = decompose_two(fn, DIM3)
    assert out3.status == SOLVED
    assert (len(out3.result.indices_a), len(out3.result.indices_b)) == (1, 1)


def test_four_variables_on_2x2_pair():
    fn = f({0}, {1}, {2}, {3})
    out = decompose_two(fn, LatticeDim(2, 2))
    assert out.status == SOLVED
    assert (len(out.result.indices_a), len(out.result.indices_b)) == (2, 2)
    combined = solve_lattice(out.result.solution_a.assignment) + solve_lattice(
        out.result.solution_b.assignment
    )
    assert equivalent(combined, fn)


def test_memo_is_shared():
    memo = {}
    decompose_two(DECOMP_EVEN8, DIM3, memo=memo)
    assert memo  # verdicts were recorded
    before = len(memo)
    decompose_two(DECOMP_EVEN8, DIM3, memo=memo)
    assert len(memo) == before  # second run reuses every verdict


def test_needs_two_terms():
    with pytest.raises(ValueError):
        decompose_two(f({0}), DIM3)


def test_time_limit_bounds_the_whole_call():
    start = time.monotonic()
    out = decompose_two(DECOMP_UNEVEN8, DIM3, SearchBudget(time_limit=0.2))
    assert time.monotonic() - start < 1.0
    assert out.status in (SOLVED, INCONCLUSIVE)


def test_first_time_cut_ends_the_schedule():
    """Twenty 3-literal terms have 524,287 pairs to try on 3x3.  The first
    mapping that the time limit cuts ends the call as inconclusive, and
    nothing inconclusive is memoized."""
    rng = random.Random(2026)
    fn = []
    while len(fn) < 20:
        term = frozenset(v if rng.random() < 0.5 else 1000 - v
                         for v in rng.sample(range(6), 3))
        if term not in fn:
            fn.append(term)
    memo = {}
    start = time.monotonic()
    out = decompose_two(fn, DIM3, SearchBudget(time_limit=0.05), memo=memo)
    assert time.monotonic() - start < 1.0
    assert out.status == INCONCLUSIVE
    assert len(memo) < 1000
    assert all(r.status != INCONCLUSIVE for r in memo.values())


def test_map_once_with_no_time_left_is_inconclusive(monkeypatch):
    """Past the deadline ``Run.solve`` calls no mapper and raises
    ``OutOfTime``; nothing is memoized, so a second ask maps nothing
    either.  A definite verdict already in the memo is still answered."""
    monkeypatch.setattr(latmap.decompose, "map_function", None)  # any call fails
    run = Run(LatticeDim(2, 2), SearchBudget(time_limit=60))
    run.deadline = time.monotonic() - 1
    for _ in range(2):
        with pytest.raises(OutOfTime):
            run.solve(f({0}))
    assert run.memo == {}
    known = map_function(f({1}), LatticeDim(2, 2))
    run.memo[tuple(f({1}))] = known
    assert run.solve(f({1})) is known.solution
