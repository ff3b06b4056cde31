import dataclasses
import time

import pytest

import latmap.decompose
import latmap.synth
from latmap.grid import LatticeDim
from latmap.decompose import Run
from latmap.mapper import OutOfTime, SearchBudget
from latmap.paths import enumerate_paths, longest_path_len
from latmap.solver import LatticeAssignment
from latmap.synth import (
    AuxDefinition,
    PlanLattice,
    SynthesisPlan,
    _split,
    realizes,
    split_long_terms,
    synthesize,
)

from lattice_goldens import DECOMP_NOSPLIT8, SYNTH_EIGHT, SYNTH_Q, f

DIM2 = LatticeDim(2, 2)
DIM3 = LatticeDim(3, 3)

# the 3x3 plan for SYNTH_EIGHT: (grid codes, terms) per output lattice
SYNTH_EIGHT_PLAN_3X3 = [
    ((4, 100, 0, 997, 2, 4, 1000, 999, 100),
     f({4, 997, 1000}, {2, 4, 997, 999}, {0, 2, 4, 999})),
    ((1, 100, 100, 3, 998, 1, 100, 4, 996),
     f({1, 3, 4, 998}, {1, 3, 998, 1000}, {1, 3, 996, 998})),
    ((0, 100, 100, 2, 999, 3, 100, 997, 996),
     f({0, 2, 997, 999}, {0, 2, 3, 996, 999})),
]


# Inputs whose 2x2 plans take the two less common turns of the halving: in
# HALVE_AGAIN no half-split maps or splits, so the first half is halved in
# turn; in FIRST_HALF_MAPS the first half of a half-split maps on its own.
# Each with its plan: (grid codes, terms) per output lattice.
HALVE_AGAIN = f({5, 999}, {1, 5}, {3, 999}, {4}, {0, 998}, {0, 3}, {2},
                {995, 1000}, {997})
HALVE_AGAIN_PLAN_2X2 = [
    ((4, 2, 4, 2), f({4}, {2})),
    ((997, 5, 997, 999), f({997}, {5, 999})),
    ((1, 100, 5, 100), f({1, 5})),
    ((3, 0, 999, 998), f({3, 999}, {0, 998})),
    ((0, 995, 3, 1000), f({0, 3}, {995, 1000})),
]
FIRST_HALF_MAPS = f({2, 5}, {0, 2}, {0, 996}, {997}, {1000}, {0, 999},
                    {3, 999}, {995})
FIRST_HALF_MAPS_PLAN_2X2 = [
    ((997, 1000, 997, 1000), f({997}, {1000})),
    ((995, 2, 995, 5), f({995}, {2, 5}, {0, 2})),
    ((0, 0, 996, 999), f({0, 996}, {0, 999})),
    ((3, 100, 999, 100), f({3, 999})),
]


def _synthesize_counting_maps(fn, dim):
    """The plan and the ordered term lists of every mapper call it made."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        def counting(terms, *args, _map=latmap.decompose.map_function, **kwargs):
            calls.append(tuple(terms))
            return _map(terms, *args, **kwargs)

        mp.setattr(latmap.decompose, "map_function", counting)
        plan = synthesize(fn, dim)
    return plan, calls


def _aux_lattices(plan):
    return [pl for pl in plan.lattices if pl.aux_code is not None]


def zeroed_aux_lattices(plan):
    """The plan with every auxiliary lattice's cells set to constant 0."""
    return dataclasses.replace(plan, lattices=tuple(
        dataclasses.replace(pl, assignment=LatticeAssignment(
            plan.dim, (100,) * plan.dim.cells))
        if pl.aux_code is not None else pl
        for pl in plan.lattices
    ))


@pytest.fixture(scope="module")
def synth_eight_3x3():
    return _synthesize_counting_maps(SYNTH_EIGHT, DIM3)


def test_split_long_terms_noop_when_short():
    fn = f({0, 1}, {2})
    out, defs = split_long_terms(fn, 5)
    assert defs == []
    assert sorted(out, key=len) == out
    assert set(out) == set(fn)


def test_split_long_terms_chunks_in_code_order():
    fn = [frozenset(range(7))]
    out, defs = split_long_terms(fn, 5)
    assert len(defs) == 1
    assert defs[0].code == 26
    assert defs[0].product == frozenset(range(5))
    assert out == [frozenset({5, 6, 26})]


def test_split_long_terms_repeated_splitting():
    fn = [frozenset(range(12))]
    out, defs = split_long_terms(fn, 5)
    # 12 literals -> chunk {0..4} into aux 26, then {5..9} into aux 27
    assert [d.code for d in defs] == [26, 27]
    assert defs[0].product == frozenset(range(5))
    assert defs[1].product == frozenset({5, 6, 7, 8, 9})
    assert out == [frozenset({10, 11, 26, 27})]


def test_split_long_terms_skips_taken_aux_codes():
    fn = [frozenset({26, 0, 1, 2, 3, 4, 5})]
    _, defs = split_long_terms(fn, 5)
    assert defs[0].code == 27


@pytest.mark.parametrize("lb", [1, 0, -3])
def test_split_long_terms_rejects_a_bound_below_two(lb):
    with pytest.raises(ValueError, match="longest-path bound must be >= 2"):
        split_long_terms(f({0, 1, 2}), lb)


def test_synth_on_one_row():
    """A 1x2 lattice has one path, of two cells: a + b needs no split."""
    plan = synthesize(f({0}, {1}), LatticeDim(1, 2))
    assert _aux_lattices(plan) == []
    assert [pl.assignment.codes for pl in plan.lattices] == [(0, 1)]


def test_split_long_terms_runs_out_of_aux_codes():
    """A term that already holds code 99, the last auxiliary code, leaves
    none for a chunk."""
    with pytest.raises(ValueError, match="ran out of auxiliary variable codes"):
        split_long_terms([frozenset({99, 0, 1, 2, 3, 4, 5})], 5)
    out, defs = split_long_terms([frozenset({99, 0, 1, 2, 3})], 5)
    assert (out, defs) == ([frozenset({99, 0, 1, 2, 3})], [])


def test_aux_definition_validation():
    with pytest.raises(ValueError):
        AuxDefinition(5, frozenset({0}))
    with pytest.raises(ValueError):
        AuxDefinition(100, frozenset({0}))


def test_synthesize_trivial_single_lattice():
    fn = f({0, 1}, {2, 999})
    plan = synthesize(fn, DIM3)
    assert isinstance(plan, SynthesisPlan)
    assert len(plan.lattices) == 1
    assert _aux_lattices(plan) == []
    assert realizes(plan, fn)


def test_synthesize_long_term_uses_aux():
    plan = synthesize(SYNTH_Q, DIM3)
    assert plan is not None
    _, defs = split_long_terms(SYNTH_Q, longest_path_len(enumerate_paths(DIM3)))
    assert len(defs) == 1
    aux = [(pl.aux_code, pl.terms) for pl in _aux_lattices(plan)]
    assert aux == [(defs[0].code, (defs[0].product,))]
    assert plan.lattices[0].aux_code == defs[0].code  # defined before its use
    assert realizes(plan, SYNTH_Q)


def test_synthesize_inconclusive_returns_none():
    hard = f({998, 996, 1, 1000}, {3, 1, 4}, {3, 996, 999}, {998, 996, 999},
             {3, 1, 1000}, {3, 0, 4}, {3, 0, 999}, {998, 3})
    assert synthesize(hard, DIM3, SearchBudget(time_limit=0.01)) is None


def test_realizes_reads_aux_lattices():
    """A plan whose auxiliary lattice conducts nowhere computes another
    function, though its output lattices are unchanged."""
    plan = synthesize(SYNTH_Q, DIM3)
    assert realizes(plan, SYNTH_Q)
    assert not realizes(zeroed_aux_lattices(plan), SYNTH_Q)


def test_realizes_rejects_dangling_aux():
    lat = LatticeAssignment(LatticeDim(2, 2), (26, 100, 0, 100))
    # a lattice that references aux code 26 with no definition
    plan = SynthesisPlan(
        LatticeDim(2, 2),
        (PlanLattice(lat, (frozenset({26, 0}),)),),
    )
    with pytest.raises(ValueError, match="dangling auxiliary code 26"):
        realizes(plan, f({0}))


def test_realizes_takes_aux_codes_of_f_as_inputs():
    """Code 26 in f is an input, so the plan's own aux variable is 27."""
    fn = f({26, 0}, set(range(7)))
    plan = synthesize(fn, DIM3)
    assert [pl.aux_code for pl in _aux_lattices(plan)] == [27]
    assert realizes(plan, fn)
    assert not realizes(plan, f({26, 0}))


def test_synthesize_empty_function():
    plan = synthesize([], DIM3)
    assert plan == SynthesisPlan(DIM3, ())
    assert realizes(plan, [])


def test_synth_eight_plan_pinned(synth_eight_3x3):
    plan, _ = synth_eight_3x3
    assert _aux_lattices(plan) == []
    got = [(pl.assignment.codes, list(pl.terms), pl.aux_code) for pl in plan.lattices]
    assert got == [(codes, terms, None) for codes, terms in SYNTH_EIGHT_PLAN_3X3]


@pytest.mark.parametrize("fn,want", [
    (HALVE_AGAIN, HALVE_AGAIN_PLAN_2X2),
    (FIRST_HALF_MAPS, FIRST_HALF_MAPS_PLAN_2X2),
])
def test_halving_plans_pinned(fn, want):
    plan = synthesize(fn, DIM2)
    assert _aux_lattices(plan) == []
    got = [(pl.assignment.codes, list(pl.terms), pl.aux_code) for pl in plan.lattices]
    assert got == [(codes, terms, None) for codes, terms in want]
    assert realizes(plan, fn)


def test_no_mapping_asked_twice(synth_eight_3x3):
    for plan, calls in (
        synth_eight_3x3,
        _synthesize_counting_maps(DECOMP_NOSPLIT8, LatticeDim(2, 3)),
        _synthesize_counting_maps(HALVE_AGAIN, DIM2),
        _synthesize_counting_maps(FIRST_HALF_MAPS, DIM2),
    ):
        assert plan is not None and calls
        assert len(set(calls)) == len(calls)


def test_time_limit_bounds_the_whole_run():
    start = time.monotonic()
    plan = synthesize(SYNTH_EIGHT, DIM3, SearchBudget(time_limit=0.2))
    assert time.monotonic() - start < 1.0
    assert plan is None or realizes(plan, SYNTH_EIGHT)


def test_run_with_no_time_left_maps_nothing(monkeypatch):
    """Past its deadline, a run makes no mapper call or split and ends as
    inconclusive; nothing is memoized."""
    run = Run(DIM2, SearchBudget(time_limit=60), enumerate_paths(DIM2))
    assert _split(run, f({0})) is None  # one term has no split to try
    run.deadline = time.monotonic() - 1
    monkeypatch.setattr(latmap.decompose, "map_function", None)  # any call fails
    monkeypatch.setattr(latmap.synth, "decompose_two", None)
    with pytest.raises(OutOfTime):
        run.solve(f({0}))
    with pytest.raises(OutOfTime):
        _split(run, f({0}, {1}))
    assert run.memo == {}
