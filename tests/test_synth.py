import time

import pytest

import latmap.decompose
import latmap.synth
from latmap.codes import equivalent
from latmap.grid import LatticeDim
from latmap.mapper import SearchBudget
from latmap.synth import (
    AuxDefinition,
    PlanLattice,
    SynthesisPlan,
    expand_plan,
    split_long_terms,
    synthesize,
)

from lattice_goldens import DECOMP_NOSPLIT8, SYNTH_EIGHT, SYNTH_Q, f

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


def _synthesize_counting_maps(fn, dim):
    """The plan and the ordered term lists of every mapper call it made."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for module in (latmap.synth, latmap.decompose):
            def counting(terms, *args, _map=module.map_function, **kwargs):
                calls.append(tuple(terms))
                return _map(terms, *args, **kwargs)

            mp.setattr(module, "map_function", counting)
        plan = synthesize(fn, dim)
    return plan, calls


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
    assert plan.aux_defs == ()
    assert equivalent(expand_plan(plan), fn)


def test_synthesize_long_term_uses_aux():
    plan = synthesize(SYNTH_Q, DIM3)
    assert plan is not None
    assert len(plan.aux_defs) == 1
    aux_lattices = [p for p in plan.lattices if p.aux_code is not None]
    assert len(aux_lattices) == 1
    assert aux_lattices[0].terms == (plan.aux_defs[0].product,)
    assert equivalent(expand_plan(plan), SYNTH_Q)


def test_synthesize_inconclusive_returns_none():
    hard = f({998, 996, 1, 1000}, {3, 1, 4}, {3, 996, 999}, {998, 996, 999},
             {3, 1, 1000}, {3, 0, 4}, {3, 0, 999}, {998, 3})
    assert synthesize(hard, DIM3, SearchBudget(time_limit=0.01)) is None


def test_expand_plan_substitutes_aux_products():
    plan = synthesize(SYNTH_Q, DIM3)
    expanded = expand_plan(plan)
    for t in expanded:
        assert all(not 26 <= c <= 99 for c in t)


def test_expand_plan_rejects_dangling_aux():
    from latmap.solver import LatticeAssignment

    lat = LatticeAssignment(LatticeDim(2, 2), (26, 100, 0, 100))
    # a lattice that references aux code 26 with no definition
    plan = SynthesisPlan(
        LatticeDim(2, 2),
        (PlanLattice(lat, (frozenset({26, 0}),)),),
        (),
    )
    with pytest.raises(ValueError):
        expand_plan(plan)


def test_synthesize_empty_function():
    plan = synthesize([], DIM3)
    assert plan == SynthesisPlan(DIM3, (), ())


def test_synth_eight_plan_pinned(synth_eight_3x3):
    plan, _ = synth_eight_3x3
    assert plan.aux_defs == ()
    got = [(pl.assignment.codes, list(pl.terms), pl.aux_code) for pl in plan.lattices]
    assert got == [(codes, terms, None) for codes, terms in SYNTH_EIGHT_PLAN_3X3]


def test_no_mapping_asked_twice(synth_eight_3x3):
    for plan, calls in (
        synth_eight_3x3,
        _synthesize_counting_maps(DECOMP_NOSPLIT8, LatticeDim(2, 3)),
    ):
        assert plan is not None and calls
        assert len(set(calls)) == len(calls)


def test_time_limit_bounds_the_whole_run():
    start = time.monotonic()
    plan = synthesize(SYNTH_EIGHT, DIM3, SearchBudget(time_limit=0.2))
    assert time.monotonic() - start < 1.0
    assert plan is None or equivalent(expand_plan(plan), SYNTH_EIGHT)
