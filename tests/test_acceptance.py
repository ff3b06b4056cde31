"""Acceptance suite: one test per top-level acceptance criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Published reference data that the flood-fill oracle below
refutes is kept verbatim in ``lattice_goldens.py``, and the tests check the
refutation together with the true, oracle-verified facts.  Criteria 07 and
10 stay red while the mapper answers ``no-solution`` for functions that a
grid does realize.  Two oracle tests follow the criteria: the planar dual
of the flood fill checks the solver's tables and listings, and every 2x2
and 2x3 grid over three variables checks that the mapper maps each
listing.
"""

import itertools
import random
import time

import pytest

from latmap.codes import (
    absorb,
    equivalent,
    function_mask,
    literal_masks,
    normalize_term,
)
from latmap.decompose import decompose_two
from latmap.grid import LatticeDim
from latmap.mapper import SOLVED, map_function
from latmap.paths import brute_force_paths, enumerate_paths
from latmap.solver import (
    LatticeAssignment,
    generate_library,
    lattice_table,
    literal_range,
    solve_lattice,
    verify_witness,
)
from latmap.synth import realizes, synthesize

from lattice_goldens import (
    DECOMP_EVEN8,
    DECOMP_NOSPLIT8,
    DECOMP_UNEVEN8,
    GRID_6X6,
    GRID_AB_C,
    GRID_AB_C_SOLVE,
    LISTING_6X6_ABSORBED_LINES,
    LISTING_6X6_MERGED_LINES,
    LISTING_6X6_TERMS,
    MAP_EX1,
    MAP_EX2,
    MAP_EX3,
    MAP_EX4,
    NOSPLIT8_ONE_LATTICE_3X3,
    PATH_COUNTS,
    REFUTED_WITNESSES,
    SOLVE_6X6_TERM_COUNT,
    SPLIT_WITNESSES_3X3,
    SYNTH_EIGHT,
    SYNTH_Q,
    WITNESSES,
)

DIM3 = LatticeDim(3, 3)


# -- flood-fill oracle: imports nothing from latmap --------------------------


def flood_conducts(rows, on):
    """Top-to-bottom 4-neighbour connectivity of the cells that are on.

    ``on`` holds one int per cell in row-major order: 0/1 for one
    assignment, or a truth table (bit k for assignment k) to evaluate all
    assignments at once.  The result is of the same kind.
    """
    cols = len(on) // rows
    reach = list(on[:cols]) + [0] * (len(on) - cols)
    changed = True
    while changed:
        changed = False
        for i, cell in enumerate(on):
            r, c = divmod(i, cols)
            near = (reach[i - cols] if r else 0) | (reach[i - 1] if c else 0)
            near |= reach[i + cols] if r < rows - 1 else 0
            near |= reach[i + 1] if c < cols - 1 else 0
            if cell & near & ~reach[i]:
                reach[i] |= cell & near
                changed = True
    out = 0
    for x in reach[-cols:]:
        out |= x
    return out


def crossing_rows(rows, off):
    """Where an 8-neighbour chain of the cells that are off joins the left
    column to the right one: the planar dual of ``flood_conducts``, since a
    lattice conducts top to bottom exactly where no such chain crosses it.

    ``off`` holds one truth table per cell in row-major order, bit k set
    where the cell is off on assignment k; the result is a truth table.
    """
    cols = len(off) // rows
    near = []
    for i in range(len(off)):
        r, c = divmod(i, cols)
        near.append([j * cols + k for j in range(max(r - 1, 0), min(r + 2, rows))
                     for k in range(max(c - 1, 0), min(c + 2, cols)) if (j, k) != (r, c)])
    reach = [x if i % cols == 0 else 0 for i, x in enumerate(off)]
    grown = {i for i, x in enumerate(reach) if x}
    while grown:
        last, grown = grown, set()
        for i in last:
            for j in near[i]:
                new = reach[i] & off[j] & ~reach[j]
                if new:
                    reach[j] |= new
                    grown.add(j)
    out = 0
    for x in reach[cols - 1 :: cols]:
        out |= x
    return out


def _code_values(variables, point=None):
    """Each literal code's value at ``point`` (variable -> 0/1), or truth table."""
    n = len(variables)
    full = 1 if point is not None else (1 << (1 << n)) - 1
    values = {101: full, 100: 0}
    for i, v in enumerate(variables):
        if point is not None:
            t = point[v]
        else:
            t, width = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
            while width < 1 << n:
                t, width = t | t << width, width << 1
        values[v], values[1000 - v] = t, full ^ t
    return values


def _variables(codes):
    return sorted({c if c < 100 else 1000 - c for c in codes if c not in (100, 101)})


def _sop_value(fn, values):
    out = 0
    for term in fn:
        m = values[101]
        for c in term:
            m &= values[c]
        out |= m
    return out


def _realizes(rows, codes, fn):
    values = _code_values(_variables(set(codes).union(*fn)))
    return flood_conducts(rows, [values[c] for c in codes]) == _sop_value(fn, values)


def _conducts_with(literals):
    """Does GRID_6X6 conduct with exactly these literals (and constant 1) on?"""
    return flood_conducts(6, [int(c == 101 or c in literals) for c in GRID_6X6])


def test_criterion_01_path_counts_all_36_dimensions():
    start = time.monotonic()
    for r in range(2, 8):
        for c in range(2, 8):
            t0 = time.monotonic()
            got = len(enumerate_paths(LatticeDim(r, c)))
            dt = time.monotonic() - t0
            assert got == PATH_COUNTS[r][c - 2], (r, c)
            if (r, c) == (7, 7):
                assert dt <= 30.0
    assert time.monotonic() - start <= 60.0


def test_criterion_02_enumeration_matches_brute_force_oracle():
    for r in range(2, 5):
        for c in range(2, 5):
            dim = LatticeDim(r, c)
            fast = {frozenset(p) for p in enumerate_paths(dim).paths}
            slow = {frozenset(p) for p in brute_force_paths(dim).paths}
            assert fast == slow, (r, c)


def test_criterion_03_solver_golden_listings():
    small = LatticeAssignment(DIM3, GRID_AB_C)
    assert solve_lattice(small) == GRID_AB_C_SOLVE

    dim = LatticeDim(6, 6)
    got = solve_lattice(LatticeAssignment(dim, GRID_6X6))
    listing = LISTING_6X6_TERMS
    assert len(listing) == 51

    # the published listing has the grid's truth table, and so has the solve
    assert _realizes(6, GRID_6X6, listing)
    assert _realizes(6, GRID_6X6, got)

    # but it is not the solve: 8 lines are no path's product, each the merge
    # t.v + t.v' of two solve terms, and the listing is not absorbed
    products = {
        normalize_term(GRID_6X6[c] for c in p) for p in enumerate_paths(dim).paths
    }
    merged = [i + 1 for i, t in enumerate(listing) if t not in products]
    assert tuple(merged) == LISTING_6X6_MERGED_LINES
    solve = set(got)
    for line in merged:
        t = listing[line - 1]
        assert not _conducts_with(t), line
        assert any(
            t | {v} in solve and t | {1000 - v} in solve for v in _variables(GRID_6X6)
        ), line
    assert all(t in solve for t in listing if t in products)
    absorbed = tuple(
        (i + 1, j + 1)
        for i, j in itertools.permutations(range(len(listing)), 2)
        if listing[i] < listing[j]
    )
    assert absorbed == LISTING_6X6_ABSORBED_LINES

    # the solve is exactly the grid's minimal conducting literal sets
    # without a complementary pair
    for t in got:
        assert _conducts_with(t), t
        assert not any(_conducts_with(t - {c}) for c in t), t
    for p in products:
        assert p is None or any(t <= p for t in got), p
    assert len(got) == SOLVE_6X6_TERM_COUNT


def test_criterion_04_published_witness_grids_verify():
    for name, rows, codes, fn in WITNESSES:
        lat = LatticeAssignment(LatticeDim(rows, len(codes) // rows), codes)
        if name not in REFUTED_WITNESSES:
            assert verify_witness(lat, fn), name
            assert _realizes(rows, codes, fn), name
            continue
        assert not verify_witness(lat, fn), name
        point = REFUTED_WITNESSES[name]
        values = _code_values(_variables(set(codes).union(*fn)), point)
        assert flood_conducts(rows, [values[c] for c in codes]) == 1, name
        assert _sop_value(fn, values) == 0, name
    assert len(WITNESSES) - len(REFUTED_WITNESSES) == 12


def test_criterion_05_mapper_round_trips_worked_examples():
    for fn in (MAP_EX1, MAP_EX2, MAP_EX3, MAP_EX4):
        r = map_function(fn, DIM3)
        assert r.status == SOLVED
        assert equivalent(solve_lattice(r.solution.assignment), fn)
        assert len(r.solution.order) > 0


def test_criterion_06_library_round_trip_100_entries():
    entries = generate_library(DIM3, 5, 100, 2024)
    assert len(entries) == 100
    for e in entries:
        r = map_function(e.function, DIM3)
        assert r.status == SOLVED, e.function
        assert equivalent(solve_lattice(r.solution.assignment), e.function)


def _ored_parts(out):
    return solve_lattice(out.result.solution_a.assignment) + solve_lattice(
        out.result.solution_b.assignment
    )


def test_criterion_07_decomposer_positive_and_negative_cases():
    assert _realizes(3, NOSPLIT8_ONE_LATTICE_3X3, DECOMP_NOSPLIT8)
    assert _realizes(3, NOSPLIT8_ONE_LATTICE_3X3, SYNTH_EIGHT)
    for name, fn, picked, grid_a, grid_b in SPLIT_WITNESSES_3X3:
        assert _realizes(3, grid_a, [fn[i] for i in picked]), name
        rest = [fn[i] for i in range(len(fn)) if i not in picked]
        assert _realizes(3, grid_b, rest), name

    # the even 4+4 split of DECOMP_UNEVEN8 maps
    for part in (DECOMP_UNEVEN8[:4], DECOMP_UNEVEN8[4:]):
        assert map_function(part, DIM3).status == SOLVED

    out = decompose_two(DECOMP_EVEN8, DIM3)
    assert out.status == SOLVED
    assert equivalent(_ored_parts(out), DECOMP_EVEN8)

    # the first schedule pair that maps wins, and the witnesses show a 7+1
    # and a 6+2 pair; these stay red while criterion 10's false negatives do
    false_negative = (
        "mapper false negative (criterion 10): a witnessed larger part was rejected"
    )
    out = decompose_two(DECOMP_NOSPLIT8, DIM3)
    assert out.status == SOLVED, false_negative
    assert len(out.result.indices_a) == 7, false_negative
    assert equivalent(_ored_parts(out), DECOMP_NOSPLIT8)

    out = decompose_two(DECOMP_UNEVEN8, DIM3)
    assert out.status == SOLVED
    assert len(out.result.indices_a) >= 6, false_negative
    assert equivalent(_ored_parts(out), DECOMP_UNEVEN8)


def test_criterion_08_synthesizer_three_lattice_plans():
    plan = synthesize(SYNTH_Q, DIM3)
    assert plan is not None
    assert len(plan.lattices) == 3
    assert realizes(plan, SYNTH_Q)

    plan = synthesize(SYNTH_EIGHT, DIM3)
    assert plan is not None
    assert len(plan.lattices) == 3
    assert realizes(plan, SYNTH_EIGHT)


def test_criterion_09_structural_fuzz_1000_random_lattices():
    dims = [LatticeDim(r, c) for r in range(2, 5) for c in range(2, 5)]
    lits = literal_range(5)
    total = 0
    for di, dim in enumerate(dims):
        rng = random.Random(1000 + di)
        n = 104 if dim == LatticeDim(4, 4) else 112
        for _ in range(n):
            codes = tuple(rng.choice(lits) for _ in range(dim.cells))
            fn = solve_lattice(LatticeAssignment(dim, codes))
            total += 1
            assert len(set(fn)) == len(fn)
            for i, t in enumerate(fn):
                assert 100 not in t and 101 not in t
                assert not any(1000 - c in t for c in t if c <= 25)
                assert not any(u < t for j, u in enumerate(fn) if j != i)
            assert absorb(fn) == fn
    assert total == 1000


def test_criterion_10_small_scale_mapper_completeness():
    dim = LatticeDim(2, 2)
    achievable: set[int] = set()
    pool = literal_range(3)
    for codes in itertools.product(pool, repeat=4):
        fn = solve_lattice(LatticeAssignment(dim, codes))
        achievable.add(function_mask(fn, [0, 1, 2]))

    rng = random.Random(7)
    lits = [0, 1, 2, 1000, 999, 998]
    mismatches = []
    for nterms in (1, 2, 3):
        for _ in range(40):
            terms = []
            for _ in range(nterms):
                k = rng.randint(1, 3)
                t = normalize_term(rng.sample(lits, k))
                if t is not None:
                    terms.append(t)
            fn = absorb(terms)
            if not fn:
                continue
            verdict = map_function(fn, dim).status
            oracle = function_mask(fn, [0, 1, 2]) in achievable
            if (verdict == SOLVED) != oracle:
                mismatches.append((fn, verdict, oracle))
    assert not mismatches, mismatches


# -- oracle tests beyond the criteria ----------------------------------------


def _minterms(table, variables):
    """The SOP of one full-length term per row of ``table``."""
    return [
        frozenset(v if k >> i & 1 else 1000 - v for i, v in enumerate(variables))
        for k in range(1 << len(variables))
        if table >> k & 1
    ]


def test_planar_dual_oracle_agrees_with_the_solver():
    """On seeded grids from 1x1 to 5x5 over 1 to 4 variables, the rows where
    no off-cell chain crosses the grid are ``lattice_table``'s rows and the
    truth table of ``solve_lattice``'s listing; ``verify_witness`` accepts
    the dual's own table as minterms and rejects it with one row flipped."""
    rng = random.Random(2014)
    for rows in range(1, 6):
        for cols in range(1, 6):
            dim = LatticeDim(rows, cols)
            for nvars in range(1, 5):
                variables, lits = list(range(nvars)), literal_range(nvars)
                values = _code_values(variables)
                full = values[101]
                masks = literal_masks(variables)
                for _ in range(30):
                    codes = tuple(rng.choice(lits) for _ in range(dim.cells))
                    lat = LatticeAssignment(dim, codes)
                    table = full & ~crossing_rows(rows, [full & ~values[c] for c in codes])
                    assert lattice_table(lat, masks) == table, codes
                    assert function_mask(solve_lattice(lat), variables) == table, codes
                    assert verify_witness(lat, _minterms(table, variables)), codes
                    flipped = table ^ 1 << rng.randrange(1 << nvars)
                    assert not verify_witness(lat, _minterms(flipped, variables)), codes


@pytest.mark.parametrize("rows,cols,listings", [(2, 2, 149), (2, 3, 629)])
def test_every_small_grid_listing_maps_on_its_shape(rows, cols, listings):
    """Every grid of the shape over ``literal_range(3)`` is solved; each
    distinct listing must map ``solved`` on the shape, with a witness that
    the flood-fill oracle accepts.  A failure is a completeness bug of the
    mapper."""
    dim = LatticeDim(rows, cols)
    found = {
        tuple(solve_lattice(LatticeAssignment(dim, codes)))
        for codes in itertools.product(literal_range(3), repeat=dim.cells)
    }
    assert len(found) == listings
    paths = enumerate_paths(dim)
    failures = []
    for fn in found:
        r = map_function(list(fn), dim, None, paths)
        if r.status != SOLVED or not _realizes(rows, r.solution.assignment.codes, fn):
            failures.append((fn, r.status))
    assert not failures, failures
