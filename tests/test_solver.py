import gc

import pytest
from hypothesis import given, settings, strategies as st

from latmap.codes import absorb, normalize_term, serialize_function, term_sort_key
from latmap.grid import LatticeDim
from latmap.paths import enumerate_paths
from latmap.solver import (
    LatticeAssignment,
    generate_library,
    literal_range,
    parse_lattice,
    serialize_lattice,
    serialize_library,
    solve_lattice,
    verify_witness,
)

from lattice_goldens import GRID_AB_C, GRID_AB_C_SOLVE, GRID_6X6, WITNESSES
from test_acceptance import _realizes  # flood-fill truth tables, no latmap import


def test_assignment_validation():
    with pytest.raises(ValueError):
        LatticeAssignment(LatticeDim(2, 2), (0, 1, 2))  # wrong cell count
    with pytest.raises(ValueError):
        LatticeAssignment(LatticeDim(2, 2), (0, 1, 2, 500))  # invalid code


def test_solve_small_known_answer():
    lat = LatticeAssignment(LatticeDim(3, 3), GRID_AB_C)
    assert solve_lattice(lat) == GRID_AB_C_SOLVE


def test_solve_all_zero_grid_is_constant_zero():
    lat = LatticeAssignment(LatticeDim(3, 3), (100,) * 9)
    assert solve_lattice(lat) == []


def test_solve_all_one_grid_is_constant_one():
    lat = LatticeAssignment(LatticeDim(2, 3), (101,) * 6)
    assert solve_lattice(lat) == [frozenset()]


def test_solve_distinct_variables_reproduces_paths():
    """With a fresh variable in every cell each term is exactly one path."""
    dim = LatticeDim(3, 3)
    lat = LatticeAssignment(dim, tuple(range(9)))
    fn = solve_lattice(lat)
    path_sets = enumerate_paths(dim).cell_sets()
    assert {frozenset(t) for t in fn} == path_sets


def test_solve_output_is_canonical_and_absorbed():
    lat = LatticeAssignment(LatticeDim(3, 3), GRID_6X6[:9])
    fn = solve_lattice(lat)
    assert fn == sorted(set(fn), key=term_sort_key)
    for i, t in enumerate(fn):
        assert not any(u < t for j, u in enumerate(fn) if j != i)


def test_solve_rejects_paths_of_another_dimension():
    """A smaller path set would solve part of the grid, a larger one would
    reach past it."""
    lat = LatticeAssignment(LatticeDim(3, 3), GRID_AB_C)
    for dim in (LatticeDim(2, 3), LatticeDim(3, 4), LatticeDim(4, 3)):
        with pytest.raises(ValueError):
            solve_lattice(lat, enumerate_paths(dim))
    assert solve_lattice(lat, enumerate_paths(LatticeDim(3, 3))) == GRID_AB_C_SOLVE


def test_solve_leaves_no_garbage_cycles():
    lat = LatticeAssignment(LatticeDim(3, 3), GRID_AB_C)
    paths = enumerate_paths(LatticeDim(3, 3))
    gc.collect()
    solve_lattice(lat, paths)
    assert gc.collect() == 0
    solve_lattice(lat)
    assert gc.collect() == 0


# -- random grids against the per-path definition and a flood fill ----------

# letters (a, b, c, z), their complements, two auxiliary variables, 0 and 1
CODES = (0, 1, 2, 25, 1000, 999, 998, 975, 26, 99, 100, 101)


def _solve_by_paths(lat, paths):
    """The solver's definition: each path's product, cancelled on 0 or on
    x x', then absorbed and sorted."""
    terms = [normalize_term(lat.codes[cell] for cell in p) for p in paths.paths]
    return sorted(absorb([t for t in terms if t is not None]), key=term_sort_key)


@st.composite
def _grids(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    codes = draw(st.lists(st.sampled_from(CODES), min_size=rows * cols, max_size=rows * cols))
    return LatticeAssignment(LatticeDim(rows, cols), tuple(codes))


@settings(max_examples=150, deadline=None)
@given(_grids())
def test_solve_matches_per_path_definition_and_flood_fill(lat):
    paths = enumerate_paths(lat.dim)
    fn = solve_lattice(lat, paths)
    assert fn == _solve_by_paths(lat, paths)
    assert _realizes(lat.dim.rows, lat.codes, fn)


@pytest.mark.parametrize("name,rows,codes,fn", WITNESSES[:5])
def test_verify_witness_positive(name, rows, codes, fn):
    lat = LatticeAssignment(LatticeDim(rows, len(codes) // rows), codes)
    assert verify_witness(lat, fn)


def test_verify_witness_negative():
    lat = LatticeAssignment(LatticeDim(3, 3), GRID_AB_C)
    assert not verify_witness(lat, [frozenset({0})])


def test_literal_range():
    assert literal_range(5) == [0, 1, 2, 3, 4, 1000, 999, 998, 997, 996, 101, 100]
    with pytest.raises(ValueError):
        literal_range(0)
    with pytest.raises(ValueError):
        literal_range(27)


def test_generate_library_deterministic():
    dim = LatticeDim(3, 3)
    a = generate_library(dim, 5, 20, 42)
    b = generate_library(dim, 5, 20, 42)
    assert len(a) == 20
    assert [e.lattice for e in a] == [e.lattice for e in b]
    assert [e.function for e in a] == [e.function for e in b]


def test_generate_library_prefix_stable():
    """Running fewer trials yields a prefix of the longer run."""
    dim = LatticeDim(3, 3)
    long = generate_library(dim, 5, 10, 7)
    short = generate_library(dim, 5, 4, 7)
    assert [e.lattice for e in short] == [e.lattice for e in long[:4]]


def test_generate_library_entries_self_consistent():
    for e in generate_library(LatticeDim(3, 3), 4, 10, 3):
        assert verify_witness(e.lattice, e.function)


def test_lattice_round_trip():
    lat = LatticeAssignment(LatticeDim(3, 3), GRID_AB_C)
    text = serialize_lattice(lat)
    assert text.splitlines()[0] == "3 3"
    assert parse_lattice(text) == lat


def test_parse_lattice_sample():
    lat = parse_lattice("3 3\n1000 998 1000\n101 0 1\n1 999 1\n")
    assert lat.codes == (1000, 998, 1000, 101, 0, 1, 1, 999, 1)


def test_parse_lattice_errors():
    with pytest.raises(ValueError):
        parse_lattice("")
    with pytest.raises(ValueError):
        parse_lattice("2 2\n0 1\n")
    with pytest.raises(ValueError):
        parse_lattice("2 2\n0 1 2\n3 4\n")


def test_serialize_library_layouts():
    entries = generate_library(LatticeDim(2, 2), 3, 2, 0)
    plain = serialize_library(entries)
    assert "-----" not in plain
    decorated = serialize_library(entries, paper_style=True)
    assert "-----" in decorated
    # both carry every lattice block
    for e in entries:
        assert serialize_lattice(e.lattice).splitlines()[1] in plain


def test_library_functions_parse_back():
    from latmap.codes import parse_function

    for e in generate_library(LatticeDim(3, 3), 5, 5, 11):
        assert parse_function(serialize_function(e.function)) == e.function
