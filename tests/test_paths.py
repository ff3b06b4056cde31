import gc

import pytest
from hypothesis import given, settings, strategies as st

from latmap.grid import LatticeDim
from latmap.paths import (
    PathSet,
    brute_force_paths,
    enumerate_paths,
    longest_path_len,
    parse_paths,
    serialize_paths,
)

from lattice_goldens import PATH_COUNTS, PATHS_3X3


def test_3x3_paths_exact():
    ps = enumerate_paths(LatticeDim(3, 3))
    assert list(ps.paths) == PATHS_3X3


@pytest.mark.parametrize("r", range(2, 8))
def test_path_counts_row(r):
    for c in range(2, 8):
        if r * c > 36:
            continue  # the big ones run in the acceptance suite
        assert len(enumerate_paths(LatticeDim(r, c))) == PATH_COUNTS[r][c - 2]


@pytest.mark.parametrize("r,c", [(r, c) for r in range(2, 5) for c in range(2, 5)])
def test_matches_brute_force(r, c):
    dim = LatticeDim(r, c)
    assert enumerate_paths(dim).cell_sets() == brute_force_paths(dim).cell_sets()


def test_paths_form_an_antichain():
    for dim in (LatticeDim(3, 3), LatticeDim(4, 3), LatticeDim(3, 4)):
        sets = list(enumerate_paths(dim).cell_sets())
        for i, a in enumerate(sets):
            for b in sets[i + 1 :]:
                assert not (a <= b or b <= a)


def test_every_path_connects_top_to_bottom():
    dim = LatticeDim(4, 4)
    for p in enumerate_paths(dim).paths:
        assert p[0] < dim.cols  # starts in the top row
        assert p[-1] >= dim.cells - dim.cols  # ends in the bottom row


def test_canonical_order():
    ps = enumerate_paths(LatticeDim(4, 4))
    keys = [(len(p), p) for p in ps.paths]
    assert keys == sorted(keys)


def test_enumeration_leaves_no_garbage_cycles():
    """A finished enumeration's path tuples are freed by reference counting,
    not kept alive until a cyclic collection."""
    gc.collect()
    enumerate_paths(LatticeDim(4, 4))
    assert gc.collect() == 0
    brute_force_paths(LatticeDim(3, 3))
    assert gc.collect() == 0


def test_cell_masks_follow_path_order():
    """One mask per path, index by index, also when a file lists a cell
    set twice."""
    ps = parse_paths("4 4\n2 0 2\n2 2 0\n2 1 3\n3 0 1 3\n")
    assert ps.paths == ((0, 2), (1, 3), (2, 0), (0, 1, 3))
    assert ps.cell_masks == (0b0101, 0b1010, 0b0101, 0b1011)
    big = enumerate_paths(LatticeDim(4, 5))
    assert big.cell_masks == tuple(sum(1 << c for c in p) for p in big.paths)


def test_longest_path_len():
    assert longest_path_len(enumerate_paths(LatticeDim(3, 3))) == 5
    assert longest_path_len(enumerate_paths(LatticeDim(2, 2))) == 2


def test_dimension_guard():
    with pytest.raises(ValueError):
        enumerate_paths(LatticeDim(9, 2))


def test_serialize_format():
    text = serialize_paths(enumerate_paths(LatticeDim(3, 3)))
    lines = text.splitlines()
    assert lines[0] == "9 9"
    assert lines[1] == "3 0 3 6"


@pytest.mark.parametrize("r,c", [(2, 2), (3, 3), (2, 5), (4, 3)])
def test_parse_round_trip(r, c):
    ps = enumerate_paths(LatticeDim(r, c))
    back = parse_paths(serialize_paths(ps))
    assert back.dim == ps.dim
    assert back.paths == ps.paths


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_paths("")
    with pytest.raises(ValueError):
        parse_paths("2 4\n2 0 2\n")  # header says two paths, file has one
    with pytest.raises(ValueError):
        parse_paths("1 4\n3 0 2\n")  # count prefix disagrees with the cells
    with pytest.raises(ValueError):
        parse_paths("1 4\n2 0 9\n")  # cell out of range


def _mirror(cells, dim, flip_cols, flip_rows):
    out = set()
    for cell in cells:
        r, c = divmod(cell, dim.cols)
        r = dim.rows - 1 - r if flip_rows else r
        c = dim.cols - 1 - c if flip_cols else c
        out.add(r * dim.cols + c)
    return frozenset(out)


MIRRORS = [(True, False), (False, True), (True, True)]


@pytest.mark.parametrize("r", range(2, 7))
def test_mirror_orbit_minima_flagged(r):
    """Every enumerated path set up to 6x6 holds distinct cell sets and is
    closed under the left-right and top-bottom mirrors."""
    for c in range(2, 7):
        dim = LatticeDim(r, c)
        ps = enumerate_paths(dim)
        sets = [frozenset(p) for p in ps.paths]
        index = {s: i for i, s in enumerate(sets)}
        assert len(index) == len(sets)
        images = [[_mirror(s, dim, *m) for s in sets] for m in MIRRORS]
        for img in images:
            assert set(img) == set(sets)


def test_mirror_not_closed_is_not_used():
    """Without (2, 5, 8) the 3x3 set is closed only under the top-bottom
    mirror: paths pair up with their top-bottom image alone."""
    kept = [p for p in PATHS_3X3 if p != (2, 5, 8)]
    text = serialize_paths(PathSet(LatticeDim(3, 3), tuple(kept)))
    ps = parse_paths(text, LatticeDim(3, 3))
    assert [path_map for _, path_map in ps.mirrors] == [(0, 1, 3, 2, 5, 4, 7, 6)]
    assert len(enumerate_paths(LatticeDim(3, 3)).mirrors) == 3


@pytest.mark.parametrize("r", range(2, 7))
def test_mirror_maps_are_involutions(r):
    """Every enumerated set up to 6x6 keeps all three mirrors; each cell map
    and path map undoes itself, and the path map sends a path to the path
    whose cell set is the cell map's image of it."""
    for c in range(2, 7):
        dim = LatticeDim(r, c)
        ps = enumerate_paths(dim)
        sets = [frozenset(p) for p in ps.paths]
        assert len(ps.mirrors) == 3
        for (cell_map, path_map), m in zip(ps.mirrors, MIRRORS):
            assert [cell_map[cell_map[x]] for x in range(dim.cells)] == list(range(dim.cells))
            assert [path_map[path_map[i]] for i in range(len(sets))] == list(range(len(sets)))
            for i, s in enumerate(sets):
                assert sets[path_map[i]] == frozenset(cell_map[x] for x in s)
                assert sets[path_map[i]] == _mirror(s, dim, *m)


def test_mirror_maps_of_unclosed_set():
    """Without (2, 5, 8) the 3x3 set keeps only the top-bottom mirror, which
    maps every cell to the one in its column and the other row."""
    kept = [p for p in PATHS_3X3 if p != (2, 5, 8)]
    text = serialize_paths(PathSet(LatticeDim(3, 3), tuple(kept)))
    ps = parse_paths(text, LatticeDim(3, 3))
    ((cell_map, path_map),) = ps.mirrors
    assert cell_map == (6, 7, 8, 3, 4, 5, 0, 1, 2)
    sets = [frozenset(p) for p in ps.paths]
    for i, s in enumerate(sets):
        assert path_map[path_map[i]] == i
        assert sets[path_map[i]] == frozenset(cell_map[x] for x in s)


def test_mirror_maps_with_repeated_paths():
    """A path file may list a cell set twice; the path map pairs the copies
    up in order, so it stays an involution and sends the second copy of a
    mirror-fixed path to itself, not to the first copy."""
    dim = LatticeDim(3, 3)
    ps = PathSet(dim, tuple(PATHS_3X3) + ((0, 3, 6), (1, 4, 7), (2, 5, 8)))
    n = len(ps.paths)
    lr, tb, both = (path_map for _, path_map in ps.mirrors)
    assert all(pm[pm[i]] == i for pm in (lr, tb, both) for i in range(n))
    assert (lr[0], lr[1], lr[n - 3], lr[n - 2]) == (2, 1, n - 1, n - 2)
    assert [tb[i] for i in (0, 1, 2, n - 3, n - 2, n - 1)] == [0, 1, 2, n - 3, n - 2, n - 1]


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5))
def test_path_lengths_bounded(r, c):
    """No basic path revisits a column pair: length is at most r + c - 2 + ...
    conservatively, the cell count."""
    ps = enumerate_paths(LatticeDim(r, c))
    for p in ps.paths:
        assert r <= len(p) <= r * c
        assert len(set(p)) == len(p)
