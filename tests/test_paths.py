import gc
import hashlib
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from latmap import paths as paths_module
from latmap.grid import LatticeDim, build_children
from latmap.paths import (
    ALL_MIRRORS,
    brute_force_paths,
    enumerate_paths,
    serialize_paths,
)

from lattice_goldens import PATH_COUNTS, PATH_DIGESTS, PATHS_3X3


def test_3x3_paths_exact():
    ps = enumerate_paths(LatticeDim(3, 3))
    assert list(ps.paths) == [bytes(p) for p in PATHS_3X3]


@pytest.mark.parametrize("r", range(2, 8))
def test_path_counts_row(r):
    for c in range(2, 8):
        if r * c > 36:
            continue  # the big ones run in the acceptance suite
        assert len(enumerate_paths(LatticeDim(r, c))) == PATH_COUNTS[r][c - 2]


def _cell_sets(ps):
    return {frozenset(p) for p in ps.paths}


@pytest.mark.parametrize(
    "r,c", [(r, c) for r in range(1, 9) for c in range(1, 9) if r * c <= 20]
)
def test_matches_brute_force(r, c):
    """The same paths, cell order included, on every shape of at most 20
    cells, single rows and columns too: the mapper reads a path's cells in
    order.  Both hold each path as ``bytes``.  The walk's pocket test
    skips steps on the shapes of four or more rows and three or more
    columns, so these check it too."""
    dim = LatticeDim(r, c)
    fast, oracle = enumerate_paths(dim).paths, brute_force_paths(dim).paths
    assert fast == oracle
    assert all(type(p) is bytes for p in fast + oracle)


def test_enumeration_pinned():
    """Every dimension up to 8x8 gives the recorded paths, in order."""
    for (r, c), (count, digest) in PATH_DIGESTS.items():
        ps = enumerate_paths(LatticeDim(r, c))
        assert len(ps) == count, (r, c)
        assert hashlib.sha256(serialize_paths(ps).encode()).hexdigest() == digest, (r, c)


@pytest.mark.parametrize(
    "r,c,count,most", [(7, 7, 26317, 28808), (8, 6, 25686, 24383)], ids=["7x7", "8x6"]
)
def test_pocket_test_cuts_the_walk(monkeypatch, r, c, count, most):
    """The path walk makes at most ``most`` calls, counted by wrapping
    ``_extend`` (the walk recurses through the module's name): a change
    that weakens the pocket test, with every path kept, makes more.  On
    7x7 the walk made 67,671 without the test."""
    calls = 0
    extend = paths_module._extend

    def counted(*args):
        nonlocal calls
        calls += 1
        return extend(*args)

    monkeypatch.setattr(paths_module, "_extend", counted)
    assert len(enumerate_paths(LatticeDim(r, c))) == count
    assert calls <= most, calls


def _reaches_row_below(dim, children, inner, y):
    """Whether a breadth-first search from ``y`` over ``children``, through
    cells of rows 1 to the row below ``y`` outside ``inner``, reaches the
    row below ``y``."""
    cols = dim.cols
    low = y // cols + 1
    seen, todo = {y}, deque([y])
    while todo:
        x = todo.popleft()
        if x // cols == low:
            return True
        for z in children[x]:
            if 0 <= z < dim.cells and 1 <= z // cols <= low and not inner >> z & 1 and z not in seen:
                seen.add(z)
                todo.append(z)
    return False


@pytest.mark.parametrize("r,c", [(8, 8), (7, 8), (5, 4)])
def test_pocket_fill_matches_a_search(r, c):
    """The pocket test's bit-parallel fill gives the verdict of a plain
    breadth-first search over the lattice graph, for seeded random masks
    and cells of rows 1 to ``rows - 3``, the ones upward steps enter; 8x8
    and 7x8 check its column masks on grids too large for the brute-force
    oracle."""
    dim = LatticeDim(r, c)
    children = build_children(dim)
    reaches = paths_module._Pockets(dim)
    rng = random.Random(r * 10 + c)
    for _ in range(3000):
        y = rng.randrange(c, (r - 2) * c)
        density = rng.uniform(0.2, 0.8)
        inner = sum(1 << x for x in range(dim.cells) if rng.random() < density) | 1 << y
        want = _reaches_row_below(dim, children, inner, y)
        assert reaches[inner & reaches.window[y] | y << 64] == want, (bin(inner), y)


def test_paths_form_an_antichain():
    for dim in (LatticeDim(3, 3), LatticeDim(4, 3), LatticeDim(3, 4)):
        sets = list(_cell_sets(enumerate_paths(dim)))
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
    """A finished enumeration's paths are freed by reference counting,
    not kept alive until a cyclic collection."""
    gc.collect()
    enumerate_paths(LatticeDim(4, 4))
    assert gc.collect() == 0
    brute_force_paths(LatticeDim(3, 3))
    assert gc.collect() == 0


def test_cell_masks_follow_path_order():
    """One mask per path, index by index."""
    ps = enumerate_paths(LatticeDim(2, 2))
    assert ps.paths == (bytes((0, 2)), bytes((1, 3)))
    assert ps.cell_masks == (0b0101, 0b1010)
    big = enumerate_paths(LatticeDim(4, 5))
    assert big.cell_masks == tuple(sum(1 << c for c in p) for p in big.paths)


def test_longest_path_len():
    """Canonical order puts a longest path last, which is how ``synthesize``
    reads the term-length bound."""
    for dim, longest in ((LatticeDim(2, 2), 2), (LatticeDim(3, 3), 5)):
        paths = enumerate_paths(dim).paths
        assert len(paths[-1]) == max(map(len, paths)) == longest


def test_dimension_guard():
    with pytest.raises(ValueError):
        enumerate_paths(LatticeDim(9, 2))
    with pytest.raises(ValueError):
        brute_force_paths(LatticeDim(5, 5))


def test_serialize_format():
    text = serialize_paths(enumerate_paths(LatticeDim(3, 3)))
    lines = text.splitlines()
    assert lines[0] == "9 9"
    assert lines[1] == "3 0 3 6"


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


@pytest.mark.parametrize("r", range(2, 7))
def test_canonical_and_fixes_follow_the_path_maps(r):
    """Every enumerated set up to 6x6: for each mask of mirrors, the
    canonical paths are those that no mirror in the mask maps to an
    earlier path, and each path's fix mask holds the mirrors that map it
    onto itself."""
    for c in range(2, 7):
        ps = enumerate_paths(LatticeDim(r, c))
        n = len(ps)
        pmaps = [pmap for _, pmap in ps.mirrors]
        assert ALL_MIRRORS == (1 << len(pmaps)) - 1
        for mask in range(ALL_MIRRORS + 1):
            chosen = [pmap for j, pmap in enumerate(pmaps) if mask >> j & 1]
            assert list(ps.canonical[mask]) == [
                pi for pi in range(n) if not any(pmap[pi] < pi for pmap in chosen)
            ], (ps.dim, mask)
        assert list(ps.fixes) == [
            sum(1 << j for j, pmap in enumerate(pmaps) if pmap[pi] == pi) for pi in range(n)
        ], ps.dim


def reference_mirrors(ps):
    """``PathSet.mirrors`` on cell sets: each path goes to the path whose
    cell set is its image."""
    rows, cols = ps.dim.rows, ps.dim.cols
    sets = [frozenset(p) for p in ps.paths]
    index = {cells: i for i, cells in enumerate(sets)}
    out = []
    for flip_rows, flip_cols in ((False, True), (True, False), (True, True)):
        cell_map = tuple(
            (rows - 1 - r if flip_rows else r) * cols + (cols - 1 - c if flip_cols else c)
            for r, c in (divmod(cell, cols) for cell in range(rows * cols))
        )
        path_map = tuple(index[frozenset(cell_map[c] for c in cells)] for cells in sets)
        out.append((cell_map, path_map))
    return tuple(out)


def _table_cases():
    """Every shape up to 6x6, and those with 7 or 8 rows or columns and at
    most 40 cells, where the top-bottom mirror reverses longer paths."""
    yield from (enumerate_paths(LatticeDim(r, c)) for r in range(1, 9) for c in range(1, 9)
                if max(r, c) <= 6 or r * c <= 40)


def test_mirrors_match_cell_set_reference():
    """The shapes of ``_table_cases``."""
    for ps in _table_cases():
        assert ps.mirrors == reference_mirrors(ps), ps.dim


def test_through_lists_the_paths_on_each_cell():
    for ps in _table_cases():
        assert ps.through == tuple(
            tuple(i for i, p in enumerate(ps.paths) if c in p) for c in range(ps.dim.cells)
        ), ps.dim


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5))
def test_path_lengths_bounded(r, c):
    """No basic path revisits a column pair: length is at most r + c - 2 + ...
    conservatively, the cell count."""
    ps = enumerate_paths(LatticeDim(r, c))
    for p in ps.paths:
        assert r <= len(p) <= r * c
        assert len(set(p)) == len(p)
