"""Enumeration of the irredundant source-to-destination paths of a lattice.

The DFS prunes a candidate cell as soon as it is a child of any earlier cell
of the developing path other than its immediate predecessor; what survives
is exactly the antichain of basic paths.  The prune is one bit test: the
DFS carries an int ``forbid`` with a bit set for each cell on the path
before the last one, for each child of such a cell and for each child of
the source (the top row), so a child of the last cell may extend the path
exactly when its bit is clear.  A step ORs in the last cell and its
children.
A bottom-row cell has one child among the cells, the cell above it, so a
path reaches it only from there and it is never forbidden: on a cell of the
next-to-last row the DFS records the path through the cell below with no
test, and it never steps into a bottom-row cell.
An upward step also skips dead pockets.  The walk steps up from row
``r + 1`` into a cell ``y`` of row ``r`` only if a flood fill from ``y``
through the cells of rows 1 to ``r + 1`` outside ``inner``, the mask its
descendants must avoid, reaches row ``r + 1``.  The prune is exact: a path
recorded below ``y`` avoids ``inner`` from its second cell on, never
enters the always-forbidden top row, and starts in row ``r <= rows - 3``.
So it reaches row ``r + 1`` first through free cells of rows 1 to ``r``,
all of which have horizontal edges; the fill explores exactly those cells,
so "closed" loses no path.  The fill is bit-parallel, by shifts and ANDs
with the first and last column masks stopping wrap-around, and its
verdicts are memoized in a dict keyed by ``inner`` cut to the rows 1 to
``r + 1`` ORed with ``y << 64``, made afresh for each enumeration.
Only upward steps are tested: on 7x8, 126,638 of the walk's 232,512 calls
recorded no path without the test, 123,198 of them below an upward step
into a walled-off pocket, and the dead subtrees below side steps held
3,440 calls.  The test cuts the calls from 67,671 to 28,808 on 7x7, from
232,512 to 110,480 on 7x8 and from 1,905,362 to 812,301 on 8x8.
A path is ``bytes``, its cell numbers in order (``MAX_DIM`` keeps them below
64), which iterate, index, hash and sort as tuples of the numbers would, in
a fraction of the memory.
The output is in canonical (length, cells) order with no global sort.  The
DFS walks with its path in a ``bytearray`` and appends each finished path
to one ``bytearray`` per length, end to end, and within one length its
preorder, children in ascending order, is already the cell order.
The lattice graph is left-right symmetric, so the DFS starts only from the
left half of the top row, the middle column of an odd width in buffers of
its own.  The right columns' paths are the left ones' images: per length
one ``bytes.translate`` of the left buffer by ``mirror_tables``'s
left-right table, and only these images, cut into paths, are sorted.  Per
length the output is the left paths, then the middle ones, then the
images.
The DFS recurses through a module-level function, not a closure that names
itself, so no reference cycle keeps a finished enumeration's buffers alive
until a cyclic collection.
A brute-force variant (generate all simple paths, then delete supersets)
serves as the oracle for small dimensions.

The walk's tables (``steps``, ``near``, ``below``) are built once per
dimension by ``walk_tables``, which also holds the ``MAX_DIM`` guard; the
solver walks the same tables to list a grid's products without enumerating
paths, and without the pocket test, whose windows are cached per dimension
beside them.
A ``PathSet`` holds every irredundant path of its dimension and owns the
tables derived from them, each built at its first use and then kept:
``cell_masks`` (each path as an int with bit ``c`` set for every cell ``c``
on it), ``through`` (the paths on each cell), ``mirrors`` (read off the
path bytes), and two tables read off the mirrors' path maps, over masks of
mirrors (bit ``j`` for ``mirrors[j]``): ``fixes`` (per path, the mask of the
mirrors that map it onto itself) and ``canonical`` (per mask, filled at the
first lookup of that mask, the paths that no mirror in it maps to an
earlier path).  The mapper reads them; the solver reads no path set.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import compress
from typing import Sequence

from .grid import MAX_DIM, SRC, LatticeDim, build_children

# the mask of all three mirrors of ``PathSet.mirrors``, bit j for mirror j
ALL_MIRRORS = 0b111


@dataclass(frozen=True)
class PathSet:
    """Every irredundant path of ``dim``, each as ``bytes`` holding its cell
    numbers in order, and the mapper's tables of them."""

    dim: LatticeDim
    paths: tuple[bytes, ...]

    def __len__(self) -> int:
        return len(self.paths)

    @cached_property
    def cell_masks(self) -> tuple[int, ...]:
        """One int per path, in path order, with bit ``c`` set for each cell
        ``c`` on it."""
        bits = [1 << c for c in range(self.dim.cells)]
        return tuple([sum(map(bits.__getitem__, p)) for p in self.paths])

    @cached_property
    def through(self) -> tuple[tuple[int, ...], ...]:
        """For each cell, the ascending indices of the paths on it."""
        through: list[list[int]] = [[] for _ in range(self.dim.cells)]
        for pi, p in enumerate(self.paths):
            for cell in p:
                through[cell].append(pi)
        return tuple(map(tuple, through))

    @cached_property
    def mirrors(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """A (cell map, path map) pair per mirror of the grid: left-right,
        top-bottom and both, each an involution of the path set.  A path's
        image is its bytes translated by ``mirror_tables``, reversed for
        top-bottom, since a path's one top-row cell fixes its order."""
        lr, tb = mirror_tables(self.dim)
        index = {p: i for i, p in enumerate(self.paths)}.__getitem__
        lr_map = tuple([index(p.translate(lr)) for p in self.paths])
        tb_map = tuple([index(p.translate(tb)[::-1]) for p in self.paths])
        n = self.dim.cells
        # both mirrors reverse the cell order; their path map is the composition
        return ((tuple(lr[:n]), lr_map), (tuple(tb[:n]), tb_map),
                (tuple(range(n))[::-1], tuple(map(tb_map.__getitem__, lr_map))))

    @cached_property
    def fixes(self) -> bytes:
        """Per path, the mask of the mirrors that map it onto itself."""
        (_, lr), (_, tb), (_, both) = self.mirrors
        return bytes([(a == pi) | (b == pi) << 1 | (c == pi) << 2
                      for pi, a, b, c in zip(range(len(self.paths)), lr, tb, both)])

    @cached_property
    def canonical(self) -> _Canonical:
        """Per mask of mirrors, the ascending indices of the paths that no
        mirror in the mask maps to an earlier path; each mask's list is
        built at its first lookup."""
        return _Canonical([pmap for _, pmap in self.mirrors])


class _Canonical(dict):
    """``self[mask]``, filled on demand in one pass over the path maps of
    the mask's mirrors: the paths whose image under each of them is the
    path itself or a later one, every path (a ``range``) for mask 0.  It
    keeps the path maps, not the path set, so that no reference cycle
    holds a path set."""

    __slots__ = ("maps",)

    def __init__(self, maps: list[tuple[int, ...]]) -> None:
        super().__init__()
        self.maps = maps

    def __missing__(self, mask: int) -> Sequence[int]:
        order = range(len(self.maps[0]))
        later = [map(operator.ge, pmap, order)
                 for j, pmap in enumerate(self.maps) if mask >> j & 1]
        self[mask] = table = tuple(compress(order, map(all, zip(*later)))) if later else order
        return table


def _extend(
    node: int,
    path: bytearray,
    forbid: int,
    steps: tuple[tuple[tuple[int, int], ...], ...],
    near: tuple[int, ...],
    below: tuple[int | None, ...],
    reaches: _Pockets,
    out: list[bytearray],
) -> None:
    """Append every irredundant extension of ``path``, whose last cell is
    ``node``, to ``out[k]`` for its length ``k + 1``; ``forbid`` has bit
    ``y`` set for each cell on the path before ``node`` and for each child
    of one.  An upward step is taken only into a cell that ``reaches``
    finds open."""
    end = below[node]
    if end is not None:  # a child of ``node`` alone: never forbidden
        buf = out[len(path)]
        buf += path
        buf.append(end)
    inner = forbid | near[node]  # what a child of ``y`` must avoid
    for y, b in steps[node]:
        if not forbid & b:
            # an upward step into a walled-off pocket: of the steps, only the
            # cell above ``node`` numbers less than ``node - 1`` (a single
            # column, never tested, has no pockets)
            if y < node - 1 and not reaches[inner & reaches.window[y] | y << 64]:
                continue
            path.append(y)
            _extend(y, path, inner, steps, near, below, reaches, out)
            path.pop()


class _Pockets(dict):
    """The pocket test's verdicts for one enumeration, filled on demand:
    ``self[m | y << 64]``, where ``m`` is the mask cell ``y``'s descendants
    must avoid, cut to ``y``'s window (row 1 to the row below ``y``), is
    whether a flood fill from ``y`` through the window's cells outside ``m``
    reaches the row below ``y``."""

    __slots__ = ("cols", "window", "not_first", "not_last")

    def __init__(self, dim: LatticeDim) -> None:
        super().__init__()
        self.cols = dim.cols
        self.window, self.not_first, self.not_last = _pocket_geometry(dim)

    def __missing__(self, key: int) -> bool:
        y, cols = key >> 64, self.cols
        free = self.window[y] & ~key
        low = (y // cols + 1) * cols  # the first cell of the row below ``y``
        grow = 1 << y  # the cells first reached in the last round
        while grow and not grow >> low:
            grow = (grow << cols | grow >> cols | grow << 1 & self.not_first
                    | grow >> 1 & self.not_last) & free
            free ^= grow
        self[key] = reached = grow != 0
        return reached


@cache
def walk_tables(dim: LatticeDim) -> tuple[
    tuple[tuple[tuple[int, int], ...], ...],
    tuple[int, ...],
    tuple[int | None, ...],
]:
    """``(steps, near, below)`` of the path walk on ``dim``, built once
    per dimension.  Per cell: its children outside the bottom row as
    ``(cell, 1 << cell)`` pairs, the mask of the cell and all its children,
    and the bottom-row cell under it (None outside the next-to-last row); a
    top-row cell ends a path exactly when ``dim.rows`` is 1.  Raises
    ValueError beyond the ``MAX_DIM`` guard, which bounds every walk."""
    if dim.rows > MAX_DIM or dim.cols > MAX_DIM:
        raise ValueError(f"dimension {dim.rows}x{dim.cols} exceeds the {MAX_DIM} guard")
    children = build_children(dim)
    n, bottom = dim.cells, dim.cells - dim.cols
    kids = [[y for y in children[x] if 0 <= y < n] for x in range(n)]
    steps = tuple(tuple((y, 1 << y) for y in kids[x] if y < bottom) for x in range(n))
    near = tuple(sum(1 << y for y in [x, *kids[x]]) for x in range(n))
    below = tuple(x + dim.cols if bottom - dim.cols <= x < bottom else None for x in range(n))
    return steps, near, below


@cache
def mirror_tables(dim: LatticeDim) -> tuple[bytes, bytes]:
    """The left-right and top-bottom mirrors of ``dim`` as
    ``bytes.translate`` tables: a cell's byte goes to its image's, every
    other byte to itself."""
    rows, cols, cells = dim.rows, dim.cols, range(dim.cells)
    rest = bytes(range(dim.cells, 256))
    return (bytes(x - x % cols + cols - 1 - x % cols for x in cells) + rest,
            bytes((rows - 1 - x // cols) * cols + x % cols for x in cells) + rest)


@cache
def _pocket_geometry(dim: LatticeDim) -> tuple[tuple[int, ...], int, int]:
    """``(window, not_first, not_last)`` of the pocket test on ``dim``,
    built once per dimension: per cell ``y``, the mask of the rows from row
    1 to the row below ``y`` (read only for the rows 1 to ``rows - 3``,
    which upward steps enter), then the masks of the cells outside the
    first and outside the last column."""
    cols = dim.cols
    top = (1 << cols) - 1
    window = tuple((1 << (y // cols + 2) * cols) - 1 & ~top for y in range(dim.cells))
    first = sum(1 << x for x in range(0, dim.cells, cols))
    return window, ~first, ~(first << cols - 1)


def enumerate_paths(dim: LatticeDim) -> PathSet:
    """All irredundant paths, pruned during generation, in canonical order."""
    steps, near, below = walk_tables(dim)
    reaches = _Pockets(dim)
    n, cols = dim.cells, dim.cols
    top = (1 << cols) - 1  # the source's children
    # left[k] and middle[k] hold the cells of the paths of length k + 1 from
    # the left columns and from the middle column of an odd width, end to end
    left = [bytearray() for _ in range(n)]
    middle = [bytearray() for _ in range(n)]
    for col in range((cols + 1) // 2):
        out = middle if 2 * col + 1 == cols else left
        if dim.rows == 1:
            out[0].append(col)
        _extend(col, bytearray([col]), top, steps, near, below, reaches, out)
    # the lattice is left-right symmetric: the paths from the right columns
    # are the images of the left ones, each length's made in one translation
    flip = mirror_tables(dim)[0]
    paths: list[bytes] = []
    for k in range(n):
        size, ours = k + 1, bytes(left[k])
        images = ours.translate(flip)
        ours += middle[k]
        paths += [ours[i : i + size] for i in range(0, len(ours), size)]
        paths += sorted([images[i : i + size] for i in range(0, len(images), size)])
    return PathSet(dim, tuple(paths))


def paths_for(dim: LatticeDim, paths: PathSet | None) -> PathSet:
    """``paths``, enumerated when None; ValueError for another dimension."""
    if paths is None:
        return enumerate_paths(dim)
    if paths.dim != dim:
        raise ValueError(f"{paths.dim.rows}x{paths.dim.cols} paths for {dim.rows}x{dim.cols}")
    return paths


def _simple_paths(
    node: int,
    path: list[int],
    children: dict[int, tuple[int, ...]],
    dst: int,
    out: list[bytes],
) -> None:
    """Record every simple extension of ``path`` (last cell ``node``) to dst."""
    for y in children[node]:
        if y == dst:
            out.append(bytes(path))
            continue
        if y == SRC or y in path:
            continue
        path.append(y)
        _simple_paths(y, path, children, dst, out)
        path.pop()


def brute_force_paths(dim: LatticeDim) -> PathSet:
    """Oracle: all simple paths first, supersets deleted afterwards."""
    if dim.cells > 20:
        raise ValueError("brute-force oracle is limited to 20 cells")
    all_paths: list[bytes] = []
    _simple_paths(SRC, [], build_children(dim), dim.dst, all_paths)

    # equal cell sets: keep the lexicographically smallest sequence
    by_set: dict[frozenset[int], bytes] = {}
    for p in all_paths:
        key = frozenset(p)
        if key not in by_set or p < by_set[key]:
            by_set[key] = p
    survivors = [
        seq
        for cells, seq in by_set.items()
        if not any(other < cells for other in by_set)
    ]
    survivors.sort(key=lambda p: (len(p), p))
    return PathSet(dim, tuple(survivors))


def serialize_paths(paths: PathSet) -> str:
    word = [str(c) for c in range(paths.dim.cells + 1)].__getitem__
    lines = [" ".join(map(word, (len(p), *p))) for p in paths.paths]
    return "\n".join([f"{len(paths.paths)} {paths.dim.cells}", *lines, ""])
