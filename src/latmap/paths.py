"""Enumeration of the irredundant source-to-destination paths of a lattice.

The DFS prunes a candidate cell as soon as it is a child of any earlier cell
of the developing path other than its immediate predecessor; what survives
is exactly the antichain of basic paths.  The prune is one bit test: the
DFS carries an int ``forbid`` with a bit set for each cell on the path
before the last one, for each child of such a cell and for each child of
the source (the top row), so a child of the last cell may extend the path
exactly when its bit is clear.  A step ORs in the last cell and its
children.
The lattice graph is left-right symmetric, so the DFS starts only from the
left half of the top row, the middle column of an odd width included, and
each path found from a column other than its own mirror column adds its
left-right image.
The DFS recurses through a module-level function, not a closure that names
itself, so no reference cycle keeps a finished enumeration's path tuples
alive until a cyclic collection.
A brute-force variant (generate all simple paths, then delete supersets)
serves as the oracle for small dimensions.

A ``PathSet`` holds every irredundant path of its dimension (a path file
is checked against the enumeration) and owns the tables derived from them,
each built at its first use and then kept: ``cell_masks`` (each path as an
int with bit ``c`` set for every cell ``c`` on it), which the solver reads,
and ``through`` (the paths on each cell) and ``mirrors``, which the mapper
reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .grid import MAX_DIM, SRC, LatticeDim, build_children


@dataclass(frozen=True)
class PathSet:
    """Every irredundant path of ``dim``, each as its cells in order."""

    dim: LatticeDim
    paths: tuple[tuple[int, ...], ...]

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
        top-bottom and both.  Each maps the path set onto itself, the path
        map sending a path to the one whose cell mask is its image, so both
        maps are involutions."""
        rows, cols = range(self.dim.rows), range(self.dim.cols)
        index = {m: i for i, m in enumerate(self.cell_masks)}
        out = []
        for rs, cs in ((rows, cols[::-1]), (rows[::-1], cols)):
            cell_map = tuple(r * len(cols) + c for r in rs for c in cs)
            bits = [1 << c for c in cell_map]
            image = [sum(map(bits.__getitem__, p)) for p in self.paths]
            out.append((cell_map, tuple(map(index.__getitem__, image))))
        (_, lr), (_, tb) = out
        # both mirrors reverse the cell order; their path map is the composition
        out.append((tuple(range(self.dim.cells))[::-1], tuple(map(tb.__getitem__, lr))))
        return tuple(out)


def _canonical(paths: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """The paths in (length, cells) order; sorts ``paths`` in place."""
    paths.sort()
    paths.sort(key=len)  # stable: equal lengths keep the cell order
    return tuple(paths)


def _extend(
    node: int,
    path: list[int],
    forbid: int,
    kids: list[tuple[int, ...]],
    near: list[int],
    ends: list[bool],
    out: list[tuple[int, ...]],
) -> None:
    """Record every irredundant extension of ``path``, whose last node is
    ``node``; ``forbid`` has bit ``y`` set for each node on the path before
    ``node`` and for each child of one."""
    inner = forbid | near[node]  # what a child of ``y`` must avoid
    for y in kids[node]:
        if forbid >> y & 1:
            continue
        path.append(y)
        if ends[y]:
            out.append(tuple(path))
        _extend(y, path, inner, kids, near, ends, out)
        path.pop()


def enumerate_paths(dim: LatticeDim) -> PathSet:
    """All irredundant paths, pruned during generation, in canonical order."""
    if dim.rows > MAX_DIM or dim.cols > MAX_DIM:
        raise ValueError(f"dimension {dim.rows}x{dim.cols} exceeds the {MAX_DIM} guard")
    children = build_children(dim)
    n, cols = dim.cells, dim.cols
    kids = [tuple(y for y in children[x] if 0 <= y < n) for x in range(n)]
    near = [sum(1 << y for y in (x,) + kids[x]) for x in range(n)]
    ends = [dim.dst in children[x] for x in range(n)]
    top = (1 << cols) - 1  # the source's children
    flip = [x - x % cols + cols - 1 - x % cols for x in range(n)]
    out: list[tuple[int, ...]] = []
    for col in range((cols + 1) // 2):
        start = len(out)
        if ends[col]:
            out.append((col,))
        _extend(col, [col], top, kids, near, ends, out)
        if flip[col] != col:
            # the lattice is left-right symmetric: the paths from the
            # mirror column are the images of these.  A tuple made from a
            # list is allocated at its size; one made from an iterator is
            # shrunk to it, which on 7x8 leaves the peak RSS about 1 MB higher.
            out.extend(tuple([flip[c] for c in out[i]]) for i in range(start, len(out)))
    return PathSet(dim, _canonical(out))


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
    out: list[tuple[int, ...]],
) -> None:
    """Record every simple extension of ``path`` (last cell ``node``) to dst."""
    for y in children[node]:
        if y == dst:
            out.append(tuple(path))
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
    all_paths: list[tuple[int, ...]] = []
    _simple_paths(SRC, [], build_children(dim), dim.dst, all_paths)

    # equal cell sets: keep the lexicographically smallest sequence
    by_set: dict[frozenset[int], tuple[int, ...]] = {}
    for p in all_paths:
        key = frozenset(p)
        if key not in by_set or p < by_set[key]:
            by_set[key] = p
    survivors = [
        seq
        for cells, seq in by_set.items()
        if not any(other < cells for other in by_set)
    ]
    return PathSet(dim, _canonical(survivors))


def longest_path_len(paths: PathSet) -> int:
    return max(len(p) for p in paths.paths)


def serialize_paths(paths: PathSet) -> str:
    lines = [f"{len(paths.paths)} {paths.dim.cells}"]
    for p in paths.paths:
        lines.append(f"{len(p)} " + " ".join(str(c) for c in p))
    return "\n".join(lines) + "\n"


def _infer_dim(num_cells: int, paths: list[tuple[int, ...]]) -> LatticeDim:
    for p in paths:
        for a, b in zip(p, p[1:]):
            d = abs(a - b)
            if d > 1:
                cols = d
                if num_cells % cols:
                    raise ValueError("cell count does not match inferred width")
                return LatticeDim(num_cells // cols, cols)
    if all(len(p) == 1 for p in paths) and len(paths) == num_cells:
        return LatticeDim(1, num_cells)
    return LatticeDim(num_cells, 1)


def _path_fault(paths: list[tuple[int, ...]], dim: LatticeDim) -> str:
    """The first path of ``paths`` that is no top-to-bottom path of ``dim``,
    either way round, with the reason; empty when there is none."""
    c = dim.cols
    steps = {(a, b) for a, kids in build_children(dim).items() for b in kids}
    for p in paths:
        if not p or min(p[0], p[-1]) >= c or max(p[0], p[-1]) < dim.cells - c:
            return f"path {p} does not run from the top row to the bottom row"
        if not steps.issuperset(zip(p, p[1:])):
            return f"path {p} takes a step that no lattice path takes"
        if len(set(p)) != len(p):
            return f"path {p} repeats a cell"
    return ""


def parse_paths(text: str, dim: LatticeDim | None = None) -> PathSet:
    """``enumerate_paths(dim)``, the shape read from the file without
    ``dim``, once the file lists exactly those paths, each once, in any order
    and either way round; any other file is a ValueError.  Each path is
    checked on its own (top row to bottom row, only steps of the lattice
    graph ``build_children``, no repeated cell) before the enumeration runs,
    so a malformed file costs none."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty path file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"bad header line {lines[0]!r}")
    num_paths, num_cells = int(head[0]), int(head[1])
    if len(lines) - 1 != num_paths:
        raise ValueError(f"expected {num_paths} path lines, got {len(lines) - 1}")
    parsed: list[tuple[int, ...]] = []
    for ln in lines[1:]:
        nums = list(map(int, ln.split()))
        if not nums or nums[0] != len(nums) - 1:
            raise ValueError(f"malformed path line {ln!r}")
        cells = tuple(nums[1:])
        if cells and (min(cells) < 0 or max(cells) >= num_cells):
            raise ValueError(f"cell index out of range on line {ln!r}")
        parsed.append(cells)
    if dim is None:
        dim = _infer_dim(num_cells, parsed)
    elif dim.cells != num_cells:
        raise ValueError("header cell count does not match the given dimension")
    fault = _path_fault(parsed, dim)
    if fault:
        raise ValueError(
            f"the file does not list the irredundant paths"
            f" of a {dim.rows}x{dim.cols} lattice: {fault}"
        )
    ps = enumerate_paths(dim)
    # a path repeats no cell, so its cell mask tells its cells, and distinct
    # irredundant paths have distinct masks
    bits = [1 << c for c in range(dim.cells)]
    masks = {sum(map(bits.__getitem__, p)) for p in parsed}
    if len(parsed) != len(ps) or masks != set(ps.cell_masks):
        raise ValueError(
            f"the file does not list the {len(ps)} irredundant paths"
            f" of a {dim.rows}x{dim.cols} lattice, each once"
        )
    return ps
