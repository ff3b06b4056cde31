"""Enumeration of the irredundant source-to-destination paths of a lattice.

The DFS prunes a candidate cell as soon as it is a child of any earlier cell
of the developing path other than its immediate predecessor; what survives
is exactly the antichain of basic paths.  A brute-force variant (generate
all simple paths, then delete supersets) serves as the oracle for small
dimensions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .grid import MAX_DIM, SRC, LatticeDim, build_children


@dataclass(frozen=True)
class PathSet:
    dim: LatticeDim
    paths: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.paths)

    def cell_sets(self) -> set[frozenset[int]]:
        return {frozenset(p) for p in self.paths}

    @cached_property
    def mirrors(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """A (cell map, path map) pair per mirror of the grid that maps the
        multiset of path cell sets onto itself.

        The mirrors are left-right, top-bottom and both.  ``enumerate_paths``
        is closed under all three, a hand-written path file may not be.  The
        path map sends the k-th path with a cell set to the k-th path with
        its image, so both maps are involutions.
        """
        rows, cols = self.dim.rows, self.dim.cols
        sets = [frozenset(p) for p in self.paths]
        slots: dict[frozenset[int], list[int]] = {}
        for i, cells in enumerate(sets):
            slots.setdefault(cells, []).append(i)
        out = []
        for flip_rows, flip_cols in ((False, True), (True, False), (True, True)):
            cell_map = tuple(
                (rows - 1 - r if flip_rows else r) * cols + (cols - 1 - c if flip_cols else c)
                for r, c in (divmod(cell, cols) for cell in range(rows * cols))
            )
            image = [frozenset(cell_map[c] for c in cells) for cells in sets]
            if Counter(image) != Counter(sets):
                continue
            taken: Counter[frozenset[int]] = Counter()
            path_map = []
            for cells in image:
                path_map.append(slots[cells][taken[cells]])
                taken[cells] += 1
            out.append((cell_map, tuple(path_map)))
        return tuple(out)


def _canonical(paths: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(paths, key=lambda p: (len(p), p)))


def enumerate_paths(dim: LatticeDim) -> PathSet:
    """All irredundant paths, pruned during generation, in canonical order."""
    if dim.rows > MAX_DIM or dim.cols > MAX_DIM:
        raise ValueError(f"dimension {dim.rows}x{dim.cols} exceeds the {MAX_DIM} guard")
    children = build_children(dim)
    child_sets = {i: frozenset(children[i]) for i in range(dim.cells)}
    dst = dim.dst
    out: list[tuple[int, ...]] = []
    path: list[int] = []
    on_path: set[int] = set()

    def extend(node: int) -> None:
        for y in children[node]:
            if y == dst:
                out.append(tuple(path))
                continue
            if y == SRC or y in on_path:
                continue
            # superset prune: y may not be a child of any earlier cell
            if any(y in child_sets[z] for z in path[:-1]):
                continue
            path.append(y)
            on_path.add(y)
            extend(y)
            path.pop()
            on_path.remove(y)

    extend(SRC)
    return PathSet(dim, _canonical(out))


def brute_force_paths(dim: LatticeDim) -> PathSet:
    """Oracle: all simple paths first, supersets deleted afterwards."""
    if dim.rows > 4 or dim.cols > 4:
        raise ValueError("brute-force oracle is limited to dimensions up to 4x4")
    children = build_children(dim)
    dst = dim.dst
    all_paths: list[tuple[int, ...]] = []
    path: list[int] = []
    on_path: set[int] = set()

    def extend(node: int) -> None:
        for y in children[node]:
            if y == dst:
                all_paths.append(tuple(path))
                continue
            if y == SRC or y in on_path:
                continue
            path.append(y)
            on_path.add(y)
            extend(y)
            path.pop()
            on_path.remove(y)

    extend(SRC)

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
    if not paths.paths:
        raise ValueError("empty path set")
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


def parse_paths(text: str, dim: LatticeDim | None = None) -> PathSet:
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
        nums = [int(tok) for tok in ln.split()]
        if not nums or nums[0] != len(nums) - 1:
            raise ValueError(f"malformed path line {ln!r}")
        cells = tuple(nums[1:])
        if any(c < 0 or c >= num_cells for c in cells):
            raise ValueError(f"cell index out of range on line {ln!r}")
        parsed.append(cells)
    if dim is None:
        dim = _infer_dim(num_cells, parsed)
    elif dim.cells != num_cells:
        raise ValueError("header cell count does not match the given dimension")
    return PathSet(dim, _canonical(parsed))
