"""Lattice graph: cells plus pseudo source/destination and their children.

Cells are numbered row-major from 0 (top-left).  The source connects to the
whole top row and every bottom-row cell connects to the destination.
Horizontal edges exist only in the middle rows; the top and bottom rows keep
vertical edges only, which stops the most common superset paths from ever
being generated.
"""

from __future__ import annotations

from dataclasses import dataclass

SRC = -1

# The path walk keys its pocket memo by a cell mask ORed with ``cell << 64``,
# so it relies on this guard keeping every cell number below 64.
MAX_DIM = 8


@dataclass(frozen=True)
class LatticeDim:
    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"invalid lattice dimension {self.rows}x{self.cols}")

    @property
    def cells(self) -> int:
        return self.rows * self.cols

    @property
    def dst(self) -> int:
        """Destination pseudo-node; sorts after every cell index."""
        return self.rows * self.cols


def build_children(dim: LatticeDim) -> dict[int, tuple[int, ...]]:
    """Adjacency lists in ascending node order (SRC first, DST last)."""
    r, c = dim.rows, dim.cols
    children: dict[int, tuple[int, ...]] = {SRC: tuple(range(c)), dim.dst: ()}
    for i in range(r * c):
        row, col = divmod(i, c)
        neigh = []
        if row == 0:
            neigh.append(SRC)
        if row > 0:
            neigh.append(i - c)
        if 0 < row < r - 1:
            if col > 0:
                neigh.append(i - 1)
            if col < c - 1:
                neigh.append(i + 1)
        if row < r - 1:
            neigh.append(i + c)
        if row == r - 1:
            neigh.append(dim.dst)
        children[i] = tuple(sorted(neigh))
    return children
