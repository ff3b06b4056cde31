"""Lattice network solver, lattice evaluator and seeded function libraries.

A literal-assigned lattice solves to the exact, unminimized SOP: each
basic path contributes the product of its cell literals, cancelled paths
drop out and superset products are absorbed.

Where only the lattice's function is needed, ``lattice_table`` evaluates it
without paths: a bit-parallel flood fill of truth tables from the top row,
at any grid size.  ``verify_witness`` compares that table with f's.

The solve walks the grid's own paths: the depth-first walk of
``paths._extend`` on the same ``walk_tables``, carrying the path's literals
as an int with one bit per distinct literal of the grid.  It recurses by
cell over the ``steps`` of the cell, and a cell of the next-to-last row
ends a path in the bottom-row cell ``below`` it.  A branch is cut at a 0
cell (its bit is in the initial ``forbid``, so unlike the enumeration the
walk tests the cell below too), at a literal whose complement is already
in the set (x x'), and wherever the set contains a product already found,
tested at every step.  Every path below a cut is cancelled or absorbed, so
no minimal product is lost.  A new product drops the kept ones that
contain it, so the kept products stay an antichain and end as exactly the
minimal ones: the per-path definition's listing, whatever the walk order.
Each step scans the kept products, so a grid whose every path has its own
product solves slower than a pass over a given path set did.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from operator import or_

from .codes import (
    CONST_ONE,
    CONST_ZERO,
    COMPLEMENT_BASE,
    LETTER_MAX,
    VALID_CODES,
    Sop,
    check_code,
    function_mask,
    literal_masks,
    serialize_function,
    table_variables,
    term_sort_key,
)
from .grid import LatticeDim, build_children
from .paths import PathSet, paths_for, walk_tables


@dataclass(frozen=True)
class LatticeAssignment:
    dim: LatticeDim
    codes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.codes) != self.dim.cells:
            raise ValueError(
                f"{len(self.codes)} codes for a {self.dim.rows}x{self.dim.cols} lattice"
            )
        if not VALID_CODES.issuperset(self.codes):
            for c in self.codes:
                check_code(c)  # raises at the first invalid code


def _keep(lits: int, found: list[int]) -> None:
    """Add the literal set ``lits`` of a complete path to ``found`` unless a
    product there absorbs it, dropping the products it absorbs."""
    for p in found:
        if lits & p == p:
            return
    found[:] = [p for p in found if p & lits != lits]
    found.append(lits)


def _grow(
    node: int,
    lits: int,
    forbid: int,
    steps: tuple[tuple[tuple[int, int], ...], ...],
    near: tuple[int, ...],
    below: tuple[int | None, ...],
    bit: list[int],
    clash: list[int],
    found: list[int],
) -> None:
    """Add to ``found`` (by ``_keep``) the literal set of every complete path
    that extends a partial one, whose last cell is ``node`` and whose
    literal set is ``lits``, and is not cancelled.  ``forbid`` has a bit set
    for each 0 cell, each cell on the path before ``node`` and each child of
    one; a branch whose set contains a product already found is cut."""
    end = below[node]
    # a child of ``node`` alone, but it may be a 0 cell
    if end is not None and not (forbid >> end & 1 or lits & clash[end]):
        _keep(lits | bit[end], found)
    inner = forbid | near[node]
    for y, b in steps[node]:
        if forbid & b or lits & clash[y]:
            continue
        ly = lits | bit[y]
        for p in found:
            if ly & p == p:
                break
        else:
            _grow(y, ly, inner, steps, near, below, bit, clash, found)


def solve_lattice(lat: LatticeAssignment, paths: PathSet | None = None) -> Sop:
    """Exact SOP of the lattice, in canonical (size, codes) order.

    The solve walks the grid and does not read ``paths``; a path set of
    another dimension is still a ValueError."""
    if paths is not None:
        paths_for(lat.dim, paths)
    steps, near, below = walk_tables(lat.dim)
    bit_of: dict[int, int] = {}
    zero = 0
    for cell, code in enumerate(lat.codes):
        if code == CONST_ZERO:
            zero |= 1 << cell
        elif code != CONST_ONE and code not in bit_of:
            bit_of[code] = 1 << len(bit_of)
    bit = [bit_of.get(code, 0) for code in lat.codes]
    # only a letter and its complement are both codes, so the bit of
    # COMPLEMENT_BASE - code is 0 for an auxiliary variable and a constant
    clash = [bit_of.get(COMPLEMENT_BASE - code, 0) for code in lat.codes]
    found: list[int] = []
    top = (1 << lat.dim.cols) - 1  # the source's children
    for col in range(lat.dim.cols):
        if zero >> col & 1:
            continue
        if lat.dim.rows == 1:
            _keep(bit[col], found)
        else:
            _grow(col, bit[col], zero | top, steps, near, below, bit, clash, found)
    terms = [frozenset([c for c, b in bit_of.items() if m & b]) for m in found]
    return sorted(terms, key=term_sort_key)


def lattice_table(lat: LatticeAssignment, masks: dict[int, int]) -> int:
    """Truth table of the lattice's top-to-bottom connectivity, from the
    ``literal_masks`` table of each cell's code.

    Bit k of ``reach[cell]`` is set when, on row k of the tables, the cell is
    on and joined to the top row through cells that are on.  Sweeps repeat
    until no reach grows; the OR over the bottom row is the function.
    """
    dim = lat.dim
    children = build_children(dim)
    on = [masks[code] for code in lat.codes]
    # a top-row cell reaches wherever it is on; the slot after the cells
    # stands for the destination and stays 0
    reach = on[: dim.cols] + [0] * (dim.cells - dim.cols + 1)
    changed = True
    while changed:
        changed = False
        for cell in range(dim.cols, dim.cells):
            r = on[cell] & reduce(or_, [reach[n] for n in children[cell]])
            if r != reach[cell]:
                reach[cell], changed = r, True
    return reduce(or_, reach[-dim.cols - 1 :])


def verify_witness(lat: LatticeAssignment, f: Sop) -> bool:
    """Does the lattice realize f?  Compared on truth tables over the
    variables of both, with no path enumeration."""
    universe = table_variables(f, [frozenset(lat.codes) - {CONST_ZERO, CONST_ONE}])
    return lattice_table(lat, literal_masks(universe)) == function_mask(f, universe)


def literal_range(num_vars: int) -> list[int]:
    """Random-draw range: variables, their complements, constant 1 and 0."""
    if not 1 <= num_vars <= LETTER_MAX + 1:
        raise ValueError(f"num_vars must be in 1..{LETTER_MAX + 1}, got {num_vars}")
    rng = list(range(num_vars))
    rng += [COMPLEMENT_BASE - v for v in range(num_vars)]
    rng += [CONST_ONE, CONST_ZERO]
    return rng


@dataclass(frozen=True)
class LibraryEntry:
    lattice: LatticeAssignment
    function: Sop
    trial: int
    seed: int


def generate_library(
    dim: LatticeDim, num_vars: int, trials: int, seed: int
) -> list[LibraryEntry]:
    """Seeded random lattices and their solved functions, one per trial.

    Per-trial sub-seed is seed + trial index, so trial results do not
    depend on how many trials run.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    choices = literal_range(num_vars)
    out = []
    for trial in range(trials):
        rng = random.Random(seed + trial)
        codes = tuple(rng.choice(choices) for _ in range(dim.cells))
        lat = LatticeAssignment(dim, codes)
        out.append(LibraryEntry(lat, solve_lattice(lat), trial, seed + trial))
    return out


def serialize_lattice(lat: LatticeAssignment) -> str:
    r, c = lat.dim.rows, lat.dim.cols
    lines = [f"{r} {c}"]
    for row in range(r):
        lines.append(" ".join(str(code) for code in lat.codes[row * c : (row + 1) * c]))
    return "\n".join(lines) + "\n"


def parse_lattice(text: str) -> LatticeAssignment:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty lattice file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"bad dimension line {lines[0]!r}")
    r, c = int(head[0]), int(head[1])
    if len(lines) - 1 != r:
        raise ValueError(f"expected {r} grid rows, got {len(lines) - 1}")
    codes: list[int] = []
    for ln in lines[1:]:
        row = [int(tok) for tok in ln.split()]
        if len(row) != c:
            raise ValueError(f"expected {c} codes on row {ln!r}")
        codes.extend(row)
    return LatticeAssignment(LatticeDim(r, c), tuple(codes))


def serialize_library(entries: list[LibraryEntry], paper_style: bool = False) -> str:
    """Library file: per entry a lattice block, then its function block.

    The default layout is comment-free; paper_style adds decorated
    "-----" separators between entries.
    """
    blocks = []
    for e in entries:
        lat = serialize_lattice(e.lattice)
        fn = serialize_function(e.function)
        if paper_style:
            dim_line, _, grid = lat.partition("\n")
            n_line, _, term_lines = fn.partition("\n")
            blocks.append(
                f"{dim_line}           // row and column of the lattice\n"
                "-----\n"
                f"{grid.rstrip()}\n"
                "-----\n\n"
                f"{n_line}           /// total number of product terms\n"
                "-----\n"
                f"{term_lines.rstrip()}\n"
                "-----\n"
            )
        else:
            blocks.append(lat + "\n" + fn)
    return "\n".join(blocks)
