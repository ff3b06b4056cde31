"""Lattice network solver and seeded function-library generation.

A literal-assigned lattice evaluates to the exact, unminimized SOP: each
basic path contributes the product of its cell literals, cancelled paths
drop out and superset products are absorbed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .codes import (
    CONST_ONE,
    CONST_ZERO,
    COMPLEMENT_BASE,
    LETTER_MAX,
    Sop,
    absorb,
    check_code,
    equivalent,
    normalize_term,
    term_sort_key,
)
from .grid import LatticeDim
from .paths import PathSet, enumerate_paths


@dataclass(frozen=True)
class LatticeAssignment:
    dim: LatticeDim
    codes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.codes) != self.dim.cells:
            raise ValueError(
                f"{len(self.codes)} codes for a {self.dim.rows}x{self.dim.cols} lattice"
            )
        for c in self.codes:
            check_code(c)


def solve_lattice(lat: LatticeAssignment, paths: PathSet | None = None) -> Sop:
    """Exact SOP of the lattice, in canonical (size, codes) order."""
    if paths is None:
        paths = enumerate_paths(lat.dim)
    terms = []
    for p in paths.paths:
        t = normalize_term(lat.codes[cell] for cell in p)
        if t is not None:
            terms.append(t)
    return sorted(absorb(terms), key=term_sort_key)


def verify_witness(lat: LatticeAssignment, f: Sop) -> bool:
    return equivalent(solve_lattice(lat), f)


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
    paths = enumerate_paths(dim)
    out = []
    for trial in range(trials):
        rng = random.Random(seed + trial)
        codes = tuple(rng.choice(choices) for _ in range(dim.cells))
        lat = LatticeAssignment(dim, codes)
        out.append(LibraryEntry(lat, solve_lattice(lat, paths), trial, seed + trial))
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
    from .codes import serialize_function

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
