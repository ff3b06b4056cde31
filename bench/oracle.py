"""Truth-table oracles that share no code with latmap.

A lattice conducts when the switched-on cells connect the top plate to the
bottom plate through edge-adjacent cells; ``conducts`` decides that by
flood fill over the full 4-neighbour grid.  A function is evaluated term by
term.  A truth table is an int whose bit ``i`` is the value under the
assignment in which variable ``variables[j]`` is bit ``j`` of ``i``.

Literal codes (the project's file format): 0..25 letters, 26..99 auxiliary
signals, ``1000 - v`` the complement of letter ``v``, 100 constant 0 and
101 constant 1.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

ZERO = 100
ONE = 101
COMPLEMENT = 1000


def variable(code: int) -> int | None:
    """Variable read by a literal code; None for the two constants."""
    if code in (ZERO, ONE):
        return None
    return code if code < ZERO else COMPLEMENT - code


def literal_on(code: int, env: Mapping[int, bool]) -> bool:
    if code == ONE:
        return True
    if code == ZERO:
        return False
    if code < ZERO:
        return env[code]
    return not env[COMPLEMENT - code]


def variables_of(codes: Iterable[int]) -> set[int]:
    return {v for v in map(variable, codes) if v is not None}


def conducts(rows: int, cols: int, on: Sequence[bool]) -> bool:
    """Top-to-bottom connectivity of the cells that are on (row-major)."""
    seen = [False] * (rows * cols)
    stack = [c for c in range(cols) if on[c]]
    for c in stack:
        seen[c] = True
    while stack:
        cell = stack.pop()
        r, c = divmod(cell, cols)
        if r == rows - 1:
            return True
        for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= nr < rows and 0 <= nc < cols:
                n = nr * cols + nc
                if on[n] and not seen[n]:
                    seen[n] = True
                    stack.append(n)
    return False


def lattice_on(rows: int, cols: int, codes: Sequence[int], env: Mapping[int, bool]) -> bool:
    return conducts(rows, cols, [literal_on(c, env) for c in codes])


def assignments(variables: Sequence[int]) -> Iterable[dict[int, bool]]:
    for i in range(1 << len(variables)):
        yield {v: bool(i >> j & 1) for j, v in enumerate(variables)}


def lattice_table(rows: int, cols: int, codes: Sequence[int], variables: Sequence[int]) -> int:
    out = 0
    for i, env in enumerate(assignments(variables)):
        if lattice_on(rows, cols, codes, env):
            out |= 1 << i
    return out


def sop_on(terms: Iterable[Iterable[int]], env: Mapping[int, bool]) -> bool:
    return any(all(literal_on(c, env) for c in t) for t in terms)


def sop_table(terms: Sequence[Iterable[int]], variables: Sequence[int]) -> int:
    out = 0
    for i, env in enumerate(assignments(variables)):
        if sop_on(terms, env):
            out |= 1 << i
    return out


def grid_realizes(rows: int, cols: int, codes: Sequence[int], terms: Sequence[Iterable[int]]) -> bool:
    """True when the lattice's connectivity function equals the SOP."""
    universe = sorted(variables_of(codes) | variables_of(c for t in terms for c in t))
    return lattice_table(rows, cols, codes, universe) == sop_table(terms, universe)
