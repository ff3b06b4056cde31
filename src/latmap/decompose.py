"""Two-lattice decomposition via the descending pair-size schedule.

A function with n terms is split across two lattices by trying sub-function
pairs of sizes (n-1, 1), (n-2, 2), ... down to the even split; the first
pair whose two parts both map wins, so the larger part carries as many
product terms as the mapper fits on one lattice.  The mapper's no-solution is
not a proof (see ``latmap.mapper``), so a workable larger pair, or any pair
at all, can be missed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .codes import Sop
from .grid import LatticeDim
from .mapper import (
    INCONCLUSIVE,
    NO_SOLUTION,
    SOLVED,
    MappingSolution,
    MapResult,
    SearchBudget,
    map_function,
)
from .paths import PathSet, enumerate_paths


def split_schedule(n: int) -> list[tuple[int, int]]:
    """Pair sizes (a, b), a >= b, a + b = n, from (n-1, 1) to the even split."""
    if n < 2:
        raise ValueError("need at least 2 terms to split")
    return [(a, n - a) for a in range(n - 1, (n + 1) // 2 - 1, -1)]


@dataclass(frozen=True)
class DecompositionResult:
    indices_a: tuple[int, ...]
    solution_a: MappingSolution
    indices_b: tuple[int, ...]
    solution_b: MappingSolution


@dataclass
class DecomposeOutcome:
    status: str
    result: Optional[DecompositionResult] = None


def decompose_two(
    f: Sop,
    dim: LatticeDim,
    budget: SearchBudget | None = None,
    paths: PathSet | None = None,
    max_stages: int | None = None,
    memo: dict[frozenset[int], MapResult] | None = None,
) -> DecomposeOutcome:
    """First schedule pair admitting a mapping of both parts.

    NoSolution is claimed only when every subset of every stage was
    exhausted with trustworthy (non-truncated) negatives.
    """
    n = len(f)
    if n < 2:
        raise ValueError("decomposition needs at least 2 terms")
    if max_stages is not None and max_stages < 1:
        raise ValueError(f"max_stages must be at least 1, got {max_stages}")
    if paths is None:
        paths = enumerate_paths(dim)
    if memo is None:
        memo = {}

    def mapped(indices: tuple[int, ...]) -> MapResult:
        key = frozenset(indices)
        if key not in memo:
            memo[key] = map_function([f[i] for i in indices], dim, budget, paths)
        return memo[key]

    inconclusive_seen = False
    stages = split_schedule(n)
    if max_stages is not None and max_stages < len(stages):
        stages = stages[:max_stages]
        inconclusive_seen = True  # early stop: a negative is no longer a proof
    for a, b in stages:
        for combo in itertools.combinations(range(n), a):
            if a == b and 0 not in combo:
                continue  # visit each unordered pair once
            ra = mapped(combo)
            if ra.status == INCONCLUSIVE:
                inconclusive_seen = True
                continue
            if ra.status == NO_SOLUTION:
                continue
            rest = tuple(i for i in range(n) if i not in combo)
            rb = mapped(rest)
            if rb.status == INCONCLUSIVE:
                inconclusive_seen = True
                continue
            if rb.status == SOLVED:
                return DecomposeOutcome(
                    SOLVED,
                    DecompositionResult(combo, ra.solution, rest, rb.solution),
                )
    return DecomposeOutcome(INCONCLUSIVE if inconclusive_seen else NO_SOLUTION)
