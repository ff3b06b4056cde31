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

from .codes import Sop, Term, table_variables
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
from .paths import PathSet, paths_for


def split_schedule(n: int) -> list[tuple[int, int]]:
    """Pair sizes (a, b), a >= b, a + b = n, from (n-1, 1) to the even split."""
    if n < 2:
        raise ValueError("need at least 2 terms to split")
    return [(a, n - a) for a in range(n - 1, (n + 1) // 2 - 1, -1)]


def map_once(
    memo: dict[tuple[Term, ...], MapResult],
    terms: tuple[Term, ...],
    dim: LatticeDim,
    budget: SearchBudget,
    deadline: Optional[float],
    paths: PathSet,
) -> MapResult:
    """The verdict on ``terms``, mapped at most once per ``memo`` with the
    time that remains before ``deadline``.  With none left the call is
    skipped, and its verdict is inconclusive."""
    if terms not in memo:
        left = budget.until(deadline)
        memo[terms] = (
            MapResult(INCONCLUSIVE)
            if left is None
            else map_function(list(terms), dim, left, paths)
        )
    return memo[terms]


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
    memo: dict[tuple[Term, ...], MapResult] | None = None,
) -> DecomposeOutcome:
    """First schedule pair admitting a mapping of both parts.

    NoSolution is claimed only when every subset of every stage was
    exhausted with trustworthy (non-truncated) negatives.  The time limit
    bounds the whole call: a mapper call gets the time that remains, and
    with none left it is skipped and counts as inconclusive.  ``memo`` maps
    the ordered term tuples mapped to their verdicts; callers may share it.
    """
    n = len(f)
    if n < 2:
        raise ValueError("decomposition needs at least 2 terms")
    if max_stages is not None and max_stages < 1:
        raise ValueError(f"max_stages must be at least 1, got {max_stages}")
    table_variables(f)  # bound f's variables before any part is mapped
    if budget is None:
        budget = SearchBudget()
    paths = paths_for(dim, paths)
    if memo is None:
        memo = {}
    deadline = budget.deadline()

    def mapped(indices: tuple[int, ...]) -> MapResult:
        return map_once(memo, tuple(f[i] for i in indices), dim, budget, deadline, paths)

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
            inconclusive_seen |= ra.status == INCONCLUSIVE
            if ra.status != SOLVED:
                continue
            rest = tuple(i for i in range(n) if i not in combo)
            rb = mapped(rest)
            inconclusive_seen |= rb.status == INCONCLUSIVE
            if rb.status == SOLVED:
                return DecomposeOutcome(
                    SOLVED,
                    DecompositionResult(combo, ra.solution, rest, rb.solution),
                )
    return DecomposeOutcome(INCONCLUSIVE if inconclusive_seen else NO_SOLUTION)
