"""Two-lattice decomposition via the descending pair-size schedule.

A function with n terms is split across two lattices by trying sub-function
pairs of sizes (n-1, 1), (n-2, 2), ... down to the even split; the first
pair whose two parts both map wins, so the larger part carries as many
product terms as the mapper fits on one lattice.  The mapper's no-solution
for a part proves only that no grid houses its terms one per path, with
constant-1 fillers, the other cells 0 and no completed path outside the part
(see ``latmap.mapper``), not that no lattice does.  So a workable larger
pair, or any pair at all, can be missed where this answers NO SOLUTION.

A run fixes one deadline when it starts, before it builds its path set,
and each mapper call gets the time that remains.  Its first time cut, a
call with no time left or an inconclusive answer, raises ``OutOfTime`` and
ends the run at every layer; the memo keeps only definite verdicts.
"""

from __future__ import annotations

import itertools
import time
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
    OutOfTime,
    SearchBudget,
    map_function,
)
from .paths import PathSet, paths_for

Memo = dict[tuple[LatticeDim, tuple[Term, ...]], MapResult]


def split_schedule(n: int) -> list[tuple[int, int]]:
    """Pair sizes (a, b), a >= b, a + b = n, from (n-1, 1) to the even split."""
    if n < 2:
        raise ValueError("need at least 2 terms to split")
    return [(a, n - a) for a in range(n - 1, (n + 1) // 2 - 1, -1)]


class Run:
    """One run's deadline, path set and memo of definite verdicts, keyed by
    the dimension and the ordered term tuple; callers may share the memo,
    across dimensions too.  The deadline is fixed before the path set is
    enumerated, so the enumeration counts against the time limit, though
    it is not cut short."""

    def __init__(self, dim: LatticeDim, budget: SearchBudget,
                 paths: PathSet | None = None, memo: Memo | None = None):
        self.dim = dim
        self.deadline = budget.deadline()
        self.paths = paths_for(dim, paths)
        self.memo = {} if memo is None else memo

    def left(self) -> SearchBudget:
        """The time that remains; ``OutOfTime`` when none does."""
        if self.deadline is None:
            return SearchBudget()
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise OutOfTime
        return SearchBudget(left)

    def solve(self, terms: Sop) -> Optional[MappingSolution]:
        """The lattice for ``terms``, None for no-solution, mapped at most
        once per memo; ``OutOfTime`` when the time runs out first."""
        key = self.dim, tuple(terms)
        result = self.memo.get(key)
        if result is None:
            result = map_function(list(key[1]), self.dim, self.left(), self.paths)
            if result.status == INCONCLUSIVE:
                raise OutOfTime
            self.memo[key] = result
        return result.solution


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
    memo: Memo | None = None,
) -> DecomposeOutcome:
    """First schedule pair admitting a mapping of both parts.

    NoSolution is claimed only when every subset of every stage got a
    definite negative; the first time cut ends the call as inconclusive.
    ``memo`` is a ``Run``'s memo, which callers may share, across
    dimensions too.
    """
    n = len(f)
    if n < 2:
        raise ValueError("decomposition needs at least 2 terms")
    table_variables(f)  # bound f's variables before any part is mapped
    run = Run(dim, budget or SearchBudget(), paths, memo)
    try:
        for a, b in split_schedule(n):
            for combo in itertools.combinations(range(n), a):
                if a == b and 0 not in combo:
                    continue  # visit each unordered pair once
                sol_a = run.solve([f[i] for i in combo])
                if sol_a is None:
                    continue
                rest = tuple(i for i in range(n) if i not in combo)
                sol_b = run.solve([f[i] for i in rest])
                if sol_b is not None:
                    return DecomposeOutcome(
                        SOLVED, DecompositionResult(combo, sol_a, rest, sol_b)
                    )
    except OutOfTime:
        return DecomposeOutcome(INCONCLUSIVE)
    return DecomposeOutcome(NO_SOLUTION)
