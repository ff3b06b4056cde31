"""Backtracking mapper: place a function's product terms onto lattice paths.

Each call runs one search, which examines the terms in the order given;
each term is housed on an available path (shortest first) by assigning its
literals to the path cells with constant-1 fillers, or deferred when no
housing works (it may still be present as a combination of other paths).
Dangling cells are zeroed at the end and the candidate grid is accepted only
if its solve is truth-table equivalent to the target.  The search backtracks
over path choices, placements and deferrals.  A budget cut ends it with
inconclusive at once: no other examination order is tried.

An exhausted unbudgeted search reports no-solution.  That covers only the
grids this search builds: the given terms housed on paths of their own
literals and constant-1 fillers, unused cells zeroed, and no completed path
whose product contains none of the given terms.  It is not a proof that no
grid realizes the function: terms that are not prime implicants give false
negatives.  On 2x2, a'bc' + ac', abc' + c and a'bc + a'b'c get no-solution,
while the same functions written as ac' + bc', ab + c and a'c map
(acceptance criterion 10, an open defect).

The search breaks the grid's mirror symmetry (lex-leader symmetry breaking,
Crawford et al., KR 1996).  Connectivity and every check of the search are
invariant under each mirror that maps the path set onto itself
(``PathSet.mirrors``).  Each node carries its stabilizer: the mirrors that
map its grid and used paths onto themselves, all of them at the root.  A
term is not housed on a path that one of them maps to an earlier path, and
on a path that one of them maps onto itself, an arrangement is skipped when
its mirror image comes earlier in the arrangement order.  A child keeps the
mirrors that fix its arrangement, a deferral keeps them all, so the rule
applies wherever the grid is still symmetric (say, a term on the centre
column of 3x3) and costs nothing once it is not.  Unbudgeted answers do not
change: were the first solution under a skipped path or arrangement, its
mirror would lie under an earlier sibling, whose subtree is searched in full
first.  Skipped arrangements do not count toward ``max_placements``, so a cut
search may stop at a different place than without the symmetry breaking; a
solved answer is still truth-table checked, and a cut search still gives
inconclusive, never no-solution.

A node keeps four lists: the grid, each path's count of unfixed cells, each
path's bound (the AND of its fixed cells' truth-table masks) and the term
housed on each path, if any.  Whatever else the answer reports is worked out
at the leaf: a term is hiding when no path houses it, and the points of
interest read cancellation and absorption off the path bounds, which are the
paths' product masks once every cell is fixed.  A term skips a path whose
bound does not contain the term's mask (a fixed cell holds 0 or a literal
the term lacks); the paths that pass are scanned for their free cells.
Undo is by snapshot: before the arrangements of one term on one path are
tried, the grid, the unfixed-cell counts and the path bounds are copied, and
they are restored after each arrangement (and around the zeroing in the
final check).  An arrangement is a tuple of ranks into the term's options,
its sorted literals and then constant 1, and is placed by one ``_fix`` call.
The arrangements over a path's free cells depend only on the number of
options, the number of free cells and the ranks still needed, so terms of
equal length share them; they are generated lazily in a fixed lexicographic
order and memoized per search once fully listed.  That order is the one the
search has always used, so unbudgeted answers and the point where
``max_placements`` cuts a search are unchanged.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional, Sequence

from .codes import (
    CONST_ONE,
    CONST_ZERO,
    COMPLEMENT_BASE,
    Sop,
    _var_mask,
    literal_masks,
    table_variables,
)
from .grid import LatticeDim
from .paths import PathSet, paths_for
from .solver import LatticeAssignment

# a grid mirror as (cell map, path map), see ``PathSet.mirrors``
Mirror = tuple[tuple[int, ...], tuple[int, ...]]

SOLVED = "solved"
NO_SOLUTION = "no-solution"
INCONCLUSIVE = "inconclusive"

# points-of-interest vocabulary
POI_SAVED_ESCAPE = "saved-escape-path"
POI_MULTI_OPTION = "covered-escape-multi-option"
POI_PATH_XXPRIME = "path-saved-by-xxprime"
POI_ZERO_ON_VAR = "zero-on-lattice-var"
POI_TERM_HIDING = "term-hiding"
POI_PLACED_XXPRIME = "placed-by-xxprime"


@dataclass(frozen=True)
class SearchBudget:
    """Limits on one mapping; None leaves a limit off.  The placement count
    must be at least 1 and a time limit finite and positive, since a budget
    that allows nothing could only ever answer inconclusive."""

    max_placements: Optional[int] = None
    time_limit: Optional[float] = None

    def __post_init__(self) -> None:
        p = self.max_placements
        if p is not None and p < 1:
            raise ValueError(f"max_placements must be at least 1, got {p}")
        t = self.time_limit
        if t is not None and not (math.isfinite(t) and t > 0):
            raise ValueError(f"time_limit must be finite and positive, got {t}")

    def deadline(self) -> Optional[float]:
        """The monotonic time at which a run started now must stop."""
        t = self.time_limit
        return None if t is None else time.monotonic() + t

    def until(self, deadline: Optional[float]) -> Optional[SearchBudget]:
        """This budget for one call of a run that stops at ``deadline``:
        the time that remains, or None when none does."""
        if deadline is None:
            return self
        left = deadline - time.monotonic()
        return replace(self, time_limit=left) if left > 0 else None


@dataclass(frozen=True)
class PoiEvent:
    kind: str
    subject: int

    def text(self) -> str:
        if self.kind == POI_SAVED_ESCAPE:
            return f"term {self.subject + 1} saved escape path"
        if self.kind == POI_MULTI_OPTION:
            return f"term {self.subject + 1} covered escape path by picking multi options"
        if self.kind == POI_PATH_XXPRIME:
            return f"path {self.subject + 1} saved by xx'"
        if self.kind == POI_ZERO_ON_VAR:
            return f"zero on lattice var {self.subject}"
        if self.kind == POI_TERM_HIDING:
            return f"term {self.subject + 1} was present but hiding"
        if self.kind == POI_PLACED_XXPRIME:
            return f"term {self.subject + 1} was placed by xx'"
        raise ValueError(f"unknown POI kind {self.kind}")


@dataclass(frozen=True)
class MappingSolution:
    assignment: LatticeAssignment
    order: tuple[int, ...]  # the examination order, always the terms' own
    poi: tuple[PoiEvent, ...]


@dataclass
class MapResult:
    status: str
    solution: Optional[MappingSolution] = None


class _Search:
    """Exhaustive backtracking search over the terms in the order given."""

    def __init__(
        self,
        f: Sop,
        paths: PathSet,
        budget: SearchBudget,
        deadline: Optional[float],
    ):
        self.f = f
        self.dim = paths.dim
        self.paths = paths.paths  # canonical = shortest first
        self.through = paths.through
        self.budget = budget
        self.deadline = deadline
        self.truncated = False

        self.var_order = table_variables(f)
        nv = len(self.var_order)
        self.full = (1 << (1 << nv)) - 1
        lit_mask = literal_masks(self.var_order)
        # a fixed cell ANDs its mask into the bound of every path through it
        self.code_mask = {**lit_mask, CONST_ZERO: 0, CONST_ONE: self.full}
        mask = self.code_mask.__getitem__
        self.term_mask = [
            functools.reduce(operator.and_, map(mask, t), self.full) for t in f
        ]
        self.term_outside = [self.full & ~m for m in self.term_mask]
        self.f_mask = functools.reduce(operator.or_, self.term_mask, 0)
        # an arrangement holds ranks into its term's options
        self.options = [tuple(sorted(t)) + (CONST_ONE,) for t in f]
        self.rank = [{code: r for r, code in enumerate(o)} for o in self.options]

        self.grid: list[Optional[int]] = [None] * self.dim.cells
        self.unfixed = [len(p) for p in self.paths]
        # upper bound on each path's contribution: AND of fixed literal masks
        self.path_ub = [self.full] * len(self.paths)
        # the term housed on each path, None for an unused path
        self.matched: list[Optional[int]] = [None] * len(self.paths)
        # fully listed arrangements by (options, free cells, ranks needed)
        self.arrangements: dict[tuple, list[tuple[int, ...]]] = {}

    # -- state updates ---------------------------------------------------

    def _snapshot(self) -> tuple[list, list, list]:
        return self.grid[:], self.unfixed[:], self.path_ub[:]

    def _restore(self, saved: tuple[list, list, list]) -> None:
        self.grid[:], self.unfixed[:], self.path_ub[:] = saved

    def _fix(
        self, cells: list[int], ranks: tuple[int, ...], options: tuple[int, ...]
    ) -> bool:
        """Fix each cell to its ranked option; False at a live escape.

        A fully fixed path must be neutralized: its product mask is 0 (a 0
        cell or an xx' pair) or lies inside a term's mask (its literals
        contain the term).  Nothing fixed later changes that, so the branch
        dies here, and the caller's restore discards the partial update.
        """
        grid = self.grid
        unfixed = self.unfixed
        path_ub = self.path_ub
        for cell, rank in zip(cells, ranks):
            code = options[rank]
            grid[cell] = code
            m = self.code_mask[code]
            for pi in self.through[cell]:
                unfixed[pi] -= 1
                ub = path_ub[pi] = path_ub[pi] & m
                if not unfixed[pi]:
                    for outside in self.term_outside:
                        if not ub & outside:
                            break
                    else:
                        return False
        return True

    def _coverage_ub(self) -> int:
        return functools.reduce(operator.or_, self.path_ub, 0)

    # -- placements ------------------------------------------------------

    def _placements(
        self, term_idx: int, path: tuple[int, ...]
    ) -> Optional[tuple[list[int], Iterable[tuple[int, ...]]]]:
        """The path's free cells and the rank arrangements over them, in a
        fixed order; None when the path's fixed cells rule the term out."""
        rank = self.rank[term_idx]
        provided: set[int] = set()
        free: list[int] = []
        for cell in path:
            v = self.grid[cell]
            if v is None:
                free.append(cell)
            elif v in rank:
                provided.add(rank[v])
            else:
                return None
        # the last rank is the constant-1 filler, never needed
        need = frozenset(range(len(rank) - 1)).difference(provided)
        if len(need) > len(free):
            return None
        key = (len(rank), len(free), need)
        arrangements = self.arrangements.get(key)
        if arrangements is None:
            return free, self._arrange(key)
        return free, arrangements

    def _arrange(self, key: tuple[int, int, frozenset[int]]) -> Iterator[tuple]:
        """Yield the rank tuples over ``nfree`` cells that hold every needed
        rank, lexicographic; memoize them once all are listed.  Yielding as
        they are made keeps the first placement (and the deadline check)
        from waiting for a list of noptions^nfree."""
        noptions, nfree, need = key
        chosen: list[int] = []

        def rec(i: int, still: frozenset[int]) -> Iterator[tuple[int, ...]]:
            if len(still) > nfree - i:
                return
            if i == nfree:
                yield tuple(chosen)
                return
            for rank in range(noptions):
                chosen.append(rank)
                yield from rec(i + 1, still - {rank} if rank in still else still)
                chosen.pop()

        listed = []
        for ranks in rec(0, need):
            listed.append(ranks)
            yield ranks
        self.arrangements[key] = listed

    # -- search ----------------------------------------------------------

    def _out_of_time(self) -> bool:
        if self.deadline is not None and time.monotonic() > self.deadline:
            self.truncated = True
            return True
        return False

    def _try_terms(self, ti: int, stab: Sequence[Mirror]) -> Optional[MappingSolution]:
        """Search below the current node; ``stab`` holds the mirrors that map
        its grid and used paths onto themselves."""
        if self._out_of_time():
            return None
        if self.f_mask & ~self._coverage_ub():
            return None
        if ti == len(self.f):
            return self._finish()
        term = self.f[ti]
        term_mask = self.term_mask[ti]
        options = self.options[ti]
        path_ub = self.path_ub
        max_pl = self.budget.max_placements
        for pi in range(len(self.paths)):
            if self.matched[pi] is not None:
                continue
            if term_mask & ~path_ub[pi]:
                continue  # a fixed cell holds 0 or a literal the term lacks
            if stab and any(pmap[pi] < pi for _, pmap in stab):
                continue  # a mirror image of this path comes earlier
            path = self.paths[pi]
            if len(term) > len(path):
                continue
            housing = self._placements(ti, path)
            if housing is None:
                continue
            free, arrangements = housing
            # mirrors that map the path onto itself permute its free cells
            fixing = [m for m in stab if m[1][pi] == pi]
            saved = self._snapshot()
            count = 0
            for ranks in arrangements:
                if self._out_of_time():
                    return None
                child: Sequence[Mirror] = ()
                if fixing:
                    child = self._arrangement_stab(free, ranks, fixing)
                    if child is None:
                        continue  # a mirror image of it comes earlier
                count += 1
                if max_pl is not None and count > max_pl:
                    self.truncated = True
                    break
                if self._fix(free, ranks, options):
                    self.matched[pi] = ti
                    sol = self._try_terms(ti + 1, child)
                    if sol is not None:
                        return sol
                    self.matched[pi] = None
                self._restore(saved)
        # no housing works down this branch: defer, the term may be hiding
        return self._try_terms(ti + 1, stab)

    def _arrangement_stab(
        self, free: list[int], ranks: tuple[int, ...], fixing: list[Mirror]
    ) -> Optional[list[Mirror]]:
        """None when a mirror image of the arrangement comes earlier in the
        arrangement order; otherwise the mirrors that leave it unchanged."""
        rank = dict(zip(free, ranks))
        child = []
        for mirror in fixing:
            image = tuple(rank[mirror[0][cell]] for cell in free)
            if image < ranks:
                return None
            if image == ranks:
                child.append(mirror)
        return child

    def _finish(self) -> Optional[MappingSolution]:
        zeroed = [cell for cell, v in enumerate(self.grid) if v is None]
        saved = self._snapshot()
        for cell in zeroed:
            self.grid[cell] = CONST_ZERO
            for pi in self.through[cell]:
                self.path_ub[pi] = 0  # cancelled, so never a live escape
        # every path is fixed now: path_ub is its product mask, 0 if cancelled
        if self._coverage_ub() != self.f_mask:
            self._restore(saved)
            return None
        assignment = LatticeAssignment(self.dim, tuple(self.grid))  # type: ignore[arg-type]
        poi = self._derive_poi(zeroed)
        return MappingSolution(assignment, tuple(range(len(self.f))), tuple(poi))

    # -- reporting -------------------------------------------------------

    def _derive_poi(self, zeroed: list[int]) -> list[PoiEvent]:
        """Points of interest of the finished grid.  Every path is fixed, so
        its bound is its product mask: an unused path with a nonzero mask is
        absorbed by the first term whose mask holds it, and one without a 0
        cell has mask 0 exactly when it holds an xx' pair."""
        absorbed_count: dict[int, int] = {}
        xxprime_paths: list[int] = []
        xxprime_terms: set[int] = set()
        for pi, path in enumerate(self.paths):
            if self.matched[pi] is not None:
                continue
            ub = self.path_ub[pi]
            if ub:
                for t_idx, outside in enumerate(self.term_outside):
                    if not ub & outside:
                        absorbed_count[t_idx] = absorbed_count.get(t_idx, 0) + 1
                        break
                continue
            codes = {self.grid[c] for c in path}
            if CONST_ZERO in codes:
                continue
            xxprime_paths.append(pi)
            for cell in path:
                if COMPLEMENT_BASE - self.grid[cell] in codes:
                    # terms are housed in index order and each fixes the
                    # free cells of its path, so a literal cell's owner is
                    # the first housed term whose path holds it
                    owners = (self.matched[pj] for pj in self.through[cell])
                    xxprime_terms.add(min(ti for ti in owners if ti is not None))
        events: list[PoiEvent] = []
        for t_idx in sorted(absorbed_count):
            kind = POI_SAVED_ESCAPE if absorbed_count[t_idx] == 1 else POI_MULTI_OPTION
            events.append(PoiEvent(kind, t_idx))
        for t_idx in sorted(xxprime_terms):
            events.append(PoiEvent(POI_PLACED_XXPRIME, t_idx))
        for pi in xxprime_paths:
            events.append(PoiEvent(POI_PATH_XXPRIME, pi))
        for cell in zeroed:
            events.append(PoiEvent(POI_ZERO_ON_VAR, cell))
        for t_idx in range(len(self.f)):
            if t_idx not in self.matched:
                events.append(PoiEvent(POI_TERM_HIDING, t_idx))
        return events


def _semantic_support(f_mask: int, nv: int) -> int:
    """Number of variables the truth table actually depends on."""
    count = 0
    for i in range(nv):
        m = _var_mask(i, nv)
        half = 1 << i
        # both cofactors laid out on the "variable = 0" positions
        if ((f_mask & m) >> half) != f_mask & ~m:
            count += 1
    return count


def map_function(
    f: Sop,
    dim: LatticeDim,
    budget: SearchBudget | None = None,
    paths: PathSet | None = None,
) -> MapResult:
    """STEP 1-10 mapping: one backtracking search over paths and placements;
    ValueError for ``paths`` of another dimension, and past
    ``ORACLE_MAX_VARS`` variables before any truth table."""
    if budget is None:
        budget = SearchBudget()
    paths = paths_for(dim, paths)

    search = _Search(f, paths, budget, budget.deadline())
    if _semantic_support(search.f_mask, len(search.var_order)) > dim.cells:
        # a grid of rc cells holds at most rc distinct literals
        return MapResult(NO_SOLUTION)
    sol = search._try_terms(0, paths.mirrors)
    if sol is not None:
        return MapResult(SOLVED, sol)
    # no-solution is not a proof that no grid realizes f (see the module
    # docstring)
    return MapResult(INCONCLUSIVE if search.truncated else NO_SOLUTION)
