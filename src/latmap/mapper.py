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

Undo is by snapshot: before the arrangements of one term on one path are
tried, the grid, the cell owners, the unfixed-cell counts and the path
bounds are copied, and they are restored after each arrangement (and around
the zeroing in the final check).  The arrangements of a term over a path's
free cells depend only on the term, the number of free cells and the
literals still needed; they are generated lazily in a fixed lexicographic
order and memoized per search once fully listed.  That order is the one the
search has always used, so unbudgeted answers and the point where
``max_placements`` cuts a search are unchanged.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .codes import (
    CONST_ONE,
    CONST_ZERO,
    COMPLEMENT_BASE,
    Sop,
    _var_mask,
    function_mask,
    is_complement_code,
    literal_masks,
    variables,
)
from .grid import LatticeDim
from .paths import PathSet, enumerate_paths
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


def _has_xxprime(codes: set[int]) -> bool:
    return any(
        is_complement_code(c) and COMPLEMENT_BASE - c in codes for c in codes
    )


class _Search:
    """Exhaustive backtracking search over the terms in the order given."""

    def __init__(
        self,
        f: Sop,
        dim: LatticeDim,
        paths: PathSet,
        budget: SearchBudget,
        deadline: Optional[float],
    ):
        self.f = f
        self.dim = dim
        self.rc = dim.cells
        self.paths = paths.paths  # canonical = shortest first
        self.budget = budget
        self.deadline = deadline
        self.truncated = False

        self.var_order = sorted(variables(f))
        nv = len(self.var_order)
        self.full = (1 << (1 << nv)) - 1
        lit_mask = literal_masks(self.var_order)
        term_masks = []
        for t in f:
            m = self.full
            for code in t:
                m &= lit_mask[code]
            term_masks.append(m)
        # a fixed cell ANDs its mask into the bound of every path through it
        self.code_mask = {**lit_mask, CONST_ZERO: 0, CONST_ONE: self.full}
        self.term_outside = [self.full & ~m for m in term_masks]
        self.f_mask = 0
        for m in term_masks:
            self.f_mask |= m

        self.grid: list[Optional[int]] = [None] * self.rc
        self.placed_by: list[Optional[int]] = [None] * self.rc
        self.through: list[list[int]] = [[] for _ in range(self.rc)]
        for pi, p in enumerate(self.paths):
            for cell in p:
                self.through[cell].append(pi)
        self.unfixed = [len(p) for p in self.paths]
        # upper bound on each path's contribution: AND of fixed literal masks
        self.path_ub = [self.full] * len(self.paths)
        self.used = [False] * len(self.paths)
        self.matched: list[Optional[int]] = [None] * len(self.paths)
        self.deferred: list[int] = []
        # fully listed arrangements by (term index, free cells, literals needed)
        self.arrangements: dict[tuple, list[tuple[int, ...]]] = {}

    # -- state updates ---------------------------------------------------

    def _snapshot(self) -> tuple[list, list, list, list]:
        return self.grid[:], self.placed_by[:], self.unfixed[:], self.path_ub[:]

    def _restore(self, saved: tuple[list, list, list, list]) -> None:
        self.grid[:], self.placed_by[:], self.unfixed[:], self.path_ub[:] = saved

    def _fix(self, cell: int, code: int, term_idx: Optional[int]) -> bool:
        """Fix one cell; returns False when a completed path is a live escape.

        A fully fixed path must be neutralized: self-cancelling (a 0 cell or
        an xx' pair) or absorbed, i.e. its literal set is a superset of some
        target term.  Anything else can never be fixed later, so the branch
        dies here, and the caller's restore discards the partial update.
        """
        self.grid[cell] = code
        self.placed_by[cell] = term_idx
        m = self.code_mask[code]
        unfixed = self.unfixed
        path_ub = self.path_ub
        for pi in self.through[cell]:
            unfixed[pi] -= 1
            path_ub[pi] &= m
            if not unfixed[pi] and not self._neutralized(pi):
                return False
        return True

    def _neutralized(self, pi: int) -> bool:
        """A fully fixed path's product mask is 0 exactly when it holds a 0
        cell or an xx' pair, and 0 lies inside every term's mask; any other
        product lies inside a term's mask exactly when it contains the term."""
        ub = self.path_ub[pi]
        for outside in self.term_outside:
            if not ub & outside:
                return True
        return False

    def _coverage_ub(self) -> int:
        return functools.reduce(operator.or_, self.path_ub, 0)

    # -- placements ------------------------------------------------------

    def _placements(
        self, term_idx: int, path: tuple[int, ...]
    ) -> Optional[tuple[list[int], Iterable[tuple[int, ...]]]]:
        """The path's free cells and the literal arrangements over them, in
        a fixed order; None when the path's fixed cells rule the term out."""
        term = self.f[term_idx]
        provided: set[int] = set()
        free: list[int] = []
        for cell in path:
            v = self.grid[cell]
            if v is None:
                free.append(cell)
            elif v in term:
                provided.add(v)
            elif v != CONST_ONE:
                return None
        need = term - provided
        if len(need) > len(free):
            return None
        key = (term_idx, len(free), need)
        arrangements = self.arrangements.get(key)
        if arrangements is None:
            return free, self._arrange(key, sorted(term) + [CONST_ONE])
        return free, arrangements

    def _arrange(
        self, key: tuple[int, int, frozenset[int]], options: list[int]
    ) -> Iterator[tuple[int, ...]]:
        """Yield the code tuples over ``nfree`` cells that hold every needed
        literal, lexicographic in ``options``; memoize them once all are
        listed.  Yielding as they are made keeps the first placement (and
        the deadline check) from waiting for a list of (|t|+1)^nfree."""
        _, nfree, need = key
        chosen: list[int] = []

        def rec(i: int, still: frozenset[int]) -> Iterator[tuple[int, ...]]:
            if len(still) > nfree - i:
                return
            if i == nfree:
                yield tuple(chosen)
                return
            for code in options:
                chosen.append(code)
                yield from rec(i + 1, still - {code} if code in still else still)
                chosen.pop()

        listed = []
        for codes in rec(0, need):
            listed.append(codes)
            yield codes
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
        max_pl = self.budget.max_placements
        for pi in range(len(self.paths)):
            if self.used[pi]:
                continue
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
            for codes in arrangements:
                if self._out_of_time():
                    return None
                child: Sequence[Mirror] = ()
                if fixing:
                    child = self._arrangement_stab(term, free, codes, fixing)
                    if child is None:
                        continue  # a mirror image of it comes earlier
                count += 1
                if max_pl is not None and count > max_pl:
                    self.truncated = True
                    break
                for cell, code in zip(free, codes):
                    if not self._fix(cell, code, ti):
                        break
                else:
                    self.used[pi] = True
                    self.matched[pi] = ti
                    sol = self._try_terms(ti + 1, child)
                    if sol is not None:
                        return sol
                    self.used[pi] = False
                    self.matched[pi] = None
                self._restore(saved)
        # no housing works down this branch: defer, the term may be hiding
        self.deferred.append(ti)
        sol = self._try_terms(ti + 1, stab)
        if sol is not None:
            return sol
        self.deferred.pop()
        return None

    def _arrangement_stab(
        self,
        term: frozenset[int],
        free: list[int],
        codes: tuple[int, ...],
        fixing: list[Mirror],
    ) -> Optional[list[Mirror]]:
        """None when a mirror image of the arrangement comes earlier in the
        arrangement order; otherwise the mirrors that leave it unchanged."""
        options = sorted(term) + [CONST_ONE]
        ranks = [options.index(code) for code in codes]
        rank = dict(zip(free, ranks))
        child = []
        for mirror in fixing:
            image = [rank[mirror[0][cell]] for cell in free]
            if image < ranks:
                return None
            if image == ranks:
                child.append(mirror)
        return child

    def _finish(self) -> Optional[MappingSolution]:
        zeroed = [cell for cell in range(self.rc) if self.grid[cell] is None]
        saved = self._snapshot()
        for cell in zeroed:
            # a zeroed path is cancelled, so this never meets a live escape
            self._fix(cell, CONST_ZERO, None)
        # every path is fixed now: path_ub is its product mask, 0 if cancelled
        if self._coverage_ub() != self.f_mask:
            self._restore(saved)
            return None
        assignment = LatticeAssignment(self.dim, tuple(self.grid))  # type: ignore[arg-type]
        poi = self._derive_poi(zeroed)
        return MappingSolution(assignment, tuple(range(len(self.f))), tuple(poi))

    # -- reporting -------------------------------------------------------

    def _derive_poi(self, zeroed: list[int]) -> list[PoiEvent]:
        absorbed_count: dict[int, int] = {}
        xxprime_paths: list[int] = []
        xxprime_terms: set[int] = set()
        for pi, path in enumerate(self.paths):
            if self.matched[pi] is not None:
                continue
            codes = {self.grid[c] for c in path}
            if CONST_ZERO in codes:
                continue
            codes.discard(CONST_ONE)
            if _has_xxprime(codes):
                xxprime_paths.append(pi)
                for c in path:
                    t = self.placed_by[c]
                    code = self.grid[c]
                    if t is not None and code in codes and COMPLEMENT_BASE - code in codes:
                        xxprime_terms.add(t)
                continue
            for t_idx, term in enumerate(self.f):
                if term <= codes:
                    absorbed_count[t_idx] = absorbed_count.get(t_idx, 0) + 1
                    break
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
        for t_idx in sorted(self.deferred):
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
    """STEP 1-10 mapping: one backtracking search over paths and placements."""
    if budget is None:
        budget = SearchBudget()
    if paths is None:
        paths = enumerate_paths(dim)

    var_order = sorted(variables(f))
    nv = len(var_order)
    f_mask = function_mask(f, var_order)
    if _semantic_support(f_mask, nv) > dim.cells:
        # a grid of rc cells holds at most rc distinct literals
        return MapResult(NO_SOLUTION)

    deadline = None
    if budget.time_limit is not None:
        deadline = time.monotonic() + budget.time_limit
    search = _Search(f, dim, paths, budget, deadline)
    sol = search._try_terms(0, paths.mirrors)
    if sol is not None:
        return MapResult(SOLVED, sol)
    # no-solution is not a proof that no grid realizes f (see the module
    # docstring)
    return MapResult(INCONCLUSIVE if search.truncated else NO_SOLUTION)
