"""Backtracking mapper: place a function's product terms onto lattice paths.

Each call runs one search, which examines the terms in the order given;
each term is housed on an available path (shortest first) by assigning its
literals to the path cells with constant-1 fillers, or deferred when no
housing works (it may still be present as a combination of other paths).
Dangling cells are zeroed at the end and the candidate grid is accepted only
if its solve is truth-table equivalent to the target.  The search backtracks
over path choices, placements and deferrals; it recurses once per housed
term and loops over deferred ones, so its depth is the number of housed
terms.  No other examination order is tried.  The check that finds the
deadline passed, at a node, a probe or a walk step, raises ``OutOfTime``:
no placement is listed, no node opened and no leaf checked after it, and
``map_function`` answers inconclusive.

A search that runs to the end reports no-solution.  That covers only the
grids this search builds: the given terms housed on paths of their own
literals and constant-1 fillers, unused cells zeroed, and no completed path
whose product contains none of the given terms.  It is not a proof that no
grid realizes the function: terms that are not prime implicants give false
negatives.  On 2x2, a'bc' + ac', abc' + c and a'bc + a'b'c get no-solution,
while the same functions written as ac' + bc', ab + c and a'c map
(acceptance criterion 10, an open defect).

The search breaks the grid's mirror symmetry (lex-leader symmetry breaking,
Crawford et al., KR 1996).  Connectivity and every check of the search are
invariant under the three mirrors: left-right, top-bottom and both
(``PathSet.mirrors``).  Each node carries its stabilizer, a mask with bit j
for ``mirrors[j]``: the mirrors that map its grid and used paths onto
themselves, all of them (``ALL_MIRRORS``) at the root.  A term is not
housed on a path that one of them maps to an earlier path, and on a path
that one of them maps onto itself, an arrangement is skipped when its
mirror image comes earlier in the arrangement order.  Both facts depend
only on the path set and the mask, so the node reads them from the path
set's tables: it loops over ``canonical[stab]``, the paths that no mirror
of the mask maps to an earlier path (4 of the 9 on 3x3 at the root), and
``stab & fixes[pi]`` names the mirrors that map path ``pi`` onto itself.
A child keeps the mirrors that fix its arrangement, a deferral keeps them
all, so the rule applies wherever the grid is still symmetric (say, a term
on the centre column of 3x3) and costs nothing once it is not: mask 0
loops over every path.  Answers do not change: were the first solution
under a skipped path or arrangement, its mirror would lie under an earlier
sibling, whose subtree is searched in full first.

A node keeps the grid, the set of unset cells, each path's bound (the AND
of its fixed cells' truth-table masks) and the term housed on each path, if
any.  The rest is worked out at the leaf: a term is hiding when no path
houses it, a literal cell was written by the first term, in order, whose
path holds it (terms are placed in order, and a cell is written only while
it is free), and the points of interest read cancellation and absorption off
the path bounds, which are the paths' product masks once every cell is
fixed.  A term skips a path whose bound does not contain the term's mask (a
fixed cell holds a literal the term lacks); the paths that pass are scanned
for their free cells.

One loop places every (term, path) pair that passes the pair bound (below):
it takes the arrangements that pass from one of two sources, picked by how
many arrangements the pair has (``arrangement_count``), skips those whose
mirror image comes earlier and opens a node for each other; it returns at a
solution.  A narrow pair, with at most ``WALK_FROM`` (100), is probed: each
arrangement's option masks are ANDed into a copy of the node's path bounds,
and it fails ``_passes`` when a path it completes is a live escape (a
nonzero bound inside no term's mask) or when the reach bound (below) fails,
at every term.  A share lies inside its path's bound, so where the shares
cover the function so do the bounds: the reach bound holds that cover test,
too.  At a leaf of the last term ``_finish``, the one exact test, zeroes
every unset cell, so a path with unset cells adds 0 and a completed path
its bound; the reach bound gives each at least that, so it rejects only
leaves that ``_finish`` rejects.  Which paths a placement completes
depends only on the node and the path, so they are listed once for all its
arrangements.  A wide pair is walked (below).  An opened node's cells are
written to the grid and the copy becomes its bounds.  So a node's
placements always cover the function, and a deferral, which keeps its
parent's state, needs no test of its own.  A node never writes its own
bounds, so undo is putting them back and clearing the cells.

The reach bound: at an accepted leaf every nonzero path product lies inside
one term's mask (live escapes are rejected, and ``_finish`` sets the paths
through its 0 cells to 0), and that product is the path's bound b ANDed with
the literals that later fill its u unset cells.  b and each term T are
cubes, so the product can lie in T only when b meets T and T needs at most u
literals that b lacks: ``popcount(b & T) << u >= popcount(b)``.  A path's
share (``_share`` with k = 0) is b & T for each such T, and all of b when u
is 0 (a completed path lies inside a term already) or at least the longest
term's length.  Where the shares no longer cover the function no solution
lies below.

The literal pool: cells are written only by placements, in term order, and
a placement of term i writes only its own literals and 1.  So pool i, the
literals of terms i to the last, holds every literal that an unset cell can
still get from placements of terms i on; ``_finish`` adds only 0s.  A path
whose product ends up inside a term T holds every literal of T, so each
literal of T outside the pool must already lie in b: b lies inside bare[T],
the AND of the masks of those literals (``not b & ~bare[T]``).  ``_share``
counts T only then, under the pool its caller names; under pool 0, which
holds every literal, bare[T] is all rows and every term passes.  With term
i being placed, the pair bound (below) takes pool i for the paths through
the placed cells, which hold term i's options, and pool i + 1 for the
others; a probe's reach test takes pool i + 1; a walk prefix takes pool i,
since its later cells still take term i's options, and its last cell pool
i + 1.  Each bound still dominates the one after it: a literal outside pool
i is outside pool i + 1, and it lies in b & c, for c a cube of term i's
literals, only when it lies in b, since pool i holds c's literals.  So a
prefix's test is still weaker than each arrangement's below it, the pair
bound still holds every arrangement's shares, and at every term the walk
still yields exactly what the probes pass.  Pools are numbered once
per search, from the literal sets of the term list's suffixes, equal pools
alike (``pool``), and each has its own memo.

A wide pair walks its arrangements one free cell at a time, depth first, in
the same lexicographic order.  A prefix gets the probe's tests
(``_passes``), in the probe's order, with the cells after it counted as
unset: no path it completes is a live escape, and the reach bound passes.
When a prefix fails, every arrangement below it is rejected unlisted.
Fixing a cell ANDs its option into the bounds of the paths through it;
those paths, the ones the cell completes and the cells left unset after it
are listed once per walk.  The
walk is sound because each test only gets harder down the walk: a completed
path keeps its bound, bounds only shrink, and so does a share, since fixing
d more cells of a path adds at most d literals to its bound and takes d
cells off its u.  A whole arrangement gets the probe's tests with the
probe's unset cells, so at every term the walk yields exactly the
arrangements the probes pass, in the same order.

The pair bound: before a pair lists any arrangement, ``_may_pass`` bounds
them all at once, and the pair is skipped when the bound does not cover the
function.  Let F be the path's free cells.  The path itself ends up with the
term's mask.  A path through no cell of F keeps its bound b and its u unset
cells, so it adds its share.  A path through k cells of F ends up with the
bound b & c, where c, the product of the options on those cells, is a cube
of at most k of the term's literals (c = 1 when they all hold 1), and keeps
u' unset cells; it adds the OR over every such cube of the share of b & c,
where a completed path (u' = 0) adds b & c only when that is no live escape,
since the probe and the walk reject an arrangement that completes one.
Above the last term, each path's share under any one arrangement lies in
what the bound gives it, so a skipped pair is one whose every arrangement
fails its probe or walk, and the search opens the same interior nodes in the
same order.  At the last term a path with unset cells adds nothing, as
``_finish`` zeroes them, so a pair is skipped only where ``_finish`` would
reject each of its leaves.

That OR needs no cube listed: it is the share's test with u' + min(k, g)
in place of u.  Every b & c & T lies in b & T, and for each term T the cube
that brings b closest to T takes min(k, g) of the g literals that the
placed term and T hold and b lacks; if that cube fails the share's test for
T, every cube does.  So the OR is b & T over the terms T that b meets and
that need at most u' + min(k, g) literals beyond b's (for u' = 0, b & c
lies inside T exactly when T's literals lie in b's and c's).  With k = 0
that is the share, so ``_share`` is the one bound on what a path can still
add: one pass over every term, each listed with the literals it shares with
the placed term (g = 0 for one that shares none) and its bare mask, in a
table that ``_linked`` builds per term and pool at first use.  A cube c of
the placed term's literals adds no literal outside that term's pool, so the
pool's test reads b alone.  A path with no cell fixed has b = ``full``,
and there the test is a closed form over small counts: b & T is T, the
literals T needs beyond b are all n of its own, the g it shares with the
placed term are all ones b lacks, and the pool's test passes exactly when
the pool holds T's literals, since no literal's mask is all rows.  So the
share is the OR of T over the terms in the pool with n <= u + min(k, g) (a
term with an xx' pair has mask 0), listed as (T, n, g) by ``_untouched``
per term and pool from the literal sets alone; a search that fails at the
root, where every bound is ``full``, builds no ``_linked`` table.  Either
way the share is memoized for the search, per pool, by (b, u) for a share
and by (b, u', term, k) for a pair's bound, and callers ask ``_share`` for
every share they need.  On HARD (DECOMP_EVEN8 on 3x3, in the tests) the
search opens 887 interior nodes, the same as without the pair bound, checks
193 leaves and the deadline 1,987 times, and walks no pair.

The cut-over trades the walk's cost per prefix (a copy of the bounds and
the reach bound over every path) against the arrangements it cuts unlisted.
Of the pairs that pass the pair bound, with the share of their
arrangements, these lie above 100: none of the 1,489 pairs of the
benchmark's solved library maps on 3x3, 0.2 % with 2 % of 1,155 on 3x4,
0.4 % with 13 % of 18,123 over the pool negatives on 3x3, and none of the
235 when synthesizing SYNTH_EIGHT on 3x3.  Neither source alone
does as well: walking every pair slows the solved maps on 3x3 (0.08-0.13
to 0.15-0.18 s) and the pool negatives (2.5-2.7 to 3.4-4.7 s), and
probing every pair slows DECOMP_EVEN8 on 6x6 (0.29-0.39 to 3.1-3.8 s) and
DECOMP_UNEVEN8 on 4x4 (10-12 to 13-15 s); see the README.

Only subtrees without a solution are cut, so the answers and the first
solution, its grid and its points of interest stay the same.

``map_function`` sets the deadline before it enumerates the path set, when
it is given none, and before the search reads the set's tables, which a
``PathSet`` builds at their first use: ``cell_masks`` and ``through`` when
the search is made, and the mirror tables (``mirrors``, ``fixes`` and each
mask's ``canonical`` paths) at the first node that reads them, after its
check of the deadline.  The time limit does not cut that work short (the
README gives its cost on large grids), but it counts against the limit, so
a shorter limit ends the search at its next check.

An arrangement is a tuple of ranks into the term's options, its sorted
literals and then constant 1.  The arrangements over a path's free cells
depend only on the number of options, the number of free cells and the ranks
still needed (bit r for rank r), so terms of equal length share them.
``arrangements`` builds them in lexicographic order, each first rank
followed by the arrangements of the remaining cells.  Its lists are one
table shared by every search of the process.  Only narrow pairs read it,
and the key of a remaining-cells list has no more arrangements than the key
that asked for it, so each list holds at most ``WALK_FROM`` arrangements;
after every pool input of the benchmark and its pipeline calls the table
holds 132 lists, about 0.05 MB.  That order is the one the search has
always used, so answers are unchanged.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from itertools import accumulate, chain
from dataclasses import dataclass
from typing import Iterator, Optional

from .codes import (
    CONST_ONE,
    CONST_ZERO,
    COMPLEMENT_BASE,
    Sop,
    literal_masks,
    support_size,
    table_variables,
    term_masks,
)
from .grid import LatticeDim
from .paths import ALL_MIRRORS, PathSet, paths_for
from .solver import LatticeAssignment

# a (term, path) pair with more arrangements than this is walked one cell at
# a time; the others are probed one arrangement at a time
WALK_FROM = 100

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


class OutOfTime(Exception):
    """The run's deadline has passed: every layer ends inconclusive."""


@dataclass(frozen=True)
class SearchBudget:
    """The time limit of one mapping in seconds; None leaves it off.  It
    must be finite and positive, since a budget that allows nothing could
    only ever answer inconclusive."""

    time_limit: Optional[float] = None

    def __post_init__(self) -> None:
        t = self.time_limit
        if t is not None and not (math.isfinite(t) and t > 0):
            raise ValueError(f"time_limit must be finite and positive, got {t}")

    def deadline(self) -> Optional[float]:
        """The monotonic time at which a run started now must stop."""
        t = self.time_limit
        return None if t is None else time.monotonic() + t


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

    def __init__(self, f: Sop, paths: PathSet, deadline: Optional[float]):
        # every attribute is set here: one added mid-search changes the
        # instance's layout, which measurably slowed every method
        self.f = f
        self.dim = paths.dim
        self.paths = paths.paths  # canonical = shortest first
        self.through = paths.through
        # its mirror tables are read at the first node that needs them
        self.path_set = paths
        self.deadline = deadline

        self.var_order = table_variables(f)
        # a fixed cell ANDs its mask into the bound of every path through it
        self.masks = masks = literal_masks(self.var_order)
        self.full = masks[CONST_ONE]
        self.term_mask = term_masks(f, masks)
        self.term_outside = [self.full & ~m for m in self.term_mask]
        self.f_mask = functools.reduce(operator.or_, self.term_mask, 0)
        # an arrangement holds ranks into its term's options
        self.options = [tuple(sorted(t)) + (CONST_ONE,) for t in f]
        self.rank = [{code: r for r, code in enumerate(o)} for o in self.options]
        self.option_masks = [tuple(map(masks.__getitem__, o)) for o in self.options]

        self.cell_masks = paths.cell_masks

        self.grid: list[Optional[int]] = [None] * self.dim.cells
        # the cells not yet fixed, bit c for cell c
        self.unset = (1 << self.dim.cells) - 1
        # upper bound on each path's contribution: AND of fixed literal masks
        self.path_ub = [self.full] * len(self.paths)
        # the term housed on each path, None for an unused path
        self.matched: list[Optional[int]] = [None] * len(self.paths)
        # a path with this many unset cells may still end up in any term
        self.longest = max(map(len, f), default=0)
        # pool i, the literals of terms i.., holds every literal that
        # placements from term i on write; ``pool[i]`` numbers it, 0 for
        # every literal, equal pools alike, and ``pools`` lists each
        # number's literals
        suffix = list(accumulate(reversed(f), operator.or_, initial=frozenset()))[::-1]
        self.pool = list(accumulate(map(operator.ne, suffix, suffix[1:]), initial=0))
        self.pools = list(dict.fromkeys(suffix))
        # what a path can still add to the function, one memo per pool, by
        # (bound, unset cells) and, once a term is placed over some of its
        # cells, by (bound, unset cells after, term, cells placed)
        self.reach: list[dict[tuple[int, ...], int]] = [{} for _ in self.pools]
        # for each term, the mask of the literals it shares with the term
        # placed, by the term placed; and ``_linked`` by the term placed and
        # the pool; each listed at its first ``_share``
        self.shared: dict[int, list[int]] = {}
        self.linked: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        # ``_untouched`` by the term placed and the pool, for the shares of
        # paths with no fixed cell
        self.untouched: dict[tuple[int, int], list[tuple[int, int, int]]] = {}

    # -- bounds ----------------------------------------------------------

    def _escapes(self, bounds: list[int], done: list[int]) -> bool:
        """Whether a path of ``done``, each completed, is a live escape: its
        bound, now its product mask, is nonzero and inside no term's mask."""
        term_outside = self.term_outside
        for pj in done:
            ub = bounds[pj]
            if ub:
                for outside in term_outside:
                    if not ub & outside:
                        break
                else:
                    return True
        return False

    def _reaches(self, bounds: list[int], unset: int, pool: int) -> bool:
        """Whether the paths can still cover the function, with ``unset``
        left unset and written from ``pool``: the OR of each path's
        ``_share`` covers it.  A share lies in its path's bound, so the
        bounds, ORed, then cover it, too."""
        lost = self.f_mask
        longest = self.longest
        for b, cells in zip(bounds, self.cell_masks):
            if not b & lost:
                continue  # it adds at most b
            u = (cells & unset).bit_count()
            if 0 < u < longest:
                b = self._share(b, u, pool)
            lost &= ~b
            if not lost:
                return True
        return False

    def _passes(self, bounds: list[int], done: list[int], unset: int, pool: int) -> bool:
        """The test of an arrangement or a walk prefix that gives the paths
        ``bounds`` and leaves ``unset`` unset: no path in ``done``, those it
        completes, is a live escape, and the reach bound under ``pool``
        passes."""
        return not self._escapes(bounds, done) and self._reaches(bounds, unset, pool)

    def _share(self, b: int, u: int, pool: int, ti: int = 0, k: int = 0) -> int:
        """What a path with bound b and u unset cells, written from
        ``pool``, can still add once k of its cells hold options of term
        ``ti``: b & T for each term T whose literals outside the pool all
        lie in b's (not ``b & O``, see ``_linked``), that b meets and that
        needs at most u + min(k, g) literals beyond b's, where g counts the
        literals of term ``ti`` that T holds and b lacks.  With k = 0 it is
        the path's share, which callers take for 0 < u < ``longest`` and
        all of b otherwise (a completed path is no live escape, or it houses
        a term); with k > 0, u = 0 included, and the pool of term ``ti``, it
        holds the path's share under every arrangement that passes (see the
        module docstring).  Cube masks have power-of-two sizes, so the
        literals one cube lacks of a smaller one are the difference of their
        sizes' bit lengths.  For b = ``full`` (no cell fixed) that is the
        closed form over ``_untouched``: T's n literals and the g it shares
        with term ``ti`` are all ones b lacks, and only a pool that holds
        T's literals passes, so T counts when n <= u + min(k, g).  Memoized
        per pool by (b, u) or (b, u, ti, k) for the search; no other method
        reads or writes that memo."""
        memo = self.reach[pool]
        key = (b, u, ti, k) if k else (b, u)
        reach = memo.get(key)
        if reach is None:
            reach = 0
            if b == self.full:  # no cell fixed: the closed form
                untouched = self.untouched.get((ti, pool))
                if untouched is None:
                    untouched = self.untouched[ti, pool] = self._untouched(ti, pool)
                for t, n, g in untouched:
                    if n <= u + (k and min(k, g)):
                        reach |= t
            else:
                linked = self.linked.get((ti, pool))
                if linked is None:
                    linked = self.linked[ti, pool] = self._linked(ti, pool)
                size = b.bit_count().bit_length()
                for t, s, out in linked:
                    bt = b & t
                    # g, the placed literals T holds and b lacks, counts only when k > 0
                    if bt and size - bt.bit_count().bit_length() <= u + (
                        k and min(k, size - (b & s).bit_count().bit_length())
                    ) and not b & out:
                        reach |= bt
            memo[key] = reach
        return reach

    def _may_pass(self, ti: int, pi: int, unset: int) -> bool:
        """Whether some arrangement of term ``ti`` on path ``pi``, which
        leaves ``unset`` unset, can pass: the OR of the most each path can
        still add covers the function.  Path ``pi`` adds the term's mask and
        every other path its ``_share``, with k the number of placed cells
        it holds: under the pool of term ``ti`` when k > 0, whose placed
        cells hold its options, and under the next term's otherwise.  At the
        last term a path with unset cells adds nothing, since ``_finish``
        zeroes it."""
        lost = self.f_mask & ~self.term_mask[ti]
        if not lost:
            return True
        placed = self.unset & ~unset
        last = ti + 1 == len(self.f)
        pool, after = self.pool[ti], self.pool[ti + 1]
        longest = self.longest
        for pj, (b, cells) in enumerate(zip(self.path_ub, self.cell_masks)):
            if not b & lost or pj == pi:
                continue  # it adds at most b
            u = (cells & unset).bit_count()
            if u and last:
                continue
            k = (cells & placed).bit_count()
            if k and u < longest:
                b = self._share(b, u, pool, ti, k)
            elif 0 < u < longest:
                b = self._share(b, u, after)
            lost &= ~b
            if not lost:
                return True
        return False

    def _linked(self, ti: int, pool: int) -> list[tuple[int, int, int]]:
        """``(T, S, O)`` for each term T: S is the mask of the literals T
        shares with term ``ti``, ``full`` when it shares none, and O is
        ``full & ~bare``, bare being the AND of the masks of T's literals
        outside pool ``pool``: the rows where one of them is false, 0 when
        the pool holds them all.  S is listed once per term ``ti``."""
        full, get = self.full, self.masks.__getitem__
        shared = self.shared.get(ti)
        if shared is None:
            shared = self.shared[ti] = [
                functools.reduce(operator.and_, map(get, self.f[ti] & t), full)
                for t in self.f
            ]
        pooled = self.pools[pool]
        return [
            (t, s, full & ~functools.reduce(operator.and_, map(get, term - pooled), full))
            for t, s, term in zip(self.term_mask, shared, self.f)
        ]

    def _untouched(self, ti: int, pool: int) -> list[tuple[int, int, int]]:
        """``(T, n, g)`` for each term T whose literals pool ``pool`` holds,
        those a path with no fixed cell can still end up in: n counts T's
        literals and g those it shares with term ``ti``.  A term with an xx'
        pair has mask 0 and adds nothing."""
        pooled, placed = self.pools[pool], self.f[ti]
        return [
            (t, len(term), len(term & placed))
            for t, term in zip(self.term_mask, self.f)
            if term <= pooled
        ]

    # -- placements ------------------------------------------------------

    def _placements(
        self, term_idx: int, path: bytes
    ) -> Optional[tuple[list[int], tuple[int, int, int]]]:
        """The path's free cells and the key of the rank arrangements over
        them; None when fewer cells are free than literals needed."""
        rank = self.rank[term_idx]
        # the last rank is the constant-1 filler, never needed
        need = (1 << len(rank) - 1) - 1
        free: list[int] = []
        for cell in path:
            v = self.grid[cell]
            if v is None:
                free.append(cell)
            else:
                # ``_try_terms`` skipped the path unless the term's mask lies
                # in its bound, so a fixed cell holds 1 or one of its literals
                need &= ~(1 << rank[v])
        if need.bit_count() > len(free):
            return None
        return free, (len(rank), len(free), need)

    def _probes(
        self, ti: int, pi: int, free: list[int], key: tuple[int, int, int], unset: int
    ) -> Iterator[tuple[tuple[int, ...], list[int]]]:
        """``(ranks, bounds)`` for each arrangement of
        ``arrangements(key)`` that passes its probe, ``_passes`` under the
        next term's pool, in order: ``bounds`` are the path bounds once each
        free cell holds its ranked option.  A
        completed path must be neutralized: its product mask is 0 (a 0 cell
        or an xx' pair) or lies inside a term's mask, and nothing fixed
        later changes that, nor makes a bound larger.  The paths other than
        ``pi`` a placement completes hold a free cell and none of ``unset``,
        the cells left unset after it.  Past the deadline it raises."""
        path_ub = self.path_ub
        placed = self.unset & ~unset
        done = [
            pj
            for pj, cells in enumerate(self.cell_masks)
            if cells & placed and not cells & unset and pj != pi
        ]
        option_masks = self.option_masks[ti]
        through = self.through
        pool = self.pool[ti + 1]
        for ranks in arrangements(key):
            self._check_time()
            bounds = path_ub[:]
            for cell, rank in zip(free, ranks):
                m = option_masks[rank]
                for pj in through[cell]:
                    bounds[pj] &= m
            if self._passes(bounds, done, unset, pool):
                yield ranks, bounds

    def _walk(
        self, ti: int, pi: int, free: list[int], need: int
    ) -> Iterator[tuple[tuple[int, ...], list[int]]]:
        """``(ranks, bounds)`` for each arrangement that holds the ranks in
        ``need`` (bit r for rank r) and passes, in lexicographic order, one
        free cell at a time.  A prefix gets the probe's tests, with the cells
        after it unset, and when it fails so does every arrangement below
        it; past the deadline it raises.

        A step lists, for a free cell, the paths through it, those other
        than ``pi`` it completes, the cells left unset once it and the
        cells before it are fixed, and the pool they are written from: the
        term's own before the last cell, whose later cells still take its
        options, and the next term's at the last."""
        through = self.through
        cell_masks = self.cell_masks
        unset = self.unset
        pools = [self.pool[ti]] * (len(free) - 1) + [self.pool[ti + 1]]
        steps = []
        for cell, pool in zip(free, pools):
            unset &= ~(1 << cell)
            done = [pj for pj in through[cell] if not cell_masks[pj] & unset and pj != pi]
            steps.append((through[cell], done, unset, pool))
        option_masks = self.option_masks[ti]
        ncells = len(steps)
        stack = [((), need, self.path_ub)]
        while stack:
            prefix, need, bounds = stack.pop()
            if len(prefix) == ncells:
                yield prefix, bounds
                continue
            self._check_time()
            crossing, done, unset, pool = steps[len(prefix)]
            left = ncells - len(prefix) - 1  # cells after this one
            children = []
            for r, m in enumerate(option_masks):
                rest = need & ~(1 << r)
                if rest.bit_count() > left:
                    continue
                nb = bounds[:]
                for pj in crossing:
                    nb[pj] &= m
                if self._passes(nb, done, unset, pool):
                    children.append((prefix + (r,), rest, nb))
            stack += reversed(children)

    # -- search ----------------------------------------------------------

    def _check_time(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise OutOfTime

    def _try_terms(self, ti: int, stab: int) -> Optional[MappingSolution]:
        """Search below the current node from term ``ti`` on; ``stab`` is
        the mask of the mirrors that map its grid and used paths onto
        themselves, and the parent tested that its placements cover the
        function.  Each term is housed below its ``_node`` or deferred (it
        may be hiding), then the leaf is checked; only ``_open`` recurses."""
        for tj in range(ti, len(self.f)):
            sol = self._node(tj, stab)
            if sol is not None:
                return sol
        self._check_time()
        return self._finish()

    def _node(self, ti: int, stab: int) -> Optional[MappingSolution]:
        """Each placement of term ``ti`` that passes, searched below in
        order; None when no housing works down this branch.  Only the paths
        that no mirror of ``stab`` maps to an earlier path are tried."""
        self._check_time()
        term = self.f[ti]
        term_mask = self.term_mask[ti]
        path_ub = self.path_ub
        fixes = self.path_set.fixes
        for pi in self.path_set.canonical[stab]:
            if self.matched[pi] is not None:
                continue
            if term_mask & ~path_ub[pi]:
                continue  # a fixed cell holds a literal the term lacks
            path = self.paths[pi]
            if len(term) > len(path):
                continue
            unset = self.unset & ~self.cell_masks[pi]  # all of the path is set
            if not self._may_pass(ti, pi, unset):
                continue  # no arrangement of the pair can pass
            housing = self._placements(ti, path)
            if housing is None:
                continue
            free, key = housing
            fix = stab & fixes[pi]  # the node's mirrors that map the path onto itself
            fixing = self._fixing(free, fix) if fix else []
            if arrangement_count(key) > WALK_FROM:
                passing = self._walk(ti, pi, free, key[2])
            else:
                passing = self._probes(ti, pi, free, key, unset)
            for ranks, bounds in passing:
                child = 0
                if fixing:
                    child = self._arrangement_stab(ranks, fixing)
                    if child is None:
                        continue  # a mirror image of it comes earlier
                sol = self._open(ti, pi, free, ranks, bounds, unset, child)
                if sol is not None:
                    return sol
        return None

    def _open(
        self,
        ti: int,
        pi: int,
        free: list[int],
        ranks: tuple[int, ...],
        bounds: list[int],
        unset: int,
        stab: int,
    ) -> Optional[MappingSolution]:
        """Place term ``ti`` on path ``pi`` as arranged and search below.
        The node's own lists are never written, so putting them back undoes
        the placement."""
        grid = self.grid
        options = self.options[ti]
        for cell, rank in zip(free, ranks):
            grid[cell] = options[rank]
        node = self.path_ub, self.unset
        self.path_ub, self.unset = bounds, unset
        self.matched[pi] = ti
        sol = self._try_terms(ti + 1, stab)
        if sol is None:
            self.matched[pi] = None
            self.path_ub, self.unset = node
            for cell in free:
                grid[cell] = None
        return sol

    def _fixing(self, free: list[int], fix: int) -> list[tuple[tuple[int, ...], int]]:
        """Each mirror of the mask ``fix``, those of the node's that map the
        path onto itself, as the permutation of ``free`` it makes (the
        position among ``free`` of each free cell's image) and its bit.
        They map the node's grid onto itself, so free cells onto free
        cells."""
        position = {cell: k for k, cell in enumerate(free)}.__getitem__
        return [(tuple(map(position, map(cells.__getitem__, free))), 1 << j)
                for j, (cells, _) in enumerate(self.path_set.mirrors) if fix >> j & 1]

    @staticmethod
    def _arrangement_stab(
        ranks: tuple[int, ...], fixing: list[tuple[tuple[int, ...], int]]
    ) -> Optional[int]:
        """None when a mirror image of the arrangement comes earlier in the
        arrangement order; otherwise the mask of the mirrors that leave it
        unchanged."""
        child = 0
        for perm, bit in fixing:
            image = tuple(map(ranks.__getitem__, perm))
            if image < ranks:
                return None
            if image == ranks:
                child |= bit
        return child

    def _finish(self) -> Optional[MappingSolution]:
        zeroed = [cell for cell, v in enumerate(self.grid) if v is None]
        path_ub = self.path_ub[:]
        for cell in zeroed:
            for pi in self.through[cell]:
                path_ub[pi] = 0  # cancelled, so never a live escape
        # every path is fixed now: path_ub is its product mask, 0 if cancelled
        if functools.reduce(operator.or_, path_ub, 0) != self.f_mask:
            return None
        # a solution ends the search, so its state need not be undone
        for cell in zeroed:
            self.grid[cell] = CONST_ZERO
        self.path_ub = path_ub
        assignment = LatticeAssignment(self.dim, tuple(self.grid))  # type: ignore[arg-type]
        poi = self._derive_poi(zeroed)
        return MappingSolution(assignment, tuple(range(len(self.f))), tuple(poi))

    # -- reporting -------------------------------------------------------

    def _derive_poi(self, zeroed: list[int]) -> list[PoiEvent]:
        """Points of interest of the finished grid.  Every path is fixed, so
        its bound is its product mask: an unused path with a nonzero mask is
        absorbed by the first term whose mask holds it, and one without a 0
        cell has mask 0 exactly when it holds an xx' pair.  Placements never
        write 0, so the 0 cells are the zeroed ones, still ``unset``.  A
        literal cell was written by the first term, in order, whose path
        holds it: terms are placed in order, and a cell is written only
        while it is free.  Those writers are listed only when a path holds
        an xx' pair."""
        absorbed_count: dict[int, int] = {}
        xxprime_paths: list[int] = []
        xxprime_cells: set[int] = set()
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
            if self.cell_masks[pi] & self.unset:
                continue  # it holds a 0 cell
            codes = {self.grid[c] for c in path}
            xxprime_paths.append(pi)
            for cell in path:
                if COMPLEMENT_BASE - self.grid[cell] in codes:
                    xxprime_cells.add(cell)
        xxprime_terms: set[int] = set()
        if xxprime_cells:
            owner: dict[int, int] = {}
            housed = sorted((ti, pi) for pi, ti in enumerate(self.matched) if ti is not None)
            for ti, pi in housed:
                for cell in self.paths[pi]:
                    owner.setdefault(cell, ti)
            xxprime_terms = {owner[cell] for cell in xxprime_cells}
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


@functools.cache
def arrangements(key: tuple[int, int, int]) -> tuple[tuple[int, ...], ...]:
    """The rank tuples over ``nfree`` cells, ``key = (noptions, nfree,
    need)``, that hold every rank in ``need`` (bit r for rank r), in
    lexicographic order: those of ``product(range(noptions), repeat=nfree)``
    that contain ``need``.
    One table for every search of the process, which reads it only for keys
    of at most ``WALK_FROM``.  A first rank ``r`` is followed by the
    arrangements of ``nfree - 1`` cells that hold the rest of ``need``, and
    none when too few cells remain for it."""
    noptions, nfree, need = key
    if need.bit_count() > nfree:
        return ()
    if not nfree:
        return ((),)
    return tuple(chain.from_iterable(
        map((r,).__add__, arrangements((noptions, nfree - 1, need & ~(1 << r))))
        for r in range(noptions)
    ))


@functools.cache
def arrangement_count(key: tuple[int, int, int]) -> int:
    """How many arrangements ``arrangements(key)`` holds, by inclusion and
    exclusion over the needed ranks that are missing."""
    noptions, nfree, need = key
    k = need.bit_count()
    return sum((-1) ** i * math.comb(k, i) * (noptions - i) ** nfree for i in range(k + 1))


def map_function(
    f: Sop,
    dim: LatticeDim,
    budget: SearchBudget | None = None,
    paths: PathSet | None = None,
) -> MapResult:
    """STEP 1-10 mapping: one backtracking search over paths and placements;
    ValueError for ``paths`` of another dimension, and past
    ``ORACLE_MAX_VARS`` variables before any truth table."""
    deadline = (budget or SearchBudget()).deadline()
    paths = paths_for(dim, paths)
    search = _Search(f, paths, deadline)
    if support_size(search.f_mask, len(search.var_order)) > dim.cells:
        # a grid of rc cells holds at most rc distinct literals
        return MapResult(NO_SOLUTION)
    try:
        sol = search._try_terms(0, ALL_MIRRORS)
    except OutOfTime:
        return MapResult(INCONCLUSIVE)
    if sol is not None:
        return MapResult(SOLVED, sol)
    # no-solution is not a proof that no grid realizes f (see the module
    # docstring)
    return MapResult(NO_SOLUTION)
