"""Backtracking mapper: place a function's product terms onto lattice paths.

Each call runs one search, which examines the terms in the order given;
each term is housed on an available path (shortest first) by assigning its
literals to the path cells with constant-1 fillers, or deferred when no
housing works (it may still be present as a combination of other paths).
Dangling cells are zeroed at the end and the candidate grid is accepted only
if its solve is truth-table equivalent to the target.  The search backtracks
over path choices, placements and deferrals.  No other examination order
is tried.  The check that finds the deadline passed, at a node, a probe or
a walk step, raises ``OutOfTime``: no placement is listed, no node opened
and no leaf checked after it, and ``map_function`` answers inconclusive.

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
(``PathSet.mirrors``).  Each node carries its stabilizer: the mirrors that
map its grid and used paths onto themselves, all of them at the root.  A
term is not housed on a path that one of them maps to an earlier path, and
on a path that one of them maps onto itself, an arrangement is skipped when
its mirror image comes earlier in the arrangement order.  A child keeps the
mirrors that fix its arrangement, a deferral keeps them all, so the rule
applies wherever the grid is still symmetric (say, a term on the centre
column of 3x3) and costs nothing once it is not.  Answers do not change:
were the first solution under a skipped path or arrangement, its mirror
would lie under an earlier sibling, whose subtree is searched in full first.

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
and it fails when a path it completes is a live escape (a nonzero bound
inside no term's mask), when the new bounds, ORed, no longer cover the
function, or, unless its node is a leaf of the last term, where ``_finish``
is exact, when the reach bound fails.  Which paths a placement completes depends only on the node and the
path, so they are listed once for all its arrangements.  A wide pair is
walked (below).  An opened node's cells are written to the grid and the copy
becomes its bounds.  A node never writes its own bounds, so undo is putting
them back and clearing the cells.  So a node's placements always cover the
function, and a deferral, which keeps its parent's state, needs no test of
its own.

The reach bound: at an accepted leaf every nonzero path product lies inside
one term's mask (live escapes are rejected, and ``_finish`` sets the paths
through its 0 cells to 0), and that product is the path's bound b ANDed with
the literals that later fill its u unset cells.  b and each term T are
cubes, so the product can lie in T only when b meets T and T needs at most u
literals that b lacks: ``popcount(b & T) << u >= popcount(b)``.  A path's
share is b & T for each such T, and all of b when u is 0 (a completed path
lies inside a term already) or at least the longest term's length.  Where
the shares no longer cover the function no solution lies below.  Each share
is memoized by (b, u) for the search.

A wide pair walks its arrangements one free cell at a time, depth first,
in the same lexicographic order.  A prefix fixes the first cells and counts
the others as unset, and it fails when a path it completes is a live escape
or when the shares no longer cover the function;
every arrangement below it is then rejected unlisted.  A node keeps each
path's share next to its bound, listed the first time one of its wide pairs
is walked; fixing a cell updates only the bounds and shares of the paths
through it, and the cover test is one OR over the shares, which implies the
OR over the bounds.  The walk is sound because a share only shrinks down the
walk: fixing d more cells of a path adds at most d literals to its bound and
takes d cells off its u, so a term out of a prefix's reach stays out below
it, and a completed path that is no live escape lies inside a term the
prefix still reaches.  So the walk opens exactly the nodes the probes would,
in the same order; the only extra rejections are leaves of the last term
that ``_finish`` would reject.

The pair bound: before a pair lists any arrangement, ``_may_pass`` bounds
them all at once, and the pair is skipped when the bound does not cover the
function.  Let F be the path's free cells.  The path itself ends up with the
term's mask.  A path through no cell of F keeps its bound b and its u unset
cells, so it adds its share.  A path through k cells of F ends up with the
bound b & c, where c, the product of the options on those cells, is a cube
of at most k of the term's literals (c = 1 when they all hold 1), and keeps
u' unset cells; it adds the OR over every such cube of the share of b & c
(``_most``), where a completed path (u' = 0) adds b & c only when that is
no live escape, since the probe and the walk reject an arrangement that
completes one.  Above the last term, each path's share under any one
arrangement lies in what the bound gives it, so a skipped pair is one whose
every arrangement fails its probe or walk, and the search opens the same
interior nodes in the same order.  At the last term a path with unset cells
adds nothing, as ``_finish`` zeroes them, so a pair is skipped only where
``_finish`` would reject each of its leaves.  The ORs are memoized by
(term, b, k, u') for the search and built at first use.  On HARD
(DECOMP_EVEN8 on 3x3, in the tests) the search still opens 1,669 interior
nodes, and checks 490 leaves instead of 1,610; it checks the deadline 4,039
times instead of 30,033 and walks no pair instead of 10.

The cut-over trades the walk's cost per prefix (two list copies and the
shares of the paths through a cell) against the arrangements it cuts
unlisted.  Of the pairs that pass the pair bound, with the share of their
arrangements, these lie above 100: none of the 1,582 pairs of the
benchmark's solved library maps on 3x3, 0.2 % with 2 % of 1,366 on 3x4,
0.7 % with 19 % of 33,670 over the pool negatives on 3x3, and 2.6 % with
50 % of 380 when synthesizing SYNTH_EIGHT on 3x3.  Walking every pair slows
the solved maps (0.15-0.23 to 0.22-0.31 s) and the negatives (2.2-2.4 to
2.7-2.8 s) and leaves SYNTH_EIGHT at about 0.1 s; see the README.

Only subtrees without a solution are cut, so the answers and the first
solution, its grid and its points of interest stay the same.

``map_function`` sets the deadline before the search reads the path set's
tables (``cell_masks``, ``through``, ``mirrors``), which a ``PathSet``
builds at its first mapping.  The time limit does not bound that work (the
README gives its cost on large grids); it counts against the limit, so a
shorter limit ends the search at its first check.

An arrangement is a tuple of ranks into the term's options, its sorted
literals and then constant 1.  The arrangements over a path's free cells
depend only on the number of options, the number of free cells and the ranks
still needed (bit r for rank r), so terms of equal length share them.
``arrangements`` builds them from ``itertools`` in lexicographic order: a
product when no rank is needed, the permutations of the needed ranks when
every free cell is needed, and otherwise each first rank followed by the
arrangements of the remaining cells.  Its lists are one table shared by
every search of the process.  Only narrow pairs read it, and the key of a
remaining-cells list has no more arrangements than the key that asked for
it, so each list holds at most ``WALK_FROM`` arrangements; after every
benchmark input the table holds 76 lists, about 0.06 MB.  That order is the
one the search has always used, so answers are unchanged.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from itertools import chain, combinations, permutations, product
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

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
from .paths import PathSet, paths_for
from .solver import LatticeAssignment

# a grid mirror as (cell map, path map), see ``PathSet.mirrors``
Mirror = tuple[tuple[int, ...], tuple[int, ...]]

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
        self.f = f
        self.dim = paths.dim
        self.paths = paths.paths  # canonical = shortest first
        self.through = paths.through
        self.deadline = deadline

        self.var_order = table_variables(f)
        # a fixed cell ANDs its mask into the bound of every path through it
        masks = literal_masks(self.var_order)
        self.full = masks[CONST_ONE]
        self.term_mask = term_masks(f, masks)
        self.term_outside = [self.full & ~m for m in self.term_mask]
        self.f_mask = functools.reduce(operator.or_, self.term_mask, 0)
        self.f_outside = self.full & ~self.f_mask
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
        # what a path can still add to the function, by (bound, unset cells)
        self.reach: dict[tuple[int, int], int] = {}
        # the most a path can add once a term is placed over some of its
        # cells, by (term, bound, cells placed, unset cells after)
        self.most: dict[tuple[int, int, int, int], int] = {}
        # each path's reach at this node, listed when a wide pair needs it
        self.path_reach: Optional[list[int]] = None

    # -- bounds ----------------------------------------------------------

    def _escapes(self, ub: int) -> bool:
        """Whether a completed path with product mask ``ub`` is a live
        escape: nonzero and inside no term's mask."""
        if not ub:
            return False
        if ub & self.f_outside:
            return True
        for outside in self.term_outside:
            if not ub & outside:
                return False
        return True

    def _reaches(self, bounds: list[int], unset: int) -> bool:
        """Whether the paths can still cover the function, with ``unset``
        left unset: the OR of each path's ``_share``."""
        lost = self.f_mask
        longest = self.longest
        memo = self.reach
        for b, cells in zip(bounds, self.cell_masks):
            if not b & lost:
                continue  # it adds at most b
            u = (cells & unset).bit_count()
            if 0 < u < longest:
                reach = memo.get((b, u))
                b = self._share(b, u) if reach is None else reach
            lost &= ~b
            if not lost:
                return True
        return False

    def _share(self, b: int, u: int) -> int:
        """What a path with bound b and u unset cells can still add: b when
        u is 0 (a completed path is no live escape, or it houses a term) or
        at least the longest term's length, and otherwise b & T for each term T that b meets and that
        needs at most u literals more, so that ``popcount(b & T) << u >=
        popcount(b)``.  Memoized by (b, u) for the search."""
        if not 0 < u < self.longest:
            return b
        reach = self.reach.get((b, u))
        if reach is None:
            size = b.bit_count()
            reach = self.reach[b, u] = functools.reduce(operator.or_, [
                b & t for t in self.term_mask if (b & t).bit_count() << u >= size
            ], 0)
        return reach

    def _may_pass(self, ti: int, pi: int, unset: int) -> bool:
        """Whether some arrangement of term ``ti`` on path ``pi``, which
        leaves ``unset`` unset, can pass: the OR of the most each path can
        still add covers the function.  Path ``pi`` adds the term's mask, a
        path through none of the placed cells its ``_share`` and a path
        through some of them its ``_most``.  At the last term a path with
        unset cells adds nothing, since ``_finish`` zeroes it."""
        lost = self.f_mask & ~self.term_mask[ti]
        if not lost:
            return True
        placed = self.unset & ~unset
        last = ti + 1 == len(self.f)
        memo = self.reach
        longest = self.longest
        for pj, (b, cells) in enumerate(zip(self.path_ub, self.cell_masks)):
            if not b & lost or pj == pi:
                continue  # it adds at most b
            u = (cells & unset).bit_count()
            if u and last:
                continue
            k = (cells & placed).bit_count()
            if k and u < longest:
                b = self._most(ti, b, k, u)
            elif 0 < u < longest:
                reach = memo.get((b, u))
                b = self._share(b, u) if reach is None else reach
            lost &= ~b
            if not lost:
                return True
        return False

    def _most(self, ti: int, b: int, k: int, u: int) -> int:
        """The most a path with bound b can still add once k of its cells
        hold options of term ``ti`` and u stay unset: the OR, over each cube
        c of at most k of the term's literals (c = 1 included), of
        ``_share(b & c, u)``, or of b & c when u is 0 and b & c is no live
        escape.  The k cells multiply to one such cube, so this contains
        the path's share under every arrangement that passes.  Memoized by
        (ti, b, k, u) for the search."""
        key = ti, b, k, u
        most = self.most.get(key)
        if most is None:
            literals = self.option_masks[ti][:-1]
            most = 0
            for n in range(min(k, len(literals)) + 1):
                for cube in combinations(literals, n):
                    bc = functools.reduce(operator.and_, cube, b)
                    if u:
                        most |= self._share(bc, u)
                    elif not self._escapes(bc):
                        most |= bc
                if most == b:
                    break  # no cube adds more than b
            self.most[key] = most
        return most

    # -- placements ------------------------------------------------------

    def _placements(
        self, term_idx: int, path: tuple[int, ...]
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
    ) -> Iterator[tuple[tuple[int, ...], list[int], None]]:
        """``(ranks, bounds, None)`` for each arrangement of
        ``arrangements(key)`` that passes its probe, in order: ``bounds``
        are the path bounds once each free cell holds its ranked option.  A
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
        f_mask = self.f_mask
        f_outside = self.f_outside
        term_outside = self.term_outside
        last = ti + 1 == len(self.f)  # ``_finish`` checks the child exactly
        for ranks in arrangements(key):
            self._check_time()
            bounds = path_ub[:]
            for cell, rank in zip(free, ranks):
                m = option_masks[rank]
                for pj in through[cell]:
                    bounds[pj] &= m
            # ``_escapes``, inlined and first: it is the hot loop of a probe
            for pj in done:
                ub = bounds[pj]
                if ub:
                    if ub & f_outside:
                        break
                    for outside in term_outside:
                        if not ub & outside:
                            break
                    else:
                        break  # inside no term's mask
            else:
                if not f_mask & ~functools.reduce(operator.or_, bounds, 0) and (
                    last or self._reaches(bounds, unset)
                ):
                    yield ranks, bounds, None

    def _walk(
        self, ti: int, pi: int, free: list[int], need: int
    ) -> Iterator[tuple[tuple[int, ...], list[int], list[int]]]:
        """``(ranks, bounds, reach)`` for each arrangement that holds the
        ranks in ``need`` (bit r for rank r) and passes, in lexicographic
        order, one free cell at a time.  A prefix that completes a live
        escape, or whose shares no longer cover the function, fails with
        every arrangement below it; past the deadline it raises.  It starts
        from the node's shares, listed at the node's first walk.

        A step lists, for a free cell once it and the cells before it are
        fixed, the paths through it: those whose share is their bound, the
        others with their unset cells, and those other than ``pi`` it
        completes."""
        memo = self.reach
        longest = self.longest
        if self.path_reach is None:
            self.path_reach = [
                self._share(b, (cells & self.unset).bit_count())
                for b, cells in zip(self.path_ub, self.cell_masks)
            ]
        unset = self.unset
        steps = []
        for cell in free:
            unset &= ~(1 << cell)
            plain = []
            bounded = []
            done = []
            for pj in self.through[cell]:
                u = (self.cell_masks[pj] & unset).bit_count()
                if 0 < u < longest:
                    bounded.append((pj, u))
                else:
                    plain.append(pj)
                    if not u and pj != pi:
                        done.append(pj)
            steps.append((plain, bounded, done))
        option_masks = self.option_masks[ti]
        f_mask = self.f_mask
        ncells = len(steps)
        stack = [((), need, self.path_ub, self.path_reach)]
        while stack:
            prefix, need, bounds, reach = stack.pop()
            if len(prefix) == ncells:
                yield prefix, bounds, reach
                continue
            self._check_time()
            plain, bounded, done = steps[len(prefix)]
            left = ncells - len(prefix) - 1  # cells after this one
            children = []
            for r, m in enumerate(option_masks):
                rest = need & ~(1 << r)
                if rest.bit_count() > left:
                    continue
                nb = bounds[:]
                nr = reach[:]
                for pj in plain:
                    nb[pj] = nr[pj] = nb[pj] & m
                for pj, u in bounded:
                    b = nb[pj] = nb[pj] & m
                    share = memo.get((b, u))
                    nr[pj] = self._share(b, u) if share is None else share
                if f_mask & ~functools.reduce(operator.or_, nr, 0) or (
                    done and any([self._escapes(nb[pj]) for pj in done])
                ):
                    continue
                children.append((prefix + (r,), rest, nb, nr))
            stack += reversed(children)

    # -- search ----------------------------------------------------------

    def _check_time(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise OutOfTime

    def _try_terms(self, ti: int, stab: Sequence[Mirror]) -> Optional[MappingSolution]:
        """Search below the current node; ``stab`` holds the mirrors that map
        its grid and used paths onto themselves.  The node's placements cover
        the function: the parent tested that before opening it."""
        self._check_time()
        if ti == len(self.f):
            return self._finish()
        term = self.f[ti]
        term_mask = self.term_mask[ti]
        path_ub = self.path_ub
        for pi in range(len(self.paths)):
            if self.matched[pi] is not None:
                continue
            if term_mask & ~path_ub[pi]:
                continue  # a fixed cell holds a literal the term lacks
            if stab and any(pmap[pi] < pi for _, pmap in stab):
                continue  # a mirror image of this path comes earlier
            path = self.paths[pi]
            if len(term) > len(path):
                continue
            housing = self._placements(ti, path)
            if housing is None:
                continue
            free, key = housing
            unset = self.unset & ~self.cell_masks[pi]  # all of the path is set
            if not self._may_pass(ti, pi, unset):
                continue  # no arrangement of the pair can pass
            fixing = self._fixing(pi, free, stab) if stab else ()
            if arrangement_count(key) > WALK_FROM:
                passing = self._walk(ti, pi, free, key[2])
            else:
                passing = self._probes(ti, pi, free, key, unset)
            for ranks, bounds, reach in passing:
                child: Sequence[Mirror] = ()
                if fixing:
                    child = self._arrangement_stab(ranks, fixing)
                    if child is None:
                        continue  # a mirror image of it comes earlier
                sol = self._open(ti, pi, free, ranks, bounds, reach, unset, child)
                if sol is not None:
                    return sol
        # no housing works down this branch: defer, the term may be hiding
        return self._try_terms(ti + 1, stab)

    def _open(
        self,
        ti: int,
        pi: int,
        free: list[int],
        ranks: tuple[int, ...],
        bounds: list[int],
        reach: Optional[list[int]],
        unset: int,
        stab: Sequence[Mirror],
    ) -> Optional[MappingSolution]:
        """Place term ``ti`` on path ``pi`` as arranged and search below.
        The node's own lists are never written, so putting them back undoes
        the placement."""
        grid = self.grid
        options = self.options[ti]
        for cell, rank in zip(free, ranks):
            grid[cell] = options[rank]
        node = self.path_ub, self.path_reach, self.unset
        self.path_ub, self.path_reach, self.unset = bounds, reach, unset
        self.matched[pi] = ti
        sol = self._try_terms(ti + 1, stab)
        if sol is None:
            self.matched[pi] = None
            self.path_ub, self.path_reach, self.unset = node
            for cell in free:
                grid[cell] = None
        return sol

    @staticmethod
    def _fixing(
        pi: int, free: list[int], stab: Sequence[Mirror]
    ) -> list[tuple[tuple[int, ...], Mirror]]:
        """The mirrors that map path ``pi`` onto itself, each with the
        permutation of ``free`` it makes: the position among ``free`` of
        each free cell's image.  They map the node's grid onto itself, so
        free cells onto free cells."""
        fixing = [m for m in stab if m[1][pi] == pi]
        if not fixing:
            return []
        position = {cell: k for k, cell in enumerate(free)}.__getitem__
        return [(tuple(map(position, map(m[0].__getitem__, free))), m) for m in fixing]

    @staticmethod
    def _arrangement_stab(
        ranks: tuple[int, ...], fixing: list[tuple[tuple[int, ...], Mirror]]
    ) -> Optional[list[Mirror]]:
        """None when a mirror image of the arrangement comes earlier in the
        arrangement order; otherwise the mirrors that leave it unchanged."""
        child = []
        for perm, mirror in fixing:
            image = tuple(map(ranks.__getitem__, perm))
            if image < ranks:
                return None
            if image == ranks:
                child.append(mirror)
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
        cell has mask 0 exactly when it holds an xx' pair.  A literal cell
        was written by the first term, in order, whose path holds it: terms
        are placed in order, and a cell is written only while it is free."""
        owner: dict[int, int] = {}
        housed = sorted((ti, pi) for pi, ti in enumerate(self.matched) if ti is not None)
        for ti, pi in housed:
            for cell in self.paths[pi]:
                owner.setdefault(cell, ti)
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
                    xxprime_terms.add(owner[cell])
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
    k = need.bit_count()
    if k > nfree:
        return ()
    if not need:
        return tuple(product(range(noptions), repeat=nfree))
    if k == nfree:
        return tuple(permutations(r for r in range(noptions) if need >> r & 1))
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
    if budget is None:
        budget = SearchBudget()
    paths = paths_for(dim, paths)

    search = _Search(f, paths, budget.deadline())
    if support_size(search.f_mask, len(search.var_order)) > dim.cells:
        # a grid of rc cells holds at most rc distinct literals
        return MapResult(NO_SOLUTION)
    try:
        sol = search._try_terms(0, paths.mirrors)
    except OutOfTime:
        return MapResult(INCONCLUSIVE)
    if sol is not None:
        return MapResult(SOLVED, sol)
    # no-solution is not a proof that no grid realizes f (see the module
    # docstring)
    return MapResult(NO_SOLUTION)
