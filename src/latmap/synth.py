"""Systematic multi-lattice synthesis with one lattice dimension.

Terms longer than the longest basic path are shortened with auxiliary
variables (each auxiliary product gets its own lattice and feeds later
lattices as an input signal).  The remaining terms are covered by one
recursion: they go onto one lattice, else onto two (``decompose_two``), else
they are halved.  Halving peels off the first half if it maps, else the
larger part of its two-lattice decomposition (the smaller part rejoins the
second half), else halves the first half in turn; the rest is covered
anew.  All mapper calls of one run share one memo keyed by the ordered term
tuple, so no term list is mapped twice, and the time limit bounds the whole
run: each call gets the time that remains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .codes import AUX_MAX, AUX_MIN, Sop, Term, absorb, normalize_term
from .grid import LatticeDim
from .mapper import (
    INCONCLUSIVE,
    MappingSolution,
    MapResult,
    SearchBudget,
    map_function,
)
from .decompose import DecomposeOutcome, DecompositionResult, decompose_two
from .paths import PathSet, enumerate_paths, longest_path_len
from .solver import LatticeAssignment, solve_lattice


@dataclass(frozen=True)
class AuxDefinition:
    code: int
    product: Term

    def __post_init__(self) -> None:
        if not AUX_MIN <= self.code <= AUX_MAX:
            raise ValueError(f"auxiliary code {self.code} out of range")


@dataclass(frozen=True)
class PlanLattice:
    assignment: LatticeAssignment
    terms: tuple[Term, ...]
    aux_code: Optional[int] = None  # set when this lattice produces an aux signal


@dataclass(frozen=True)
class SynthesisPlan:
    dim: LatticeDim
    lattices: tuple[PlanLattice, ...]
    aux_defs: tuple[AuxDefinition, ...]


class SynthesisInconclusive(Exception):
    """An inner search hit its budget; the plan cannot be trusted."""


def split_long_terms(f: Sop, lb: int) -> tuple[Sop, list[AuxDefinition]]:
    """Shorten every term beyond lb by chunking prefixes into aux variables.

    Terms come out sorted by length (stable), which fixes the half-split
    order used later.
    """
    if lb < 2:
        raise ValueError("longest-path bound must be >= 2")
    defs: list[AuxDefinition] = []
    next_code = AUX_MIN
    for t in f:
        for c in t:
            if AUX_MIN <= c <= AUX_MAX:
                next_code = max(next_code, c + 1)
    out: Sop = []
    for t in sorted(f, key=len):
        cur = set(t)
        while len(cur) > lb:
            if next_code > AUX_MAX:
                raise ValueError("ran out of auxiliary variable codes")
            chunk = frozenset(sorted(cur)[:lb])
            defs.append(AuxDefinition(next_code, chunk))
            cur -= chunk
            cur.add(next_code)
            next_code += 1
        out.append(frozenset(cur))
    return out, defs


class _Run:
    """One run's verdict memo and deadline.  A call with no time left is
    skipped as inconclusive, and an inconclusive answer ends the run."""

    def __init__(self, dim: LatticeDim, budget: SearchBudget, paths: PathSet):
        self.dim = dim
        self.budget = budget
        self.paths = paths
        self.deadline = budget.deadline()
        self.memo: dict[tuple[Term, ...], MapResult] = {}

    @staticmethod
    def _settled(outcome: MapResult | DecomposeOutcome):
        if outcome.status == INCONCLUSIVE:
            raise SynthesisInconclusive
        return outcome

    def map(self, terms: Sop) -> Optional[MappingSolution]:
        """The lattice for ``terms``, None for no-solution."""
        key = tuple(terms)
        if key not in self.memo:
            left = self.budget.until(self.deadline)
            self.memo[key] = (
                MapResult(INCONCLUSIVE)
                if left is None
                else map_function(terms, self.dim, left, self.paths)
            )
        return self._settled(self.memo[key]).solution

    def split(self, terms: Sop) -> Optional[DecompositionResult]:
        """A two-lattice decomposition of ``terms``, None when there is none."""
        if len(terms) < 2:
            return None
        left = self.budget.until(self.deadline)
        outcome = (
            DecomposeOutcome(INCONCLUSIVE)
            if left is None
            else decompose_two(terms, self.dim, left, self.paths, memo=self.memo)
        )
        return self._settled(outcome).result


def _part(terms: Sop, indices: tuple[int, ...], sol: MappingSolution) -> PlanLattice:
    return PlanLattice(sol.assignment, tuple(terms[i] for i in indices))


def _cover(run: _Run, terms: Sop) -> list[PlanLattice]:
    if not terms:
        return []
    sol = run.map(terms)
    if sol is not None:
        return [PlanLattice(sol.assignment, tuple(terms))]
    res = run.split(terms)
    if res is not None:
        return [
            _part(terms, res.indices_a, res.solution_a),
            _part(terms, res.indices_b, res.solution_b),
        ]
    return _halve(run, terms)


def _halve(run: _Run, terms: Sop) -> list[PlanLattice]:
    if len(terms) == 1:
        # a single short term always fits on some path
        raise AssertionError(f"unmappable single term {sorted(terms[0])}")
    half = (len(terms) + 1) // 2
    h1, h2 = terms[:half], terms[half:]
    sol = run.map(h1)
    if sol is not None:
        return [PlanLattice(sol.assignment, tuple(h1))] + _cover(run, h2)
    res = run.split(h1)
    if res is not None:
        rest = [h1[i] for i in res.indices_b] + h2
        return [_part(h1, res.indices_a, res.solution_a)] + _cover(run, rest)
    return _halve(run, h1) + _cover(run, h2)


def synthesize(
    f: Sop,
    dim: LatticeDim,
    budget: SearchBudget | None = None,
) -> Optional[SynthesisPlan]:
    """Full plan for f on lattices of one dimension; None when inconclusive.

    The time limit bounds the whole run, not each mapper call."""
    paths = enumerate_paths(dim)
    lb = longest_path_len(paths)
    working, aux_defs = split_long_terms(f, lb)
    run = _Run(dim, budget or SearchBudget(), paths)
    lattices: list[PlanLattice] = []
    try:
        for aux in aux_defs:
            sol = run.map([aux.product])
            if sol is None:
                raise AssertionError(
                    f"aux product of length {len(aux.product)} <= LB must map"
                )
            lattices.append(PlanLattice(sol.assignment, (aux.product,), aux.code))
        lattices.extend(_cover(run, working))
    except SynthesisInconclusive:
        return None
    return SynthesisPlan(dim, tuple(lattices), tuple(aux_defs))


def expand_plan(plan: SynthesisPlan) -> Sop:
    """Function realized by the plan: OR of the output lattices with every
    auxiliary code substituted by its defining product (innermost last)."""
    paths = enumerate_paths(plan.dim)
    terms: Sop = []
    for pl in plan.lattices:
        if pl.aux_code is not None:
            continue  # feeds an aux signal, not the output sum
        terms.extend(solve_lattice(pl.assignment, paths))
    for aux in reversed(plan.aux_defs):
        expanded: Sop = []
        for t in terms:
            if aux.code in t:
                t = (t - {aux.code}) | aux.product
            expanded.append(frozenset(t))
        terms = expanded
    # later products may hold earlier codes, never the reverse, so a code
    # still present has no definition
    for t in terms:
        for c in t:
            if AUX_MIN <= c <= AUX_MAX:
                raise ValueError(f"dangling auxiliary code {c}")
    normalized = [normalize_term(t) for t in terms]
    return absorb([t for t in normalized if t is not None])
