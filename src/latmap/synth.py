"""Systematic multi-lattice synthesis with one lattice dimension.

Terms longer than the longest basic path are shortened with auxiliary
variables (each auxiliary product gets its own lattice and feeds later
lattices as an input signal).  The remaining terms are covered by repeatedly
trying a single lattice, then a two-lattice decomposition, then a half
split whose mapped pieces are peeled off and whose leftovers are merged
back into the remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .codes import AUX_MAX, AUX_MIN, Sop, Term, absorb, normalize_term
from .grid import LatticeDim
from .mapper import (
    INCONCLUSIVE,
    NO_SOLUTION,
    SOLVED,
    MappingSolution,
    SearchBudget,
    map_function,
)
from .decompose import decompose_two
from .paths import PathSet, enumerate_paths, longest_path_len
from .solver import LatticeAssignment


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


def _cover(
    terms: Sop,
    dim: LatticeDim,
    budget: Optional[SearchBudget],
    paths: PathSet,
) -> list[PlanLattice]:
    out: list[PlanLattice] = []
    working = list(terms)
    while working:
        r = map_function(working, dim, budget, paths)
        if r.status == INCONCLUSIVE:
            raise SynthesisInconclusive
        if r.status == SOLVED:
            out.append(PlanLattice(r.solution.assignment, tuple(working)))
            return out
        if len(working) == 1:
            # a single short term always fits on some path
            raise AssertionError(f"unmappable single term {sorted(working[0])}")
        d = decompose_two(working, dim, budget, paths)
        if d.status == INCONCLUSIVE:
            raise SynthesisInconclusive
        if d.status == SOLVED:
            res = d.result
            out.append(
                PlanLattice(
                    res.solution_a.assignment,
                    tuple(working[i] for i in res.indices_a),
                )
            )
            out.append(
                PlanLattice(
                    res.solution_b.assignment,
                    tuple(working[i] for i in res.indices_b),
                )
            )
            return out
        half = (len(working) + 1) // 2
        h1, h2 = working[:half], working[half:]
        r1 = map_function(h1, dim, budget, paths)
        if r1.status == INCONCLUSIVE:
            raise SynthesisInconclusive
        if r1.status == SOLVED:
            out.append(PlanLattice(r1.solution.assignment, tuple(h1)))
            working = h2
            continue
        if len(h1) >= 2:
            d1 = decompose_two(h1, dim, budget, paths)
            if d1.status == INCONCLUSIVE:
                raise SynthesisInconclusive
            if d1.status == SOLVED:
                res = d1.result
                # keep the larger mapped part, recycle the smaller one
                out.append(
                    PlanLattice(
                        res.solution_a.assignment,
                        tuple(h1[i] for i in res.indices_a),
                    )
                )
                working = [h1[i] for i in res.indices_b] + h2
                continue
        # the first half is not even two-lattice implementable: recurse on it
        out.extend(_cover(h1, dim, budget, paths))
        working = h2
    return out


def synthesize(
    f: Sop,
    dim: LatticeDim,
    budget: SearchBudget | None = None,
) -> Optional[SynthesisPlan]:
    """Full plan for f on lattices of one dimension; None when inconclusive."""
    paths = enumerate_paths(dim)
    lb = longest_path_len(paths)
    working, aux_defs = split_long_terms(f, lb)
    lattices: list[PlanLattice] = []
    try:
        for aux in aux_defs:
            r = map_function([aux.product], dim, budget, paths)
            if r.status == INCONCLUSIVE:
                raise SynthesisInconclusive
            if r.status != SOLVED:
                raise AssertionError(
                    f"aux product of length {len(aux.product)} <= LB must map"
                )
            lattices.append(
                PlanLattice(r.solution.assignment, (aux.product,), aux.code)
            )
        lattices.extend(_cover(working, dim, budget, paths))
    except SynthesisInconclusive:
        return None
    return SynthesisPlan(dim, tuple(lattices), tuple(aux_defs))


def expand_plan(plan: SynthesisPlan) -> Sop:
    """Function realized by the plan: OR of the output lattices with every
    auxiliary code substituted by its defining product (innermost last)."""
    from .solver import solve_lattice

    terms: Sop = []
    for pl in plan.lattices:
        if pl.aux_code is not None:
            continue  # feeds an aux signal, not the output sum
        terms.extend(solve_lattice(pl.assignment))
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
