"""Systematic multi-lattice synthesis with one lattice dimension.

Terms longer than the longest basic path are shortened with auxiliary
variables (each auxiliary product gets its own lattice and feeds later
lattices as an input signal).  The remaining terms are covered by one
recursion: they go onto one lattice, else onto two (``decompose_two``), else
they are halved.  Halving peels off the first half if it maps, else the
larger part of its two-lattice decomposition (the smaller part rejoins the
second half), else halves the first half in turn; the rest is covered
anew.  All mapper calls of one run share one ``Run`` (see
``latmap.decompose``): one memo of definite verdicts keyed by the ordered
term tuple, so no term list is mapped twice, and one deadline, fixed when
the run starts, so the time limit bounds the whole run.  Each call gets the
time that remains, and the first time cut ends the run as inconclusive.
Terms go to more lattices only on a no-solution, which proves only that no
grid houses them one per path, with constant-1 fillers, the other cells 0
and no completed path outside them (see ``latmap.mapper``), not that no
lattice does: a plan may hold more lattices than the function needs.

``realizes`` checks a plan by evaluating every lattice in plan order with
``lattice_table``; an auxiliary lattice's table becomes the truth table of
its code for the lattices after it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .codes import (
    AUX_MAX,
    AUX_MIN,
    LETTER_MAX,
    Sop,
    Term,
    function_mask,
    is_complement_code,
    literal_masks,
    table_variables,
)
from .grid import LatticeDim
from .mapper import INCONCLUSIVE, MappingSolution, OutOfTime, SearchBudget
from .mapper import map_function  # noqa: F401  bench/tests checks the tracer rebinds it here
from .decompose import DecompositionResult, Run, decompose_two
from .paths import enumerate_paths, longest_path_len
from .solver import LatticeAssignment, lattice_table


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
    lattices: tuple[PlanLattice, ...]  # auxiliary lattices first, in code order


def split_long_terms(f: Sop, lb: int) -> tuple[Sop, list[AuxDefinition]]:
    """Shorten every term beyond lb by chunking prefixes into aux variables.

    Terms come out sorted by length (stable), which fixes the half-split
    order used later.  A chunk of fewer than 2 literals shortens nothing, so
    a bound below 2 is an error only when some term is longer than it.
    """
    if lb < 2 and any(len(t) > lb for t in f):
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


def _split(run: Run, terms: Sop) -> Optional[DecompositionResult]:
    """A two-lattice decomposition of ``terms``, None when there is none;
    ``OutOfTime`` when the time runs out first."""
    if len(terms) < 2:
        return None
    outcome = decompose_two(terms, run.dim, run.left(), run.paths, memo=run.memo)
    if outcome.status == INCONCLUSIVE:
        raise OutOfTime
    return outcome.result


def _part(terms: Sop, indices: tuple[int, ...], sol: MappingSolution) -> PlanLattice:
    return PlanLattice(sol.assignment, tuple(terms[i] for i in indices))


def _cover(run: Run, terms: Sop) -> list[PlanLattice]:
    if not terms:
        return []
    sol = run.solve(terms)
    if sol is not None:
        return [PlanLattice(sol.assignment, tuple(terms))]
    res = _split(run, terms)
    if res is not None:
        return [
            _part(terms, res.indices_a, res.solution_a),
            _part(terms, res.indices_b, res.solution_b),
        ]
    return _halve(run, terms)


def _halve(run: Run, terms: Sop) -> list[PlanLattice]:
    if len(terms) == 1:
        # a single short term always fits on some path
        raise AssertionError(f"unmappable single term {sorted(terms[0])}")
    half = (len(terms) + 1) // 2
    h1, h2 = terms[:half], terms[half:]
    sol = run.solve(h1)
    if sol is not None:
        return [PlanLattice(sol.assignment, tuple(h1))] + _cover(run, h2)
    res = _split(run, h1)
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
    run = Run(dim, budget or SearchBudget(), paths)
    lattices: list[PlanLattice] = []
    try:
        for aux in aux_defs:
            sol = run.solve([aux.product])
            if sol is None:
                raise AssertionError(
                    f"aux product of length {len(aux.product)} <= LB must map"
                )
            lattices.append(PlanLattice(sol.assignment, (aux.product,), aux.code))
        lattices.extend(_cover(run, working))
    except OutOfTime:
        return None
    return SynthesisPlan(dim, tuple(lattices))


def realizes(plan: SynthesisPlan, f: Sop) -> bool:
    """Does the plan compute f?  The output lattices' tables are ORed; an
    auxiliary code that no earlier lattice defines, and that is no variable
    of f, is a ValueError."""
    letters = frozenset(c for pl in plan.lattices for c in pl.assignment.codes
                        if c <= LETTER_MAX or is_complement_code(c))
    universe = table_variables(f, [letters])
    masks = literal_masks(universe)
    out = 0
    for pl in plan.lattices:
        dangling = set(pl.assignment.codes) - masks.keys()
        if dangling:
            raise ValueError(f"dangling auxiliary code {min(dangling)}")
        table = lattice_table(pl.assignment, masks)
        if pl.aux_code is None:
            out |= table
        else:
            masks[pl.aux_code] = table
    return out == function_mask(f, universe)
