"""Synthesis toolkit for four-terminal switching lattice networks."""

from .codes import (
    CONST_ONE,
    CONST_ZERO,
    COMPLEMENT_BASE,
    Sop,
    Term,
    equivalent,
    parse_function,
    serialize_function,
)
from .grid import SRC, LatticeDim, build_children
from .paths import PathSet, enumerate_paths, serialize_paths
from .solver import (
    LatticeAssignment,
    generate_library,
    lattice_table,
    parse_lattice,
    serialize_lattice,
    solve_lattice,
    verify_witness,
)
from .mapper import (
    INCONCLUSIVE,
    NO_SOLUTION,
    SOLVED,
    MapResult,
    MappingSolution,
    SearchBudget,
    map_function,
)
from .decompose import DecomposeOutcome, decompose_two, split_schedule
from .synth import SynthesisPlan, realizes, split_long_terms, synthesize

__all__ = [
    "CONST_ONE",
    "CONST_ZERO",
    "COMPLEMENT_BASE",
    "Sop",
    "Term",
    "equivalent",
    "parse_function",
    "serialize_function",
    "SRC",
    "LatticeDim",
    "build_children",
    "PathSet",
    "enumerate_paths",
    "serialize_paths",
    "LatticeAssignment",
    "generate_library",
    "lattice_table",
    "parse_lattice",
    "serialize_lattice",
    "solve_lattice",
    "verify_witness",
    "INCONCLUSIVE",
    "NO_SOLUTION",
    "SOLVED",
    "MapResult",
    "MappingSolution",
    "SearchBudget",
    "map_function",
    "DecomposeOutcome",
    "decompose_two",
    "split_schedule",
    "SynthesisPlan",
    "realizes",
    "split_long_terms",
    "synthesize",
]
