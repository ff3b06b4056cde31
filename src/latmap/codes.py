"""Literal codes, product terms and sum-of-products functions.

Encoding: a letter variable is its alphabet index (a=0 .. z=25), auxiliary
variables introduced by the synthesizer take 26..99, the complement of a
letter variable v is 1000 - v, constant one is 101 and constant zero is 100.

A product term is a frozenset of literal codes with constants already
normalized away; a function is an ordered list of such terms.  The empty
list is constant 0, and [frozenset()] (the empty product) is constant 1.

This module owns the truth-table layout (bit k of a table is the value where
the i-th variable of the order is bit i of k): other modules only combine the
tables that ``literal_masks`` gives each grid code.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_
from typing import Iterable, Optional

CONST_ZERO = 100
CONST_ONE = 101
LETTER_MAX = 25
AUX_MIN = 26
AUX_MAX = 99
COMPLEMENT_BASE = 1000
# most variables a truth table is built over (2^20 rows), by ``equivalent``
# and by the mapper
ORACLE_MAX_VARS = 20

Term = frozenset[int]
Sop = list[Term]


def is_positive_code(code: int) -> bool:
    return 0 <= code <= AUX_MAX


def is_complement_code(code: int) -> bool:
    return COMPLEMENT_BASE - LETTER_MAX <= code <= COMPLEMENT_BASE


# every valid code: the positive ones, the complements and both constants
VALID_CODES = frozenset([
    *range(AUX_MAX + 1),
    *range(COMPLEMENT_BASE - LETTER_MAX, COMPLEMENT_BASE + 1),
    CONST_ZERO,
    CONST_ONE,
])


def is_valid_code(code: int) -> bool:
    return code in VALID_CODES


def check_code(code: int) -> int:
    if not is_valid_code(code):
        raise ValueError(f"invalid literal code {code}")
    return code


def variable_of(code: int) -> int:
    """Variable index behind a positive or complement code."""
    if is_positive_code(code):
        return code
    if is_complement_code(code):
        return COMPLEMENT_BASE - code
    raise ValueError(f"code {code} is not a variable literal")


def normalize_term(codes: Iterable[int]) -> Optional[Term]:
    """Collapse duplicates, drop constant-1 entries, cancel on 0 or x x'.

    Returns None for a cancelled term.  An empty result is the constant-1
    product (it absorbs every other term).
    """
    lits: set[int] = set()
    for code in codes:
        check_code(code)
        if code == CONST_ONE:
            continue
        if code == CONST_ZERO:
            return None
        lits.add(code)
    for code in lits:
        if is_complement_code(code) and COMPLEMENT_BASE - code in lits:
            return None
    return frozenset(lits)


def term_sort_key(term: Term) -> tuple[int, list[int]]:
    return (len(term), sorted(term))


def absorb(terms: Sop) -> Sop:
    """Drop duplicate terms and terms whose literal set contains another's.

    Order-preserving on the survivors.
    """
    out: Sop = []
    for i, t in enumerate(terms):
        absorbed = False
        for j, u in enumerate(terms):
            if i == j:
                continue
            if u < t or (u == t and j < i):
                absorbed = True
                break
        if not absorbed:
            out.append(t)
    return out


def variables(f: Sop) -> set[int]:
    return {variable_of(c) for t in f for c in t}


def parse_function(text: str, warnings: Optional[list[str]] = None) -> Sop:
    """Parse the function file format: N, then N lines of "k c1 .. ck".

    Input terms are normalized and absorbed; a warning is recorded when
    that changed the input.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty function file")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise ValueError(f"bad term count line: {lines[0]!r}") from None
    if n < 0:
        raise ValueError(f"negative term count {n}")
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} term lines, got {len(lines) - 1}")
    raw: list[list[int]] = []
    for ln in lines[1:]:
        try:
            nums = [int(tok) for tok in ln.split()]
        except ValueError:
            raise ValueError(f"non-integer token on line {ln!r}") from None
        k, codes = nums[0], nums[1:]
        if k != len(codes):
            raise ValueError(
                f"literal count {k} does not match {len(codes)} codes on line {ln!r}"
            )
        raw.append(codes)

    terms: Sop = []
    changed = False
    for codes in raw:
        t = normalize_term(codes)
        if t is None:
            changed = True
            continue
        # ``1 101`` is constant 1 as ``serialize_function`` writes it
        if (len(codes) != len(t) or t != frozenset(codes)) and codes != [CONST_ONE]:
            changed = True
        terms.append(t)
    result = absorb(terms)
    if len(result) != len(terms):
        changed = True
    if changed and warnings is not None:
        warnings.append("input function was normalized/absorbed")
    return result


def serialize_function(f: Sop) -> str:
    lines = [str(len(f))]
    for t in f:
        if not t:
            lines.append(f"1 {CONST_ONE}")
        else:
            codes = sorted(t)
            lines.append(f"{len(codes)} " + " ".join(str(c) for c in codes))
    return "\n".join(lines) + "\n"


def _var_mask(index: int, num_vars: int) -> int:
    """Bitmask over all 2^num_vars assignments where variable `index` is 1."""
    half = 1 << index
    m = ((1 << half) - 1) << half  # one period: `half` zeros, then `half` ones
    width, total = half << 1, 1 << num_vars
    while width < total:  # double the periods until they cover every row
        m |= m << width
        width <<= 1
    return m


def support_size(table: int, num_vars: int) -> int:
    """Number of variables the truth table depends on: those whose two
    cofactors, laid out on the rows where the variable is 0, differ."""
    masks = [_var_mask(i, num_vars) for i in range(num_vars)]
    return sum((table & m) >> (1 << i) != table & ~m for i, m in enumerate(masks))


def literal_masks(var_order: list[int]) -> dict[int, int]:
    """Truth-table bitmasks for every positive and complement code of
    var_order, and for constant zero (0) and constant one (every row)."""
    nv = len(var_order)
    full = (1 << (1 << nv)) - 1
    masks: dict[int, int] = {CONST_ZERO: 0, CONST_ONE: full}
    for i, var in enumerate(var_order):
        m = _var_mask(i, nv)
        masks[var] = m
        if var <= LETTER_MAX:
            masks[COMPLEMENT_BASE - var] = full & ~m
    return masks


def term_masks(f: Sop, masks: dict[int, int]) -> list[int]:
    """The truth table of each term of f, from ``literal_masks`` tables."""
    return [reduce(and_, map(masks.__getitem__, t), masks[CONST_ONE]) for t in f]


def function_mask(f: Sop, var_order: list[int]) -> int:
    """Truth table of f as a bitmask over the 2^len(var_order) assignments."""
    return reduce(or_, term_masks(f, literal_masks(var_order)), 0)


def table_variables(*fs: Sop) -> list[int]:
    """The sorted variables of the functions; ValueError when there are more
    than ORACLE_MAX_VARS, since each truth table over them has 2^n bits."""
    universe = sorted(set().union(*map(variables, fs)))
    if len(universe) > ORACLE_MAX_VARS:
        raise ValueError(
            f"{len(universe)} variables exceed the truth-table bound "
            f"of {ORACLE_MAX_VARS}"
        )
    return universe


def equivalent(f: Sop, g: Sop) -> bool:
    """Exhaustive truth-table comparison over the union variable universe."""
    universe = table_variables(f, g)
    return function_mask(f, universe) == function_mask(g, universe)


def pretty_code(code: int) -> str:
    if code == CONST_ZERO:
        return "0"
    if code == CONST_ONE:
        return "1"
    if 0 <= code <= LETTER_MAX:
        return chr(ord("a") + code)
    if AUX_MIN <= code <= AUX_MAX:
        return f"x{code - AUX_MIN + 1}"
    if is_complement_code(code):
        return chr(ord("a") + COMPLEMENT_BASE - code) + "'"
    raise ValueError(f"invalid literal code {code}")


def pretty_term(term: Term) -> str:
    if not term:
        return "1"
    return " ".join(pretty_code(c) for c in sorted(term))
