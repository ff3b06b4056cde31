"""Frozen workload inputs, copied so that edits to the test data cannot
change a benchmark workload.

Source: ``tests/goldens.py`` at commit 0a7515c (DECOMP_EVEN8 is
``WITNESSES[4][3]``, DECOMP_NOSPLIT8 ``WITNESSES[10][3]``, DECOMP_UNEVEN8
``WITNESSES[11][3]``; SYNTH_Q, SYNTH_EIGHT and PATH_COUNTS are
copied as they stand).  Term order matters to the mapper,
so every function keeps the order of its source.
"""

from __future__ import annotations


def _f(*terms: set[int]) -> list[frozenset[int]]:
    return [frozenset(t) for t in terms]


DECOMP_EVEN8 = _f(
    {998, 996, 1, 1000}, {3, 1, 4}, {3, 996, 999}, {998, 996, 999},
    {3, 1, 1000}, {3, 0, 4}, {3, 0, 999}, {998, 3},
)
DECOMP_NOSPLIT8 = _f(
    {4, 997, 1000}, {4, 997, 999, 2}, {4, 0, 999, 2}, {4, 0, 3, 998, 1},
    {997, 0, 999, 2}, {1000, 3, 998, 1}, {3, 996, 998, 1},
    {3, 996, 0, 999, 2},
)
DECOMP_UNEVEN8 = _f(
    {1, 996, 998, 997}, {1, 996, 998, 1000}, {1, 996, 3, 1000},
    {4, 3, 1000}, {4, 3, 999}, {2, 4, 999}, {999, 0, 997}, {999, 0, 4},
)
SYNTH_Q = _f(set(range(7)), {0, 999, 4}, {1000, 2, 3, 995})
SYNTH_EIGHT = _f(
    {4, 997, 1000}, {4, 997, 999, 2}, {4, 0, 999, 2},
    {4, 3, 998, 1}, {1000, 3, 998, 1}, {3, 996, 998, 1},
    {3, 996, 0, 999, 2}, {997, 0, 999, 2},
)

# The four 8-term study functions whose 4- to 8-term subsets form the
# map-negative pool, in pool order.
STUDY8 = {
    "DECOMP_EVEN8": DECOMP_EVEN8,
    "DECOMP_NOSPLIT8": DECOMP_NOSPLIT8,
    "DECOMP_UNEVEN8": DECOMP_UNEVEN8,
    "SYNTH_EIGHT": SYNTH_EIGHT,
}

# Irredundant path counts.  3x3 to 7x7 are the frozen, hand-checked goldens;
# 7x8 was recorded at commit 0a7515c.  Runs also check a sample of the paths
# for connectivity and minimality with the flood-fill oracle.
PATH_COUNTS = {(3, 3): 9, (4, 4): 36, (6, 6): 1668, (7, 7): 26317, (7, 8): 110838}
