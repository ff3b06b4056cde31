import pytest
from hypothesis import given, strategies as st

from latmap import codes


def test_code_classification():
    assert codes.is_positive_code(0)
    assert codes.is_positive_code(25)
    assert codes.is_positive_code(99)  # synthesizer variables count too
    assert not codes.is_positive_code(100)
    assert codes.is_complement_code(1000)
    assert codes.is_complement_code(975)
    assert not codes.is_complement_code(974)
    for c in (100, 101, 30, 12, 990):
        assert codes.is_valid_code(c)
    for c in (-1, 102, 500, 974, 1001):
        assert not codes.is_valid_code(c)


def test_variable_of():
    assert codes.variable_of(5) == 5
    assert codes.variable_of(995) == 5
    for code in (100, 101, 500):  # the constants, and no code at all
        with pytest.raises(ValueError, match=f"code {code} is not a variable literal"):
            codes.variable_of(code)


@pytest.mark.parametrize(
    "raw,expected",
    [
        ([0, 1, 101], frozenset({0, 1})),
        ([0, 0, 1], frozenset({0, 1})),
        ([101, 101], frozenset()),
        ([0, 100, 1], None),
        ([0, 1000], None),  # a and a' cancel
    ],
)
def test_normalize_term(raw, expected):
    assert codes.normalize_term(raw) == expected


def test_absorb_removes_supersets_keeps_order():
    a = frozenset({0, 1})
    b = frozenset({0, 1, 2})
    c = frozenset({3})
    assert codes.absorb([b, a, c]) == [a, c]
    assert codes.absorb([a, b, c]) == [a, c]
    # duplicates collapse to the first occurrence
    assert codes.absorb([a, a]) == [a]


@pytest.mark.parametrize("num_vars", range(1, 11))
def test_var_mask_matches_assignments(num_vars):
    """Bit k of variable i's mask is bit i of assignment k."""
    for index in range(num_vars):
        want = sum(1 << k for k in range(1 << num_vars) if k >> index & 1)
        assert codes._var_mask(index, num_vars) == want


def test_literal_masks_cover_every_grid_code():
    masks = codes.literal_masks([0, 26])  # a letter and an auxiliary variable
    full = (1 << 4) - 1
    assert masks[codes.CONST_ZERO] == 0 and masks[codes.CONST_ONE] == full
    assert masks[0] == 0b1010 and masks[1000] == 0b0101
    assert masks[26] == 0b1100 and 974 not in masks  # no complement of x1
    # a'x1 and the empty product (constant one)
    assert codes.term_masks([frozenset({1000, 26}), frozenset()], masks) == [0b0100, full]


@given(st.integers(0, 3), st.data())
def test_support_size_counts_the_variables_a_table_reads(num_vars, data):
    table = data.draw(st.integers(0, (1 << (1 << num_vars)) - 1))
    rows = range(1 << num_vars)

    def reads(i):
        return any(table >> k & 1 != table >> (k ^ 1 << i) & 1 for k in rows)

    assert codes.support_size(table, num_vars) == sum(map(reads, range(num_vars)))


def test_parse_function_basic():
    text = "3\n2 997 999\n4 997 5 4 998\n2 1000 5\n"
    fn = codes.parse_function(text)
    assert fn == [
        frozenset({997, 999}),
        frozenset({997, 5, 4, 998}),
        frozenset({1000, 5}),
    ]


def test_parse_function_reports_changes():
    warnings: list[str] = []
    codes.parse_function("1\n3 0 0 1\n", warnings)
    assert warnings  # duplicate literal inside a term gets flagged


def test_parse_function_errors():
    with pytest.raises(ValueError):
        codes.parse_function("1\n2 0\n")  # count mismatch
    with pytest.raises(ValueError):
        codes.parse_function("2\n1 0\n")  # missing term line
    with pytest.raises(ValueError):
        codes.parse_function("1\n1 500\n")  # invalid code


def test_serialize_round_trip():
    # term order is caller-controlled and survives the round trip
    fn = [frozenset({997, 999}), frozenset({0, 5})]
    assert codes.parse_function(codes.serialize_function(fn)) == fn


def test_serialize_constant_one():
    """Constant 1 reads back as written, with nothing to warn about."""
    text = codes.serialize_function([frozenset()])
    assert text == "1\n1 101\n"
    warnings = []
    assert codes.parse_function(text, warnings) == [frozenset()]
    assert warnings == []


def test_equivalent_basics():
    xor = [frozenset({0, 999}), frozenset({1000, 1})]
    assert codes.equivalent(xor, list(reversed(xor)))
    assert not codes.equivalent(xor, [frozenset({0})])
    # a + a'b == a + b
    assert codes.equivalent(
        [frozenset({0}), frozenset({1000, 1})],
        [frozenset({0}), frozenset({1})],
    )


def test_equivalent_constant_edges():
    assert codes.equivalent([], [])
    assert codes.equivalent([frozenset()], [frozenset({0}), frozenset({1000})])
    assert not codes.equivalent([], [frozenset({0})])


def test_equivalent_bound():
    big = [frozenset({v}) for v in range(22)]
    with pytest.raises(ValueError):
        codes.equivalent(big, big)


def test_pretty():
    assert codes.pretty_code(0) == "a"
    assert codes.pretty_code(1000) == "a'"
    assert codes.pretty_code(101) == "1"
    assert codes.pretty_code(26) == "x1"
    assert codes.pretty_term(frozenset({3, 999})) == "d b'"
    assert codes.pretty_term(frozenset()) == "1"
    for code in (-1, 102, 500, 974, 1001):
        with pytest.raises(ValueError, match=f"invalid literal code {code}"):
            codes.pretty_code(code)


_terms = st.lists(
    st.sets(
        st.sampled_from([0, 1, 2, 3, 996, 997, 998, 999, 1000, 100, 101]),
        min_size=1,
        max_size=4,
    ),
    min_size=1,
    max_size=5,
)


def _eval_raw(fn, assignment):
    """SOP evaluation that also understands the constant codes."""
    for t in fn:
        for c in t:
            if c == codes.CONST_ONE:
                continue
            if c == codes.CONST_ZERO:
                break
            bit = assignment[codes.variable_of(c)]
            if codes.is_complement_code(c):
                bit = 1 - bit
            if not bit:
                break
        else:
            return 1
    return 0


@given(_terms)
def test_normalize_then_absorb_is_equivalent(raw):
    """Dropping constants, duplicates and absorbed terms never changes
    the function's truth table."""
    original = [frozenset(t) for t in raw]
    cleaned = [t for t in (codes.normalize_term(t) for t in original) if t is not None]
    cleaned = codes.absorb(cleaned)
    for bits in range(32):
        assignment = {v: (bits >> v) & 1 for v in range(5)}
        want = _eval_raw(original, assignment)
        got = _eval_raw(cleaned, assignment)
        assert got == want


@given(_terms)
def test_absorb_is_a_fixed_point(raw):
    cleaned = [t for t in (codes.normalize_term(t) for t in raw) if t is not None]
    once = codes.absorb(cleaned)
    assert codes.absorb(once) == once
