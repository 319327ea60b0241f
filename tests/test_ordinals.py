"""Cantor normal forms below omega^omega and their arithmetic."""

from functools import cmp_to_key

import pytest
from hypothesis import given, strategies as st

from filterlab.ordinals import (
    OMEGA,
    ONE,
    Ordinal,
    OrdinalError,
    ZERO,
    omega_pow,
    ord_add,
    ord_cmp,
    ord_of_int,
    ord_str,
    ord_succ,
    parse_ordinal,
)

ordinals = st.builds(
    lambda terms: Ordinal(
        tuple(sorted({e: c for e, c in terms}.items(), reverse=True))
    ),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=9)),
        max_size=3,
    ),
)


def test_constants():
    assert ord_str(ZERO) == "0"
    assert ord_str(ONE) == "1"
    assert ord_str(OMEGA) == "w"
    assert ord_of_int(0) == ZERO
    assert ord_of_int(1) == ONE


def test_ordinal_rejects_bad_normal_forms():
    with pytest.raises(OrdinalError):
        Ordinal(((1, 1), (2, 1)))  # exponents must strictly decrease
    with pytest.raises(OrdinalError):
        Ordinal(((1, 0),))  # zero coefficients are not stored
    with pytest.raises(OrdinalError):
        ord_of_int(-1)


def test_one_plus_omega_absorbs():
    assert ord_add(ONE, OMEGA) == OMEGA
    assert ord_add(OMEGA, ONE) != OMEGA
    assert ord_str(ord_add(OMEGA, ONE)) == "w+1"


def test_finite_head_absorption():
    # n + w^k = w^k for every positive exponent
    for n in range(5):
        for k in range(1, 4):
            assert ord_add(ord_of_int(n), omega_pow(k)) == omega_pow(k)


@given(ordinals, ordinals, ordinals)
def test_addition_associative(a, b, c):
    assert ord_add(ord_add(a, b), c) == ord_add(a, ord_add(b, c))


@given(ordinals, ordinals)
def test_addition_right_monotone(a, b):
    assert a <= ord_add(a, b)
    if b != ZERO:
        assert a < ord_add(a, b)


@given(ordinals)
def test_zero_is_neutral(a):
    assert ord_add(a, ZERO) == a
    assert ord_add(ZERO, a) == a


@given(ordinals, ordinals)
def test_cmp_total_and_antisymmetric(a, b):
    c = ord_cmp(a, b)
    assert c in (-1, 0, 1)
    assert ord_cmp(b, a) == -c
    assert (c == 0) == (a == b)
    assert max(a, b) == (a if c >= 0 else b)
    assert min(a, b) == (b if c >= 0 else a)


@given(ordinals, ordinals, ordinals)
def test_le_transitive(a, b, c):
    if a <= b and b <= c:
        assert a <= c


@given(ordinals)
def test_succ_is_plus_one(a):
    assert ord_succ(a) == ord_add(a, ONE)
    assert a < ord_succ(a)


@given(ordinals)
def test_parse_inverts_str(a):
    assert parse_ordinal(ord_str(a)) == a


def test_parse_accepts_common_spellings():
    assert parse_ordinal("w^2") == omega_pow(2)
    assert parse_ordinal("w*3") == omega_pow(1, 3)
    assert parse_ordinal("w^2*2+w+4") == Ordinal(((2, 2), (1, 1), (0, 4)))
    assert parse_ordinal(" w + 1 ") == ord_add(OMEGA, ONE)


def test_parse_rejects_garbage():
    for bad in ["", "w^", "w^-1", "3+", "w**2", "omega", "w^2*"]:
        with pytest.raises(OrdinalError):
            parse_ordinal(bad)
    # a zero coefficient is a legal spelling of zero, not junk
    assert parse_ordinal("w^2*0") == ZERO


# ---------------------------------------------------------------------------
# the natural order and the term grammar, against the walks they replaced


def walk_cmp(a, b):
    """Reference: compare two normal forms term by term."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        if ea != eb:
            return 1 if ea > eb else -1
        if ca != cb:
            return 1 if ca > cb else -1
    if len(a.terms) != len(b.terms):
        return 1 if len(a.terms) > len(b.terms) else -1
    return 0


def walk_parse(text):
    """Reference: read an ordinal character by character."""
    s = text.strip()
    if s == "0":
        return ZERO
    terms = []
    for chunk in s.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise OrdinalError(f"empty term in {text!r}")
        if chunk[0] == "w":
            rest = chunk[1:].strip()
            e = 1
            if rest.startswith("^"):
                rest = rest[1:].strip()
                digits = ""
                while rest and rest[0].isdigit():
                    digits, rest = digits + rest[0], rest[1:]
                if not digits:
                    raise OrdinalError(f"missing exponent in {text!r}")
                e = int(digits)
                rest = rest.strip()
            c = 1
            if rest.startswith("*"):
                c = walk_nat(rest[1:], text)
            elif rest:
                raise OrdinalError(f"trailing junk {rest!r} in {text!r}")
        else:
            e, c = 0, walk_nat(chunk, text)
        terms.append((e, c))
    out = ZERO
    for e, c in terms:
        out = ord_add(out, omega_pow(e, c))
    return out


def walk_nat(s, full):
    s = s.strip()
    if not s.isdigit():
        raise OrdinalError(f"expected a number, got {s!r} in {full!r}")
    return int(s)


@given(ordinals, ordinals)
def test_operators_agree_with_the_term_walk(a, b):
    c = walk_cmp(a, b)
    assert ord_cmp(a, b) == c
    assert (a < b, a <= b, a > b, a >= b) == (c < 0, c <= 0, c > 0, c >= 0)
    assert max(a, b) == (a if c >= 0 else b)
    assert min(a, b) == (a if c <= 0 else b)


@given(st.lists(ordinals, max_size=8))
def test_sorted_min_max_agree_with_the_term_walk(xs):
    ranked = sorted(xs, key=cmp_to_key(walk_cmp))
    assert sorted(xs) == ranked
    if xs:
        assert min(xs) == ranked[0]
        assert max(xs) == ranked[-1]


blanks = st.text(alphabet=" \t\u00a0", max_size=2)


@st.composite
def spelled(draw):
    """An ordinal and its ord_str spelling, with blanks around + * ^ and the ends."""
    a = draw(ordinals)
    text = "".join(f"{draw(blanks)}{ch}{draw(blanks)}" if ch in "+*^" else ch for ch in ord_str(a))
    return a, draw(blanks) + text + draw(blanks)


@given(spelled())
def test_parse_agrees_with_the_character_walk(case):
    a, text = case
    assert parse_ordinal(text) == walk_parse(text) == a


def test_parse_raises_ordinal_error_on_every_malformed_term():
    for bad in ["", "w^", "w^-1", "3+", "w**2", "omega", "w^2*", "w^\u00b2", "w*\u00b2"]:
        with pytest.raises(OrdinalError):
            parse_ordinal(bad)
