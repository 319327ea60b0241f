"""Normal-form set algebra: constructors, boolean operations, classification."""

import pytest
from hypothesis import given, settings, strategies as st

from filterlab.domains import (
    DSum,
    NAT,
    NatPt,
    PairPt,
    Prod,
    UNIT,
    enum_point,
    point_key,
    points_within,
)
from filterlab.sets import (
    FinSet,
    NotNormalForm,
    SectionFamily,
    cofin_set,
    cofinite_excluded,
    empty_set,
    exception_keys,
    fin_set,
    finite_points,
    first_point,
    full_set,
    gen_random_setexpr,
    is_empty_set,
    section,
    section_family,
    set_complement,
    set_intersect,
    set_member,
    set_span,
    set_union,
    subset_check,
    validate_set,
)

DOMAINS = [NAT, Prod(NAT), Prod(Prod(UNIT)), DSum((Prod(UNIT),), NAT)]


def pointwise(a, d, bound=9):
    """The truth table of a set on the key grid below the bound."""
    return {point_key(p) for p in points_within(d, bound) if set_member(p, a)}


def random_sets(d, count, seed0):
    return [gen_random_setexpr(d, 8, seed0 + k) for k in range(count)]


# ---------------------------------------------------------------------------
# constructors and normal forms


def test_fin_set_sorts_and_dedupes():
    a = fin_set([NatPt(4), NatPt(1), NatPt(4)], NAT)
    assert isinstance(a, FinSet)
    assert a.elements == (NatPt(1), NatPt(4))


def test_cofin_over_indexed_domain_becomes_sections():
    d = Prod(NAT)
    a = cofin_set([PairPt(2, NatPt(5))], d)
    assert isinstance(a, SectionFamily)
    assert exception_keys(a) == (2,)
    assert not set_member(PairPt(2, NatPt(5)), a)
    assert set_member(PairPt(2, NatPt(6)), a)
    assert set_member(PairPt(3, NatPt(5)), a)


def test_section_family_prunes_tail_copies():
    d = Prod(NAT)
    tail = cofin_set([], NAT)
    a = section_family({3: cofin_set([], NAT)}, tail, d)
    assert exception_keys(a) == ()
    assert cofinite_excluded(a) == ()


def test_empty_and_full():
    for d in DOMAINS:
        assert is_empty_set(empty_set(d))
        assert cofinite_excluded(full_set(d)) == ()
        assert not is_empty_set(full_set(d))
        assert first_point(empty_set(d)) is None
        assert first_point(full_set(d)) is not None


def test_validate_set_rejects_unsorted_tuples():
    bad = FinSet((NatPt(4), NatPt(1)), NAT)
    with pytest.raises(NotNormalForm):
        validate_set(bad)


def test_validate_set_accepts_generated_forms():
    for i, d in enumerate(DOMAINS):
        for a in random_sets(d, 25, 100 * i):
            validate_set(a, d)


# ---------------------------------------------------------------------------
# boolean algebra against the pointwise truth tables


@pytest.mark.parametrize("d", DOMAINS)
def test_complement_involution(d):
    for a in random_sets(d, 40, 7):
        assert set_complement(set_complement(a)) == a


@pytest.mark.parametrize("d", DOMAINS)
def test_union_intersection_match_pointwise(d):
    sets = random_sets(d, 30, 31)
    grid = points_within(d, 8)
    for a, b in zip(sets, sets[1:]):
        u = set_union(a, b)
        i = set_intersect(a, b)
        for p in grid:
            assert set_member(p, u) == (set_member(p, a) or set_member(p, b))
            assert set_member(p, i) == (set_member(p, a) and set_member(p, b))


@pytest.mark.parametrize("d", DOMAINS)
def test_de_morgan(d):
    sets = random_sets(d, 20, 77)
    for a, b in zip(sets, sets[1:]):
        lhs = set_complement(set_union(a, b))
        rhs = set_intersect(set_complement(a), set_complement(b))
        assert lhs == rhs


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60)
def test_union_idempotent_commutative_seeds(s1, s2):
    a = gen_random_setexpr(Prod(NAT), 8, s1)
    b = gen_random_setexpr(Prod(NAT), 8, s2)
    assert set_union(a, a) == a
    assert set_union(a, b) == set_union(b, a)
    assert set_intersect(a, b) == set_intersect(b, a)


def test_subset_check_matches_pointwise():
    d = Prod(NAT)
    sets = random_sets(d, 25, 900)
    grid = points_within(d, 9)
    for a, b in zip(sets, sets[1:]):
        want = all(set_member(p, b) for p in grid if set_member(p, a))
        got = subset_check(a, b)
        if got:
            assert want
        # an intersection is always a subset of both arguments
        assert subset_check(set_intersect(a, b), a)
        assert subset_check(set_intersect(a, b), b)
        assert subset_check(a, set_union(a, b))


# ---------------------------------------------------------------------------
# sections, classification, spans


def test_section_lookup():
    d = Prod(NAT)
    a = section_family({1: fin_set([NatPt(0)], NAT)}, cofin_set([NatPt(2)], NAT), d)
    assert section(a, 1) == fin_set([NatPt(0)], NAT)
    assert section(a, 5) == cofin_set([NatPt(2)], NAT)


@pytest.mark.parametrize("d", DOMAINS)
def test_finite_and_cofinite_detection_are_exclusive(d):
    for a in random_sets(d, 40, 5):
        pts = finite_points(a)
        exc = cofinite_excluded(a)
        assert pts is None or exc is None or exc == () or d == UNIT
        if pts is not None:
            assert all(set_member(p, a) for p in pts)
            assert len(pts) == len(set(map(point_key, pts)))
        if exc is not None:
            assert all(not set_member(p, a) for p in exc)


def test_first_point_is_least_in_enumeration():
    d = Prod(NAT)
    for a in random_sets(d, 30, 55):
        p = first_point(a)
        if p is None:
            assert is_empty_set(a)
            continue
        assert set_member(p, a)
        for n in range(200):
            q = enum_point(d, n)
            if q == p:
                break
            if all(c < 50 for c in point_key(q)):
                assert not set_member(q, a) or point_key(q)[0] > point_key(p)[0]


@pytest.mark.parametrize("d", DOMAINS)
def test_set_span_bounds_all_structure(d):
    for a in random_sets(d, 25, 606):
        s = set_span(a)
        # beyond the span the set looks like its tail: section s equals
        # section s+1 at every level, checked here on the key grid
        if isinstance(a, SectionFamily):
            assert section(a, s) == section(a, s + 1)
