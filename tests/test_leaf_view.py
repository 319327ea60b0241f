"""Leaf sets read as a table of listed points off one tail verdict.

A FinSet lists the points it holds and a CofinSet the points it misses, so
both are "the listed points differ from the tail verdict".  The digest pins
every leaf rule's results on random normal forms over leaf, product and sum
domains: the algebra, the lookups, the finite and cofinite readings, the
enumeration images and preimages, and sequence level sets.
"""

import hashlib
from fractions import Fraction
from random import Random

import pytest

from filterlab.domains import (
    DSum,
    FilterLabError,
    NAT,
    NatPt,
    Prod,
    UNIT,
    domain_depth,
    points_within,
)
from filterlab.filters import TableBij, seq_leaf, seq_level_set, seq_sections
from filterlab.sets import (
    CofinSet,
    FinSet,
    SectionFamily,
    cofinite_excluded,
    finite_points,
    first_point,
    gen_random_setexpr,
    set_complement,
    set_intersect,
    set_member,
    set_span,
    set_union,
    set_without,
    subset_check,
)

DOMAINS = {
    "unit": UNIT,
    "nat": NAT,
    "prod(nat)": Prod(NAT),
    "prod(unit)": Prod(UNIT),
    "dsum([prod(unit)],nat)": DSum((Prod(UNIT),), NAT),
}
PAIRS = 40


def _gen(d, seed):
    return gen_random_setexpr(d, domain_depth(d), seed)


def _try(fn, *args):
    try:
        return repr(fn(*args))
    except FilterLabError as e:
        return f"error {type(e).__name__}: {e}"


def _leaves(a):
    if isinstance(a, SectionFamily):
        for _, sec in a.exceptions:
            yield from _leaves(sec)
        yield from _leaves(a.tail)
    else:
        yield a


def _set_lines(name, d):
    probes = points_within(d, 9)
    for k in range(PAIRS):
        a, b = _gen(d, 2 * k), _gen(d, 2 * k + 1)
        yield f"{name} {k} a={a!r} b={b!r}"
        yield _try(set_union, a, b)
        yield _try(set_intersect, a, b)
        yield _try(set_complement, a)
        yield f"{subset_check(a, b)} {subset_check(b, a)} {subset_check(a, a)}"
        yield "".join("1" if set_member(p, a) else "0" for p in probes)
        yield repr((finite_points(a), cofinite_excluded(a)))
        yield repr((cofinite_excluded(a) is not None, cofinite_excluded(a) == (), first_point(a)))
        yield _try(set_span, a)
        yield _try(set_without, a, probes[k % 5 :: 7])


def _enum_lines():
    rng = Random(15)
    for target in (NAT, Prod(NAT), Prod(UNIT)):
        bijs = (TableBij(target, ()), TableBij(target, ((0, 3), (3, 5), (5, 0))))
        for k in range(PAIRS):
            src, dst = _gen(NAT, rng.randrange(1 << 20)), _gen(target, rng.randrange(1 << 20))
            for bij in bijs:
                yield _try(bij.image_set, src)
                yield _try(bij.preimage_set, dst)


def _seq_lines():
    rng = Random(16)
    for d in (NAT, UNIT):
        for k in range(PAIRS):
            pts = points_within(d, 8)
            entries = {rng.choice(pts): Fraction(rng.randrange(4), 2) for _ in range(rng.randrange(5))}
            s = seq_leaf(entries, Fraction(rng.randrange(4), 2), d)
            yield repr(s)
            for v in range(4):
                yield repr(seq_level_set(s, Fraction(v, 2)))
    for k in range(PAIRS):
        leaf = seq_leaf({NatPt(rng.randrange(6)): 1}, rng.randrange(2), NAT)
        s = seq_sections({rng.randrange(4): leaf}, seq_leaf({}, 0, NAT), Prod(NAT))
        yield repr(s)
        yield repr((seq_level_set(s, Fraction(0)), seq_level_set(s, Fraction(1))))


def test_leaf_rules_give_the_pinned_results():
    lines = [line for name, d in DOMAINS.items() for line in _set_lines(name, d)]
    lines += [*_enum_lines(), *_seq_lines()]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "63adf0411adc5a025e600ee65cb0157df2a22284417155c3211b9aecf28df01e"


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_a_leaf_holds_a_point_exactly_where_its_listing_differs_from_the_tail(name):
    for seed in range(60):
        for leaf in _leaves(_gen(DOMAINS[name], seed)):
            assert leaf.tail_holds is isinstance(leaf, CofinSet)
            assert leaf.listed == (leaf.excluded if leaf.tail_holds else leaf.elements)
            for p in points_within(leaf.domain, 14):
                assert set_member(p, leaf) == ((p in leaf.listed) != leaf.tail_holds)


def test_leaf_set_builds_either_leaf_from_points_and_a_tail_verdict():
    from filterlab.sets import cofin_set, fin_set, leaf_set

    pts = [NatPt(4), NatPt(1)]
    assert leaf_set(pts, False, NAT) == fin_set(pts, NAT)
    assert leaf_set(pts, True, NAT) == cofin_set(pts, NAT)
    assert isinstance(leaf_set((), True, UNIT), FinSet)
