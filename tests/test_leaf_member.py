"""Leaf membership by bisection agrees with a linear scan of the leaf."""

from filterlab.domains import DSum, NAT, NatPt, PairPt, Prod, SumPt, UNIT, UNIT_PT, point_key
from filterlab.sets import (
    CofinSet,
    FinSet,
    SectionFamily,
    cofin_set,
    fin_set,
    gen_random_setexpr,
    set_member,
)


def scan_member(p, stored_keys, finite):
    return (point_key(p) in stored_keys) == finite


def leaves(a):
    """Every FinSet or CofinSet leaf inside a normal form."""
    if isinstance(a, SectionFamily):
        for _, sec in a.exceptions:
            yield from leaves(sec)
        yield from leaves(a.tail)
    else:
        yield a


def probes(leaf):
    """Points below, inside, between and past the stored points, and of the wrong shape."""
    stored = leaf.elements if isinstance(leaf, FinSet) else leaf.excluded
    out = [UNIT_PT, PairPt(0, NatPt(0)), SumPt(1, NatPt(2)), NatPt(-1)]
    for q in stored:
        out.append(q)
        if isinstance(q, NatPt):
            out += [NatPt(q.n - 1), NatPt(q.n + 1), PairPt(q.n, NatPt(0))]
    top = max((q.n for q in stored if isinstance(q, NatPt)), default=0)
    out += [NatPt(n) for n in range(top + 3)]
    return out


def long_leaves():
    every = [NatPt(n) for n in range(300)]
    evens = [NatPt(n) for n in range(0, 600, 2)]
    odds = [NatPt(n) for n in range(1, 600, 2)]
    return [
        cofin_set(every, NAT),
        fin_set(every, NAT),
        fin_set(evens, NAT),
        cofin_set(odds, NAT),
        cofin_set([NatPt(n) for n in range(5, 300, 7)], NAT),
        fin_set([], NAT),
        cofin_set([], NAT),
        fin_set([UNIT_PT], UNIT),
        fin_set([], UNIT),
    ]


def random_leaves():
    domains = [NAT, Prod(NAT), Prod(Prod(UNIT)), DSum((Prod(UNIT),), NAT)]
    for d in domains:
        for seed in range(150):
            yield from leaves(gen_random_setexpr(d, 8, seed))


def test_leaf_member_matches_linear_scan():
    checked = 0
    for leaf in [*long_leaves(), *random_leaves()]:
        assert isinstance(leaf, (FinSet, CofinSet))
        finite = isinstance(leaf, FinSet)
        stored_keys = [point_key(q) for q in (leaf.elements if finite else leaf.excluded)]
        for p in probes(leaf):
            assert set_member(p, leaf) == scan_member(p, stored_keys, finite), (p, leaf)
            checked += 1
    assert checked > 10_000
