"""The walking decisions agree with the set-building definitions they replace.

Membership over a cofinite base reads only the tail, subset_check walks both
normal forms, first_point bisects a cofinite leaf for its first gap, and the
singleton family's least fit is read off the least member, and the fresh
player resumes past the indices it has claimed.  The reference definitions
below build the verdict sets, complements and intersections, or scan from
zero, as the library once did.
"""

from random import Random

import pytest

from filterlab.constructions import random_tower_member
from filterlab.domains import (
    DSum,
    FilterLabError,
    NAT,
    NatPt,
    Prod,
    UNIT,
    UNIT_PT,
    component,
    enum_point,
    is_indexed,
    point_key,
    tail_component,
)
from filterlab.filters import (
    Frechet,
    FubiniSum,
    Intersection,
    Limit,
    Principal,
    Pushforward,
    RepeatedSectionwiseFamily,
    SectionFilter,
    SectionwiseFamily,
    dom_of,
    filter_family,
    frechet,
    gen_random_filter,
    katetov,
    limit_of,
    member,
    principal,
    product,
    sum_parts,
)
from filterlab.game import FreshElementII, FullSetI, GameState, _least_fit, play, singleton_family
from filterlab.sets import (
    FinSet,
    SectionFamily,
    cofin_set,
    cofinite_excluded,
    fin_set,
    first_point,
    gen_random_setexpr,
    is_empty_set,
    section,
    set_complement,
    set_intersect,
    set_member,
    set_union,
    subset_check,
)

DOMAINS = [NAT, Prod(NAT), Prod(Prod(UNIT)), DSum((Prod(UNIT),), NAT)]
SEEDS = range(400)


# ---------------------------------------------------------------------------
# reference definitions


def ref_subset_check(a, b):
    return is_empty_set(set_intersect(a, set_complement(b)))


def ref_verdict_set(keys, verdict, tail_verdict):
    trues, falses = [], []
    for i in keys:
        (trues if verdict(i) else falses).append(NatPt(i))
    if tail_verdict:
        return cofin_set(falses, NAT)
    return fin_set(trues, NAT)


def ref_member(f, a):
    """Membership through the whole verdict set at every sectionwise node."""
    if isinstance(f, Principal):
        return ref_subset_check(f.core, a)
    if isinstance(f, Frechet):
        return cofinite_excluded(a) is not None
    parts = sum_parts(f)
    if parts is not None:
        base, fam = parts
        if not isinstance(a, SectionFamily):
            raise AssertionError("sectionwise membership needs a sectionwise set")
        keys = sorted(set(fam.keys) | {i for i, _ in a.exceptions})
        tail = ref_member(fam.tail, a.tail)
        idx = ref_verdict_set(keys, lambda i: ref_member(fam.at(i), section(a, i)), tail)
        return ref_member(base, idx)
    if isinstance(f, Limit):
        fam = f.family
        tail = ref_member(fam.tail, a)
        idx = ref_verdict_set(fam.keys, lambda i: ref_member(fam.at(i), a), tail)
        return ref_member(f.base, idx)
    if isinstance(f, Intersection):
        return ref_member(f.left, a) and ref_member(f.right, a)
    if isinstance(f, Pushforward):
        return ref_member(f.inner, f.sigma.preimage_set(a))
    if isinstance(f, SectionFilter):
        return ref_member(f.comp, section(a, f.index))
    raise AssertionError(f)


def ref_first_gap(a):
    gaps = {q.n for q in a.excluded}
    n = 0
    while n in gaps:
        n += 1
    return NatPt(n)


def ref_fresh(domain, state, c, bound):
    for m in range(bound):
        p = enum_point(domain, m)
        if point_key(p) not in state.claimed and set_member(p, c):
            return (p,)
    return None


def ref_least_fit(u, m, n, bound):
    fits = (k for k in range(bound + 1) if all(set_member(p, m) for p in u.generator(n, k)))
    return next(fits, None)


def leaves(a):
    if isinstance(a, SectionFamily):
        for _, sec in a.exceptions:
            yield from leaves(sec)
        yield from leaves(a.tail)
    else:
        yield a


def agree(f, a):
    assert member(f, a) == ref_member(f, a), (f, a)


# ---------------------------------------------------------------------------
# random filters and sets


@pytest.mark.parametrize("d", DOMAINS, ids=repr)
def test_member_agrees_on_random_filters(d):
    for seed in SEEDS:
        f = gen_random_filter(d, 2, seed)
        a = gen_random_setexpr(d, 8, seed)
        agree(f, a)
        agree(f, set_complement(a))


@pytest.mark.parametrize("d", DOMAINS, ids=repr)
def test_set_walks_agree_on_random_sets(d):
    for seed in SEEDS:
        a = gen_random_setexpr(d, 8, seed)
        b = gen_random_setexpr(d, 8, seed + 1000)
        for x, y in [(a, b), (b, a), (a, a), (a, set_union(a, b)), (set_intersect(a, b), b)]:
            assert subset_check(x, y) == ref_subset_check(x, y), (x, y)
        for leaf in leaves(a):
            if isinstance(leaf, FinSet):
                assert set_complement(leaf) == cofin_set(leaf.elements, leaf.domain)
            else:
                assert set_complement(leaf) == fin_set(leaf.excluded, leaf.domain)
                assert first_point(leaf) == ref_first_gap(leaf)


def test_first_gap_of_crowded_cofinite_leaves():
    rng = Random(0)
    for _ in range(400):
        pts = [NatPt(n) for n in rng.sample(range(12), rng.randrange(13))]
        leaf = cofin_set(pts, NAT)
        assert first_point(leaf) == ref_first_gap(leaf)


# ---------------------------------------------------------------------------
# towers and limits


@pytest.mark.parametrize("n", range(1, 9))
def test_member_agrees_on_towers(n):
    f, d = katetov(n), dom_of(katetov(n))
    for seed in range(20):
        a = random_tower_member(n, seed)
        assert member(f, a)
        for b in (a, set_complement(a), set_intersect(a, gen_random_setexpr(d, 8, seed))):
            agree(f, b)


def _bases(rng):
    return [
        frechet(),
        principal(cofin_set([NatPt(rng.randrange(6))], NAT)),
        principal(fin_set([NatPt(0), NatPt(2)], NAT)),
    ]


def _sums(d, base, seed):
    """A product or Fubini sum over d and a sectionwise limit over d."""
    tail = gen_random_filter(tail_component(d), 1, seed)
    excs = {0: gen_random_filter(component(d, 0), 1, seed + 1)}
    if isinstance(d, Prod):
        excs[3] = gen_random_filter(d.inner, 1, seed + 2)
    fam = filter_family(excs, tail)
    out = [Limit(base, SectionwiseFamily(fam, d))]
    out.append(product(base, tail) if isinstance(d, Prod) else FubiniSum(base, fam))
    if isinstance(base, Frechet):
        out.append(Limit(base, RepeatedSectionwiseFamily(fam, d)))
    return out


@pytest.mark.parametrize("d", DOMAINS, ids=repr)
def test_member_agrees_on_limits_and_sums_over_each_base(d):
    rng = Random(3)
    for seed in range(100):
        members = [gen_random_filter(d, 1, 7 * seed + j) for j in range(4)]
        fam = filter_family(dict(zip(sorted(rng.sample(range(6), 3)), members)), members[3])
        a = gen_random_setexpr(d, 8, seed)
        for base in _bases(rng):
            filts = [limit_of(base, fam)] + (_sums(d, base, seed) if is_indexed(d) else [])
            for f in filts:
                agree(f, a)
                agree(f, set_complement(a))


# ---------------------------------------------------------------------------
# the singleton family's least fit


@pytest.mark.parametrize("d", [NAT, Prod(UNIT)], ids=repr)
@pytest.mark.parametrize("bound", [0, 5, 10**4])
def test_least_fit_shortcut_agrees_with_the_scan(d, bound):
    u = singleton_family(d)
    assert u._least is not None
    for seed in range(200):
        m = gen_random_setexpr(d, 8, seed)
        for n in (0, 2):
            assert _least_fit(u, m, n, bound) == ref_least_fit(u, m, n, bound), (m, n)


# ---------------------------------------------------------------------------
# malformed input


def test_member_refuses_a_section_over_the_wrong_domain():
    d = dom_of(katetov(2))
    bad = SectionFamily(((0, fin_set([NatPt(1)], NAT)),), random_tower_member(1, 0), d)
    with pytest.raises(FilterLabError):
        member(katetov(2), bad)
    tail_only = SectionFamily((), fin_set([UNIT_PT], UNIT), d)
    with pytest.raises(FilterLabError):
        member(katetov(2), tail_only)


# ---------------------------------------------------------------------------
# the fresh player's cursor


@pytest.mark.parametrize("f", [frechet(), katetov(2)], ids=["frechet", "katetov2"])
def test_fresh_cursor_agrees_with_the_scan_and_restarts(f, monkeypatch):
    d = dom_of(f)
    t = play(f, FullSetI(), FreshElementII(), 12, seed=0)
    moves = [gen_random_setexpr(d, 8, s) for s in range(12)] + [t.rounds[0].c]
    monkeypatch.setattr(FreshElementII, "bound", 400)
    player = FreshElementII()
    # forward through the game, then through it again with a mover the same
    # player starts afresh: the new mover's cursor starts back at zero
    for rng in (Random(5), Random(6)):
        mover = player.start(f, 0)
        state = GameState(f, [], {})
        for r in t.rounds + (None,):
            c = rng.choice(moves)
            want = ref_fresh(d, state, c, 400)
            if want is None:
                with pytest.raises(FilterLabError):
                    mover(state, c)
            else:
                assert mover(state, c) == want
            if r is not None:
                state.rounds.append(r)
                state.claimed.update((point_key(p), p) for p in r.f)
