"""Moves built from the last move agree with the moves built from scratch.

play extends one state and calls each move once per round, in order.  The
exclude-union player keeps its last move and removes only the newest
round's claims (set_without).  The copy player keeps its columns and
empties only the newest one (with_sections).  Every incremental move here
is compared with the from-scratch definition along whole games.
first_point is compared with the index-by-index walk it replaced, also
where with_sections derived it from the table it spliced, and the random
player's draws with the draw loop that built a set of the excluded points,
both copied below.
"""

from random import Random

import pytest

from filterlab.domains import (
    DSum,
    DomainError,
    NAT,
    NatPt,
    PairPt,
    Prod,
    UNIT,
    component,
    fresh_index,
    is_indexed,
    make_point,
    point_key,
    points_within,
)
from filterlab.filters import dom_of, frechet, katetov, product
from filterlab.game import (
    CopyStrategyI,
    ExcludeUnionI,
    FreshElementII,
    GameState,
    RandomFiniteII,
    Round,
    UniversalII,
    _random_member,
    copy_column_bound,
    play,
    tail_columns,
    validate_transcript,
)
from filterlab.sets import (
    CofinSet,
    FinSet,
    NotNormalForm,
    SectionFamily,
    cofin_set,
    empty_set,
    fin_set,
    first_point,
    full_set,
    gen_random_setexpr,
    section,
    section_family,
    set_complement,
    set_intersect,
    set_without,
    with_sections,
)

FILTERS = {
    "frechet": frechet(NAT),
    "katetov(1)": katetov(1),
    "katetov(2)": katetov(2),
    "product": product(frechet(NAT), frechet(NAT)),
}
DOMAINS = [NAT, Prod(NAT), Prod(Prod(UNIT)), DSum((Prod(UNIT),), NAT)]
PLAYERS_II = {"universal": UniversalII, "fresh": FreshElementII, "random": RandomFiniteII}


def scratch_exclude_union(f):
    return lambda state: set_complement(fin_set(state.claimed.values(), dom_of(f)))


def scratch_copy(f):
    return lambda state: tail_columns(dom_of(f), state.round_number)


class Checked:
    """A player I strategy whose every move is compared with the scratch move."""

    def __init__(self, inner, scratch):
        self.inner, self.scratch, self.name = inner, scratch, inner.name
        self.moves = 0

    def start(self, f, seed):
        inner = self.inner.start(f, seed)

        def move(state):
            c = inner(state)
            assert c == self.scratch(state), state.round_number
            self.moves += 1
            return c

        return move


# ---------------------------------------------------------------------------
# whole games


@pytest.mark.parametrize("fname", FILTERS)
@pytest.mark.parametrize("p2", PLAYERS_II)
def test_exclude_union_moves_match_the_scratch_move(fname, p2):
    f = FILTERS[fname]
    for seed in (0, 1):
        player = Checked(ExcludeUnionI(), scratch_exclude_union(f))
        t = play(f, player, PLAYERS_II[p2](), 25, seed)
        assert player.moves == 25 and validate_transcript(t) == []


@pytest.mark.parametrize("fname", [n for n in FILTERS if is_indexed(dom_of(FILTERS[n]))])
@pytest.mark.parametrize("p2", PLAYERS_II)
def test_copy_moves_match_the_scratch_move(fname, p2):
    f = FILTERS[fname]
    player = Checked(CopyStrategyI(), scratch_copy(f))
    t = play(f, player, PLAYERS_II[p2](), 20, seed=3)
    assert player.moves == 20 and validate_transcript(t) == []
    assert copy_column_bound(t)[0]


def test_out_of_domain_claim_is_refused_on_both_paths():
    f = frechet(NAT)
    stray = PairPt(0, NatPt(1))
    bad = GameState(f, [Round(full_set(NAT), (stray,))], {point_key(stray): stray})
    with pytest.raises(DomainError):
        scratch_exclude_union(f)(bad)
    move = ExcludeUnionI().start(f, 0)
    with pytest.raises(DomainError):
        move(bad)


# ---------------------------------------------------------------------------
# the set constructors


def random_points(d, rng):
    grid = points_within(d, 6)
    return rng.sample(grid, min(len(grid), rng.randrange(6)))


@pytest.mark.parametrize("d", DOMAINS, ids=repr)
def test_set_without_is_the_intersection_with_a_cofinite_set(d):
    rng = Random(7)
    for seed in range(400):
        a = gen_random_setexpr(d, 8, seed)
        pts = random_points(d, rng)
        ref = set_intersect(a, set_complement(fin_set(pts, d)))
        assert set_without(a, pts) == ref, (a, pts)
        assert set_without(set_complement(a), pts) == set_intersect(
            set_complement(a), set_complement(fin_set(pts, d))
        )


def test_set_without_checks_its_points():
    with pytest.raises(DomainError):
        set_without(full_set(NAT), [PairPt(0, NatPt(1))])
    with pytest.raises(DomainError):
        set_without(full_set(Prod(NAT)), [NatPt(1)])


@pytest.mark.parametrize("d", [Prod(NAT), Prod(Prod(UNIT)), DSum((Prod(UNIT),), NAT)], ids=repr)
def test_with_sections_is_the_rebuilt_family(d):
    rng = Random(11)
    for seed in range(400):
        a = gen_random_setexpr(d, 8, seed)
        keys = rng.sample(range(10), rng.randrange(4))
        new = {i: gen_random_setexpr(component(d, i), 8, seed + 1000 + i) for i in keys}
        if keys and component(d, keys[0]) == a.tail.domain and rng.random() < 0.3:
            new[keys[0]] = a.tail
        excs = dict(a.exceptions) | new
        assert with_sections(a, new) == section_family(excs, a.tail, d), (a, new)


def test_with_sections_drops_a_section_equal_to_the_tail():
    d = Prod(NAT)
    a = set_complement(fin_set([PairPt(2, NatPt(0))], d))
    b = with_sections(a, {2: full_set(NAT)})
    assert b == full_set(d) and b.exceptions == ()


def test_with_sections_refuses_bad_sections():
    a = full_set(Prod(NAT))
    with pytest.raises(NotNormalForm):
        with_sections(a, {-1: full_set(NAT)})
    with pytest.raises(NotNormalForm):
        with_sections(a, {0: full_set(Prod(NAT))})
    with pytest.raises(NotNormalForm):
        with_sections(full_set(NAT), {0: full_set(NAT)})


# ---------------------------------------------------------------------------
# first_point


def old_first_point(a):
    """first_point as it was: every index up to the first past the exceptions."""
    if isinstance(a, FinSet):
        return a.elements[0] if a.elements else None
    if isinstance(a, CofinSet):
        ex = a.excluded
        n = 0
        while n < len(ex) and ex[n].n == n:
            n += 1
        return NatPt(n)
    if isinstance(a, SectionFamily):
        for i in range(fresh_index(a.keys) + 1):
            p = old_first_point(section(a, i))
            if p is not None:
                return make_point(a.domain, i, p)
        return None
    raise AssertionError(a)


@pytest.mark.parametrize("d", DOMAINS, ids=repr)
def test_first_point_agrees_with_the_index_walk_on_random_sets(d):
    for seed in range(400):
        a = gen_random_setexpr(d, 8, seed)
        for b in (a, set_complement(a)):
            assert first_point(b) == old_first_point(b), b


@pytest.mark.parametrize("d", [Prod(NAT), Prod(Prod(UNIT)), DSum((Prod(UNIT),), NAT)], ids=repr)
def test_first_point_agrees_with_the_index_walk_on_tail_columns(d):
    for n in range(1 if isinstance(d, DSum) else 0, 101):
        a = tail_columns(d, n)
        for b in (a, set_complement(a)):
            assert first_point(b) == old_first_point(b), (d, n)


def new_section(a, d, i, rng):
    """A section for index i of a: random, empty, full or a's own tail."""
    comp = component(d, i)
    kind = rng.choice(["random", "random", "empty", "full", "tail"])
    if kind == "tail" and comp == a.tail.domain:
        return a.tail
    if kind == "empty":
        return empty_set(comp)
    if kind == "full":
        return full_set(comp)
    return gen_random_setexpr(comp, 8, rng.randrange(10**6))


def chain(d, seed, read):
    """A seeded chain of with_sections and set_without steps from a random
    set or a tail-columns set over d; read asks for the first point of
    every set as it is built, so each step derives its first point from the
    last one's.  Returns every set of the chain."""
    rng = Random(seed)
    if seed % 2:
        a = gen_random_setexpr(d, 8, seed)
    else:
        a = tail_columns(d, rng.randrange(1 if isinstance(d, DSum) else 0, 12))
    out = [a]
    for _ in range(12):
        if read:
            first_point(a)
        if rng.random() < 0.5:
            keys = rng.sample(range(12), 1 + rng.randrange(3))
            a = with_sections(a, {i: new_section(a, d, i, rng) for i in keys})
        else:
            a = set_without(a, random_points(d, rng))
        out.append(a)
    return out


@pytest.mark.parametrize("d", [Prod(NAT), Prod(Prod(UNIT)), DSum((Prod(UNIT),), NAT)], ids=repr)
def test_derived_first_points_agree_with_the_index_walk_along_chains(d):
    for seed in range(150):
        read, unread = chain(d, seed, True), chain(d, seed, False)
        assert read == unread
        # the unread chain's sets find their first points only now, last first
        for b in reversed(unread):
            assert first_point(b) == old_first_point(b), (seed, b)
        for b in read:
            assert first_point(b) == old_first_point(b), (seed, b)


# ---------------------------------------------------------------------------
# random draws


def old_cofinite_draw(a, rng, window):
    cut = {point_key(q)[0] for q in a.excluded}
    while True:
        n = rng.randrange(window + len(cut))
        if n not in cut:
            return NatPt(n)


def test_cofinite_draws_match_the_set_building_loop():
    for seed in range(300):
        gen = Random(seed)
        a = cofin_set([NatPt(gen.randrange(60)) for _ in range(gen.randrange(50))], NAT)
        window = gen.choice([1, 3, 25])
        new, old = Random(seed), Random(seed)
        for _ in range(10):
            assert _random_member(a, new, window) == old_cofinite_draw(a, old, window)
        assert new.getstate() == old.getstate()


@pytest.mark.parametrize("d", [Prod(NAT), Prod(Prod(UNIT)), DSum((Prod(UNIT),), NAT)], ids=repr)
def test_draws_from_a_given_first_point_match_the_draws_that_find_it(d):
    for seed in range(200):
        a = gen_random_setexpr(d, 8, seed)
        lead = first_point(a)
        if lead is None:
            continue
        new, old = Random(seed), Random(seed)
        for _ in range(5):
            assert _random_member(a, new, 4, lead) == _random_member(a, old, 4)
        assert new.getstate() == old.getstate()
