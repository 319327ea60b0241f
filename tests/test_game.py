"""The covering game: strategies, legality, transcripts, verification."""

import re
from random import Random

import pytest

from filterlab.domains import (
    DSum,
    NAT,
    DomainError,
    NatPt,
    PairPt,
    Prod,
    UNIT,
    UNIT_PT,
    point_key,
    points_within,
)
from filterlab.dsl import parse_filter
from filterlab.filters import (
    SectionwiseFamily,
    dom_of,
    dual_member,
    filter_family,
    frechet,
    katetov,
    limit_of,
    member,
    principal,
    product,
)
from filterlab.game import (
    CopyStrategyI,
    ExcludeUnionI,
    FreshElementII,
    FullSetI,
    IllegalMove,
    NoUniversalWitness,
    RandomFiniteII,
    STRATEGIES_I,
    STRATEGIES_II,
    SepIn,
    SepOut,
    Transcript,
    UniversalII,
    copy_column_bound,
    make_player_i,
    make_player_ii,
    play,
    replay_transcript,
    separator_verdict,
    tail_columns,
    transcript_lines,
    validate_transcript,
)
from filterlab.sets import (
    cofin_set,
    empty_set,
    fin_set,
    full_set,
    gen_random_setexpr,
    section,
    section_family,
    set_member,
)


def union_size(t: Transcript) -> int:
    """The number of distinct points claimed over the whole transcript."""
    return len({point_key(p) for r in t.rounds for p in r.f})


# ---------------------------------------------------------------------------
# basic play


def test_fresh_element_round_count_equals_union():
    for seed in (0, 1):
        t = play(frechet(NAT), FullSetI(), FreshElementII(), 10, seed=seed)
        assert len(t.rounds) == 10
        assert union_size(t) == 10, (
            f"seed {seed}: 10 rounds against the full-set player, fresh player II: "
            f"union has 10 points (|U|={union_size(t)})"
        )
        assert validate_transcript(t) == []


def test_universal_self_play_on_tower_grows_linearly():
    f = katetov(1)
    for seed in (0, 1, 3):
        t = play(f, ExcludeUnionI(), UniversalII(), 30, seed=seed)
        assert union_size(t) == 30, (
            f"seed {seed}: 30 rounds on the depth-1 tower: union grows one point per round "
            f"(|U|={union_size(t)})"
        )


def test_play_needs_a_round():
    with pytest.raises(Exception):
        play(frechet(NAT), FullSetI(), FreshElementII(), 0, seed=0)


def test_replay_reproduces_transcripts():
    pairs = [
        (FullSetI(), RandomFiniteII()),
        (ExcludeUnionI(), RandomFiniteII()),
        (FullSetI(), FreshElementII()),
        (ExcludeUnionI(), UniversalII()),
    ]
    for seed in (0, 1):
        for k in range(20):
            s_i, s_ii = pairs[k % len(pairs)]
            t = play(frechet(NAT), s_i, s_ii, 8, seed=seed * 31 + k)
            assert replay_transcript(t) == t, (
                f"seed {seed}: 20 seeded strategy pairs replay identically "
                f"(pair {k} drifted on replay)"
            )


PAIR_FILTERS = {
    "product": product(frechet(NAT), frechet(NAT)),
    "katetov(2)": katetov(2),
    "frechet": frechet(NAT),
}


@pytest.mark.parametrize(
    "fname, p1, p2",
    [
        (fname, p1, p2)
        for fname in PAIR_FILTERS
        for p1 in STRATEGIES_I
        for p2 in STRATEGIES_II
        if not (fname == "frechet" and p1 == "copy")  # copy needs an indexed domain
    ],
)
def test_every_strategy_pair_replays_from_its_names_and_seed(fname, p1, p2):
    t = play(PAIR_FILTERS[fname], make_player_i(p1), make_player_ii(p2), 12, seed=7)
    assert (t.player_i, t.player_ii) == (p1, p2)
    assert replay_transcript(t) == t
    assert validate_transcript(t) == []
    if p1 == "copy":
        assert copy_column_bound(t)[0]


def test_strategies_have_no_settings():
    for cls in [*STRATEGIES_I.values(), *STRATEGIES_II.values()]:
        assert "__init__" not in vars(cls), cls.__name__


def test_strategy_registry_round_trip():
    assert make_player_i("full").name == "full"
    assert make_player_i("exclude-union").name == "exclude-union"
    assert make_player_i("copy").name == "copy"
    assert make_player_ii("fresh").name == "fresh"
    assert make_player_ii("random").name == "random"
    assert make_player_ii("universal").name == "universal"
    with pytest.raises(Exception):
        make_player_i("nosuch")


# ---------------------------------------------------------------------------
# legality diagnostics


class _StubI:
    name = "stub"

    def __init__(self, moves):
        self.moves = list(moves)

    def start(self, f, seed):
        return self.move

    def move(self, state):
        return self.moves[state.round_number if hasattr(state, "round_number") else len(state.rounds)]


class _StubII:
    name = "stub"

    def __init__(self, answers):
        self.answers = list(answers)

    def start(self, f, seed):
        return self.move

    def move(self, state, c):
        return self.answers[len(state.rounds)]


def test_illegal_player_i_move_names_round():
    bad = _StubI([fin_set([NatPt(0)], NAT)])
    with pytest.raises(IllegalMove, match=r"player I, round 0"):
        play(frechet(NAT), bad, FreshElementII(), 1, seed=0)


def test_a_player_i_move_over_the_wrong_domain_is_illegal():
    bad = _StubI([full_set(Prod(NAT))])
    with pytest.raises(IllegalMove, match=r"^player I, round 0: move over the wrong domain$"):
        play(frechet(NAT), bad, FreshElementII(), 1, seed=0)


def test_illegal_player_ii_point_names_round():
    good_i = FullSetI()
    bad_ii = _StubII([(NatPt(0),), (NatPt(1),)])
    # second round: claim a point outside the move
    stub = _StubI([full_set(NAT), fin_set([NatPt(5)], NAT) if False else cofin_set([NatPt(1)], NAT)])
    with pytest.raises(IllegalMove, match=r"player II, round 1"):
        play(frechet(NAT), stub, bad_ii, 2, seed=0)
    del good_i


def test_validate_transcript_reports_corruption():
    t = play(frechet(NAT), FullSetI(), FreshElementII(), 3, seed=0)
    from filterlab.game import Round

    bad = Transcript(
        t.filt,
        t.rounds[:2] + (Round(fin_set([NatPt(0)], NAT), (NatPt(0),)),),
        t.seed,
        t.player_i,
        t.player_ii,
    )
    problems = validate_transcript(bad)
    assert any("round 2" in p for p in problems)


def test_validate_transcript_reports_a_claim_outside_the_move():
    t = play(frechet(NAT), FullSetI(), FreshElementII(), 1, seed=0)
    from filterlab.game import Round

    move = cofin_set([NatPt(5)], NAT)
    bad = Transcript(t.filt, (Round(move, (NatPt(5),)),), t.seed, t.player_i, t.player_ii)
    assert validate_transcript(bad) == ["round 0: claimed point 5 outside the move"]


def test_validate_transcript_reports_unsorted_claims():
    t = play(frechet(NAT), FullSetI(), FreshElementII(), 1, seed=0)
    from filterlab.game import Round

    claims = (NatPt(2), NatPt(1))
    bad = Transcript(t.filt, (Round(full_set(NAT), claims),), t.seed, t.player_i, t.player_ii)
    assert validate_transcript(bad) == ["round 0: claimed points not sorted and distinct"]


def test_validate_transcript_reports_a_repeated_claim():
    # sorted but not distinct: one point claimed twice in one round
    t = play(frechet(NAT), FullSetI(), FreshElementII(), 1, seed=0)
    from filterlab.game import Round

    claims = (NatPt(1), NatPt(1))
    bad = Transcript(t.filt, (Round(full_set(NAT), claims),), t.seed, t.player_i, t.player_ii)
    assert validate_transcript(bad) == ["round 0: claimed points not sorted and distinct"]


# ---------------------------------------------------------------------------
# transcript export format


def test_transcript_lines_format():
    t = play(frechet(NAT), FullSetI(), FreshElementII(), 3, seed=0)
    lines = transcript_lines(t)
    assert len(lines) == 3
    pat = re.compile(r"^n=\d+ C=.+ F=\{.*\} \|U\|=\d+$")
    for line in lines:
        assert pat.match(line), line
    assert lines[0].startswith("n=0 ")
    # the union column is cumulative
    sizes = [int(line.rsplit("=", 1)[1]) for line in lines]
    assert sizes == sorted(sizes)


# ---------------------------------------------------------------------------
# the copy strategy and its column budget


def test_tail_columns_excludes_early_sections():
    d = Prod(NAT)
    a = tail_columns(d, 2)
    assert not set_member(PairPt(0, NatPt(0)), a)
    assert not set_member(PairPt(1, NatPt(9)), a)
    assert set_member(PairPt(2, NatPt(0)), a)
    assert set_member(PairPt(7, NatPt(3)), a)


def test_copy_battery_column_bound():
    copy2 = product(frechet(NAT), frechet(NAT))
    for seed in range(10):
        t = play(copy2, CopyStrategyI(), RandomFiniteII(), 25, seed=seed)
        assert validate_transcript(t) == []
        ok, problems = copy_column_bound(t)
        assert ok, problems
        assert replay_transcript(t) == t


# a sum whose summand 3 lives on Prod(Unit) while the others live on Nat
MIXED_SUM = "fubini(frechet, family({3: katetov(1)}, frechet))"


def test_copy_strategy_plays_on_a_sum_over_mixed_components():
    f = parse_filter(MIXED_SUM)
    for seed in range(5):
        t = play(f, CopyStrategyI(), RandomFiniteII(), 8, seed=seed)
        assert validate_transcript(t) == []
        ok, problems = copy_column_bound(t)
        assert ok, problems
        assert replay_transcript(t) == t


@pytest.mark.parametrize("d", [DSum((Prod(UNIT),), NAT), dom_of(parse_filter(MIXED_SUM))])
def test_tail_columns_holds_exactly_the_points_past_column_n(d):
    pts = points_within(d, 8)
    for n in range(7):
        a = tail_columns(d, n)
        assert [set_member(p, a) for p in pts] == [point_key(p)[0] >= n for p in pts], n


def test_copy_column_bound_flags_overfull_columns():
    copy2 = product(frechet(NAT), frechet(NAT))
    t = play(copy2, CopyStrategyI(), RandomFiniteII(), 6, seed=1)
    from filterlab.game import Round

    # stuff many column-0 points into the last round's claim; they are legal
    # for the full-set move but break the column budget
    flood = tuple(PairPt(0, NatPt(k)) for k in range(12))
    bad = Transcript(
        t.filt,
        t.rounds[:-1] + (Round(full_set(dom_of(t.filt)), flood),),
        t.seed,
        t.player_i,
        t.player_ii,
    )
    ok, problems = copy_column_bound(bad)
    assert not ok
    assert problems


# ---------------------------------------------------------------------------
# the universal player


def test_universal_ii_raises_without_witness(monkeypatch):
    # the move leaves out every singleton within the bound
    monkeypatch.setattr(UniversalII, "bound", 50)
    move = cofin_set([NatPt(i) for i in range(51)], NAT)
    with pytest.raises(NoUniversalWitness, match=r"round-0 move within k <= 50$"):
        play(frechet(NAT), _StubI([move]), UniversalII(), 1, seed=0)


# ---------------------------------------------------------------------------
# separators


def test_separator_full_set_is_in():
    inner = filter_family({}, frechet(NAT))
    assert separator_verdict(inner, full_set(Prod(NAT))) == SepIn(0)


def test_separator_splits_members_from_duals():
    inner = filter_family({}, frechet(NAT))
    d = Prod(NAT)
    member_set = section_family({1: empty_set(NAT)}, cofin_set([NatPt(0)], NAT), d)
    dual_set = section_family({}, fin_set([NatPt(0)], NAT), d)
    assert separator_verdict(inner, member_set) == SepIn(2)
    assert separator_verdict(inner, dual_set) == SepOut()


def test_separator_threshold_reads_the_family_exceptions():
    # a lists no section, so only sep's exception at 5 moves the threshold:
    # section 5 of a misses 0, which principal(fin{0}) requires
    sep = filter_family({5: principal(fin_set([NatPt(0)], NAT))}, frechet(NAT))
    a = section_family({}, cofin_set([NatPt(0)], NAT), Prod(NAT))
    assert separator_verdict(sep, a) == SepIn(6)


# how many sets of each side a separator seed draws
SEPARATOR_SETS = 100
# per verdict: what the sets are, the limit's test that they pass, and their
# tail kind, point bound and count bound
SEPARATOR_SIDES = {
    SepIn: ("member", member, cofin_set, 9, 4),
    SepOut: ("dual member", dual_member, fin_set, 30, 5),
}


def _separator_set(rng: Random, want: type):
    """A random set over Prod(NAT) on the side of the separator judged want."""
    *_, tail, top, count = SEPARATOR_SIDES[want]
    sections = {
        j: gen_random_setexpr(NAT, 8, rng.randrange(1 << 30))
        for j in sorted(rng.sample(range(8), rng.randrange(3)))
    }
    pts = [NatPt(rng.randrange(top)) for _ in range(rng.randrange(count))]
    return section_family(sections, tail(pts, NAT), Prod(NAT))


# every set _separator_set draws lists sections below 8 only, so a scan to
# 64 runs well past its last exception
SCAN = 64


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_separator_threshold_is_where_the_scanned_tail_starts(seed):
    inner = filter_family({}, frechet(NAT))
    lim = limit_of(frechet(NAT), SectionwiseFamily(inner, Prod(NAT)))
    rng = Random(seed * 97 + 5)
    for want, (what, holds, *_) in SEPARATOR_SIDES.items():
        for i in range(SEPARATOR_SETS):
            s = _separator_set(rng, want)
            assert holds(lim, s), (
                f"seed {seed}: {what} generator produced a non-{what.replace(' ', '-')} at {i}"
            )
            fits = [member(inner.at(k), section(s, k)) for k in range(SCAN)]
            start = next((m for m in range(SCAN) if all(fits[m:])), None)
            expected = SepOut() if start is None else SepIn(start)
            assert isinstance(expected, want), s
            v = separator_verdict(inner, s)
            assert isinstance(v, want), (
                f"seed {seed}: {what} {i} judged {type(v).__name__}, not {want.__name__}"
            )
            assert v == expected, s


# ---------------------------------------------------------------------------
# moves and claims over the wrong domain


def test_validate_transcript_reports_a_move_over_the_wrong_domain():
    from filterlab.game import Round

    t = play(frechet(NAT), FullSetI(), FreshElementII(), 3, seed=0)
    last = Round(full_set(Prod(NAT)), t.rounds[-1].f)
    bad = Transcript(t.filt, t.rounds[:-1] + (last,), t.seed, t.player_i, t.player_ii)
    assert validate_transcript(bad) == ["round 2: player I move over the wrong domain"]


def test_validate_transcript_reports_a_claim_outside_the_domain():
    from filterlab.game import Round

    t = play(frechet(NAT), FullSetI(), FreshElementII(), 2, seed=0)
    stray = Round(full_set(NAT), (PairPt(0, NatPt(0)),))
    bad = Transcript(t.filt, t.rounds + (stray,), t.seed, t.player_i, t.player_ii)
    assert validate_transcript(bad) == ["round 2: claimed point (0,0) outside the domain"]


def test_play_rejects_a_claim_outside_the_domain():
    stray_ii = _StubII([(NatPt(0),), (PairPt(0, NatPt(0)),)])
    with pytest.raises(IllegalMove, match=r"player II, round 1: point \(0,0\) outside the domain"):
        play(frechet(NAT), FullSetI(), stray_ii, 2, seed=0)


def test_earlier_states_never_see_later_claims():
    seen = []

    class Keeping:
        name = "keeping"

        def start(self, f, seed):
            inner = FullSetI().start(f, seed)

            def move(state):
                seen.append((state.round_number, list(state.claimed)))
                return inner(state)

            return move

    t = play(frechet(NAT), Keeping(), RandomFiniteII(), 12, seed=5)
    assert [n for n, _ in seen] == list(range(12))
    for n, keys in seen:
        claimed = {point_key(p): p for r in t.rounds[:n] for p in r.f}
        assert keys == list(claimed)


@pytest.mark.parametrize(
    "filt, source",
    [(frechet(NAT), "nat"), (principal(fin_set((UNIT_PT,), UNIT)), "unit")],
)
def test_copy_strategy_rejects_a_leaf_domain(filt, source):
    with pytest.raises(DomainError) as err:
        play(filt, CopyStrategyI(), RandomFiniteII(), 3, seed=0)
    assert str(err.value) == f"copy strategy needs an indexed source domain, not {source}"
