"""The covering game: strategies, legality, transcripts, verification."""

import re

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
from filterlab.filters import dom_of, frechet, katetov, principal, product
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
    SepUnknown,
    Transcript,
    UniversalFamily,
    UniversalII,
    column_segments_family,
    copy_column_bound,
    make_player_i,
    make_player_ii,
    play,
    replay_transcript,
    separator_verdict,
    singleton_family,
    tail_columns,
    transcript_lines,
    validate_transcript,
    verify_universal_family,
)
from filterlab.filters import filter_family, limit_of, SectionwiseFamily
from filterlab.sets import (
    cofin_set,
    empty_set,
    fin_set,
    full_set,
    section_family,
    set_member,
)


def union_size(t: Transcript) -> int:
    return len({point_key(p) for r in t.rounds for p in r.f})


# ---------------------------------------------------------------------------
# basic play


def test_fresh_element_round_count_equals_union():
    t = play(frechet(NAT), FullSetI(), FreshElementII(), 10, seed=0)
    assert len(t.rounds) == 10
    assert union_size(t) == 10
    assert validate_transcript(t) == []


def test_exclude_union_forces_fresh_points():
    t = play(frechet(NAT), ExcludeUnionI(), UniversalII(), 10, seed=0)
    assert union_size(t) == 10
    assert validate_transcript(t) == []


def test_universal_self_play_on_tower_grows_linearly():
    f = katetov(1)
    t = play(f, ExcludeUnionI(), UniversalII(), 30, seed=3)
    assert union_size(t) == 30


def test_play_needs_a_round():
    with pytest.raises(Exception):
        play(frechet(NAT), FullSetI(), FreshElementII(), 0, seed=0)


def test_replay_reproduces_transcripts():
    for seed in range(20):
        t = play(frechet(NAT), FullSetI(), RandomFiniteII(), 8, seed=seed)
        assert replay_transcript(t) == t


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
# universal families


def test_singleton_family_is_universal_for_frechet():
    u = singleton_family(NAT)
    rep = verify_universal_family(u, frechet(NAT), [cofin_set([NatPt(0)], NAT)])
    assert rep.passed


def test_corrupted_family_fails_on_late_member():
    # every generated set lives inside {0..9}, so the member excluding that
    # block never contains one
    u = UniversalFamily(
        "all generated sets inside {0..9}",
        NAT,
        lambda n, k: (NatPt((n + k) % 10),),
    )
    member_set = cofin_set([NatPt(i) for i in range(10)], NAT)
    rep = verify_universal_family(u, frechet(NAT), [member_set])
    assert not rep.passed


def test_column_segments_family_on_tower_members():
    f = katetov(2)
    d = dom_of(f)
    u = column_segments_family(d)
    inner = full_set(Prod(UNIT))
    m = section_family({}, inner, d)  # uniform tail member: every section full
    rep = verify_universal_family(u, f, [m])
    assert rep.passed


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
    d = Prod(NAT)
    u = singleton_family(NAT)
    lim = limit_of(frechet(NAT), SectionwiseFamily(inner, d))
    assert isinstance(separator_verdict(lim, u, inner, full_set(d)), SepIn)


def test_separator_splits_members_from_duals():
    inner = filter_family({}, frechet(NAT))
    d = Prod(NAT)
    u = singleton_family(NAT)
    lim = limit_of(frechet(NAT), SectionwiseFamily(inner, d))
    member_set = section_family({1: empty_set(NAT)}, cofin_set([NatPt(0)], NAT), d)
    dual_set = section_family({}, fin_set([NatPt(0)], NAT), d)
    assert isinstance(separator_verdict(lim, u, inner, member_set), SepIn)
    assert isinstance(separator_verdict(lim, u, inner, dual_set), SepOut)


def _cofinite_sections_limit():
    inner = filter_family({}, frechet(NAT))
    return limit_of(frechet(NAT), SectionwiseFamily(inner, Prod(NAT))), inner


def test_separator_without_a_stability_bound_is_unknown():
    lim, sep = _cofinite_sections_limit()
    u = UniversalFamily("singletons, no bound", NAT, lambda n, k: (NatPt(k),))
    assert separator_verdict(lim, u, sep, full_set(Prod(NAT))) == SepUnknown(bound=0)


def test_separator_on_column_segments_is_unknown_past_the_bound():
    lim, sep = _cofinite_sections_limit()
    u = column_segments_family(Prod(NAT))
    assert separator_verdict(lim, u, sep, empty_set(Prod(NAT))) == SepUnknown(bound=8)


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
