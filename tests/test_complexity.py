"""Operation-count gates for the kernel, game, parsing and certificate paths.

These count calls, never wall time, so they are deterministic.
"""

import math
import sys

import pytest

import filterlab.dsl as dsl
import filterlab.filters as filters
import filterlab.game as game
import filterlab.ordinals as ordinals
import filterlab.rank as rank
import filterlab.sets as sets_module
from filterlab.constructions import (
    InterleavedPair,
    ZFamily,
    preimage_grid,
    random_tower_member,
    selector_shadow,
)
from filterlab.domains import DSum, NAT, Prod, UNIT
from filterlab.dsl import parse_filter, parse_set, set_to_source
from filterlab.filters import frechet, katetov, kernel_set, member, principal, product
from filterlab.game import (
    CopyStrategyI,
    ExcludeUnionI,
    FreshElementII,
    FullSetI,
    RandomFiniteII,
    UniversalII,
    copy_column_bound,
    play,
    transcript_lines,
)
from filterlab.rank import rank_bounds
from filterlab.sets import (
    SectionFamily,
    gen_random_setexpr,
    is_empty_set,
    set_complement,
    set_intersect,
    set_union,
)
from test_limit_kernel import CHAIN_BASES, chain


def meet_chain(length: int):
    """A right-nested meet of frechet and principal(cofin{i}), alternating."""
    parts = ["frechet" if i % 2 == 0 else f"principal(cofin{{{i}}})" for i in range(length)]
    src = parts[-1]
    for p in reversed(parts[:-1]):
        src = f"meet({p}, {src})"
    return parse_filter(src)


def counting(monkeypatch, name: str, module=filters) -> list:
    calls = []
    inner = getattr(module, name)

    def wrapper(*args):
        calls.append(args[0])
        return inner(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def counting_kernels(monkeypatch) -> list:
    """Record each node whose kernel is computed rather than read back."""
    computed = []
    inner = filters.kernel_set

    def kernel_set(g):
        if g._kernel is None:
            computed.append(g)
        return inner(g)

    monkeypatch.setattr(filters, "kernel_set", kernel_set)
    monkeypatch.setattr(rank, "kernel_set", kernel_set)
    return computed


def test_rank_bounds_computes_each_node_kernel_once(monkeypatch):
    f = meet_chain(128)
    computed = counting_kernels(monkeypatch)
    rank_bounds(f)
    nodes = 2 * 128 - 1
    assert len(computed) <= 2 * nodes


def test_kernel_set_after_rank_bounds_reads_the_kept_kernels(monkeypatch):
    # a kernel memo that lived for one rank_bounds call computed 510 here
    f = meet_chain(128)
    computed = counting_kernels(monkeypatch)
    rank_bounds(f)
    filters.kernel_set(f)
    assert len(computed) <= 2 * 128 - 1


def test_certificate_round_trip_builds_and_prints_each_bound_once(monkeypatch):
    # 3,692 ord_str calls and 1,659 RankBounds when every bound was rebuilt
    # by each intersection and reprinted by each line that shows it
    f = meet_chain(128)
    rank.parse_bounds.cache_clear()
    printed = counting(monkeypatch, "ord_str", ordinals)
    monkeypatch.setattr(rank, "ord_str", ordinals.ord_str)
    built = []
    init = rank.RankBounds.__init__

    def counted_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(rank.RankBounds, "__init__", counted_init)
    bounds, cert = rank_bounds(f)
    text = rank.certificate_text(cert)
    parsed = rank.certificate_from_text(text)
    assert rank.replay_certificate(parsed) == bounds
    assert rank.certificate_text(parsed) == text
    assert len(printed) <= 770
    assert len(built) <= 767


@pytest.mark.parametrize("k", [16, 64])
@pytest.mark.parametrize("base", CHAIN_BASES)
def test_limit_kernel_judges_each_pattern_once(monkeypatch, base, k):
    # the walk over the member kernels meets k + 1 patterns on the chain and
    # builds one verdict leaf for each, plus the kernel's own leaf; partition
    # refinement made up to 2(k + 1)(k + 2) set_intersect calls instead
    f = chain(base, k)
    judged = counting(monkeypatch, "member")
    verdicts = counting(monkeypatch, "nat_leaf")
    leaves = counting(monkeypatch, "leaf_set")
    algebra = counting(monkeypatch, "_binop", sets_module)
    kernel_set(f)
    assert len(judged) <= k + 1 and all(g is f.base for g in judged)
    assert len(verdicts) + len(leaves) <= k + 2
    assert algebra == []


def test_limit_kernel_judges_a_shared_pattern_once(monkeypatch):
    # the 32 points of the shared core all carry one pattern, and the points
    # off it another
    core = ", ".join(map(str, range(32)))
    excs = ", ".join(f"{i}: principal(fin{{{core}}})" for i in range(8))
    f = parse_filter(f"limit(frechet, family({{{excs}}}, frechet))")
    judged = counting(monkeypatch, "member")
    kernel_set(f)
    assert len(judged) == 2


def test_tower_membership_builds_no_unused_sum_domains(monkeypatch):
    # 7,357 is the count when member does not build the domain of each sum
    # it reads; building them made 12,239
    f = katetov(8)
    sets = [random_tower_member(8, s) for s in range(20)]
    calls = counting(monkeypatch, "dom_of")
    for a in sets:
        member(f, a)
    assert len(calls) <= 7357


def test_tower_membership_reads_one_domain_per_query(monkeypatch):
    # 7,357 dom_of calls for 2,475 member calls when dom_of walked the subtree
    f = katetov(8)
    sets = [random_tower_member(8, s) for s in range(20)]
    queries = counting(monkeypatch, "member")
    calls = counting(monkeypatch, "dom_of")
    for a in sets:
        filters.member(f, a)
    assert len(calls) <= len(queries)


def test_set_algebra_validates_each_new_family_once(monkeypatch):
    # 3,083 validate_set calls for 492 section_family calls when each new
    # family re-validated its whole subtree
    sets = [gen_random_setexpr(Prod(Prod(NAT)), 8, s) for s in range(40)]
    families = counting(monkeypatch, "section_family", sets_module)
    checks = counting(monkeypatch, "validate_set", sets_module)
    for a, b in zip(sets, sets[1:]):
        set_union(a, set_complement(b))
        set_intersect(a, b)
    assert len(checks) <= len(families)


def test_typed_set_literals_are_read_without_checks(monkeypatch):
    # 137 validate_set and 436 check_point calls when each literal was read
    # into a raw tree, then resolved, sorted and validated again
    d = Prod(Prod(NAT))
    sources = [set_to_source(gen_random_setexpr(d, 8, s)) for s in range(40)]
    checks = counting(monkeypatch, "validate_set", sets_module)
    points = counting(monkeypatch, "check_point", sets_module)
    for src in sources:
        parse_set(src, d)
    assert (len(checks), len(points)) == (0, 0)


def test_kernel_recursion_is_no_deeper_than_the_expression():
    # one frame per nesting level leaves room for 700 nested meets under
    # the default recursion limit of 1000
    src = "frechet"
    for _ in range(700):
        src = f"meet(frechet, {src})"
    bounds, _ = rank_bounds(parse_filter(src))
    assert bounds == rank_bounds(parse_filter("meet(frechet, frechet)"))[0]


def counting_point_key(monkeypatch) -> list:
    """Count point_key calls made through the sets and game modules."""
    calls = []
    for mod in (sets_module, game):
        inner = mod.point_key

        def wrapper(p, inner=inner):
            calls.append(p)
            return inner(p)

        monkeypatch.setattr(mod, "point_key", wrapper)
    return calls


def claims(t) -> int:
    return sum(len(r.f) for r in t.rounds)


def test_game_rounds_are_quadratic_in_point_keys(monkeypatch):
    # 222,048 calls with bisected leaves and a running union; rescanning the
    # history every round made 2,766,700
    rounds = 200
    calls = counting_point_key(monkeypatch)
    play(frechet(NAT), ExcludeUnionI(), UniversalII(), rounds, seed=0)
    assert len(calls) <= 8 * rounds * rounds


def test_transcript_lines_keys_each_claim_at_most_twice(monkeypatch):
    t = play(product(frechet(NAT), frechet(NAT)), CopyStrategyI(), RandomFiniteII(), 40, seed=0)
    calls = counting_point_key(monkeypatch)
    transcript_lines(t)
    assert len(calls) <= 2 * claims(t)


def test_copy_column_bound_keys_each_claim_at_most_four_times(monkeypatch):
    t = play(product(frechet(NAT), frechet(NAT)), CopyStrategyI(), RandomFiniteII(), 40, seed=0)
    calls = counting_point_key(monkeypatch)
    copy_column_bound(t)
    assert len(calls) <= 4 * claims(t)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_preimage_grid_allocates_only_the_stages_it_shows(monkeypatch, depth):
    # the 12 shown preimages of lines 0-3 lie below stage 110 at these
    # depths; filling each side up to trunc allocated 10,000 stages a side
    advanced = []
    advance = InterleavedPair._advance

    def counted(self, side):
        advanced.append(side)
        advance(self, side)

    monkeypatch.setattr(InterleavedPair, "_advance", counted)
    pair = InterleavedPair(depth)
    for side in (0, 1):
        assert len(preimage_grid(pair, side, 4, 10_000)) == 4
    assert max(advanced.count(0), advanced.count(1)) <= 110


def test_selector_shadow_reads_the_stage_lines(monkeypatch):
    # testing every line against every stage made 200,000 line_contains calls
    trunc = 10**4
    pair = InterleavedPair(2)
    pair.ensure(trunc)
    contains = counting(monkeypatch, "line_contains", ZFamily)
    index_of = counting(monkeypatch, "line_index_of", ZFamily)
    selector_shadow(pair, trunc, i_max=20, j_max=20)
    assert len(contains) + len(index_of) <= trunc


def test_selector_shadow_streams_only_side_one(monkeypatch):
    # 21,476 line_key and line_of_key calls when every stage allocated both sides
    keys = counting(monkeypatch, "line_key", ZFamily)
    lines = counting(monkeypatch, "line_of_key", ZFamily)
    selector_shadow(InterleavedPair(2), 10**4)
    assert len(keys) + len(lines) <= 11_000


def test_tower_membership_reads_only_the_tail(monkeypatch):
    # 2,475 member calls when every level assembled its whole verdict set
    f = katetov(8)
    sets = [random_tower_member(8, s) for s in range(20)]
    queries = counting(monkeypatch, "member")
    for a in sets:
        filters.member(f, a)
    assert len(queries) <= 9 * len(sets)


def test_exclude_union_universal_rounds_stay_under_r_squared_point_keys(monkeypatch):
    # 222,048 calls when the universal player scanned k from 0 every round
    rounds = 200
    calls = counting_point_key(monkeypatch)
    play(frechet(NAT), ExcludeUnionI(), UniversalII(), rounds, seed=0)
    assert len(calls) <= rounds * rounds


def test_fresh_rounds_are_linear_in_point_keys(monkeypatch):
    # 20,900 calls when the fresh player rescanned the claimed prefix every round
    rounds = 200
    calls = counting_point_key(monkeypatch)
    play(frechet(NAT), FullSetI(), FreshElementII(), rounds, seed=0)
    assert len(calls) <= 8 * rounds


def test_copy_rounds_build_one_empty_section_per_component(monkeypatch):
    # 3,240 section_family calls when round n built n empty sections
    rounds = 80
    families = counting(monkeypatch, "section_family", sets_module)
    play(katetov(2), CopyStrategyI(), RandomFiniteII(), rounds, seed=0)
    assert len(families) <= 4 * rounds


def test_principal_membership_builds_no_set(monkeypatch):
    domains = [NAT, Prod(NAT), Prod(Prod(UNIT)), DSum((Prod(UNIT),), NAT)]
    # an empty core is refused: principal(fin{}) would hold the empty set
    pairs = [
        (principal(core), gen_random_setexpr(d, 8, s + 1000))
        for d in domains
        for s in range(50)
        if not is_empty_set(core := gen_random_setexpr(d, 8, s))
    ]
    names = ("section_family", "fin_set", "cofin_set")
    built = [counting(monkeypatch, name, sets_module) for name in names]
    verdicts = [member(f, a) for f, a in pairs]
    assert any(verdicts) and not all(verdicts)
    assert built == [[], [], []]


def test_exclude_union_checks_each_claim_at_most_twice(monkeypatch):
    # 19,900 check_point calls when every move rebuilt the union's complement
    rounds = 200
    checks = counting(monkeypatch, "check_point", sets_module)
    t = play(frechet(NAT), ExcludeUnionI(), UniversalII(), rounds, seed=0)
    assert len(checks) <= 2 * claims(t)


def test_exclude_union_rounds_are_r_log_r_in_point_keys(monkeypatch):
    # 21,653 calls when every move re-sorted the whole union
    rounds = 200
    calls = counting_point_key(monkeypatch)
    play(frechet(NAT), ExcludeUnionI(), UniversalII(), rounds, seed=0)
    assert len(calls) <= 4 * rounds * math.ceil(math.log2(rounds))


def test_copy_rounds_read_a_bounded_number_of_sections(monkeypatch):
    # 13,704 section calls when first_point read the columns index by index
    rounds = 80
    sections = counting(monkeypatch, "section", sets_module)
    play(katetov(2), CopyStrategyI(), RandomFiniteII(), rounds, seed=0)
    assert len(sections) <= 8 * rounds


def test_states_along_one_game_copy_no_claims(monkeypatch):
    # 160,000 entries when each state copied the union and re-sorted it
    copied = []

    def counting_dict(*args):
        d = dict(*args)
        copied.append(len(d))
        return d

    # every dict that game.py builds by a call, which is how a state copies
    monkeypatch.setattr(game, "dict", counting_dict, raising=False)
    rounds = 400
    play(frechet(NAT), FullSetI(), FreshElementII(), rounds, seed=0)
    assert sum(copied) <= 4 * rounds


def set_nodes(a, seen: dict) -> dict:
    """The set nodes reachable from a, by identity."""
    if id(a) not in seen:
        seen[id(a)] = a
        if isinstance(a, SectionFamily):
            for _, sec in a.exceptions:
                set_nodes(sec, seen)
            set_nodes(a.tail, seen)
    return seen


def test_transcript_lines_prints_each_set_node_once(monkeypatch):
    # 1,680 set_to_source calls for 120 nodes, and 860 sum_domain calls, when
    # every round printed its whole move and decided each table's tag by
    # summing the domains of its entries
    t = play(katetov(2), CopyStrategyI(), RandomFiniteII(), 40, seed=0)
    nodes: dict = {}
    for r in t.rounds:
        set_nodes(r.c, nodes)
    calls = []
    inner = dsl.set_to_source

    def set_to_source(a):
        calls.append(a)
        return inner(a)

    monkeypatch.setattr(dsl, "set_to_source", set_to_source)
    monkeypatch.setattr(game, "set_to_source", set_to_source)
    sums = counting(monkeypatch, "sum_domain", dsl)
    transcript_lines(t)
    assert len(calls) <= len(nodes)
    assert sums == []


def test_random_answers_find_the_move_first_point_once(monkeypatch):
    # 78 first_point calls on the moves for 40 answers when each draw walked
    # the move's table afresh
    calls = counting(monkeypatch, "first_point", game)
    t = play(katetov(2), CopyStrategyI(), RandomFiniteII(), 40, seed=0)
    moves = {id(r.c) for r in t.rounds}
    assert sum(1 for a in calls if id(a) in moves) <= len(t.rounds)


def test_copy_game_first_points_are_linear_in_rounds(monkeypatch):
    # 41,208 first_point calls when every copy move walked its empty columns
    rounds = 200
    calls = []
    for mod in (sets_module, game):
        inner = mod.first_point

        def wrapper(a, inner=inner):
            calls.append(a)
            return inner(a)

        monkeypatch.setattr(mod, "first_point", wrapper)
    play(katetov(2), CopyStrategyI(), RandomFiniteII(), rounds, seed=0)
    assert len(calls) <= 8 * rounds


def test_with_sections_runs_no_python_per_untouched_entry(monkeypatch):
    # up to 410 Python frames in one call, 12 plus one per kept entry, when
    # the table was rebuilt by a generator
    frames: list[int] = []
    inner = sets_module.with_sections

    def with_sections(a, sections):
        count = [0]

        def profile(frame, event, arg):
            count[0] += event == "call"

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            return inner(a, sections)
        finally:
            sys.setprofile(previous)
            frames.append(count[0])

    monkeypatch.setattr(sets_module, "with_sections", with_sections)
    monkeypatch.setattr(game, "with_sections", with_sections)
    rounds = 400
    play(katetov(2), CopyStrategyI(), RandomFiniteII(), rounds, seed=0)
    assert len(frames) == rounds - 1 and max(frames) <= 24
