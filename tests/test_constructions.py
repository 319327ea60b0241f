"""Interleavings, collapse pairs, two-valued limits, and the type-gap example."""

import pytest

from filterlab.constructions import (
    BlockInterleaveBij,
    SelectorShadow,
    InterleavedPair,
    PreconditionFailure,
    PullbackSet,
    ZFamily,
    _round_pair,
    collapse_limit,
    collapse_pair,
    member_extended,
    even_splitter,
    random_tower_member,
    rank_type_gap_example,
    selector_shadow,
    two_valued_limit,
    z_cover_witness,
    z_family_grid,
)
from filterlab.domains import (
    DSum,
    DomainError,
    NAT,
    NatPt,
    cantor_unpair,
    enum_point,
    point_key,
)
from filterlab.filters import (
    DiagYes,
    dom_of,
    frechet,
    katetov,
    member,
    principal,
)
from filterlab.rank import CertifiedFilter, bounds_of, replay_certificate
from filterlab.sets import (
    ProgrammaticSet,
    cofin_set,
    empty_set,
    fin_set,
    full_set,
    section_family,
    set_member,
)


# ---------------------------------------------------------------------------
# line families


@pytest.mark.parametrize("gamma", [1, 2, 3])
def test_zfamily_lines_are_disjoint_and_infinite(gamma):
    zf = ZFamily(gamma)
    seen = set()
    for i in range(5):
        for j in range(40):
            p = zf.line_point(i, j)
            k = point_key(p)
            assert k not in seen
            seen.add(k)
            assert zf.line_contains(i, p)
            assert zf.line_index_of(p) == i


@pytest.mark.parametrize("gamma", [1, 2])
def test_zfamily_lines_partition_the_domain(gamma):
    zf = ZFamily(gamma)
    for n in range(300):
        p = enum_point(zf.domain, n)
        i = zf.line_index_of(p)
        assert zf.line_contains(i, p)
        # no other nearby line grabs it
        for other in range(5):
            if other != i:
                assert not zf.line_contains(other, p)


def test_zfamily_rejects_depth_zero():
    with pytest.raises(DomainError):
        ZFamily(0)


@pytest.mark.parametrize("gamma", [1, 2, 3])
def test_cover_witness_on_random_members(gamma):
    zf = ZFamily(gamma)
    for seed in range(25):
        m = random_tower_member(gamma, seed)
        assert member(katetov(gamma), m)
        w = z_cover_witness(zf, m)
        assert w is not None
        missing = {point_key(p) for p in w.missing}
        # exactness: line points lie in m exactly off the missing list
        for j in range(50):
            p = zf.line_point(w.index, j)
            assert set_member(p, m) == (point_key(p) not in missing)


def test_cover_witness_absent_for_thin_sets():
    zf = ZFamily(1)
    thin = fin_set([enum_point(zf.domain, 3)], zf.domain)
    assert z_cover_witness(zf, thin) is None


def test_z_family_grid_renders():
    lines = z_family_grid(ZFamily(2), 3, 5)
    assert len(lines) == 3
    assert all(isinstance(s, str) and s for s in lines)


# ---------------------------------------------------------------------------
# the interleaved pair


def test_pair_is_bijective_prefix():
    pair = InterleavedPair(1)
    pair.ensure(500)
    for side in (0, 1):
        keys = {point_key(pair.pi(side, n)) for n in range(500)}
        assert len(keys) == 500
    # index_of inverts pi
    for n in range(100):
        assert pair.index_of(0, pair.pi(0, n)) == n
        assert pair.index_of(1, pair.pi(1, n)) == n


def test_pair_surjectivity_budget():
    # the m-th point in enumeration order appears by stage 3(m+2)
    pair = InterleavedPair(1)
    for m in range(200):
        p = enum_point(pair.domain, m)
        assert pair.index_of(0, p) <= 3 * (m + 2)
        assert pair.index_of(1, p) <= 3 * (m + 2)


def test_sweep_cursor_matches_round_pair():
    # the incremental cursor must agree with the closed-form schedule:
    # re-derive the pair for each regular stage from the lines its allocated
    # points sit on
    pair = InterleavedPair(1)
    zf = pair.zfamily
    regular = [n for n in range(600) if n % 3 != 2]
    for t, n in enumerate(regular):
        i, j = _round_pair(t)
        assert zf.line_index_of(pair.pi(0, n)) == i
        assert zf.line_index_of(pair.pi(1, n)) == j


def test_joint_count_table_matches_pairwise_counts():
    pair = InterleavedPair(1)
    table = pair.joint_count_table(400, 6)
    for i in range(6):
        for j in range(6):
            assert table.get((i, j), 0) == scan_joint_count(pair, i, j, 400)


def test_fair_lower_bound_is_sound_and_growing():
    pair = InterleavedPair(1)
    for trunc in (200, 400, 800):
        table = pair.joint_count_table(trunc, 6)
        for i in range(6):
            for j in range(6):
                assert table.get((i, j), 0) >= pair.fair_lower_bound(i, j, trunc)
    assert pair.fair_lower_bound(0, 0, 800) > pair.fair_lower_bound(0, 0, 200)


def test_block_interleave_bijection():
    pair = InterleavedPair(1)
    b0 = BlockInterleaveBij(pair, 0)
    for n in range(50):
        p = b0.unapply(NatPt(n))
        assert b0.apply(p) == NatPt(n)
    assert b0.source_domain() == pair.domain
    assert b0.target_domain() == NAT


# ---------------------------------------------------------------------------
# selector shadows


def test_selector_shadow_bound_holds():
    pair = InterleavedPair(1)
    sh = selector_shadow(pair, 2000)
    assert sh.bound_ok, sh.problems
    assert sh.selectors
    for j, hits in sh.e_hits:
        assert hits <= j


# ---------------------------------------------------------------------------
# collapse pair and limit


def test_collapse_pair_certifies_rank_one():
    cp = collapse_pair(1)
    assert cp.g0.bounds == bounds_of(1, 1)
    assert cp.g1.bounds == bounds_of(1, 1)
    assert cp.meet.bounds == bounds_of(1, 1)


def test_collapse_pair_oracles_decide_pullbacks():
    cp = collapse_pair(1)
    assert cp.g0.decide(cofin_set([NatPt(3)], NAT)) is True
    assert cp.g0.decide(fin_set([NatPt(k) for k in range(5)], NAT)) is False
    inside = PullbackSet(0, cofin_set([], dom_of(katetov(1))))
    assert cp.g0.decide(inside) is True
    assert cp.g1.decide(inside) is None  # wrong side: no exact rule


def test_collapse_limit_certified_and_decides():
    cl = collapse_limit(1)
    lim = cl.limit
    assert lim.bounds == bounds_of(1, 1)
    assert lim.decide(cofin_set([NatPt(3)], NAT)) is True
    assert lim.decide(fin_set([NatPt(k) for k in range(40)], NAT)) is False


def test_collapse_limit_rejects_deciding_bases():
    # a base that decides the splitting set is refused
    with pytest.raises(PreconditionFailure):
        collapse_limit(1, base=principal(fin_set([NatPt(0), NatPt(2)], NAT)))
    cofinite_h = ProgrammaticSet(
        lambda p: point_key(p)[0] > 5, 10_000, NAT, "cofinite", "tail"
    )
    with pytest.raises(PreconditionFailure):
        collapse_limit(1, h=cofinite_h)


def test_two_valued_limit_mock_verdict_table():
    dom = NAT
    mk = lambda v0, v1: (
        CertifiedFilter("m0", dom, bounds_of(1, 1), "mock", lambda a: v0),
        CertifiedFilter("m1", dom, bounds_of(1, 1), "mock", lambda a: v1),
    )
    probe = cofin_set([], NAT)
    for v0, v1, want in [
        (True, True, True),
        (True, False, False),
        (False, True, False),
        (False, False, False),
        (True, None, None),
    ]:
        g0, g1 = mk(v0, v1)
        lim = two_valued_limit(frechet(NAT), even_splitter(), g0, g1)
        assert lim.decide(probe) is want


def test_member_extended_programmatic_rules():
    evens = even_splitter()
    assert member_extended(frechet(NAT), evens) is False  # complement infinite
    assert member_extended(principal(fin_set([NatPt(0)], NAT)), evens) is True
    assert member_extended(principal(fin_set([NatPt(1)], NAT)), evens) is False


# ---------------------------------------------------------------------------
# the type-gap bundle


def test_type_gap_bundle_values():
    b = rank_type_gap_example()
    assert b.bounds == bounds_of(1, 1)
    assert replay_certificate(b.certificate) == b.bounds
    assert b.ct.level is not None and b.ct.level <= 2
    assert isinstance(b.diag, DiagYes)
    d = DSum((), NAT)
    assert b.diag.witness == section_family({0: full_set(NAT)}, empty_set(NAT), d)
    # the witness is almost inside every member: it is one full column
    assert member(b.filt, section_family({0: full_set(NAT)}, cofin_set([], NAT), d))


# ---------------------------------------------------------------------------
# stage-line readers against per-line scans of the allocated points


def scan_line_contains(zf, i, p):
    key = point_key(p)
    if zf.gamma == 1:
        return cantor_unpair(key[0])[0] == i
    return key[: zf.gamma - 1] == zf.prefix(i)


def scan_joint_count(pair, i, j, trunc):
    pair.ensure(trunc)
    zf = pair.zfamily
    return sum(
        1
        for n in range(trunc)
        if scan_line_contains(zf, i, pair.pi(0, n))
        and scan_line_contains(zf, j, pair.pi(1, n))
    )


def scan_preimage_indices(pair, side, i, trunc):
    pair.ensure(trunc)
    return [n for n in range(trunc) if scan_line_contains(pair.zfamily, i, pair.pi(side, n))]


def scan_joint_count_table(pair, trunc, lines):
    pair.ensure(trunc)
    zf = pair.zfamily
    counts = {}
    for n in range(trunc):
        i = zf.line_index_of(pair.pi(0, n))
        j = zf.line_index_of(pair.pi(1, n))
        if i < lines and j < lines:
            counts[(i, j)] = counts.get((i, j), 0) + 1
    return counts


def scan_selector_shadow(pair, trunc, i_max=20, j_max=20):
    pair.ensure(trunc)
    zf = pair.zfamily
    selectors, union = [], set()
    for i in range(i_max):
        cells = {}
        for n in range(trunc):
            if not scan_line_contains(zf, i, pair.pi(1, n)):
                continue
            j = cantor_unpair(n)[0]
            if j > i and (j not in cells or n < cells[j]):
                cells[j] = n
        picks = tuple(sorted(cells.values()))
        selectors.append((i, picks))
        union.update(picks)
    e_hits, problems = [], []
    for j in range(j_max):
        hits = sum(1 for n in union if cantor_unpair(n)[0] == j)
        e_hits.append((j, hits))
        if hits > j:
            problems.append(f"class E{j} meets the selector union {hits} > {j} times")
    return SelectorShadow(trunc, tuple(selectors), tuple(e_hits), not problems, tuple(problems))


@pytest.mark.parametrize("trunc", [100, 1_000, 5_000])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_stage_lines_agree_with_per_line_scans(depth, trunc):
    pair = InterleavedPair(depth)
    shadow = selector_shadow(pair, trunc)
    table = pair.joint_count_table(trunc, 10)
    preimages = {(s, i): pair.preimage_indices(s, i, trunc) for s in (0, 1) for i in range(6)}

    assert shadow == scan_selector_shadow(pair, trunc)
    assert table == scan_joint_count_table(pair, trunc, 10)
    assert preimages == {(s, i): scan_preimage_indices(pair, s, i, trunc) for s, i in preimages}
    assert all(
        pair.zfamily.line_contains(i, p) == scan_line_contains(pair.zfamily, i, p)
        for n in range(0, trunc, 37)
        for p in (pair.pi(0, n), pair.pi(1, n))
        for i in range(6)
    )
