"""Line families, interleavings, selector shadows and collapse pairs."""

import pytest

from filterlab.constructions import (
    BlockInterleaveBij,
    SelectorShadow,
    InterleavedPair,
    ZFamily,
    _round_pair,
    collapse_pair,
    preimage_grid,
    random_tower_member,
    selector_shadow,
    z_cover_witness,
    z_family_grid,
)
from filterlab.domains import (
    DomainError,
    NAT,
    NatPt,
    cantor_unpair,
    enum_point,
    point_key,
    points_within,
)
from filterlab.filters import katetov, member
from filterlab.rank import bounds_of
from filterlab.sets import fin_set, set_member


# ---------------------------------------------------------------------------
# line families


@pytest.mark.parametrize("gamma", [1, 2, 3])
def test_zfamily_lines_are_disjoint_and_infinite(gamma):
    zf = ZFamily(gamma)
    seen = set()
    for i in range(6):
        for j in range(50):
            p = zf.line_point(i, j)
            k = point_key(p)
            assert k not in seen, f"depth {gamma}: line {i} repeats or meets an earlier line at {j}"
            seen.add(k)
            assert zf.line_contains(i, p)
            assert zf.line_index_of(p) == i


@pytest.mark.parametrize("gamma", [1, 2, 3])
def test_zfamily_lines_partition_the_domain(gamma):
    zf = ZFamily(gamma)
    pts = [enum_point(zf.domain, n) for n in range(300)] + points_within(zf.domain, 8)
    for p in pts:
        i = zf.line_index_of(p)
        assert zf.line_contains(i, p)
        # no other nearby line grabs it
        for other in range(max(5, i + 3)):
            if other != i:
                assert not zf.line_contains(other, p), f"depth {gamma}: {p} on lines {i}, {other}"


def test_zfamily_rejects_depth_zero():
    with pytest.raises(DomainError):
        ZFamily(0)


# how many random tower members a cover-witness seed draws
ZFAMILY_SAMPLES = 100


@pytest.mark.parametrize("gamma", [1, 2, 3])
def test_cover_witness_on_random_members(gamma):
    zf = ZFamily(gamma)
    for seed in (0, 1):
        for s in range(ZFAMILY_SAMPLES):
            name = f"seed {seed}: depth {gamma}: random member {s}"
            m = random_tower_member(gamma, seed * 1009 + s)
            assert member(katetov(gamma), m), f"{name} is not a tower member"
            w = z_cover_witness(zf, m)
            assert w is not None, f"{name} got no witness"
            missing = {point_key(p) for p in w.missing}
            # exactness: line points lie in m exactly off the missing list
            for j in range(60):
                p = zf.line_point(w.index, j)
                assert set_member(p, m) == (point_key(p) not in missing), (
                    f"{name}: witness misses the line trace"
                )


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
    pair.ensure(10_000)
    for side in (0, 1):
        keys = {point_key(pair.pi(side, n)) for n in range(10_000)}
        assert len(keys) == 10_000, f"side {side} relabelling is not injective on 10000 stages"
    # index_of inverts pi
    for n in range(100):
        assert pair.index_of(0, pair.pi(0, n)) == n
        assert pair.index_of(1, pair.pi(1, n)) == n


def test_pair_surjectivity_budget():
    # the m-th point in enumeration order appears before stage 3(m+2)
    pair = InterleavedPair(1)
    for m in range(500):
        p = enum_point(pair.domain, m)
        for side in (0, 1):
            assert pair.index_of(side, p) < 3 * (m + 2), f"side {side}: enum point {m} comes late"


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


@pytest.mark.parametrize("side", [-1, 2])
def test_every_side_reader_refuses_a_bad_side(side):
    pair = InterleavedPair(1)
    p = pair.pi(0, 0)
    for read in (
        lambda: pair.pi(side, 0),
        lambda: pair.index_of(side, p),
        lambda: pair.stage_lines(side, 5),
        lambda: preimage_grid(pair, side, 4, 5),
        lambda: BlockInterleaveBij(pair, side),
    ):
        with pytest.raises(DomainError, match="^side must be 0 or 1$"):
            read()


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
    grids = {s: preimage_grid(pair, s, 6, trunc) for s in (0, 1)}

    assert shadow == scan_selector_shadow(pair, trunc)
    assert table == scan_joint_count_table(pair, trunc, 10)
    assert grids == {
        s: [f"Z{i}: {' '.join(map(str, scan_preimage_indices(pair, s, i, trunc)[:12]))}" for i in range(6)]
        for s in grids
    }
    assert all(
        pair.zfamily.line_contains(i, p) == scan_line_contains(pair.zfamily, i, p)
        for n in range(0, trunc, 37)
        for p in (pair.pi(0, n), pair.pi(1, n))
        for i in range(6)
    )
