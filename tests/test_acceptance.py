"""Acceptance suite: one test and one printed verdict line per criterion.

Each test exercises a contract end to end at its stated tolerance and time
budget, on fixed seeds; a seeded criterion runs at seeds 0 and 1.  Each
claim it checks is one assertion whose message names the claim and, on a
failure, the first case that broke it.  Run with ``pytest -v`` for the
per-criterion result lines, or ``pytest -s`` to also see the printed
verdict summaries.
"""

import time
from random import Random

from naive import naive_member
from test_dsl import DOMAINS
from test_game import union_size

from filterlab.constructions import (
    InterleavedPair,
    collapse_limit,
    rank_type_gap_example,
    selector_shadow,
)
from filterlab.domains import DSum, NAT, NatPt, Prod, UNIT
from filterlab.dsl import filter_to_source, set_to_source
from filterlab.filters import (
    DiagYes,
    IdentityBij,
    SectionwiseFamily,
    TableBij,
    dom_of,
    filter_family,
    frechet,
    fubini_as_limit,
    fubini_sum,
    gen_random_filter,
    katetov,
    limit_of,
    meet,
    member,
    principal,
    product,
    pushforward,
    section_filter,
)
from filterlab.game import (
    CopyStrategyI,
    ExcludeUnionI,
    RandomFiniteII,
    SepIn,
    SepOut,
    UniversalII,
    copy_column_bound,
    play,
    replay_transcript,
    separator_verdict,
    validate_transcript,
)
from filterlab.ordinals import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    omega_pow,
    ord_add,
    ord_of_int,
    ord_str,
)
from filterlab.rank import (
    CITES,
    bounds_of,
    bounds_text,
    certificate_from_text,
    certificate_text,
    rank_bounds,
    replay_certificate,
)
from filterlab.sets import (
    cofin_set,
    empty_set,
    fin_set,
    finite_points,
    full_set,
    gen_random_setexpr,
    is_empty_set,
    section_family,
    set_complement,
    set_intersect,
    set_union,
)

SEEDS = (0, 1)


def _report(num: int, ok: bool, detail: str) -> None:
    word = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {word}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _replayed(cert):
    """The bounds a certificate replays to after a round trip through its text."""
    return replay_certificate(certificate_from_text(certificate_text(cert)))


# ---------------------------------------------------------------------------


def test_criterion_01_tower_ranks_exact_with_replay():
    t0 = time.perf_counter()
    for n in range(5):
        b, cert = rank_bounds(katetov(n))
        assert b == bounds_of(n, n) and _replayed(cert) == b, (
            f"tower depth {n} ranks at [{n},{n}] and the certificate replays ({bounds_text(b)})"
        )
    dt = time.perf_counter() - t0
    _report(1, dt < 1.0, f"katetov(0..4) exact with certificate replay in {dt:.3f}s (< 1s)")


def test_criterion_02_fubini_exactness():
    t0 = time.perf_counter()
    for depth in (2, 1):
        b, cert = rank_bounds(fubini_sum(frechet(NAT), {}, katetov(depth)))
        want = depth + 1
        assert b == bounds_of(want, want) and _replayed(cert) == b, (
            f"sum over the cofinite base with depth-{depth} tail ranks at [{want},{want}] "
            f"({bounds_text(b)})"
        )
    dt = time.perf_counter() - t0
    _report(2, dt < 1.0, f"sums over the cofinite base hit [3,3] and [2,2] in {dt:.3f}s (< 1s)")


def test_criterion_03_sharp_limit_rule_beats_generic():
    lim = limit_of(
        frechet(NAT),
        filter_family({0: principal(full_set(dom_of(katetov(2))))}, katetov(2)),
    )
    b, cert = rank_bounds(lim)
    outs = {app.rule: app.output for app in cert.root.applied}
    assert (
        "RLimHi" in outs
        and outs["RLimHi"].hi == ord_of_int(4)
        and "RLimHi1" in outs
        and outs["RLimHi1"].hi == ord_of_int(3)
        and b.hi == ord_of_int(3)
        and _replayed(cert) == b
    ), f"limit over a rank-one base keeps ceiling 3 where the generic rule gives 4 ({bounds_text(b)})"
    _report(3, True, "generic limit rule gives hi=4, the sharp rule hi=3, and 3 is selected")


def test_criterion_04_oracle_matches_definitional_evaluator():
    t0 = time.perf_counter()
    pairs = 1200
    mismatches = 0
    positives = 0
    first_bad = ""
    for k in range(pairs):
        d = DOMAINS[k % 4]
        f = gen_random_filter(d, 3, 7000 + k)
        a = gen_random_setexpr(dom_of(f), 8, 9000 + k)
        got = member(f, a)
        want = naive_member(f, a)
        positives += got
        if got != want:
            mismatches += 1
            if not first_bad:
                first_bad = f" first at k={k}: {filter_to_source(f)}"
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and positives > 0 and dt < 30.0
    _report(
        4,
        ok,
        f"{pairs} random pairs, {mismatches} mismatches ({positives} in, "
        f"{pairs - positives} out) in {dt:.2f}s (< 30s){first_bad}",
    )


SUM_LIMIT_SETS = 200


def _mixed_sum(k: int):
    """A sum over a principal base whose section 3 is meet(frechet, principal(cofin{k}))."""
    return fubini_sum(
        principal(cofin_set([NatPt(0)], NAT)),
        {
            0: principal(cofin_set([NatPt(1), NatPt(2)], NAT)),
            3: meet(frechet(NAT), principal(cofin_set([NatPt(k)], NAT))),
        },
        frechet(NAT),
    )


def test_criterion_05_fubini_as_limit_equivalence():
    shapes = {
        "plain cofinite base and tail": fubini_sum(frechet(NAT), {}, frechet(NAT)),
        "principal base with mixed sections": _mixed_sum(0),
        "principal base with mixed sections, section 3 off 5": _mixed_sum(5),
    }
    for label, f in shapes.items():
        lim = fubini_as_limit(f)
        for seed in SEEDS:
            for i in range(SUM_LIMIT_SETS):
                a = gen_random_setexpr(dom_of(f), 8, (seed << 12) ^ (i * 131 + 7))
                assert member(f, a) == member(lim, a), (
                    f"seed {seed}: sum vs limit form, {label}: {SUM_LIMIT_SETS} random sets "
                    f"(disagreement on sample {i}: {set_to_source(a)})"
                )
    _report(
        5, True, f"{len(shapes)} shapes x {SUM_LIMIT_SETS} random sets at seeds 0 and 1, 0 mismatches"
    )


# how many random triples each constructor's law battery tries at every seed
LAW_TRIALS = 500
LAW_CONSTRUCTORS = ("principal", "frechet", "product", "sum", "limit", "meet", "push", "cylinder")


def _nonempty_set(d, seed: int):
    a = gen_random_setexpr(d, 8, seed)
    return full_set(d) if is_empty_set(a) else a


def _law_base(rng: Random):
    if rng.random() < 0.5:
        return frechet(NAT)
    pts = [NatPt(rng.randrange(6)) for _ in range(rng.randrange(3))]
    return principal(cofin_set(pts, NAT))


def _law_member(rng: Random):
    roll = rng.random()
    if roll < 0.4:
        return frechet(NAT)
    if roll < 0.7:
        return principal(_nonempty_set(NAT, rng.randrange(1 << 30)))
    return meet(frechet(NAT), principal(cofin_set([NatPt(rng.randrange(4))], NAT)))


def _law_filter(kind: str, t: int, seed: int):
    """Trial t's filter from the battery of one public constructor."""
    rng = Random((seed << 8) ^ t)
    d = DOMAINS[t % len(DOMAINS)]
    if kind == "principal":
        return principal(_nonempty_set(d, rng.randrange(1 << 30)))
    if kind == "frechet":
        return frechet([NAT, Prod(UNIT), Prod(NAT)][t % 3])
    if kind == "product":
        inner = [frechet(NAT), katetov(1), principal(cofin_set([NatPt(t % 5)], NAT))]
        return product(_law_base(rng), inner[t % 3])
    if kind == "sum":
        excs = {i: _law_member(rng) for i in sorted(rng.sample(range(5), rng.randrange(3)))}
        return fubini_sum(_law_base(rng), excs, _law_member(rng))
    if kind == "limit":
        if t % 2:
            fam = SectionwiseFamily(filter_family({}, _law_member(rng)), Prod(NAT))
            return limit_of(_law_base(rng), fam)
        excs = {i: _law_member(rng) for i in sorted(rng.sample(range(5), rng.randrange(3)))}
        return limit_of(_law_base(rng), filter_family(excs, _law_member(rng)))
    if kind == "meet":
        return meet(
            gen_random_filter(d, 2, rng.randrange(1 << 30)),
            gen_random_filter(d, 2, rng.randrange(1 << 30)),
        )
    if kind == "push":
        roll = t % 3
        if roll == 0:
            return pushforward(IdentityBij(d), gen_random_filter(d, 2, rng.randrange(1 << 30)))
        if roll == 1:
            return pushforward(TableBij(Prod(UNIT), ()), _law_member(rng))
        return pushforward(TableBij(Prod(UNIT), ((0, 1), (1, 0))), _law_member(rng))
    comp = [NAT, Prod(UNIT)][t % 2]
    return section_filter(t % 4, gen_random_filter(comp, 1, rng.randrange(1 << 30)), Prod(comp))


def test_criterion_06_filter_laws_on_random_triples():
    # the filter is proper, and its member a stays one up to a | b and, where
    # b is a member too, down to a & b
    members = meets = 0
    for seed in SEEDS:
        for kind in LAW_CONSTRUCTORS:
            name = f"seed {seed}: {kind}: laws on {LAW_TRIALS} random triples"
            for t in range(LAW_TRIALS):
                f = _law_filter(kind, t, seed)
                d = dom_of(f)
                rng = Random((seed << 16) ^ (t * 7919 + 11))
                a = gen_random_setexpr(d, 8, rng.randrange(1 << 30))
                if rng.random() < 0.45:
                    a = set_complement(a)
                b = gen_random_setexpr(d, 8, rng.randrange(1 << 30))
                assert not member(f, empty_set(d)), f"{name} (empty set accepted at trial {t})"
                if not member(f, a):
                    continue
                members += 1
                assert member(f, set_union(a, b)), f"{name} (upward closure broke at trial {t})"
                if member(f, b):
                    meets += 1
                    assert member(f, set_intersect(a, b)), (
                        f"{name} (intersection closure broke at trial {t})"
                    )
    _report(
        6,
        True,
        f"{len(LAW_CONSTRUCTORS)} constructors x {LAW_TRIALS} triples at seeds 0 and 1, "
        f"properness throughout; {members} members seen, all upward, {meets} meets",
    )


def test_criterion_07_game_suite():
    t0 = time.perf_counter()
    copy2 = product(frechet(NAT), frechet(NAT))
    for seed in SEEDS:
        grow = play(frechet(NAT), ExcludeUnionI(), UniversalII(), 10, seed)
        u10 = union_size(grow)
        assert u10 == 10 and validate_transcript(grow) == [] and replay_transcript(grow) == grow, (
            f"seed {seed}: 10 rounds on the cofinite filter, universal player II: "
            f"union has 10 points (|U|={u10})"
        )
        name = f"seed {seed}: 50 copy-strategy games, 50 rounds each: legal, budgeted, replayable"
        for s in range(50):
            t = play(copy2, CopyStrategyI(), RandomFiniteII(), 50, seed=seed * 100 + s)
            problems = validate_transcript(t) or copy_column_bound(t)[1]
            assert not problems, f"{name} (seed {s}: {problems[0]})"
            assert replay_transcript(t) == t, f"{name} (seed {s}: replay drifted)"
    dt = time.perf_counter() - t0
    _report(
        7,
        dt < 10.0,
        f"universal game |U|=10/10; copy battery 50/50 legal, column-bounded, "
        f"replay-identical at seeds 0 and 1 in {dt:.2f}s (< 10s)",
    )


def test_criterion_08_separator_verdicts():
    d = Prod(NAT)
    inner = filter_family({}, frechet(NAT))
    rng = Random(41)

    def random_sections(count):
        out = {}
        for _ in range(count):
            i = rng.randrange(8)
            pts = [NatPt(rng.randrange(9)) for _ in range(rng.randrange(4))]
            out[i] = fin_set(pts, NAT) if rng.random() < 0.5 else cofin_set(pts, NAT)
        return out

    ins = outs = 0
    for _ in range(100):
        m = section_family(
            random_sections(rng.randrange(4)),
            cofin_set([NatPt(rng.randrange(6))], NAT),
            d,
        )
        ins += isinstance(separator_verdict(inner, m), SepIn)
    for _ in range(100):
        a = section_family(
            random_sections(rng.randrange(4)),
            fin_set([NatPt(rng.randrange(6))], NAT),
            d,
        )
        outs += isinstance(separator_verdict(inner, a), SepOut)
    _report(8, ins == 100 and outs == 100, f"{ins}/100 members In, {outs}/100 duals Out")


def test_criterion_09_interleaving_shadows():
    t0 = time.perf_counter()
    pair = InterleavedPair(1)
    lo, mid, hi = 10**3, 10**4, 10**5
    cells = [(i, j) for i in range(10) for j in range(10)]
    tables = {n: pair.joint_count_table(n, 10) for n in (lo, mid, hi)}
    counts = {n: [table.get(c, 0) for c in cells] for n, table in tables.items()}
    least = min(counts[mid])
    assert least > 0, (
        f"joint meets nonempty for the first 10x10 line pairs at {mid} (least count {least})"
    )
    assert all(k >= pair.fair_lower_bound(i, j, mid) for (i, j), k in zip(cells, counts[mid])), (
        "joint counts dominate the sweep-based fair lower bound "
        f"(bound at (9,9): {pair.fair_lower_bound(9, 9, mid)})"
    )
    assert all(a < b < c for a, b, c in zip(counts[lo], counts[mid], counts[hi])), (
        f"joint counts grow strictly from {lo} through {mid} to {hi} "
        f"((0,0): {counts[lo][0]} < {counts[mid][0]} < {counts[hi][0]})"
    )
    shadow = selector_shadow(pair, mid)
    worst = max((hits for _, hits in shadow.e_hits), default=0)
    assert shadow.bound_ok and all(hits <= j for j, hits in shadow.e_hits), (
        "selector picks meet each residue class E_j at most j times "
        f"({shadow.problems[0] if shadow.problems else f'largest class load {worst}'})"
    )
    nontrivial = sum(1 for _, picks in shadow.selectors[:10] if picks)
    assert nontrivial == 10, (
        f"selectors below line 10 are nonempty at this truncation ({nontrivial}/10 nonempty)"
    )
    dt = time.perf_counter() - t0
    _report(
        9,
        dt < 60.0,
        f"joint intersections nonempty (least {least} at 1e4), fairly bounded, strictly "
        f"growing 1e3<1e4<1e5, selector load <= j for j < 20, in {dt:.2f}s (< 60s)",
    )


def test_criterion_10_collapse_limit():
    cl = collapse_limit(1)
    parts = cl.parts
    assert cl.limit.bounds == bounds_of(1, 1), (
        f"collapsed limit certified at [1,1] ({bounds_text(cl.limit.bounds)})"
    )
    assert parts.g0.bounds == bounds_of(1, 1) and parts.g1.bounds == bounds_of(1, 1), (
        "each relabelled tower certified at [1,1] "
        f"({bounds_text(parts.g0.bounds)} and {bounds_text(parts.g1.bounds)})"
    )
    assert cl.limit.bounds == parts.meet.bounds, (
        f"the limit carries the meet's bounds ({bounds_text(parts.meet.bounds)})"
    )
    assert (cl.base, cl.split) == (frechet(NAT), "evens"), (
        f"the limit runs along the cofinite filter, split along the evens ({cl.split})"
    )
    bounds, cert = rank_bounds(cl.limit)
    text = certificate_text(cert)
    assert text == (
        f'NODE "certified {cl.limit.name} ({cl.limit.provenance})" final=[1,1]\n'
        f'  RULE RCert bounds=[1,1] cite="{CITES["RCert"]}" out=[1,1]\n'
    ) and _replayed(cert) == bounds, f"the limit's certificate is one RCert leaf that replays ({text!r})"
    _report(
        10,
        True,
        "limit and both relabelled towers certified [1,1], the limit's bounds are the "
        "meet's, and its certificate replays",
    )


def test_criterion_11_type_gap_example():
    b = rank_type_gap_example()
    d = DSum((), NAT)
    assert b.bounds == bounds_of(1, 1) and _replayed(b.certificate) == b.bounds, (
        f"example ranks at [1,1] with a replayable certificate ({bounds_text(b.bounds)})"
    )
    assert any(app.rule == "RQH" for app in b.certificate.root.applied), (
        "the rank comes from the section quasi-homomorphism"
    )
    assert b.ct.level is not None and b.ct.level <= 2, (
        f"countable type bounded by 2 (level {b.ct.level})"
    )
    assert isinstance(b.diag, DiagYes), (
        f"diagonalization witness is the first column ({type(b.diag).__name__})"
    )
    w = b.diag.witness
    assert w == section_family({0: full_set(NAT)}, empty_set(NAT), d), (
        f"diagonalization witness is the first column ({set_to_source(w)})"
    )
    for seed in SEEDS:
        rng = Random(seed * 11 + 3)
        for _ in range(3):
            m = section_family(
                {
                    i: cofin_set([NatPt(rng.randrange(7))], NAT)
                    for i in sorted(rng.sample(range(6), 2))
                },
                cofin_set([NatPt(rng.randrange(7)) for _ in range(2)], NAT),
                d,
            )
            leftover = set_intersect(w, set_complement(m))
            assert member(b.filt, m) and finite_points(leftover) is not None, (
                f"seed {seed}: witness sits almost inside random members ({set_to_source(m)})"
            )
    samples = [
        (section_family({}, cofin_set((), NAT), d), True),
        (section_family({2: cofin_set([NatPt(0)], NAT)}, cofin_set([NatPt(5)], NAT), d), True),
        (section_family({5: fin_set([NatPt(1)], NAT)}, cofin_set((), NAT), d), False),
        (section_family({}, empty_set(NAT), d), False),
    ]
    for a, v in samples:
        assert member(b.filt, a) is v and member(b.limit_form, a) is v, (
            f"sum form and limit form agree on the probe sets ({set_to_source(a)})"
        )
    _report(
        11,
        True,
        f"rank [1,1] via the section quasi-homomorphism, ct level {b.ct.level} <= 2, "
        "diagonal witness is column 0 and almost inside 6 random members",
    )


ORDINAL_TRIALS = 1000


def _random_ordinal(rng: Random) -> Ordinal:
    if rng.random() < 0.15:
        return ZERO
    exps = sorted(rng.sample(range(5), rng.randrange(1, 4)), reverse=True)
    return Ordinal(tuple((e, rng.randrange(1, 8)) for e in exps))


def test_criterion_12_ordinal_engine():
    for seed in SEEDS:
        rng = Random(seed * 101 + 13)
        for _ in range(ORDINAL_TRIALS):
            a, b, c = (_random_ordinal(rng) for _ in range(3))
            n = ord_of_int(rng.randrange(50))
            infinite = ord_add(omega_pow(rng.randrange(1, 4)), _random_ordinal(rng))
            assert ord_add(ord_add(a, b), c) == ord_add(a, ord_add(b, c)), (
                f"seed {seed}: {ORDINAL_TRIALS} random sums associate "
                f"(({a} + {b}) + {c} differs from {a} + ({b} + {c}))"
            )
            assert ord_add(n, infinite) == infinite, (
                f"seed {seed}: {ORDINAL_TRIALS} finite heads absorbed by infinite tails "
                f"({n} + {infinite} differs from {infinite})"
            )

    assert ord_add(ONE, OMEGA) == OMEGA and ord_add(OMEGA, ONE) != OMEGA, (
        f"1 + omega collapses to omega ({ord_str(ord_add(ONE, OMEGA))})"
    )

    # independent model: (q, r) stands for w*q + r, with addition absorbing
    # the finite part whenever the right summand is infinite
    def pair_add(x, y):
        q1, r1 = x
        q2, r2 = y
        return (q1 + q2, r2) if q2 else (q1, r1 + r2)

    def of_pair(x):
        q, r = x
        return Ordinal(tuple(t for t in ((1, q), (0, r)) if t[1]))

    hand = [(q, r) for q in range(3) for r in range(9) if (q, r) <= (2, 0) or q < 2]
    for xi in hand:
        for alpha in hand:
            want = of_pair(pair_add(pair_add(xi, (0, 1)), alpha))
            got = ord_add(ord_add(of_pair(xi), ONE), of_pair(alpha))
            assert got == want, (
                "xi + 1 + alpha matches the two-coordinate model up to omega*2 "
                f"({of_pair(xi)} + 1 + {of_pair(alpha)} is {got}, the model gives {want})"
            )
    sample = [of_pair(x) for x in hand]
    assert all(a <= b or b <= a for a in sample for b in sample), (
        f"comparison is a total order on the sample ({len(sample)} ordinals)"
    )
    _report(
        12,
        True,
        f"{ORDINAL_TRIALS} associativity/absorption trials at seeds 0 and 1; 1+w=w; "
        f"xi+1+alpha matches the two-coordinate model on {len(hand)}^2 hand values",
    )
