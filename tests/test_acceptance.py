"""Acceptance suite: one test and one printed verdict line per criterion.

Each test exercises a contract end to end at its stated tolerance and time
budget, on fixed seeds.  Run with ``pytest -v`` for the per-criterion result
lines, or ``pytest -s`` to also see the printed verdict summaries.
"""

import time
from random import Random

from naive import naive_member

from filterlab.checks import run_suite
from filterlab.constructions import (
    InterleavedPair,
    PreconditionFailure,
    PullbackSet,
    collapse_limit,
    rank_type_gap_example,
    selector_shadow,
    two_valued_limit,
)
from filterlab.domains import DSum, NAT, NatPt, Prod, UNIT, point_key
from filterlab.dsl import filter_to_source
from filterlab.filters import (
    DiagYes,
    SectionwiseFamily,
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
    singleton_family,
    validate_transcript,
)
from filterlab.ordinals import (
    OMEGA,
    ONE,
    Ordinal,
    ord_add,
    ord_of_int,
)
from filterlab.rank import (
    CertifiedFilter,
    bounds_of,
    rank_bounds,
    replay_certificate,
)
from filterlab.sets import (
    ProgrammaticSet,
    cofin_set,
    empty_set,
    fin_set,
    full_set,
    gen_random_setexpr,
    section_family,
)


def _report(num: int, ok: bool, detail: str) -> None:
    word = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {word}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_01_tower_ranks_exact_with_replay():
    t0 = time.perf_counter()
    ok = True
    for n in range(5):
        b, cert = rank_bounds(katetov(n))
        ok = ok and b == bounds_of(n, n) and replay_certificate(cert) == b
    dt = time.perf_counter() - t0
    _report(1, ok and dt < 1.0, f"katetov(0..4) exact with certificate replay in {dt:.3f}s (< 1s)")


def test_criterion_02_fubini_exactness():
    t0 = time.perf_counter()
    b2, cert2 = rank_bounds(fubini_sum(frechet(NAT), {}, katetov(2)))
    b1, cert1 = rank_bounds(fubini_sum(frechet(NAT), {}, katetov(1)))
    ok = (
        b2 == bounds_of(3, 3)
        and replay_certificate(cert2) == b2
        and b1 == bounds_of(2, 2)
        and replay_certificate(cert1) == b1
    )
    dt = time.perf_counter() - t0
    _report(2, ok and dt < 1.0, f"sums over the cofinite base hit [3,3] and [2,2] in {dt:.3f}s (< 1s)")


def test_criterion_03_sharp_limit_rule_beats_generic():
    lim = limit_of(
        frechet(NAT),
        filter_family({0: principal(full_set(dom_of(katetov(2))))}, katetov(2)),
    )
    b, cert = rank_bounds(lim)
    outs = {app.rule: app.output for app in cert.root.applied}
    ok = (
        outs["RLimHi"].hi == ord_of_int(4)
        and outs["RLimHi1"].hi == ord_of_int(3)
        and b.hi == ord_of_int(3)
        and replay_certificate(cert) == b
    )
    _report(3, ok, "generic limit rule gives hi=4, the sharp rule hi=3, and 3 is selected")


def test_criterion_04_oracle_matches_definitional_evaluator():
    t0 = time.perf_counter()
    domains = [NAT, Prod(NAT), Prod(Prod(UNIT)), DSum((Prod(UNIT),), NAT)]
    pairs = 1200
    mismatches = 0
    positives = 0
    first_bad = ""
    for k in range(pairs):
        d = domains[k % 4]
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


def test_criterion_05_fubini_as_limit_equivalence():
    shapes = [
        fubini_sum(frechet(NAT), {}, frechet(NAT)),
        fubini_sum(
            principal(cofin_set([NatPt(0)], NAT)),
            {0: principal(cofin_set([NatPt(1), NatPt(2)], NAT)),
             3: meet(frechet(NAT), principal(cofin_set([NatPt(5)], NAT)))},
            frechet(NAT),
        ),
    ]
    mismatches = 0
    for si, f in enumerate(shapes):
        lim = fubini_as_limit(f)
        d = dom_of(f)
        for k in range(200):
            a = gen_random_setexpr(d, 8, 1000 * si + k)
            if member(f, a) != member(lim, a):
                mismatches += 1
    _report(5, mismatches == 0, f"2 shapes x 200 random sets, {mismatches} mismatches")


def test_criterion_06_filter_laws_on_random_triples():
    results = run_suite("laws", seed=0)
    bad = [r for r in results if not r.ok]
    detail = "; ".join(f"{r.name}: {r.detail}" for r in bad) or (
        f"{len(results)} law checks (500 triples per constructor, properness throughout)"
    )
    _report(6, not bad, detail)


def test_criterion_07_game_suite():
    t0 = time.perf_counter()
    grow = play(frechet(NAT), ExcludeUnionI(), UniversalII(), 10, seed=0)
    u10 = len({point_key(p) for r in grow.rounds for p in r.f})
    ok = u10 == 10 and validate_transcript(grow) == []

    copy2 = product(frechet(NAT), frechet(NAT))
    battery = 0
    for seed in range(50):
        t = play(copy2, CopyStrategyI(), RandomFiniteII(), 50, seed=seed)
        legal = validate_transcript(t) == []
        bound_ok, _problems = copy_column_bound(t)
        replayed = replay_transcript(t) == t
        battery += legal and bound_ok and replayed
    dt = time.perf_counter() - t0
    ok = ok and battery == 50 and dt < 10.0
    _report(
        7,
        ok,
        f"universal game |U|={u10}/10; copy battery {battery}/50 legal, "
        f"column-bounded, replay-identical in {dt:.2f}s (< 10s)",
    )


def test_criterion_08_separator_verdicts():
    d = Prod(NAT)
    inner = filter_family({}, frechet(NAT))
    lim = limit_of(frechet(NAT), SectionwiseFamily(inner, d))
    u = singleton_family(NAT)
    rng = Random(41)

    def random_sections(count):
        out = {}
        for _ in range(count):
            i = rng.randrange(8)
            pts = [NatPt(rng.randrange(9)) for _ in range(rng.randrange(4))]
            out[i] = fin_set(pts, NAT) if rng.random() < 0.5 else cofin_set(pts, NAT)
        return out

    ins = outs = unknowns = 0
    for _ in range(100):
        m = section_family(
            random_sections(rng.randrange(4)),
            cofin_set([NatPt(rng.randrange(6))], NAT),
            d,
        )
        v = separator_verdict(lim, u, inner, m)
        ins += isinstance(v, SepIn)
        unknowns += not isinstance(v, (SepIn, SepOut))
    for _ in range(100):
        a = section_family(
            random_sections(rng.randrange(4)),
            fin_set([NatPt(rng.randrange(6))], NAT),
            d,
        )
        v = separator_verdict(lim, u, inner, a)
        outs += isinstance(v, SepOut)
        unknowns += not isinstance(v, (SepIn, SepOut))
    ok = ins == 100 and outs == 100 and unknowns == 0
    _report(8, ok, f"{ins}/100 members In, {outs}/100 duals Out, {unknowns} Unknown")


def test_criterion_09_interleaving_shadows():
    t0 = time.perf_counter()
    pair = InterleavedPair(1)
    tables = {n: pair.joint_count_table(n, 10) for n in (10**3, 10**4, 10**5)}
    nonempty = all(tables[10**4].get((i, j), 0) > 0 for i in range(10) for j in range(10))
    growing = all(
        tables[10**3].get(p, 0) < tables[10**4].get(p, 0) < tables[10**5].get(p, 0)
        for p in [(i, j) for i in range(10) for j in range(10)]
    )
    shadow = selector_shadow(pair, 10**4, i_max=20, j_max=20)
    selector_ok = shadow.bound_ok and all(hits <= j for j, hits in shadow.e_hits)
    dt = time.perf_counter() - t0
    ok = nonempty and growing and selector_ok and dt < 60.0
    least = min(tables[10**4].get((i, j), 0) for i in range(10) for j in range(10))
    _report(
        9,
        ok,
        f"joint intersections nonempty (least {least} at 1e4), strictly growing "
        f"1e3<1e4<1e5, selector load <= j for j < 20, in {dt:.2f}s (< 60s)",
    )


def test_criterion_10_collapse_limit():
    cl = collapse_limit(1)
    certified = cl.limit.bounds == bounds_of(1, 1)

    # the limit equals the meet of the two sides on all four verdict patterns
    mk = lambda v: CertifiedFilter("mock", NAT, bounds_of(1, 1), "mock", lambda a: v)
    table_ok = True
    for v0, v1, want in [
        (True, True, True),
        (True, False, False),
        (False, True, False),
        (False, False, False),
        (True, None, None),
    ]:
        lim = two_valued_limit(frechet(NAT), cl.h, mk(v0), mk(v1))
        table_ok = table_ok and lim.decide(cofin_set([], NAT)) is want

    rejected = 0
    try:
        collapse_limit(1, base=principal(fin_set([NatPt(0), NatPt(2)], NAT)))
    except PreconditionFailure:
        rejected += 1
    try:
        collapse_limit(
            1,
            h=ProgrammaticSet(lambda p: point_key(p)[0] > 5, 10_000, NAT, "cofinite", "tail"),
        )
    except PreconditionFailure:
        rejected += 1

    # the one-sided pullback is decided by its own side; the meet stays
    # conservative on it (only one component has an exact rule)
    one_sided = PullbackSet(0, full_set(dom_of(katetov(1))))
    probes = (
        cl.limit.decide(cofin_set([NatPt(3)], NAT)) is True
        and cl.limit.decide(fin_set([NatPt(k) for k in range(40)], NAT)) is False
        and cl.parts.g0.decide(one_sided) is True
        and cl.limit.decide(one_sided) is None
    )
    ok = certified and table_ok and rejected == 2 and probes
    _report(
        10,
        ok,
        "preconditions reject deciding bases (2/2), bounds certified [1,1], "
        "meet identity holds on all four mock verdict patterns",
    )


def test_criterion_11_type_gap_example():
    b = rank_type_gap_example()
    d = DSum((), NAT)
    want_witness = section_family({0: full_set(NAT)}, empty_set(NAT), d)
    ok = (
        b.bounds == bounds_of(1, 1)
        and replay_certificate(b.certificate) == b.bounds
        and any(app.rule == "RQH" for app in b.certificate.root.applied)
        and b.ct.level is not None
        and b.ct.level <= 2
        and isinstance(b.diag, DiagYes)
        and b.diag.witness == want_witness
    )
    _report(
        11,
        ok,
        f"rank [1,1] via the section quasi-homomorphism, ct level {b.ct.level} <= 2, "
        "diagonal witness is column 0",
    )


def test_criterion_12_ordinal_engine():
    rng = Random(12)

    def random_ordinal():
        terms = {}
        for _ in range(rng.randrange(4)):
            terms[rng.randrange(5)] = 1 + rng.randrange(7)
        return Ordinal(tuple(sorted(terms.items(), reverse=True)))

    failures = 0
    for _ in range(1000):
        a, b, c = random_ordinal(), random_ordinal(), random_ordinal()
        if ord_add(ord_add(a, b), c) != ord_add(a, ord_add(b, c)):
            failures += 1
        n = ord_of_int(rng.randrange(40))
        x = ord_add(OMEGA, random_ordinal())  # leading exponent >= 1
        if ord_add(n, x) != x:
            failures += 1

    one_omega = ord_add(ONE, OMEGA) == OMEGA and ord_add(OMEGA, ONE) != OMEGA

    # independent model: (q, r) stands for w*q + r, with addition absorbing
    # the finite part whenever the right summand is infinite
    def pair_add(x, y):
        q1, r1 = x
        q2, r2 = y
        return (q1 + q2, r2) if q2 else (q1, r1 + r2)

    def of_pair(x):
        q, r = x
        return ord_add(Ordinal(((1, q),)) if q else Ordinal(()), ord_of_int(r))

    hand = [(q, r) for q in range(3) for r in range(9) if (q, r) <= (2, 0) or q < 2]
    table_ok = True
    for xi in hand:
        for alpha in hand:
            want = of_pair(pair_add(pair_add(xi, (0, 1)), alpha))
            got = ord_add(ord_add(of_pair(xi), ONE), of_pair(alpha))
            table_ok = table_ok and got == want
    ok = failures == 0 and one_omega and table_ok
    _report(
        12,
        ok,
        f"1000 associativity/absorption trials, {failures} failures; 1+w=w; "
        f"xi+1+alpha matches the two-coordinate model on {len(hand)}^2 hand values",
    )
