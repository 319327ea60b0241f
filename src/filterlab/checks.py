"""Named verification suites behind the ``check`` command.

Each suite is a function from (truncation bound, seed) to a list of
CheckResult records.  A suite passes when every record does.  The suites
re-derive their expectations from first principles where possible (cross
models, hand-computed tables, structural invariants) rather than trusting
the code under test.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from random import Random
from typing import Callable, Iterable

from .constructions import (
    InterleavedPair,
    PreconditionFailure,
    PullbackSet,
    ZFamily,
    collapse_limit,
    member_extended,
    programmatic_complement,
    random_tower_member,
    rank_type_gap_example,
    selector_shadow,
    two_valued_limit,
    z_cover_witness,
)
from .domains import (
    NAT,
    UNIT,
    DSum,
    DomainError,
    DomainExpr,
    NatPt,
    Prod,
    enum_point,
    node,
    point_key,
    points_within,
)
from .dsl import (
    ParseError,
    filter_to_source,
    parse_filter,
    parse_program,
    parse_set,
    parse_seq,
    set_to_source,
)
from .filters import (
    DiagYes,
    FilterError,
    IdentityBij,
    SectionwiseFamily,
    TableBij,
    dom_of,
    dual_member,
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
    seq_leaf,
    seq_sections,
)
from .game import (
    CopyStrategyI,
    ExcludeUnionI,
    FreshElementII,
    FullSetI,
    RandomFiniteII,
    SepIn,
    SepOut,
    UniversalII,
    copy_column_bound,
    play,
    replay_transcript,
    separator_verdict,
    singleton_family,
    union_size,
    validate_transcript,
)
from .ordinals import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    omega_pow,
    ord_add,
    ord_of_int,
    ord_str,
)
from .rank import (
    CertifiedFilter,
    bounds_of,
    bounds_text,
    certificate_from_text,
    certificate_text,
    rank_bounds,
    replay_certificate,
)
from .sets import (
    ProgrammaticSet,
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
    set_member,
    set_union,
)

# how many random cases the sampling suites try at every seed
LAW_TRIALS = 500
SUM_LIMIT_SETS = 200
SEPARATOR_SETS = 100
ZFAMILY_SAMPLES = 100
ORDINAL_TRIALS = 1000
# the domains the law batteries and the round trips draw from
LAW_DOMAINS = (NAT, Prod(NAT), Prod(Prod(UNIT)), DSum((Prod(UNIT),), NAT))


@node
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _res(name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(ok), detail)


def _batch(
    name: str, problems: Iterable[str], summary: Callable[[int], str] | None = None
) -> CheckResult:
    """One result for a batch of cases, each "" on a pass or its failure.

    The batch passes when every case does; the detail is the first failure,
    or else summary(number of cases), "n/n" by default.
    """
    cases = list(problems)
    first = next(filter(None, cases), "")
    n = len(cases)
    return CheckResult(name, not first, first or (summary(n) if summary else f"{n}/{n}"))


# ---------------------------------------------------------------------------
# rank engine: tower ranks, sum exactness, limit fixpoint


def check_rank(trunc: int = 10_000, seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []
    for n in range(5):
        b, cert = rank_bounds(katetov(n))
        text = certificate_text(cert)
        replayed = replay_certificate(certificate_from_text(text))
        ok = b == bounds_of(n, n) and replayed == b
        out.append(
            _res(
                f"tower depth {n} ranks at [{n},{n}] and the certificate replays",
                ok,
                bounds_text(b),
            )
        )

    two = fubini_sum(frechet(NAT), {}, katetov(2))
    b2, c2 = rank_bounds(two)
    out.append(
        _res(
            "sum over the cofinite base with depth-2 tail ranks at [3,3]",
            b2 == bounds_of(3, 3)
            and replay_certificate(certificate_from_text(certificate_text(c2))) == b2,
            bounds_text(b2),
        )
    )
    one = fubini_sum(frechet(NAT), {}, katetov(1))
    b1, _ = rank_bounds(one)
    out.append(
        _res(
            "sum over the cofinite base with depth-1 tail ranks at [2,2]",
            b1 == bounds_of(2, 2),
            bounds_text(b1),
        )
    )

    # a limit whose generic upper rule overshoots and whose rank-one-base
    # rule does not: the final bounds must take the smaller ceiling.
    tower = katetov(2)
    fam = filter_family({0: principal(full_set(dom_of(tower)))}, tower)
    lim = limit_of(frechet(NAT), fam)
    b3, c3 = rank_bounds(lim)
    outs = {app.rule: app.output for app in c3.root.applied}
    ok3 = (
        "RLimHi" in outs
        and outs["RLimHi"].hi == ord_of_int(4)
        and "RLimHi1" in outs
        and outs["RLimHi1"].hi == ord_of_int(3)
        and b3.hi == ord_of_int(3)
    )
    out.append(
        _res(
            "limit over a rank-one base keeps ceiling 3 where the generic rule gives 4",
            ok3,
            bounds_text(b3),
        )
    )
    return out


# ---------------------------------------------------------------------------
# filter laws on random triples, one battery per public constructor


def _nonempty_set(d: DomainExpr, seed: int):
    a = gen_random_setexpr(d, 8, seed)
    return full_set(d) if is_empty_set(a) else a


def _law_filter(kind: str, t: int, seed: int):
    rng = Random((seed << 8) ^ t)
    d = LAW_DOMAINS[t % len(LAW_DOMAINS)]
    if kind == "principal":
        return principal(_nonempty_set(d, rng.randrange(1 << 30)))
    if kind == "frechet":
        return frechet([NAT, Prod(UNIT), Prod(NAT)][t % 3])
    if kind == "product":
        inner = [frechet(NAT), katetov(1), principal(cofin_set([NatPt(t % 5)], NAT))]
        return product(_law_base(rng), inner[t % 3])
    if kind == "sum":
        excs = {
            i: _law_member(rng) for i in sorted(rng.sample(range(5), rng.randrange(3)))
        }
        return fubini_sum(_law_base(rng), excs, _law_member(rng))
    if kind == "limit":
        if t % 2:
            fam = SectionwiseFamily(filter_family({}, _law_member(rng)), Prod(NAT))
            return limit_of(_law_base(rng), fam)
        excs = {
            i: _law_member(rng) for i in sorted(rng.sample(range(5), rng.randrange(3)))
        }
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
    if kind == "cylinder":
        comp = [NAT, Prod(UNIT)][t % 2]
        return section_filter(
            t % 4, gen_random_filter(comp, 1, rng.randrange(1 << 30)), Prod(comp)
        )
    raise DomainError(f"unknown constructor battery {kind!r}")


def _law_base(rng: Random):
    roll = rng.random()
    if roll < 0.5:
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


LAW_CONSTRUCTORS = (
    "principal",
    "frechet",
    "product",
    "sum",
    "limit",
    "meet",
    "push",
    "cylinder",
)


def check_laws(trunc: int = 10_000, seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []
    for kind in LAW_CONSTRUCTORS:
        seen: Counter = Counter()

        def trial(t: int) -> str:
            # the filter is proper, and its member a stays one up to a | b
            # and, where b is a member too, down to a & b
            f = _law_filter(kind, t, seed)
            d = dom_of(f)
            rng = Random((seed << 16) ^ (t * 7919 + 11))
            a = gen_random_setexpr(d, 8, rng.randrange(1 << 30))
            if rng.random() < 0.45:
                a = set_complement(a)
            b = gen_random_setexpr(d, 8, rng.randrange(1 << 30))
            if member(f, empty_set(d)):
                return f"empty set accepted at trial {t}"
            in_a = member(f, a)
            in_both = in_a and member(f, b)
            seen.update(members=in_a, meets=in_both)
            if in_a and not member(f, set_union(a, b)):
                return f"upward closure broke at trial {t}"
            if in_both and not member(f, set_intersect(a, b)):
                return f"intersection closure broke at trial {t}"
            return ""

        out.append(
            _batch(
                f"{kind}: laws on {LAW_TRIALS} random triples",
                map(trial, range(LAW_TRIALS)),
                lambda n: f"{seen['members']} members seen, {seen['members']} upward, "
                f"{seen['meets']} meets",
            )
        )
    return out


# ---------------------------------------------------------------------------
# sums against their limit form


def check_fubini_limit(trunc: int = 10_000, seed: int = 0) -> list[CheckResult]:
    shapes = [
        (
            "plain cofinite base and tail",
            fubini_sum(frechet(NAT), {}, frechet(NAT)),
        ),
        (
            "principal base with mixed sections",
            fubini_sum(
                principal(cofin_set([NatPt(0)], NAT)),
                {
                    0: principal(cofin_set([NatPt(1), NatPt(2)], NAT)),
                    3: meet(frechet(NAT), principal(cofin_set([NatPt(0)], NAT))),
                },
                frechet(NAT),
            ),
        ),
    ]
    return [
        _batch(
            f"sum vs limit form, {label}: {SUM_LIMIT_SETS} random sets",
            _disagreements(f, fubini_as_limit(f), seed),
            lambda n: f"{n} agreements",
        )
        for label, f in shapes
    ]


def _disagreements(f, lim, seed: int):
    """Per random set: "" where f and lim agree on it, else the set."""
    for i in range(SUM_LIMIT_SETS):
        a = gen_random_setexpr(dom_of(f), 8, (seed << 12) ^ (i * 131 + 7))
        agree = member(f, a) == member(lim, a)
        yield "" if agree else f"disagreement on sample {i}: {set_to_source(a)}"


# ---------------------------------------------------------------------------
# games: growth, copy-strategy column budget, replay determinism


def check_games(trunc: int = 10_000, seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []

    grow = play(frechet(NAT), ExcludeUnionI(), UniversalII(), 10, seed)
    out.append(
        _res(
            "10 rounds on the cofinite filter, universal player II: union has 10 points",
            union_size(grow) == 10 and replay_transcript(grow) == grow,
            f"|U|={union_size(grow)}",
        )
    )

    fresh = play(frechet(NAT), FullSetI(), FreshElementII(), 10, seed)
    out.append(
        _res(
            "10 rounds against the full-set player, fresh player II: union has 10 points",
            union_size(fresh) == 10,
            f"|U|={union_size(fresh)}",
        )
    )

    grow30 = play(katetov(1), ExcludeUnionI(), UniversalII(), 30, seed)
    out.append(
        _res(
            "30 rounds on the depth-1 tower: union grows one point per round",
            union_size(grow30) == 30,
            f"|U|={union_size(grow30)}",
        )
    )

    # the omega x omega copy of the depth-2 tower; identity embedding
    copy2 = product(frechet(NAT), frechet(NAT))

    def copy_game(s: int) -> str:
        t = play(copy2, CopyStrategyI(), RandomFiniteII(), 50, seed=(seed * 100 + s))
        problems = validate_transcript(t) or copy_column_bound(t)[1]
        if problems:
            return f"seed {s}: {problems[0]}"
        return "" if replay_transcript(t) == t else f"seed {s}: replay drifted"

    out.append(
        _batch(
            "50 copy-strategy games, 50 rounds each: legal, budgeted, replayable",
            map(copy_game, range(50)),
            lambda n: f"{n}/{n} on all three counts",
        )
    )

    pairs = [
        (FullSetI(), RandomFiniteII()),
        (ExcludeUnionI(), RandomFiniteII()),
        (FullSetI(), FreshElementII()),
        (ExcludeUnionI(), UniversalII()),
    ]

    def pair_game(k: int) -> str:
        s_i, s_ii = pairs[k % len(pairs)]
        t = play(frechet(NAT), s_i, s_ii, 8, seed=(seed * 31 + k))
        return "" if replay_transcript(t) == t else f"pair {k} drifted on replay"

    out.append(_batch("20 seeded strategy pairs replay identically", map(pair_game, range(20))))
    return out


# ---------------------------------------------------------------------------
# separator verdicts: members in, dual members out, nothing unknown


def check_separator(trunc: int = 10_000, seed: int = 0) -> list[CheckResult]:
    d = Prod(NAT)
    inner = filter_family({}, frechet(NAT))
    lim = limit_of(frechet(NAT), SectionwiseFamily(inner, d))
    u = singleton_family(NAT)
    rng = Random(seed * 97 + 5)
    # per verdict: what, where, membership test, tail kind, point bound, count bound
    sides = {
        SepIn: ("member", "inside", member, cofin_set, 9, 4),
        SepOut: ("dual member", "outside", dual_member, fin_set, 30, 5),
    }
    verdicts: list = []

    def judged(want: type, i: int) -> str:
        what, _, holds, tail, top, count = sides[want]
        sections = {
            j: gen_random_setexpr(NAT, 8, rng.randrange(1 << 30))
            for j in sorted(rng.sample(range(8), rng.randrange(3)))
        }
        pts = [NatPt(rng.randrange(top)) for _ in range(rng.randrange(count))]
        s = section_family(sections, tail(pts, NAT), d)
        if not holds(lim, s):
            return f"{what} generator produced a non-{what.replace(' ', '-')} at {i}"
        v = separator_verdict(lim, u, inner, s)
        verdicts.append(v)
        return "" if isinstance(v, want) else f"{what} {i} judged {type(v).__name__}"

    out = [
        _batch(
            f"{SEPARATOR_SETS} {what}s all judged {where}",
            (judged(want, i) for i in range(SEPARATOR_SETS)),
        )
        for want, (what, where, *_) in sides.items()
    ]
    unknowns = sum(not isinstance(v, (SepIn, SepOut)) for v in verdicts)
    out.append(_res("no unknown verdicts", unknowns == 0, f"{unknowns} unknown"))
    return out


# ---------------------------------------------------------------------------
# line families: disjoint infinite lines, cover witnesses for tower members


def check_zfamily(trunc: int = 10_000, seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []
    for gamma in (1, 2, 3):
        zf = ZFamily(gamma)
        keysets = [{point_key(zf.line_point(i, j)) for j in range(50)} for i in range(6)]
        disjoint = all(
            not (keysets[i] & keysets[j]) for i in range(6) for j in range(i + 1, 6)
        )
        infinite = all(len(k) == 50 for k in keysets)
        consistent = all(
            zf.line_contains(i, zf.line_point(i, j)) for i in range(6) for j in range(50)
        )
        partition = all(
            zf.line_contains(zf.line_index_of(p), p)
            and sum(zf.line_contains(i, p) for i in range(zf.line_index_of(p) + 3)) == 1
            for p in points_within(zf.domain, 8)
        )
        out.append(
            _res(
                f"depth {gamma}: lines are disjoint, infinite, and partition the domain",
                disjoint and infinite and consistent and partition,
                "first 6 lines, 50 points each",
            )
        )

        def covered(s: int) -> str:
            m = random_tower_member(gamma, seed * 1009 + s)
            if not member(katetov(gamma), m):
                return f"sample {s} is not a tower member"
            w = z_cover_witness(zf, m)
            if w is None:
                return f"sample {s} got no witness"
            missing = {point_key(p) for p in w.missing}
            exact = all(
                set_member(zf.line_point(w.index, j), m)
                == (point_key(zf.line_point(w.index, j)) not in missing)
                for j in range(60)
            )
            return "" if exact else f"sample {s}: witness misses the line trace"

        out.append(
            _batch(
                f"depth {gamma}: {ZFAMILY_SAMPLES} random members carry exact cover witnesses",
                map(covered, range(ZFAMILY_SAMPLES)),
            )
        )
    return out


# ---------------------------------------------------------------------------
# interleaving shadows: joint counts, growth, fairness, selector bound


def check_shadows(trunc: int = 10_000, seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []
    pair = InterleavedPair(1)
    lo, mid, hi = max(trunc // 10, 100), trunc, trunc * 10
    pair.ensure(hi)

    inj = all(
        len({point_key(pair.pi(side, n)) for n in range(mid)}) == mid for side in (0, 1)
    )
    out.append(_res(f"both relabellings injective on the first {mid} stages", inj))

    d = pair.domain
    surj = all(
        pair.index_of(side, enum_point(d, m)) < 3 * (m + 2)
        for side in (0, 1)
        for m in range(500)
    )
    out.append(
        _res(
            "completion stages reach every point: index 3(m+2) covers enum point m",
            surj,
            "first 500 enumeration points, both sides",
        )
    )

    # joint counts of the first 10x10 line pairs at each truncation
    cells = [(i, j) for i in range(10) for j in range(10)]
    tables = {n: pair.joint_count_table(n, 10) for n in (lo, mid, hi)}
    counts = {n: [table.get(c, 0) for c in cells] for n, table in tables.items()}
    nonempty = all(k > 0 for k in counts[mid])
    fair = all(k >= pair.fair_lower_bound(i, j, mid) for (i, j), k in zip(cells, counts[mid]))
    growth = all(a < b < c for a, b, c in zip(counts[lo], counts[mid], counts[hi]))
    least_mid = min(counts[mid])
    out.append(
        _res(
            f"joint meets nonempty for the first 10x10 line pairs at {mid}",
            nonempty,
            f"least count {least_mid}",
        )
    )
    out.append(
        _res(
            "joint counts dominate the sweep-based fair lower bound",
            fair,
            f"bound at (9,9): {pair.fair_lower_bound(9, 9, mid)}",
        )
    )
    out.append(
        _res(
            f"joint counts grow strictly from {lo} through {mid} to {hi}",
            growth,
            f"(0,0): {counts[lo][0]} < {counts[mid][0]} < {counts[hi][0]}",
        )
    )

    shadow = selector_shadow(pair, mid)
    worst = max((h for _, h in shadow.e_hits), default=0)
    out.append(
        _res(
            "selector picks meet each residue class E_j at most j times",
            shadow.bound_ok,
            shadow.problems[0] if shadow.problems else f"largest class load {worst}",
        )
    )
    nontrivial = sum(1 for _, picks in shadow.selectors[:10] if picks)
    out.append(
        _res(
            "selectors below line 10 are nonempty at this truncation",
            nontrivial == 10,
            f"{nontrivial}/10 nonempty",
        )
    )
    return out


# ---------------------------------------------------------------------------
# collapse: certified meet of two relabelled towers as a two-valued limit


def check_collapse(trunc: int = 10_000, seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []
    cl = collapse_limit(1)
    out.append(
        _res(
            "collapsed limit certified at [1,1]",
            cl.limit.bounds == bounds_of(1, 1),
            bounds_text(cl.limit.bounds),
        )
    )
    parts = cl.parts
    out.append(
        _res(
            "each relabelled tower certified at [1,1]",
            parts.g0.bounds == bounds_of(1, 1) and parts.g1.bounds == bounds_of(1, 1),
            f"{bounds_text(parts.g0.bounds)} and {bounds_text(parts.g1.bounds)}",
        )
    )

    tdom = dom_of(katetov(1))
    inside = section_family({0: empty_set(UNIT)}, full_set(UNIT), tdom)
    outside = section_family({}, empty_set(UNIT), tdom)
    probes = [
        (cofin_set([NatPt(3)], NAT), True),
        (fin_set([NatPt(i) for i in range(40)], NAT), False),
        (PullbackSet(0, inside), None),
        (PullbackSet(1, outside), False),
    ]
    verdicts_ok = all(cl.limit.decide(a) is v for a, v in probes)
    out.append(
        _res(
            "limit decides cofinite, finite, and pullback probes correctly",
            verdicts_ok
            and parts.g0.decide(PullbackSet(0, inside)) is True
            and parts.g1.decide(PullbackSet(1, outside)) is False,
            "4 probe sets",
        )
    )

    def mock(name: str, verdict) -> CertifiedFilter:
        return CertifiedFilter(
            name, NAT, bounds_of(1, 1), "fixed-verdict stand-in", lambda a, v=verdict: v
        )

    table = [
        (True, True, True),
        (True, False, False),
        (False, True, False),
        (False, False, False),
        (True, None, None),
    ]
    combos_ok = all(
        two_valued_limit(frechet(NAT), cl.h, mock("u", u), mock("v", v)).decide(object())
        is expect
        for u, v, expect in table
    )
    out.append(
        _res(
            "two-valued limit agrees with the meet on all four verdict pairs",
            combos_ok,
            "plus one undecided pair",
        )
    )

    def rejected(**decided) -> str:
        try:
            collapse_limit(1, **decided)
        except PreconditionFailure as e:
            return "" if e.verdict is True else f"{', '.join(decided)}: {e}"
        return f"{', '.join(decided)}: a limit was built"

    tail3 = ProgrammaticSet(lambda p: point_key(p)[0] >= 3, trunc, NAT, "cofinite", "tail from 3")
    out.append(
        _batch(
            "decided splitting sets are rejected before any limit is built",
            [rejected(base=principal(fin_set([NatPt(0), NatPt(2)], NAT))), rejected(h=tail3)],
            lambda n: f"{n}/{n} rejections",
        )
    )

    evens = cl.h
    odd = programmatic_complement(evens)
    out.append(
        _res(
            "default splitting set is undecided by the cofinite base",
            not member_extended(cl.base, evens) and not member_extended(cl.base, odd),
            "both halves fall outside",
        )
    )
    return out


# ---------------------------------------------------------------------------
# the rank-one, type-two worked example


def check_type_gap(trunc: int = 10_000, seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []
    bundle = rank_type_gap_example()
    replayed = replay_certificate(
        certificate_from_text(certificate_text(bundle.certificate))
    )
    out.append(
        _res(
            "example ranks at [1,1] with a replayable certificate",
            bundle.bounds == bounds_of(1, 1) and replayed == bundle.bounds,
            bounds_text(bundle.bounds),
        )
    )
    out.append(
        _res(
            "countable type bounded by 2",
            bundle.ct.level is not None and bundle.ct.level <= 2,
            f"level {bundle.ct.level}",
        )
    )

    d = dom_of(bundle.filt)
    expected = section_family({0: full_set(NAT)}, empty_set(NAT), d)
    is_yes = isinstance(bundle.diag, DiagYes)
    out.append(
        _res(
            "diagonalization witness is the first column",
            is_yes and bundle.diag.witness == expected,
            "witness {0} x all naturals" if is_yes else type(bundle.diag).__name__,
        )
    )

    rng = Random(seed * 11 + 3)
    almost = True
    if is_yes:
        w = bundle.diag.witness
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
            almost = almost and member(bundle.filt, m) and finite_points(leftover) is not None
    out.append(
        _res(
            "witness sits almost inside random members",
            is_yes and almost,
            "3 random members, finite leftovers",
        )
    )

    samples = [
        (section_family({}, cofin_set((), NAT), d), True),
        (
            section_family(
                {2: cofin_set([NatPt(0)], NAT)}, cofin_set([NatPt(5)], NAT), d
            ),
            True,
        ),
        (section_family({5: fin_set([NatPt(1)], NAT)}, cofin_set((), NAT), d), False),
        (section_family({}, empty_set(NAT), d), False),
    ]
    agree = all(
        member(bundle.filt, a) is v and member(bundle.limit_form, a) is v
        for a, v in samples
    )
    out.append(
        _res(
            "sum form and limit form agree on the probe sets",
            agree,
            "4 probes, both directions",
        )
    )
    return out


# ---------------------------------------------------------------------------
# ordinal arithmetic against an independent small-ordinal model


def _random_ordinal(rng: Random) -> Ordinal:
    if rng.random() < 0.15:
        return ZERO
    exps = sorted(rng.sample(range(5), rng.randrange(1, 4)), reverse=True)
    return Ordinal(tuple((e, rng.randrange(1, 8)) for e in exps))


def _pair_of(a: Ordinal) -> tuple[int, int]:
    """(q, r) with value omega*q + r; only sound below omega^2."""
    q = r = 0
    for e, c in a.terms:
        if e > 1:
            raise DomainError("pair model only covers ordinals below omega^2")
        if e == 1:
            q = c
        else:
            r = c
    return q, r


def _pair_add(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return (x[0] + y[0], y[1]) if y[0] else (x[0], x[1] + y[1])


def _of_pair(x: tuple[int, int]) -> Ordinal:
    terms = []
    if x[0]:
        terms.append((1, x[0]))
    if x[1]:
        terms.append((0, x[1]))
    return Ordinal(tuple(terms))


def check_ordinals(trunc: int = 10_000, seed: int = 0) -> list[CheckResult]:
    rng = Random(seed * 101 + 13)

    def trial() -> tuple[str, str]:
        a, b, c = (_random_ordinal(rng) for _ in range(3))
        n = ord_of_int(rng.randrange(50))
        infinite = ord_add(omega_pow(rng.randrange(1, 4)), _random_ordinal(rng))
        assoc = ord_add(ord_add(a, b), c) == ord_add(a, ord_add(b, c))
        absorbed = ord_add(n, infinite) == infinite
        return (
            "" if assoc else f"({a} + {b}) + {c} differs from {a} + ({b} + {c})",
            "" if absorbed else f"{n} + {infinite} differs from {infinite}",
        )

    assoc, absorb = zip(*(trial() for _ in range(ORDINAL_TRIALS)))
    out = [
        _batch(f"{ORDINAL_TRIALS} random sums associate", assoc),
        _batch(f"{ORDINAL_TRIALS} finite heads absorbed by infinite tails", absorb),
    ]
    out.append(
        _res(
            "1 + omega collapses to omega",
            ord_add(ONE, OMEGA) == OMEGA and ord_add(OMEGA, ONE) != OMEGA,
            ord_str(ord_add(ONE, OMEGA)),
        )
    )

    small = [ord_of_int(k) for k in range(5)]
    small += [ord_add(OMEGA, ord_of_int(k)) for k in range(5)]
    small.append(omega_pow(1, 2))

    def off_model(xi: Ordinal, alpha: Ordinal) -> str:
        got = ord_add(ord_add(xi, ONE), alpha)
        want = _of_pair(_pair_add(_pair_add(_pair_of(xi), (0, 1)), _pair_of(alpha)))
        return "" if got == want else f"{xi} + 1 + {alpha} is {got}, the model gives {want}"

    out.append(
        _batch(
            "xi + 1 + alpha matches the two-coordinate model up to omega*2",
            (off_model(xi, alpha) for xi in small for alpha in small),
            lambda n: f"{n}/{n} pairs",
        )
    )
    out.append(
        _res(
            "comparison is a total order on the sample",
            all(a <= b or b <= a for a in small for b in small),
            f"{len(small)} ordinals",
        )
    )
    return out


# ---------------------------------------------------------------------------
# source round-trips through the expression language


def _random_seq(d: DomainExpr, rng: Random):
    def leaf(dom: DomainExpr):
        pts = [enum_point(dom, rng.randrange(12)) for _ in range(rng.randrange(4))]
        entries = {
            p: Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for p in pts
        }
        return seq_leaf(entries, Fraction(rng.randrange(-3, 4)), dom)

    if isinstance(d, Prod):
        excs = {
            i: leaf(d.inner) for i in sorted(rng.sample(range(5), rng.randrange(3)))
        }
        return seq_sections(excs, leaf(d.inner), d)
    return leaf(d)


def _round_trips(what: str, values: Iterable, show: Callable, parse: Callable):
    """Per value: "" where parse reads its printed source back as the value,
    else that source."""
    for i, v in enumerate(values):
        src = show(v)
        yield "" if parse(src) == v else f"{what} {i}: {src}"


def check_dsl(trunc: int = 10_000, seed: int = 0) -> list[CheckResult]:
    doms = LAW_DOMAINS
    filters = (gen_random_filter(doms[i % len(doms)], 2, seed * 131 + i) for i in range(120))
    sets = (gen_random_setexpr(doms[i % len(doms)], 8, seed * 733 + i) for i in range(60))
    rng = Random(seed * 977 + 1)
    seqs = (_random_seq([NAT, Prod(NAT)][i % 2], rng) for i in range(20))
    out = [
        _batch(
            "120 random filters survive print and reparse",
            _round_trips("filter", filters, filter_to_source, parse_filter),
        ),
        _batch(
            "60 random sets survive print and reparse",
            _round_trips("set", sets, set_to_source, parse_set),
        ),
        _batch(
            "20 random sequences survive print and reparse",
            _round_trips("sequence", seqs, set_to_source, parse_seq),
        ),
    ]

    positioned = 0
    for src in ("fin{1,2,}", "cofin{", "sections({0: fin{1}}, )"):
        try:
            parse_set(src)
        except ParseError as e:
            positioned += e.line == 1 and e.col >= 1
    for src in ("nosuch", "meet(frechet)", "fubini(frechet, family({0: frechet, 0: frechet}, frechet))"):
        try:
            parse_filter(src)
        except ParseError as e:
            positioned += e.line == 1 and e.col >= 1
    out.append(
        _res(
            "malformed sources raise positioned parse errors",
            positioned == 6,
            f"{positioned}/6 carried line and column",
        )
    )

    kind, value = parse_program("t = katetov(2)\nmeet(t, t)")
    out.append(
        _res(
            "bindings resolve inside programs",
            kind == "filter" and value == meet(katetov(2), katetov(2)),
            kind,
        )
    )
    return out


# ---------------------------------------------------------------------------
# registry


SUITES: dict[str, Callable[..., list[CheckResult]]] = {
    "rank": check_rank,
    "laws": check_laws,
    "fubini-limit": check_fubini_limit,
    "games": check_games,
    "separator": check_separator,
    "zfamily": check_zfamily,
    "shadows": check_shadows,
    "collapse": check_collapse,
    "type-gap": check_type_gap,
    "ordinals": check_ordinals,
    "dsl": check_dsl,
}


def suite_names() -> list[str]:
    return list(SUITES)


def run_suite(name: str, trunc: int = 10_000, seed: int = 0) -> list[CheckResult]:
    if name not in SUITES:
        raise FilterError(
            f"unknown suite {name!r}; available: {', '.join(suite_names())}"
        )
    return SUITES[name](trunc, seed)
