"""Concrete rank-collapse machinery and worked regression bundles.

This module packages the constructions the rest of the library only talks
about abstractly: disjoint line families inside tower domains, streaming
interleaving bijections with a fair allocation schedule, the pair of
relabelled tower copies whose meet collapses to rank one, the two-valued
limit built from such a pair, and a small worked example showing rank and
countable type coming apart.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from random import Random
from typing import Callable

from .domains import (
    DSum,
    DomainError,
    DomainExpr,
    FilterLabError,
    NAT,
    NatPt,
    Point,
    UNIT,
    UNIT_PT,
    cantor_pair,
    cantor_unpair,
    check_point,
    fresh_index,
    index_of_tuple,
    node,
    point_from_key,
    point_key,
    tuple_of_index,
)
from .dsl import point_to_source
from .filters import (
    FilterError,
    FilterExpr,
    Frechet,
    IntoSectionMap,
    Principal,
    Pushforward,
    RepeatedSectionwiseFamily,
    UnsupportedPreimage,
    dom_of,
    filter_family,
    frechet,
    fubini_sum,
    is_diagonalizable,
    katetov,
    limit_of,
    member,
    principal,
)
from .ordinals import ONE, ZERO
from .rank import (
    CertifiedFilter,
    QHWitness,
    RankBounds,
    RankCertificate,
    bounds_of,
    ct_bound,
    CtBound,
    min_hi,
    rank_bounds,
)
from .sets import (
    ProgrammaticSet,
    SectionFamily,
    SetExpr,
    CofinSet,
    FinSet,
    cofin_set,
    cofinite_excluded,
    empty_set,
    fin_set,
    finite_points,
    full_set,
    section,
    section_family,
    set_complement,
)


class PreconditionFailure(FilterLabError):
    """A construction precondition failed; carries the offending verdict."""

    def __init__(self, condition: str, verdict: bool) -> None:
        super().__init__(f"{condition} (membership verdict: {verdict})")
        self.condition = condition
        self.verdict = verdict


# ---------------------------------------------------------------------------
# disjoint line families inside tower domains


@node
class ZFamily:
    """Pairwise disjoint infinite lines covering the depth-gamma tower domain.

    For gamma >= 2 line i is the innermost line: all points sharing the i-th
    coordinate prefix (in the canonical enumeration of prefix tuples) and
    varying the last coordinate.  For gamma = 1 the domain is linear, and
    line i is the i-th residue class of the pairing function.
    """

    gamma: int

    def __post_init__(self) -> None:
        if self.gamma < 1:
            raise DomainError("line families need depth at least 1")

    @cached_property
    def domain(self) -> DomainExpr:
        return dom_of(katetov(self.gamma))

    def prefix(self, i: int) -> tuple[int, ...]:
        if self.gamma == 1:
            return ()
        return tuple_of_index(i, self.gamma - 1)

    def line_key(self, i: int, j: int) -> tuple[int, ...]:
        """Coordinate key of the j-th point of line i."""
        if self.gamma == 1:
            return (cantor_pair(i, j),)
        return self.prefix(i) + (j,)

    def line_of_key(self, key: tuple[int, ...]) -> int:
        """The unique line through the point with this key."""
        if self.gamma == 1:
            return cantor_unpair(key[0])[0]
        return index_of_tuple(key[: self.gamma - 1])

    def line_point(self, i: int, j: int) -> Point:
        return point_from_key(self.domain, self.line_key(i, j))

    def line_contains(self, i: int, p: Point) -> bool:
        return self.line_index_of(p) == i

    def line_index_of(self, p: Point) -> int:
        """The unique line through p."""
        return self.line_of_key(point_key(p))


@node
class ZCoverWitness:
    """A line whose part outside the witnessed member is finite."""

    index: int
    prefix: tuple[int, ...]
    missing: tuple[Point, ...]


def z_cover_witness(zf: ZFamily, m: SetExpr) -> ZCoverWitness | None:
    """Find a line almost contained in m, exactly.

    Every member of the depth-gamma tower filter admits one; the walk picks
    the least coordinate chain whose innermost section is cofinite.  Returns
    None when no line works (in particular for non-members with all lines
    escaping infinitely often).
    """
    if m.domain != zf.domain:
        raise DomainError("witness search needs a set over the family's domain")
    if zf.gamma == 1:
        exc = cofinite_excluded(m)
        if exc is None:
            return None
        missing = tuple(p for p in exc if zf.line_contains(0, p))
        return ZCoverWitness(0, (), missing)
    found = _cofinite_chain(m, zf.gamma)
    if found is None:
        return None
    prefix, innermost = found
    excluded = cofinite_excluded(innermost) or ()
    missing = tuple(
        point_from_key(zf.domain, prefix + point_key(p)) for p in excluded
    )
    return ZCoverWitness(index_of_tuple(prefix), prefix, missing)


def _cofinite_chain(
    m: SetExpr, level: int
) -> tuple[tuple[int, ...], SetExpr] | None:
    """Least coordinate chain of m reaching a cofinite innermost section."""
    if level == 1:
        return ((), m) if cofinite_excluded(m) is not None else None
    if not isinstance(m, SectionFamily):
        return None
    for j in range(fresh_index(m.keys) + 2):
        rest = _cofinite_chain(section(m, j), level - 1)
        if rest is not None:
            return ((j,) + rest[0], rest[1])
    return None


def random_tower_member(gamma: int, seed: int) -> SetExpr:
    """A deterministic random member of the depth-gamma tower filter."""
    if gamma < 0:
        raise DomainError("tower depth must be a natural")
    return _random_member(gamma, Random(seed))


def _random_member(level: int, rng: Random) -> SetExpr:
    if level == 0:
        return fin_set((UNIT_PT,), UNIT)
    d = dom_of(katetov(level))
    sub = dom_of(katetov(level - 1))
    tail = _random_member(level - 1, rng)
    excs: dict[int, SetExpr] = {}
    for _ in range(rng.randrange(0, 4)):
        j = rng.randrange(0, 8)
        roll = rng.random()
        if roll < 0.4:
            excs[j] = empty_set(sub)
        elif roll < 0.7:
            excs[j] = _random_member(level - 1, rng)
        else:
            excs[j] = full_set(sub)
    return section_family(excs, tail, d)


# ---------------------------------------------------------------------------
# streaming interleaving bijections


def _round_start(r: int) -> int:
    # regular stages consumed by full sweeps 0..r-1; sweep r' visits the
    # (r'+1) x (r'+1) grid of line pairs once, row-major
    return r * (r + 1) * (2 * r + 1) // 6


def _round_pair(t: int) -> tuple[int, int]:
    """Line pair visited by the t-th regular stage."""
    r = 0
    while _round_start(r + 1) <= t:
        r += 1
    offset = t - _round_start(r)
    return offset // (r + 1), offset % (r + 1)


class InterleavedPair:
    """Two streaming bijections from the naturals onto a tower domain.

    Stages allocate one fresh natural each.  A regular stage serves one line
    pair (i, j) of the current sweep: side 0 receives the next unused point
    of line i, side 1 the next unused point of line j, so that natural lands
    in the preimage of both lines at once.  Every third stage instead
    allocates the least globally unused point on each side, which forces
    surjectivity.  Sweeps enumerate ever-larger square grids of pairs, so
    every pair is served at infinitely many stages.

    Memo tables hold one coordinate key per stage and side and grow on
    demand; pi builds a Point only when asked.  An instance needs exclusive
    access.
    """

    def __init__(self, alpha: int) -> None:
        if alpha < 1:
            raise DomainError("interleaving needs tower depth at least 1")
        self.alpha = alpha
        self.zfamily = ZFamily(alpha)
        self.domain = self.zfamily.domain
        # key of the point each stage allocated, and its inverse, per side
        self._points: tuple[list, list] = ([], [])
        self._inv: tuple[dict, dict] = ({}, {})
        # line index of the point each stage allocated, per side
        self._lines: tuple[list[int], list[int]] = ([], [])
        self._line_pos: tuple[dict[int, int], dict[int, int]] = ({}, {})
        self._enum_pos = [0, 0]
        # row-major cursor into the current sweep's grid; after t regular
        # stages it must equal _round_pair(t)
        self._sweep = 0
        self._sweep_pair = (0, 0)

    def _next_line_key(self, side: int, i: int) -> tuple[int, ...]:
        j = self._line_pos[side].get(i, 0)
        while (key := self.zfamily.line_key(i, j)) in self._inv[side]:
            j += 1
        self._line_pos[side][i] = j + 1
        return key

    def _next_enum_key(self, side: int) -> tuple[int, ...]:
        # the m-th point of the tower domain has the m-th alpha-tuple as key
        m = self._enum_pos[side]
        while (key := tuple_of_index(m, self.alpha)) in self._inv[side]:
            m += 1
        self._enum_pos[side] = m + 1
        return key

    def _advance(self) -> None:
        g = len(self._points[0])
        if g % 3 == 2:
            keys = (self._next_enum_key(0), self._next_enum_key(1))
            lines = tuple(map(self.zfamily.line_of_key, keys))
        else:
            i, j = self._sweep_pair
            if j + 1 <= self._sweep:
                self._sweep_pair = (i, j + 1)
            elif i + 1 <= self._sweep:
                self._sweep_pair = (i + 1, 0)
            else:
                self._sweep += 1
                self._sweep_pair = (0, 0)
            keys = (self._next_line_key(0, i), self._next_line_key(1, j))
            lines = (i, j)
        for side, key in enumerate(keys):
            self._points[side].append(key)
            self._lines[side].append(lines[side])
            self._inv[side][key] = g

    def ensure(self, n: int) -> None:
        """Allocate through stage n-1."""
        while len(self._points[0]) < n:
            self._advance()

    def pi(self, side: int, n: int) -> Point:
        if side not in (0, 1):
            raise DomainError("side must be 0 or 1")
        if n < 0:
            raise DomainError("stage must be a natural")
        self.ensure(n + 1)
        return point_from_key(self.domain, self._points[side][n])

    def index_of(self, side: int, p: Point) -> int:
        """The stage at which p was allocated on the given side.

        Completion stages allocate the least unused point every third stage,
        so the point with enumeration index m appears by stage 3(m+2).
        """
        check_point(p, self.domain)
        key = point_key(p)
        if key not in self._inv[side]:
            self.ensure(3 * (index_of_tuple(key) + 2))
        return self._inv[side][key]

    def stage_lines(self, side: int, trunc: int) -> list[int]:
        """The line through the point allocated at each stage below trunc."""
        self.ensure(trunc)
        return self._lines[side][:trunc]

    def preimage_indices(self, side: int, i: int, trunc: int) -> list[int]:
        return [n for n, k in enumerate(self.stage_lines(side, trunc)) if k == i]

    def joint_count_table(self, trunc: int, lines: int) -> dict[tuple[int, int], int]:
        """(i, j) -> naturals below trunc on line i at side 0 and j at side 1, for i, j < lines."""
        counts: dict[tuple[int, int], int] = {}
        for i, j in zip(self.stage_lines(0, trunc), self.stage_lines(1, trunc)):
            if i < lines and j < lines:
                counts[(i, j)] = counts.get((i, j), 0) + 1
        return counts

    def sweeps_completed(self, trunc: int) -> int:
        """Full pair sweeps finished within the first trunc stages."""
        regs = trunc - trunc // 3  # every third stage is a completion stage
        r = 0
        while _round_start(r + 1) <= regs:
            r += 1
        return r

    def fair_lower_bound(self, i: int, j: int, trunc: int) -> int:
        """A guaranteed lower bound on the joint count of lines i, j below trunc.

        Pair (i, j) is served once per completed sweep from sweep max(i, j)
        on, and a served stage always lands in both preimages.
        """
        return max(0, self.sweeps_completed(trunc) - max(i, j))


@node
class BlockInterleaveBij:
    """One side of an interleaved pair, viewed as a bijection onto omega.

    It sends the tower-domain point allocated at stage n to the natural n.
    The graph is streamed, never closed-form, so set-level image and
    preimage queries are refused rather than truncated.
    """

    pair: InterleavedPair
    side: int

    def source_domain(self) -> DomainExpr:
        return self.pair.domain

    def target_domain(self) -> DomainExpr:
        return NAT

    def apply(self, p: Point) -> Point:
        return NatPt(self.pair.index_of(self.side, p))

    def unapply(self, q: Point) -> Point:
        if not isinstance(q, NatPt):
            raise DomainError("expected a natural")
        return self.pair.pi(self.side, q.n)

    def image_set(self, a: SetExpr) -> SetExpr:
        raise UnsupportedPreimage(
            "no closed form for set images under a streaming interleaving"
        )

    def preimage_set(self, a: SetExpr) -> SetExpr:
        raise UnsupportedPreimage(
            "no closed form for set preimages under a streaming interleaving"
        )


# ---------------------------------------------------------------------------
# the collapse pair


@node
class PullbackSet:
    """{n : pi_side(n) in inner} for a symbolic inner set.

    This is the registered sublanguage on which the collapse oracles answer
    exactly: pushing the set forward along the matching side recovers inner
    itself, so membership reduces to a tower membership query.
    """

    side: int
    inner: SetExpr


@node
class CollapsePair:
    alpha: int
    pair: InterleavedPair
    g0: CertifiedFilter
    g1: CertifiedFilter
    meet: CertifiedFilter
    push0: FilterExpr
    push1: FilterExpr


def _meet_oracle(g0: CertifiedFilter, g1: CertifiedFilter) -> Callable[[object], bool | None]:
    """Three-valued AND of two certified oracles: the meet of two filters."""

    def decide(a: object) -> bool | None:
        u, v = g0.decide(a), g1.decide(a)
        if u is False or v is False:
            return False
        if u is True and v is True:
            return True
        return None

    return decide


def collapse_pair(alpha: int) -> CollapsePair:
    """Two certified relabelled copies of the depth-alpha tower whose meet
    carries certified bounds [1,1].

    Each side's bounds are computed by the rank engine on the pushforward
    expression (a bijective relabelling preserves rank); the meet's upper
    bound rests on the finite-selector argument, recorded as provenance and
    shadowed at finite truncations by selector_shadow.
    """
    pair = InterleavedPair(alpha)
    tower = katetov(alpha)
    push0 = Pushforward(BlockInterleaveBij(pair, 0), tower)
    push1 = Pushforward(BlockInterleaveBij(pair, 1), tower)
    b0, _ = rank_bounds(push0)
    b1, _ = rank_bounds(push1)

    def oracle(side: int) -> Callable[[object], bool | None]:
        def decide(a: object) -> bool | None:
            if isinstance(a, PullbackSet):
                if a.side == side:
                    return member(tower, a.inner)
                return None
            if isinstance(a, (FinSet, CofinSet)):
                return a.tail_holds
            return None

        return decide

    copy_note = (
        f"bijective relabelling of the depth-{alpha} tower; "
        "bounds from the rank engine on the pushforward expression"
    )
    g0 = CertifiedFilter("G0", NAT, b0, copy_note, oracle(0))
    g1 = CertifiedFilter("G1", NAT, b1, copy_note, oracle(1))

    meet = CertifiedFilter(
        "G0&G1",
        NAT,
        bounds_of(1, 1),
        "meet of the interleaved pair: free because both sides are free, and "
        "the finite-selector argument caps its rank at one",
        _meet_oracle(g0, g1),
    )
    return CollapsePair(alpha, pair, g0, g1, meet, push0, push1)


# ---------------------------------------------------------------------------
# the selector shadow


@node
class SelectorShadow:
    """Finite-truncation shadow of the selector argument.

    selectors[i] picks, for every residue class E_j with j > i that meets
    the side-1 preimage of line i below trunc, the least such natural.  Each
    class E_j can then meet the union of selectors at most j times.
    """

    trunc: int
    selectors: tuple[tuple[int, tuple[int, ...]], ...]
    e_hits: tuple[tuple[int, int], ...]
    bound_ok: bool
    problems: tuple[str, ...]


def selector_shadow(
    pair: InterleavedPair, trunc: int, i_max: int = 20, j_max: int = 20
) -> SelectorShadow:
    # cells[i][j]: the least n below trunc in E_j and the side-1 preimage of line i
    cells: list[dict[int, int]] = [{} for _ in range(i_max)]
    for n, i in enumerate(pair.stage_lines(1, trunc)):
        if i < i_max:
            j = cantor_unpair(n)[0]
            if j > i:
                cells[i].setdefault(j, n)
    selectors: list[tuple[int, tuple[int, ...]]] = []
    union: set[int] = set()
    for i, row in enumerate(cells):
        picks = tuple(sorted(row.values()))
        selectors.append((i, picks))
        union.update(picks)
    classes = Counter(cantor_unpair(n)[0] for n in union)
    e_hits: list[tuple[int, int]] = []
    problems: list[str] = []
    for j in range(j_max):
        hits = classes[j]
        e_hits.append((j, hits))
        if hits > j:
            problems.append(f"class E{j} meets the selector union {hits} > {j} times")
    return SelectorShadow(trunc, tuple(selectors), tuple(e_hits), not problems, tuple(problems))


# ---------------------------------------------------------------------------
# programmatic membership and the two-valued limit


def member_extended(f: FilterExpr, a: SetExpr | ProgrammaticSet) -> bool:
    """Membership extended to programmatic sets where an exact rule exists."""
    if isinstance(a, SetExpr):
        return member(f, a)
    if not isinstance(a, ProgrammaticSet):
        raise FilterError(f"not a set: {a!r}")
    if isinstance(f, Principal):
        pts = finite_points(f.core)
        if pts is None:
            raise FilterError(
                "programmatic membership under a principal filter needs a finite core"
            )
        return all(a.predicate(p) for p in pts)
    if isinstance(f, Frechet):
        if a.frechet_class == "cofinite":
            return True
        if a.frechet_class in ("finite", "neither"):
            return False
        raise FilterError("programmatic set carries no registered classification")
    raise FilterError(
        f"no exact programmatic membership rule for {type(f).__name__}"
    )


def programmatic_complement(a: ProgrammaticSet) -> ProgrammaticSet:
    flip = {"finite": "cofinite", "cofinite": "finite", "neither": "neither"}
    cls = flip.get(a.frechet_class) if a.frechet_class else None
    label = f"complement of {a.label}" if a.label else ""
    return ProgrammaticSet(
        lambda p: not a.predicate(p), a.truncation_bound, a.domain, cls, label
    )


def even_splitter() -> ProgrammaticSet:
    return ProgrammaticSet(
        lambda p: point_key(p)[0] % 2 == 0, 10_000, NAT, "neither", "evens"
    )


def two_valued_limit(
    base: FilterExpr,
    h: SetExpr | ProgrammaticSet,
    g0: CertifiedFilter,
    g1: CertifiedFilter,
    bounds: RankBounds | None = None,
) -> CertifiedFilter:
    """The limit of the family that plays g0 on h and g1 off h.

    Requires that base decides neither h nor its complement; then the
    verdict set of any candidate is one of the four block patterns and the
    limit coincides with the meet of g0 and g1.
    """
    if g0.domain != g1.domain:
        raise FilterError("both limit values must live on the same domain")
    if member_extended(base, h):
        raise PreconditionFailure(
            "the splitting set belongs to the base filter", True
        )
    hc = set_complement(h) if isinstance(h, SetExpr) else programmatic_complement(h)
    if member_extended(base, hc):
        raise PreconditionFailure(
            "the complement of the splitting set belongs to the base filter", True
        )

    if bounds is None:
        both_free = ONE <= min(g0.bounds.lo, g1.bounds.lo)
        bounds = RankBounds(ONE if both_free else ZERO, min_hi(g0.bounds, g1.bounds))
    return CertifiedFilter(
        f"limit({g0.name},{g1.name})",
        g0.domain,
        bounds,
        "two-valued limit: equals the meet of its two values because the "
        "base filter decides neither block",
        _meet_oracle(g0, g1),
    )


@node
class CollapseLimit:
    limit: CertifiedFilter
    parts: CollapsePair
    base: FilterExpr
    h: SetExpr | ProgrammaticSet


def collapse_limit(
    alpha: int,
    base: FilterExpr | None = None,
    h: SetExpr | ProgrammaticSet | None = None,
) -> CollapseLimit:
    """The two-valued limit over a collapse pair, certified at [1,1]."""
    cp = collapse_pair(alpha)
    base = frechet(NAT) if base is None else base
    h = even_splitter() if h is None else h
    lim = two_valued_limit(base, h, cp.g0, cp.g1, bounds=cp.meet.bounds)
    return CollapseLimit(lim, cp, base, h)


# ---------------------------------------------------------------------------
# a worked example: rank one, countable type two


@node
class TypeGapBundle:
    filt: FilterExpr
    bounds: RankBounds
    certificate: RankCertificate
    ct: CtBound
    diag: object
    limit_form: FilterExpr
    commentary: str


def rank_type_gap_example() -> TypeGapBundle:
    """The all-sections-cofinite filter: rank one yet countable type two.

    The filter demands every section be cofinite.  A single section map is a
    quasi-homomorphism from the cofinite filter, pinning the rank at one,
    while the cheapest limit presentation repeats the section filters, so
    the countable-type bound stays at two.
    """
    dom = DSum((), NAT)
    filt = fubini_sum(principal(full_set(NAT)), {}, frechet(NAT))
    samples = (
        full_set(dom),
        section_family({0: cofin_set([NatPt(5)], NAT)}, cofin_set((), NAT), dom),
        section_family(
            {2: cofin_set([NatPt(0), NatPt(1)], NAT)},
            cofin_set([NatPt(7)], NAT),
            dom,
        ),
    )
    witness = QHWitness(frechet(NAT), IntoSectionMap(dom, 0), samples)
    bounds, cert = rank_bounds(filt, witnesses=(witness,))
    ct = ct_bound(filt)
    diag = is_diagonalizable(filt)
    limit_form = limit_of(
        frechet(NAT), RepeatedSectionwiseFamily(filter_family({}, frechet(NAT)), dom)
    )
    commentary = (
        "The countable type is exactly two: a level-one presentation would "
        "make this a filter of countable type one, and every such filter on "
        "this domain either fails to be free or is a finite-exception "
        "relabelling of the depth-one tower, which this filter is not.  "
        "That argument is recorded here and deliberately left unchecked; "
        "the library certifies only the upper bound."
    )
    return TypeGapBundle(filt, bounds, cert, ct, diag, limit_form, commentary)


# ---------------------------------------------------------------------------
# plain-text truncation grids


def z_family_grid(zf: ZFamily, lines: int, per_line: int) -> list[str]:
    """One line per index, members listed in order."""
    rows = []
    for i in range(lines):
        pts = " ".join(point_to_source(zf.line_point(i, j)) for j in range(per_line))
        rows.append(f"Z{i}: {pts}")
    return rows


def preimage_grid(pair: InterleavedPair, side: int, lines: int, trunc: int) -> list[str]:
    """One line per index: the first 12 naturals below trunc in its preimage."""
    rows = []
    for i in range(lines):
        ns = pair.preimage_indices(side, i, trunc)[:12]
        rows.append(f"Z{i}: {' '.join(str(n) for n in ns)}")
    return rows


def selector_grid(shadow: SelectorShadow) -> list[str]:
    rows = [f"S{i}: {' '.join(str(n) for n in picks)}" for i, picks in shadow.selectors]
    rows.append(
        "E-hits: " + " ".join(f"{j}:{h}" for j, h in shadow.e_hits)
    )
    return rows
