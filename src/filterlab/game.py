"""Finite-horizon simulator for the covering game on a filter.

Player I names a member C_n of the filter, player II answers with a finite
subset F_n of C_n.  Whether the accumulated union lands in the dual is a
property of infinite play, so the engine only records legal finite
transcripts and checks per-round invariants; no winner is ever declared.

A strategy is a name with no settings, so a transcript's filter, strategy
names, round count and seed replay it.  start binds a strategy to one game
and returns its move; play holds one GameState, extends it in place after
every round and calls each move once per round, in order, so a move may be
built on the one before.
"""

from __future__ import annotations

from random import Random
from typing import Callable, Iterable, Sequence

from .domains import (
    DomainError,
    DomainExpr,
    FilterLabError,
    NatPt,
    Point,
    component,
    enum_point,
    fresh_index,
    is_indexed,
    is_linear_domain,
    make_point,
    node,
    point_in_domain,
    point_index,
    point_key,
    tail_component,
)
from .filters import (
    FilterExpr,
    FilterFamily,
    dom_of,
    member,
)
from .sets import (
    CofinSet,
    FinSet,
    SetExpr,
    empty_set,
    exception_keys,
    first_point,
    full_set,
    is_empty_set,
    listed_components,
    section,
    section_family,
    set_member,
    set_span,
    set_without,
    with_sections,
)
from .dsl import domain_to_source, point_to_source, set_to_source


class IllegalMove(FilterLabError):
    """A strategy produced a move violating the game rules."""


class NoUniversalWitness(FilterLabError):
    """No generated set fit inside the opponent's move within the bound."""


class BadSample(FilterLabError):
    """A verification sample was not a member of the filter."""


class SearchExhausted(FilterLabError):
    """A strategy's bounded point search came up empty."""


# ---------------------------------------------------------------------------
# transcripts


@node
class Round:
    c: SetExpr
    f: tuple[Point, ...]


@node(frozen=False)
class GameState:
    """The game so far, which play extends in place after every round.

    claimed maps the key of every point claimed in rounds to the point, in
    the order of claiming: the running union of player II's answers.
    """

    filt: FilterExpr
    rounds: list[Round]
    claimed: dict[tuple[int, ...], Point]

    @property
    def round_number(self) -> int:
        return len(self.rounds)


@node
class Transcript:
    filt: FilterExpr
    rounds: tuple[Round, ...]
    seed: int
    player_i: str
    player_ii: str


def _claim(union: dict[tuple[int, ...], Point], pts: Iterable[Point]) -> list[tuple[int, ...]]:
    """Add the points of pts missing from union, by key; return their keys."""
    new = []
    for p in pts:
        k = point_key(p)
        if k not in union:
            union[k] = p
            new.append(k)
    return new


def union_size(t: Transcript) -> int:
    """Number of distinct points claimed over the whole transcript."""
    return len(_claim({}, (p for r in t.rounds for p in r.f)))


# ---------------------------------------------------------------------------
# player I strategies


class FullSetI:
    """Plays the full set every round."""

    name = "full"

    def start(self, f: FilterExpr, seed: int) -> Callable[[GameState], SetExpr]:
        """Bind the strategy to one game of f; play calls the move once per round."""
        full = full_set(dom_of(f))
        return lambda state: full


class ExcludeUnionI:
    """Plays the complement of everything player II has claimed so far."""

    name = "exclude-union"

    def start(self, f: FilterExpr, seed: int) -> Callable[[GameState], SetExpr]:
        c = full_set(dom_of(f))  # the last move; each round removes only its new claims

        def move(state: GameState) -> SetExpr:
            nonlocal c
            if state.rounds:
                c = set_without(c, state.rounds[-1].f)
            return c

        return move


class CopyStrategyI:
    """Plays the tail-columns sets.

    Move n is the set of all points in columns n and beyond, so player II's
    answers land in ever later columns.
    """

    name = "copy"

    def start(self, f: FilterExpr, seed: int) -> Callable[[GameState], SetExpr]:
        domain = dom_of(f)
        if not is_indexed(domain):
            raise DomainError(
                f"copy strategy needs an indexed source domain, not {domain_to_source(domain)}"
            )
        cols = tail_columns(domain, 0)  # each round empties one more column

        def move(state: GameState) -> SetExpr:
            nonlocal cols
            if n := state.round_number:
                cols = with_sections(cols, {n - 1: empty_set(component(domain, n - 1))})
            return cols

        return move


def tail_columns(domain: DomainExpr, n: int) -> SetExpr:
    """All points in sections n and beyond of an indexed domain."""
    empty = {d: empty_set(d) for d in {component(domain, i) for i in range(n)}}
    excs = {i: empty[component(domain, i)] for i in range(n)}
    excs |= {i: full_set(e) for i, e in listed_components(domain) if i >= n}
    return section_family(excs, full_set(tail_component(domain)), domain)


# ---------------------------------------------------------------------------
# universal families


@node
class UniversalFamily:
    """Indexed families Z_n = {Z_n^k : k} of finite nonempty point sets."""

    name: str
    domain: DomainExpr
    generator: Callable[[int, int], tuple[Point, ...]]
    stability_bound: Callable[[SetExpr, int], int] | None = None
    n_independent: bool = False
    # the least k with Z_n^k inside m for every n, or None, where a formula
    # gives it without scanning k
    _least: Callable[[SetExpr], int | None] | None = None


def singleton_family(domain: DomainExpr) -> UniversalFamily:
    """Z_n^k = {k-th point}; universal for the cofinite filter."""
    stability = least = None
    if is_linear_domain(domain):
        stability = lambda m, n: set_span(m)
        # here the enumeration is the canonical order: the first member fits first
        least = lambda m: None if (p := first_point(m)) is None else point_index(domain, p)
    return UniversalFamily(
        "singletons",
        domain,
        lambda n, k: (enum_point(domain, k),),
        stability_bound=stability,
        n_independent=True,
        _least=least,
    )


def column_segments_family(domain: DomainExpr) -> UniversalFamily:
    """Z_n^k = {k} x [0, n] over a product domain."""

    def gen(n: int, k: int) -> tuple[Point, ...]:
        comp = component(domain, k)
        return tuple(make_point(domain, k, enum_point(comp, j)) for j in range(n + 1))

    return UniversalFamily(
        "column-segments", domain, gen, stability_bound=lambda m, n: set_span(m)
    )


# ---------------------------------------------------------------------------
# player II strategies


class UniversalII:
    """Answers C_n with the first singleton, by enumeration index, inside it."""

    name = "universal"
    bound = 10**4

    def start(self, f: FilterExpr, seed: int) -> Callable[[GameState, SetExpr], tuple[Point, ...]]:
        fam, bound = singleton_family(dom_of(f)), self.bound

        def move(state: GameState, c: SetExpr) -> tuple[Point, ...]:
            n = state.round_number
            k = _least_fit(fam, c, n, bound)
            if k is None:
                raise NoUniversalWitness(
                    f"no generated set fit inside the round-{n} move within k <= {bound}"
                )
            return fam.generator(n, k)

        return move


class FreshElementII:
    """Claims the first point of C_n not yet in the union."""

    name = "fresh"
    bound = 10**5

    def start(self, f: FilterExpr, seed: int) -> Callable[[GameState, SetExpr], tuple[Point, ...]]:
        domain, bound = dom_of(f), self.bound
        # enumeration indices below low are all claimed, and claims only grow
        low = 0

        def move(state: GameState, c: SetExpr) -> tuple[Point, ...]:
            nonlocal low
            for m in range(low, bound):
                p = enum_point(domain, m)
                if point_key(p) in state.claimed:
                    if m == low:
                        low += 1
                elif set_member(p, c):
                    return (p,)
            raise SearchExhausted(f"no fresh point of the move found below {bound}")

        return move


class RandomFiniteII:
    """Claims a small random subset of C_n, deterministically from the seed.

    Points are drawn near the front of the move: each draw walks the set,
    picking a random nonempty section within `window` of the least occupied
    index at every level.  The move's first point is found once a round and
    serves every draw.
    """

    name = "random"
    window = 25

    def start(self, f: FilterExpr, seed: int) -> Callable[[GameState, SetExpr], tuple[Point, ...]]:
        rng, window = Random(2 * seed + 1), self.window

        def move(state: GameState, c: SetExpr) -> tuple[Point, ...]:
            lead = first_point(c)
            return tuple(_random_member(c, rng, window, lead) for _ in range(1 + rng.randrange(3)))

        return move


def _random_member(a: SetExpr, rng: Random, window: int, lead: Point | None = None) -> Point:
    """A member of a nonempty set, biased toward small coordinates; lead,
    where given, is the set's first point."""
    if isinstance(a, FinSet):
        if not a.elements:
            raise SearchExhausted("drew from an empty set")
        return rng.choice(a.elements)
    if isinstance(a, CofinSet):
        while True:  # set_member bisects the excluded points
            p = NatPt(rng.randrange(window + len(a.excluded)))
            if set_member(p, a):
                return p
    if lead is None:
        lead = first_point(a)
    if lead is None:
        raise SearchExhausted("drew from an empty set")
    lo = point_key(lead)[0]
    for _ in range(16):
        i = lo + rng.randrange(window)
        sec = section(a, i)
        if not is_empty_set(sec):
            return make_point(a.domain, i, _random_member(sec, rng, window))
    return make_point(a.domain, lo, _random_member(section(a, lo), rng, window))


STRATEGIES_I = {
    "full": FullSetI,
    "exclude-union": ExcludeUnionI,
    "copy": CopyStrategyI,
}

STRATEGIES_II = {
    "universal": UniversalII,
    "fresh": FreshElementII,
    "random": RandomFiniteII,
}


def make_player_i(name: str):
    if name not in STRATEGIES_I:
        raise DomainError(f"unknown player I strategy {name!r}; have {sorted(STRATEGIES_I)}")
    return STRATEGIES_I[name]()


def make_player_ii(name: str):
    if name not in STRATEGIES_II:
        raise DomainError(f"unknown player II strategy {name!r}; have {sorted(STRATEGIES_II)}")
    return STRATEGIES_II[name]()


# ---------------------------------------------------------------------------
# play and replay


def play(f: FilterExpr, s_i, s_ii, rounds: int, seed: int) -> Transcript:
    if rounds < 1:
        raise DomainError("a game needs at least one round")
    move_i = s_i.start(f, seed)
    move_ii = s_ii.start(f, seed)
    dom = dom_of(f)
    state = GameState(f, [], {})
    for n in range(rounds):
        c = move_i(state)
        if c.domain != dom:
            raise IllegalMove(f"player I, round {n}: move over the wrong domain")
        if not member(f, c):
            raise IllegalMove(f"player I, round {n}: move is not a member of the filter")
        pts = move_ii(state, c)
        uniq = {point_key(p): p for p in pts}
        pts = tuple(uniq[k] for k in sorted(uniq))
        for p in pts:
            if not point_in_domain(p, dom) or not set_member(p, c):
                where = "the move" if point_in_domain(p, dom) else "the domain"
                raise IllegalMove(
                    f"player II, round {n}: point {point_to_source(p)} outside {where}"
                )
        state.rounds.append(Round(c, pts))
        _claim(state.claimed, pts)
    return Transcript(f, tuple(state.rounds), seed, s_i.name, s_ii.name)


def replay_transcript(t: Transcript) -> Transcript:
    """Re-run the recorded strategies and seed; equality means determinism."""
    s_i, s_ii = make_player_i(t.player_i), make_player_ii(t.player_ii)
    return play(t.filt, s_i, s_ii, len(t.rounds), t.seed)


def validate_transcript(t: Transcript) -> list[str]:
    """Re-check every legality invariant; empty list means a legal transcript."""
    problems = []
    dom = dom_of(t.filt)
    for n, r in enumerate(t.rounds):
        if r.c.domain != dom:
            problems.append(f"round {n}: player I move over the wrong domain")
        elif not member(t.filt, r.c):
            problems.append(f"round {n}: player I move not in the filter")
        for p in r.f:
            if not point_in_domain(p, dom):
                problems.append(f"round {n}: claimed point {point_to_source(p)} outside the domain")
            elif r.c.domain == dom and not set_member(p, r.c):
                problems.append(f"round {n}: claimed point {point_to_source(p)} outside the move")
        keys = [point_key(p) for p in r.f]
        if keys != sorted(set(keys)):
            problems.append(f"round {n}: claimed points not sorted and distinct")
    return problems


def transcript_lines(t: Transcript) -> list[str]:
    lines = []
    union: dict[tuple[int, ...], Point] = {}
    for n, r in enumerate(t.rounds):
        _claim(union, r.f)
        pts = ",".join(point_to_source(p) for p in r.f)
        lines.append(f"n={n} C={set_to_source(r.c)} F={{{pts}}} |U|={len(union)}")
    return lines


def copy_column_bound(t: Transcript) -> tuple[bool, list[str]]:
    """Check the per-column budget of a copy-strategy transcript.

    Round m only ever touches columns at index m and beyond, so at every
    round the column-i trace of the union has at most sum of |F_m| for
    m <= i points.
    """
    problems = []
    union: dict[tuple[int, ...], Point] = {}
    counts: dict[int, int] = {}
    least: dict[int, tuple[int, ...]] = {}  # least union key in each column
    spent = [0]  # spent[m] is the sum of |F_j| for j < m
    # the columns over budget at the last round and those this round adds
    # to: a column's budget never falls, so no other column can be over it
    over: set[int] = set()
    for r, rnd in enumerate(t.rounds):
        spent.append(spent[-1] + len(rnd.f))
        for k in _claim(union, rnd.f):
            col = k[0]
            counts[col] = counts.get(col, 0) + 1
            least[col] = min(least.get(col, k), k)
            over.add(col)
        # columns in the order the sorted union first meets them
        for col in sorted(over, key=least.__getitem__):
            budget = spent[max(min(col, r) + 1, 0)]
            if counts[col] > budget:
                problems.append(
                    f"round {r}: column {col} holds {counts[col]} points, budget {budget}"
                )
            else:
                over.discard(col)
    return not problems, problems


# ---------------------------------------------------------------------------
# universality and diagonalization verification


@node
class SampleUniversality:
    index: int
    witnesses: tuple[tuple[int, int | None], ...]  # (n, least fitting k or None)
    diag: tuple[int, int] | None  # (n, exact threshold m)


@node
class UniversalityReport:
    entries: tuple[SampleUniversality, ...]
    passed: bool


def verify_universal_family(
    u: UniversalFamily, f: FilterExpr, samples: Sequence[SetExpr]
) -> UniversalityReport:
    """For each sample member m: the least k <= 10**4 with Z_n^k inside m for
    each n < 3, and a diagonal threshold at some n < 8."""
    entries = []
    passed = True
    for idx, m in enumerate(samples):
        if not member(f, m):
            raise BadSample(f"sample {idx} is not a member of the filter")
        wits = [(n, _least_fit(u, m, n, 10**4)) for n in range(3)]
        passed = passed and all(least is not None for _, least in wits)
        diag = _diag_threshold(u, m, 8)
        if diag is None:
            passed = False
        entries.append(SampleUniversality(idx, tuple(wits), diag))
    return UniversalityReport(tuple(entries), passed)


def _least_fit(u: UniversalFamily, m: SetExpr, n: int, bound: int) -> int | None:
    """The least k <= bound with Z_n^k inside m, or None."""
    if u._least is not None and m.domain == u.domain:
        k = u._least(m)
        return k if k is not None and k <= bound else None
    fits = (k for k in range(bound + 1) if all(set_member(p, m) for p in u.generator(n, k)))
    return next(fits, None)


def _diag_threshold(u: UniversalFamily, m: SetExpr, n_bound: int) -> tuple[int, int] | None:
    """An (n, threshold) with Z_n^k meeting m for every k past the threshold.

    Exact: the generator declares an index past which the meeting verdict is
    k-uniform on eventually uniform sets.
    """
    if u.stability_bound is None:
        return None
    return _stable_threshold(
        range(n_bound),
        lambda n: max(u.stability_bound(m, n), 0),
        lambda n, k: any(set_member(p, m) for p in u.generator(n, k)),
    )


def _stable_threshold(
    ns: Iterable[int], k0_of: Callable[[int], int], holds: Callable[[int, int], bool]
) -> tuple[int, int] | None:
    """The first n whose verdict holds at its stable index k0, with its threshold.

    Past k0 the verdict no longer depends on k, so the threshold is one past
    the last k below k0 where it fails.
    """
    for n in ns:
        k0 = k0_of(n)
        if holds(n, k0):
            return n, 1 + max((k for k in range(k0) if not holds(n, k)), default=-1)
    return None


# ---------------------------------------------------------------------------
# separator verdicts


@node
class SepIn:
    n: int
    threshold: int


@node
class SepOut:
    pass


@node
class SepUnknown:
    bound: int


SepVerdict = SepIn | SepOut | SepUnknown


def separator_verdict(
    lim: FilterExpr, u: UniversalFamily, sep: FilterFamily, a: SetExpr
) -> SepVerdict:
    """Place a in or out of the union-of-intersections separator set.

    The set is: some n and m such that for every k past m, some index i in
    Z_n^k has a in S_i, sep's i-th filter (for a sectionwise limit, its own
    family).  With an n-independent generator and eventually uniform
    separators the for-all-k tail stabilizes, making the verdict exact in
    both directions.  Otherwise it searches n < 8.
    """

    def holds(i: int) -> bool:
        return member(sep.at(i), section(a, i))

    def clause(n: int, k: int) -> bool:
        return any(holds(point_key(p)[0]) for p in u.generator(n, k))

    if u.stability_bound is None:
        return SepUnknown(0)
    hit = _stable_threshold(
        [0] if u.n_independent else range(8),
        lambda n: max(u.stability_bound(a, n), fresh_index(sep.keys, exception_keys(a)), 0),
        clause,
    )
    if hit is not None:
        return SepIn(*hit)
    if u.n_independent:
        return SepOut()
    return SepUnknown(8)
