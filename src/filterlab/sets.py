"""Eventually uniform subsets of structured domains, in normal form.

A set over Unit or Nat is a leaf: a sorted tuple of listed points, whose
membership differs from one tail verdict.  A FinSet's tail verdict is false,
so it lists its members; a CofinSet's is true, so it lists its gaps.  A set
over an indexed domain is a SectionFamily: finitely many exceptional
sections plus one tail section repeated at every other index.  Both are
"a finite exception table plus a uniform tail", which is closed under the
boolean operations and keeps every query in this module exact.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import and_, attrgetter, or_
from random import Random
from typing import Callable, Iterable, Mapping

from .domains import (
    DSum,
    DomainError,
    DomainExpr,
    ExceptionTable,
    FilterLabError,
    Hidden,
    NAT,
    Nat,
    NatPt,
    Point,
    UNIT_PT,
    Unit,
    check_point,
    component,
    domain_depth,
    exception_table,
    fresh_index,
    is_indexed,
    keys_ascending,
    make_point,
    node,
    point_key,
    points_within,
    split_point,
    tail_component,
)


class NotNormalForm(FilterLabError):
    """A SetExpr violates the eventually-uniform normal form."""


@node
class SetExpr:
    __slots__ = ()

    # set once the node passes validate_set or comes from a constructor of
    # this module; never part of eq, hash or repr
    _valid: bool = Hidden(False)


def _marked(a: SetExpr) -> SetExpr:
    object.__setattr__(a, "_valid", True)
    return a


@node
class FinSet(SetExpr):
    """Finite leaf; elements sorted by canonical point order."""

    elements: tuple[Point, ...]
    domain: DomainExpr
    tail_holds = False
    listed = property(attrgetter("elements"))


@node
class CofinSet(SetExpr):
    """Cofinite leaf over Nat; excluded points sorted."""

    excluded: tuple[Point, ...]
    domain: DomainExpr
    tail_holds = True
    listed = property(attrgetter("excluded"))


@node
class SectionFamily(SetExpr, ExceptionTable):
    """Sectionwise set over an indexed domain.

    exceptions maps finitely many indices to their sections; every other
    index carries the tail section.
    """

    exceptions: tuple[tuple[int, SetExpr], ...]
    tail: SetExpr
    domain: DomainExpr
    # the printed source of a marked table, kept by dsl.set_to_source; like
    # _valid, never part of eq, hash or repr
    _source: str | None = Hidden(None)


@node
class ProgrammaticSet:
    """Escape hatch for sets with no eventually-uniform normal form.

    Queries against it are honest only up to truncation_bound; callers that
    know an exact finite/cofinite/neither classification over Nat may
    register it in frechet_class.
    """

    predicate: Callable[[Point], bool]
    truncation_bound: int
    domain: DomainExpr
    frechet_class: str | None = None  # "finite" | "cofinite" | "neither"
    label: str = ""


# ---------------------------------------------------------------------------
# constructors


def _sorted_points(points: Iterable[Point], domain: DomainExpr) -> tuple[Point, ...]:
    seen = {}
    for p in points:
        check_point(p, domain)
        seen[point_key(p)] = p
    return tuple(seen[k] for k in sorted(seen))


def cofin_set(excluded: Iterable[Point], domain: DomainExpr) -> SetExpr:
    if isinstance(domain, Unit):
        # over the one-point domain everything canonicalizes to FinSet
        pts = _sorted_points(excluded, domain)
        return _marked(FinSet(() if pts else (UNIT_PT,), domain))
    if isinstance(domain, Nat):
        return _marked(CofinSet(_sorted_points(excluded, domain), domain))
    return set_complement(fin_set(excluded, domain))


def leaf_set(points: Iterable[Point], tail_holds: bool, domain: DomainExpr) -> SetExpr:
    """The leaf that holds a point exactly where its listing differs from tail_holds."""
    return cofin_set(points, domain) if tail_holds else fin_set(points, domain)


def nat_leaf(ns: Iterable[int], tail_holds: bool) -> SetExpr:
    """leaf_set over Nat of the naturals ns, given in any order and with repeats."""
    return _marked((CofinSet if tail_holds else FinSet)(tuple(map(NatPt, sorted(set(ns)))), NAT))


def section_family(
    exceptions: Mapping[int, SetExpr], tail: SetExpr, domain: DomainExpr
) -> SetExpr:
    if not is_indexed(domain):
        raise NotNormalForm(f"SectionFamily needs an indexed domain, got {domain!r}")
    if min(exceptions, default=0) < 0:
        raise NotNormalForm("exception keys must be naturals")
    # equal SetExprs share a domain, so pruning tail-equal sections is safe
    fam = SectionFamily(exception_table(exceptions, tail), tail, domain)
    _check_parts(fam, domain)
    return _marked(fam)


def listed_components(domain: DomainExpr) -> list[tuple[int, DomainExpr]]:
    """(i, component) for each component of a sum domain that differs from its tail.

    A table over the domain lists every such index, whatever section it holds
    there: its tail section lives on the tail component and cannot stand in.
    """
    if not isinstance(domain, DSum):
        return []
    return [(i, e) for i, e in enumerate(domain.exceptions) if e != domain.tail]


def empty_set(domain: DomainExpr) -> SetExpr:
    if not is_indexed(domain):
        return fin_set((), domain)
    excs = {i: empty_set(e) for i, e in listed_components(domain)}
    tail = empty_set(tail_component(domain))
    return section_family(excs, tail, domain)


def full_set(domain: DomainExpr) -> SetExpr:
    if isinstance(domain, Unit):
        return fin_set((UNIT_PT,), domain)
    if isinstance(domain, Nat):
        return cofin_set((), domain)
    excs = {i: full_set(e) for i, e in listed_components(domain)}
    tail = full_set(tail_component(domain))
    return section_family(excs, tail, domain)


def fin_set(points: Iterable[Point], domain: DomainExpr) -> SetExpr:
    """Normal form of an explicit finite point set over any domain."""
    if not is_indexed(domain):
        return _marked(FinSet(_sorted_points(points, domain), domain))
    groups: dict[int, list[Point]] = {}
    for p in points:
        check_point(p, domain)
        i, rest = split_point(p)
        groups.setdefault(i, []).append(rest)
    excs = {i: fin_set(rests, component(domain, i)) for i, rests in groups.items()}
    for i, e in listed_components(domain):
        excs.setdefault(i, empty_set(e))
    tail = empty_set(tail_component(domain))
    return section_family(excs, tail, domain)


# ---------------------------------------------------------------------------
# validation


def validate_set(a: SetExpr, domain: DomainExpr | None = None) -> None:
    """Raise NotNormalForm unless a is a well-formed normal form.

    A node is marked only once it passes, and a marked node is not checked
    again.  The constructors of this module mark what they build, so the
    check only descends into nodes built raw.
    """
    if domain is None:
        domain = a.domain
    if a.domain != domain:
        raise NotNormalForm(f"domain mismatch: {a.domain!r} vs {domain!r}")
    if isinstance(a, SetExpr) and a._valid:
        return
    if isinstance(a, FinSet):
        if is_indexed(domain):
            raise NotNormalForm("FinSet over an indexed domain")
        _check_sorted(a.elements, domain)
    elif isinstance(a, CofinSet):
        if not isinstance(domain, Nat):
            raise NotNormalForm("CofinSet is only normal over Nat")
        _check_sorted(a.excluded, domain)
    elif isinstance(a, SectionFamily):
        if not is_indexed(domain):
            raise NotNormalForm("SectionFamily over a leaf domain")
        if not keys_ascending(a.exceptions):
            raise NotNormalForm("exception keys must be sorted distinct naturals")
        for i, sec in a.exceptions:
            if sec == a.tail:
                raise NotNormalForm(f"exception {i} duplicates the tail")
        _check_parts(a, domain)
    else:
        raise NotNormalForm(f"not a SetExpr: {a!r}")
    _marked(a)


def _check_parts(a: SectionFamily, domain: DomainExpr) -> None:
    """Check that a's sections are normal over their components and cover its listed ones."""
    parts = [(sec, component(domain, i)) for i, sec in a.exceptions]
    for sec, d in parts + [(a.tail, tail_component(domain))]:
        # a marked part over the right domain needs no call
        if not (isinstance(sec, SetExpr) and sec._valid and sec.domain == d):
            validate_set(sec, d)
    for i, e in listed_components(domain):
        if i not in a.keys:
            raise NotNormalForm(f"index {i} has component {e!r} but would fall to the tail")


def _check_sorted(points: tuple[Point, ...], domain: DomainExpr) -> None:
    keys = [point_key(p) for p in points]
    if keys != sorted(set(keys)):
        raise NotNormalForm("leaf points must be sorted and distinct")
    for p in points:
        check_point(p, domain)


# ---------------------------------------------------------------------------
# queries


def section(a: SetExpr, i: int) -> SetExpr:
    """The i-th section of a sectionwise set."""
    if not isinstance(a, SectionFamily):
        raise DomainError(f"section() needs a SectionFamily, got {type(a).__name__}")
    return a.at(i)


def exception_keys(a: SetExpr) -> tuple[int, ...]:
    return a.keys if isinstance(a, SectionFamily) else ()


def set_member(p: Point, a: SetExpr) -> bool:
    if isinstance(a, (FinSet, CofinSet)):
        pts = a.listed  # sorted, distinct keys
        k = point_key(p)
        i = bisect_left(pts, k, key=point_key)
        return (i < len(pts) and point_key(pts[i]) == k) != a.tail_holds
    if isinstance(a, SectionFamily):
        i, rest = split_point(p)
        return set_member(rest, section(a, i))
    raise DomainError(f"not a SetExpr: {a!r}")


def set_complement(a: SetExpr) -> SetExpr:
    if isinstance(a, (FinSet, CofinSet)):
        if a._valid and isinstance(a.domain, Nat):
            # a marked leaf lists sorted, distinct points of its domain already;
            # over Unit, leaf_set keeps the complement a FinSet
            return _marked((FinSet if a.tail_holds else CofinSet)(a.listed, a.domain))
        return leaf_set(a.listed, not a.tail_holds, a.domain)
    if isinstance(a, SectionFamily):
        excs = {i: set_complement(sec) for i, sec in a.exceptions}
        return section_family(excs, set_complement(a.tail), a.domain)
    raise DomainError(f"not a SetExpr: {a!r}")


def _leaf_binop(a: SetExpr, b: SetExpr, op: Callable[[bool, bool], bool]) -> SetExpr:
    # off both listings each side holds its tail verdict, so the result's tail
    # is op of the two, and it lists the listed points where op differs
    ta, tb = a.tail_holds, b.tail_holds
    tail = op(ta, tb)
    ka = {point_key(p): p for p in a.listed}
    kb = {point_key(p): p for p in b.listed}
    kept = [p for k, p in (kb | ka).items() if op((k in ka) != ta, (k in kb) != tb) != tail]
    return leaf_set(kept, tail, a.domain)


def _binop(a: SetExpr, b: SetExpr, op: Callable[[bool, bool], bool], name: str) -> SetExpr:
    if a.domain != b.domain:
        raise DomainError(f"cross-domain {name}: {a.domain!r} vs {b.domain!r}")
    if isinstance(a, SectionFamily) != isinstance(b, SectionFamily):
        raise NotNormalForm("mixed leaf/sectionwise operands over one domain")
    if not isinstance(a, SectionFamily):
        return _leaf_binop(a, b, op)
    keys = sorted(set(exception_keys(a)) | set(exception_keys(b)))
    excs = {i: _binop(section(a, i), section(b, i), op, name) for i in keys}
    return section_family(excs, _binop(a.tail, b.tail, op, name), a.domain)


def set_union(a: SetExpr, b: SetExpr) -> SetExpr:
    return _binop(a, b, or_, "union")


def set_intersect(a: SetExpr, b: SetExpr) -> SetExpr:
    return _binop(a, b, and_, "intersect")


def set_without(a: SetExpr, points: Iterable[Point]) -> SetExpr:
    """a minus a finite point set, checking only the given points.

    Each point goes into its leaf by bisection, and a sectionwise set
    rebuilds only the sections the points fall in, so the cost follows the
    points, not the size of a.
    """
    validate_set(a)
    pts = list(points)
    for p in pts:
        check_point(p, a.domain)
    return _without(a, pts)


def _without(a: SetExpr, pts: list[Point]) -> SetExpr:
    if not pts:
        return a
    if isinstance(a, SectionFamily):
        groups: dict[int, list[Point]] = {}
        for p in pts:
            i, rest = split_point(p)
            groups.setdefault(i, []).append(rest)
        return with_sections(a, {i: _without(a.at(i), rests) for i, rests in groups.items()})
    # a leaf lists sorted points: a FinSet its members, a CofinSet its gaps
    held = list(a.listed)
    for p in pts:
        k = point_key(p)
        i = bisect_left(held, k, key=point_key)
        present = i < len(held) and point_key(held[i]) == k
        if present and not a.tail_holds:
            del held[i]
        elif not present and a.tail_holds:
            held.insert(i, p)
    if len(held) == len(a.listed):
        return a
    return _marked(type(a)(tuple(held), a.domain))


def with_sections(a: SetExpr, sections: Mapping[int, SetExpr]) -> SetExpr:
    """a with some sections replaced, checking only the new sections.

    A new section equal to the tail is dropped from the exception table;
    every other section of a is reused as it is, without comparing it to the
    tail again (a validated table holds no section equal to its tail).
    """
    validate_set(a)
    if not isinstance(a, SectionFamily):
        raise NotNormalForm(f"with_sections needs a SectionFamily, got {type(a).__name__}")
    for i, sec in sections.items():
        if i < 0:
            raise NotNormalForm("exception keys must be naturals")
        validate_set(sec, component(a.domain, i))
    table = dict(a.exceptions) | dict(sections)
    excs = tuple((i, table[i]) for i in sorted(table) if i not in sections or table[i] != a.tail)
    return _marked(SectionFamily(excs, a.tail, a.domain))


def finite_points(a: SetExpr) -> tuple[Point, ...] | None:
    """All points of a if a is finite, else None."""
    return _off_tail(a, False)


def cofinite_excluded(a: SetExpr) -> tuple[Point, ...] | None:
    """The finite complement of a if there is one, else None."""
    return _off_tail(a, True)


def _off_tail(a: SetExpr, holds: bool) -> tuple[Point, ...] | None:
    """The points where membership in a differs from holds, if finitely many.

    Exceptions ascend, and so does each section's listing, so the points
    come out in canonical order."""
    if isinstance(a, (FinSet, CofinSet)):
        if a.tail_holds == holds:
            return a.listed
        if isinstance(a.domain, Unit):  # a FinSet, read off a true tail
            return () if a.listed else (UNIT_PT,)
        return None
    if isinstance(a, SectionFamily):
        if _off_tail(a.tail, holds) != ():
            return None
        out: list[Point] = []
        for i, sec in a.exceptions:
            pts = _off_tail(sec, holds)
            if pts is None:
                return None
            out.extend(make_point(a.domain, i, r) for r in pts)
        return tuple(out)
    raise DomainError(f"not a SetExpr: {a!r}")


def is_empty_set(a: SetExpr) -> bool:
    return finite_points(a) == ()


def first_point(a: SetExpr) -> Point | None:
    """Least member in canonical order, or None for the empty set.

    A sectionwise set is read in one pass over its exception table: the
    exceptions in index order, with the tail tried once, at the first index
    no exception lists.
    """
    if isinstance(a, FinSet):
        return a.elements[0] if a.elements else None
    if isinstance(a, CofinSet):
        # the excluded naturals ascend, so the first gap is the least
        # position i whose excluded value exceeds i
        ex = a.excluded
        return NatPt(bisect_left(range(len(ex)), True, key=lambda i: ex[i].n > i))
    if isinstance(a, SectionFamily):
        tail = first_point(a.tail)
        gap = 0  # the least index past the exceptions read so far
        for i, sec in a.exceptions:
            if gap < i and tail is not None:
                break
            p = first_point(sec)
            if p is not None:
                return make_point(a.domain, i, p)
            gap = i + 1
        return None if tail is None else make_point(a.domain, gap, tail)
    raise DomainError(f"not a SetExpr: {a!r}")


def subset_check(a: SetExpr, b: SetExpr) -> bool:
    """a <= b, read off both normal forms section by section; builds no set."""
    if a.domain != b.domain:
        raise DomainError(f"cross-domain subset check: {a.domain!r} vs {b.domain!r}")
    if isinstance(a, SectionFamily) and isinstance(b, SectionFamily):
        keys = set(a.keys) | set(b.keys)
        return all(subset_check(a.at(i), b.at(i)) for i in keys) and subset_check(a.tail, b.tail)
    for x in (a, b):
        if not isinstance(x, (FinSet, CofinSet)):
            raise NotNormalForm(f"not a leaf or a pair of sectionwise sets: {x!r}")
    ka, kb = {point_key(p) for p in a.listed}, {point_key(p) for p in b.listed}
    if a.tail_holds:
        return b.tail_holds and kb <= ka
    return ka.isdisjoint(kb) if b.tail_holds else ka <= kb


def truncate(a: SetExpr | ProgrammaticSet, bound: int) -> list[Point]:
    """Members of a with all coordinates < bound, canonically ordered."""
    if isinstance(a, ProgrammaticSet):
        return [p for p in points_within(a.domain, bound) if a.predicate(p)]
    if isinstance(a, FinSet):
        return [p for p in a.elements if all(c < bound for c in point_key(p))]
    if isinstance(a, CofinSet):
        cut = {point_key(q)[0] for q in a.excluded}
        return [NatPt(n) for n in range(bound) if n not in cut]
    if isinstance(a, SectionFamily):
        out = []
        for i in range(bound):
            out += [make_point(a.domain, i, q) for q in truncate(section(a, i), bound)]
        return out
    raise DomainError(f"not a SetExpr: {a!r}")


def set_span(a: SetExpr) -> int:
    """One past the largest index mentioned anywhere in a."""
    if isinstance(a, (FinSet, CofinSet)):
        return max((point_key(p)[0] + 1 for p in a.listed if point_key(p)), default=0)
    if isinstance(a, SectionFamily):
        return fresh_index(a.keys)
    raise DomainError(f"not a SetExpr: {a!r}")


# ---------------------------------------------------------------------------
# random generation


def gen_random_setexpr(domain: DomainExpr, depth_budget: int, seed: int) -> SetExpr:
    """Deterministic random normal form over the given domain."""
    if depth_budget < domain_depth(domain):
        raise DomainError("depth_budget smaller than the domain depth")
    rng = Random(seed)
    return _gen(domain, rng)


def _gen(domain: DomainExpr, rng: Random) -> SetExpr:
    if isinstance(domain, Unit):
        return fin_set((UNIT_PT,) if rng.random() < 0.5 else (), domain)
    if isinstance(domain, Nat):
        pts = [NatPt(rng.randrange(12)) for _ in range(rng.randrange(5))]
        if rng.random() < 0.5:
            return fin_set(pts, domain)
        return cofin_set(pts, domain)
    n_exc = rng.randrange(4)
    keys = sorted(rng.sample(range(8), n_exc)) if n_exc else []
    excs = {i: _gen(component(domain, i), rng) for i in keys}
    if isinstance(domain, DSum):
        for i in range(len(domain.exceptions)):
            excs.setdefault(i, _gen(component(domain, i), rng))
    tail = _gen(tail_component(domain), rng)
    return section_family(excs, tail, domain)
