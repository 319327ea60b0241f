"""Independent definitional membership evaluator.

The acceptance suite compares the package's membership oracle against this
module on thousands of random (filter, set) pairs.  To keep the comparison
meaningful, this evaluator shares no algebra with the package: it imports
only the frozen node types and reads their fields directly.  Sets are
treated as characteristic functions, and every quantifier over an infinite
index range is decided exactly on a finite grid.

The grid trick: all normal forms here are eventually uniform, meaning each
indexed level is a finite exception table plus one tail repeated forever.
Take a bound B strictly larger than every index and coordinate mentioned by
the filter, the set, and the domain.  Then any point with a coordinate at or
beyond B behaves exactly like the point with that coordinate clamped to B,
so the grid {0..B} at each level, with B standing in for the whole tail
region, decides membership exactly.

A pushforward along a table bijection onto a linear target (the naturals,
prod(unit), or a sum whose components are all unit) moves only the indices
its table lists, so a bound past those entries keeps the clamp exact.  A
pushforward along any other bijection raises NaiveUnsupported.
"""

from __future__ import annotations

from typing import Callable

from filterlab.domains import DomainExpr, DSum, Nat, NatPt, PairPt, Point, Prod, SumPt, Unit, UnitPt
from filterlab.filters import (
    FilterExpr,
    FilterFamily,
    Frechet,
    FubiniSum,
    IdentityBij,
    Intersection,
    Limit,
    Principal,
    Product,
    Pushforward,
    RepeatedSectionwiseFamily,
    SectionFilter,
    SectionwiseFamily,
    TableBij,
)
from filterlab.sets import CofinSet, FinSet, SectionFamily, SetExpr

NaivePoint = object  # int at Nat leaves, () at Unit leaves, (index, rest) otherwise
Chi = Callable[[NaivePoint], bool]


class NaiveUnsupported(Exception):
    """Raised for expression shapes outside the definitional fragment."""


# ---------------------------------------------------------------------------
# reading points and spans straight from the node fields


def _pt(p: Point) -> NaivePoint:
    if isinstance(p, UnitPt):
        return ()
    if isinstance(p, NatPt):
        return p.n
    if isinstance(p, (PairPt, SumPt)):
        return (p.i, _pt(p.rest))
    raise NaiveUnsupported(f"unknown point shape: {p!r}")


def _span_pt(p: Point) -> int:
    if isinstance(p, UnitPt):
        return 0
    if isinstance(p, NatPt):
        return p.n + 1
    if isinstance(p, (PairPt, SumPt)):
        return max(p.i + 1, _span_pt(p.rest))
    raise NaiveUnsupported(f"unknown point shape: {p!r}")


def span_set(a: SetExpr) -> int:
    if isinstance(a, FinSet):
        return max((_span_pt(p) for p in a.elements), default=0)
    if isinstance(a, CofinSet):
        return max((_span_pt(p) for p in a.excluded), default=0)
    if isinstance(a, SectionFamily):
        inner = [span_set(s) for _, s in a.exceptions] + [span_set(a.tail)]
        keys = [i + 1 for i, _ in a.exceptions]
        return max(inner + keys)
    raise NaiveUnsupported(f"not an eventually-uniform set: {a!r}")


def span_domain(d: DomainExpr) -> int:
    if isinstance(d, (Unit, Nat)):
        return 0
    if isinstance(d, Prod):
        return span_domain(d.inner)
    if isinstance(d, DSum):
        comps = [span_domain(c) for c in d.exceptions] + [span_domain(d.tail)]
        return max(comps + [len(d.exceptions)])
    raise NaiveUnsupported(f"unknown domain shape: {d!r}")


def _span_family(fam: FilterFamily) -> int:
    inner = [span_filter(g) for _, g in fam.exceptions] + [span_filter(fam.tail)]
    keys = [i + 1 for i, _ in fam.exceptions]
    return max(inner + keys)


def span_filter(f: FilterExpr) -> int:
    if isinstance(f, Principal):
        return span_set(f.core)
    if isinstance(f, Frechet):
        return 0
    if isinstance(f, Product):
        return max(span_filter(f.outer), span_filter(f.inner))
    if isinstance(f, FubiniSum):
        return max(span_filter(f.base), _span_family(f.family))
    if isinstance(f, Limit):
        fam = f.family
        if isinstance(fam, FilterFamily):
            return max(span_filter(f.base), _span_family(fam))
        if isinstance(fam, (SectionwiseFamily, RepeatedSectionwiseFamily)):
            return max(span_filter(f.base), _span_family(fam.inner))
        raise NaiveUnsupported(f"unsupported family: {fam!r}")
    if isinstance(f, Pushforward):
        table = f.sigma.table if isinstance(f.sigma, TableBij) else ()
        return max([span_filter(f.inner), *(max(n, m) + 1 for n, m in table)])
    if isinstance(f, Intersection):
        return max(span_filter(f.left), span_filter(f.right))
    if isinstance(f, SectionFilter):
        return max(f.index + 1, span_filter(f.comp))
    raise NaiveUnsupported(f"unsupported filter shape: {f!r}")


# ---------------------------------------------------------------------------
# characteristic functions


def contains(a: SetExpr, np: NaivePoint) -> bool:
    """Pointwise membership read off the node fields."""
    if isinstance(a, FinSet):
        return any(_pt(p) == np for p in a.elements)
    if isinstance(a, CofinSet):
        return all(_pt(p) != np for p in a.excluded)
    if isinstance(a, SectionFamily):
        i, rest = np
        for k, sec in a.exceptions:
            if k == i:
                return contains(sec, rest)
        return contains(a.tail, rest)
    raise NaiveUnsupported(f"not an eventually-uniform set: {a!r}")


def _comp(d: DomainExpr, i: int) -> DomainExpr:
    if isinstance(d, Prod):
        return d.inner
    if isinstance(d, DSum):
        return d.exceptions[i] if i < len(d.exceptions) else d.tail
    raise NaiveUnsupported(f"domain has no sections: {d!r}")


def grid(d: DomainExpr, bound: int) -> list:
    """All grid points with every index in 0..bound inclusive."""
    if isinstance(d, Unit):
        return [()]
    if isinstance(d, Nat):
        return list(range(bound + 1))
    if isinstance(d, (Prod, DSum)):
        return [(i, r) for i in range(bound + 1) for r in grid(_comp(d, i), bound)]
    raise NaiveUnsupported(f"unknown domain shape: {d!r}")


def _touches(np: NaivePoint, bound: int) -> bool:
    """True when some coordinate equals the bound, i.e. the grid point
    stands for an infinite clamped region rather than a single point."""
    if np == ():
        return False
    if isinstance(np, int):
        return np == bound
    i, rest = np
    return i == bound or _touches(rest, bound)


# ---------------------------------------------------------------------------
# the evaluator


def _fam_at(fam: FilterFamily, i: int) -> FilterExpr:
    for k, g in fam.exceptions:
        if k == i:
            return g
    return fam.tail


def _linear_pt(d: DomainExpr, n: int) -> NaivePoint:
    """The n-th point of a linear domain, in the order the naturals count it."""
    if isinstance(d, Nat):
        return n
    if isinstance(d, Prod) and isinstance(d.inner, Unit):
        return (n, ())
    if isinstance(d, DSum) and all(isinstance(c, Unit) for c in (*d.exceptions, d.tail)):
        return (n, ())
    raise NaiveUnsupported(f"not a linear domain: {d!r}")


def _eval(f: FilterExpr, chi: Chi, d: DomainExpr, bound: int) -> bool:
    if isinstance(f, Principal):
        return all(chi(np) for np in grid(d, bound) if contains(f.core, np))
    if isinstance(f, Frechet):
        # complement finite iff the set covers every infinite clamped region
        return all(chi(np) for np in grid(d, bound) if _touches(np, bound))
    if isinstance(f, Intersection):
        return _eval(f.left, chi, d, bound) and _eval(f.right, chi, d, bound)
    if isinstance(f, SectionFilter):
        i = f.index
        return _eval(f.comp, lambda r: chi((i, r)), _comp(d, i), bound)
    if isinstance(f, Product):
        bits = [
            _eval(f.inner, lambda r, i=i: chi((i, r)), _comp(d, i), bound)
            for i in range(bound + 1)
        ]
        return _eval(f.outer, lambda n: bits[n], Nat(), bound)
    if isinstance(f, FubiniSum):
        bits = [
            _eval(_fam_at(f.family, i), lambda r, i=i: chi((i, r)), _comp(d, i), bound)
            for i in range(bound + 1)
        ]
        return _eval(f.base, lambda n: bits[n], Nat(), bound)
    if isinstance(f, Limit):
        fam = f.family
        if isinstance(fam, FilterFamily):
            bits = [_eval(_fam_at(fam, i), chi, d, bound) for i in range(bound + 1)]
        elif isinstance(fam, (SectionwiseFamily, RepeatedSectionwiseFamily)):
            bits = [
                _eval(_fam_at(fam.inner, i), lambda r, i=i: chi((i, r)), _comp(d, i), bound)
                for i in range(bound + 1)
            ]
            if isinstance(fam, RepeatedSectionwiseFamily):
                # each section recurs infinitely often along the cofinite base
                if not isinstance(f.base, Frechet):
                    raise NaiveUnsupported(f"repeated family over {f.base!r}")
                return all(bits)
        else:
            raise NaiveUnsupported(f"unsupported family: {fam!r}")
        return _eval(f.base, lambda n: bits[n], Nat(), bound)
    if isinstance(f, Pushforward):
        # A is in the pushforward when its preimage is in the inner filter
        sigma = f.sigma
        if isinstance(sigma, IdentityBij):
            return _eval(f.inner, chi, d, bound)
        if isinstance(sigma, TableBij):
            perm = dict(sigma.table)
            pts = [_linear_pt(d, n) for n in range(bound + 1)]
            return _eval(f.inner, lambda n: chi(pts[perm.get(n, n)]), Nat(), bound)
        raise NaiveUnsupported(f"unsupported bijection: {sigma!r}")
    raise NaiveUnsupported(f"unsupported filter shape: {f!r}")


def naive_member(f: FilterExpr, a: SetExpr) -> bool:
    """Definitional membership verdict for a normal-form set."""
    d = a.domain
    bound = max(span_filter(f), span_set(a), span_domain(d)) + 1
    return _eval(f, lambda np: contains(a, np), d, bound)
