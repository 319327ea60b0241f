"""Structured countable index sets and their points.

A domain is a finite tower built from the one-point set and the naturals:
``Prod(d)`` is ``omega x d`` and ``DSum(excs, tail)`` is the disjoint sum
``Sigma_i d_i`` whose first ``len(excs)`` components may differ from the
uniform tail component.  Points mirror the tower shape.  ExceptionTable and
its helpers hold the same "finite exceptions plus a uniform tail" shape for
sets, filter families and sequences.
"""

from __future__ import annotations

from bisect import bisect_left
from math import isqrt
from operator import itemgetter
from typing import Iterable, Mapping

DEFAULT_MAX_DEPTH = 8
MAX_SUM_SPAN = 1 << 16  # components a sum domain may list before its tail


class FilterLabError(Exception):
    """Base class for errors raised by this package.

    line and col place an error that a node constructor raised while a text
    was parsed at the head token that called it; otherwise they are None.
    """

    line: int | None = None
    col: int | None = None


class DomainError(FilterLabError):
    """Malformed domain/point shapes or cross-domain mixups."""


class EnumerationUnsupported(FilterLabError):
    """The domain has no implemented canonical enumeration."""


# ---------------------------------------------------------------------------
# node classes: records whose fields are their annotated class attributes


class Hidden:
    """Class-body value of a field kept out of __init__, eq, hash and repr.

    The class attribute holds default, which every instance reads until the
    owning module sets its own value with object.__setattr__ (a cached
    domain, kernel or validity mark).
    """

    __slots__ = ("default",)

    def __init__(self, default: object = None) -> None:
        self.default = default


_REQUIRED = object()  # the spec of a field without a default
_ORDER = (("__lt__", "<"), ("__le__", "<="), ("__gt__", ">"), ("__ge__", ">="))


def _frozen_setattr(self, name: str, value: object) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def _node_repr(self) -> str:
    shown = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__node_shown__)
    return f"{type(self).__qualname__}({shown})"


def node(cls: type | None = None, *, frozen: bool = True, order: bool = False):
    """Class decorator that makes cls a record of its annotated attributes.

    The fields are the base nodes' fields, then the class's own annotations,
    in order; a class-body value is the field's default, or a Hidden.  The
    generated __init__ sets each shown (not hidden) field with
    object.__setattr__, then calls __post_init__ if the class has one.  A
    frozen node (the default) refuses assignment and deletion, and compares
    and hashes as the tuple of its shown fields, against its own class
    only; order=True adds <, <=, > and >= on that tuple.  With frozen=False
    the node is a mutable record that compares by identity.  The generated
    methods of a class are compiled together by one exec.  The class lists
    its fields in __node_fields__ (name to class-body value, hidden ones
    included) and its shown fields in __node_shown__.
    """
    if cls is None:
        return lambda c: node(c, frozen=frozen, order=order)
    specs: dict[str, object] = {}
    for base in reversed(cls.__mro__[1:]):
        specs.update(base.__dict__.get("__node_fields__", {}))
    for name in cls.__dict__.get("__annotations__", {}):
        spec = specs[name] = cls.__dict__.get(name, _REQUIRED)
        if isinstance(spec, Hidden):
            setattr(cls, name, spec.default)
    # the shown fields: those that __init__ takes and that eq, hash and repr read
    shown = tuple(k for k, s in specs.items() if not isinstance(s, Hidden))
    env = {"_set": object.__setattr__ if frozen else setattr}
    params, body = ["self"], []
    for k in shown:
        if specs[k] is _REQUIRED:
            params.append(k)
        else:
            env[f"_d_{k}"] = specs[k]
            params.append(f"{k}=_d_{k}")
        body.append(f"_set(self, {k!r}, {k})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    src = [f"def __init__({', '.join(params)}):", *(f"    {line}" for line in body or ["pass"])]
    methods = ["__init__"]
    if frozen:
        mine = "".join(f"self.{k}," for k in shown)
        theirs = mine.replace("self.", "other.")
        for meth, op in (("__eq__", "=="), *(_ORDER if order else ())):
            methods.append(meth)
            src += [
                f"def {meth}(self, other):",
                "    if other.__class__ is self.__class__:",
                f"        return ({mine}) {op} ({theirs})",
                "    return NotImplemented",
            ]
        methods.append("__hash__")
        src += ["def __hash__(self):", f"    return hash(({mine}))"]
        cls.__setattr__ = _frozen_setattr
        cls.__delattr__ = _frozen_delattr
    exec("\n".join(src), env)
    for meth in methods:
        env[meth].__qualname__ = f"{cls.__qualname__}.{meth}"
        setattr(cls, meth, env[meth])
    cls.__repr__ = _node_repr
    cls.__node_fields__, cls.__node_shown__ = specs, shown
    return cls


def replace(x, **changes):
    """A copy of node x with some of its __init__ fields changed."""
    kept = {k: getattr(x, k) for k in x.__node_shown__}
    return type(x)(**(kept | changes))


# ---------------------------------------------------------------------------
# domains


class DomainExpr:
    __slots__ = ()


@node
class Unit(DomainExpr):
    """The one-point domain."""


@node
class Nat(DomainExpr):
    """The naturals."""


@node
class Prod(DomainExpr):
    """omega x inner."""

    inner: DomainExpr


@node
class DSum(DomainExpr):
    """Disjoint sum over omega: exceptional components, then a uniform tail.

    Trailing exceptional components equal to the tail are dropped, so each
    sum of domains has exactly one representation.
    """

    exceptions: tuple[DomainExpr, ...]
    tail: DomainExpr

    def __post_init__(self) -> None:
        excs = list(self.exceptions)
        while excs and excs[-1] == self.tail:
            excs.pop()
        if len(excs) != len(self.exceptions):
            object.__setattr__(self, "exceptions", tuple(excs))


UNIT = Unit()
NAT = Nat()


def is_indexed(d: DomainExpr) -> bool:
    """True for domains whose points split into (index, rest)."""
    return isinstance(d, (Prod, DSum))


def component(d: DomainExpr, i: int) -> DomainExpr:
    """Inner domain sitting under index i."""
    if isinstance(d, Prod):
        return d.inner
    if isinstance(d, DSum):
        return d.exceptions[i] if i < len(d.exceptions) else d.tail
    raise DomainError(f"domain {d!r} has no components")


def domain_depth(d: DomainExpr) -> int:
    if isinstance(d, (Unit, Nat)):
        return 0
    if isinstance(d, Prod):
        return 1 + domain_depth(d.inner)
    if isinstance(d, DSum):
        inner = [domain_depth(e) for e in d.exceptions] + [domain_depth(d.tail)]
        return 1 + max(inner)
    raise DomainError(f"not a domain: {d!r}")


def domain_is_finite(d: DomainExpr) -> bool:
    # Unit is the only finite shape; Prod/DSum are indexed by all of omega.
    return isinstance(d, Unit)


# ---------------------------------------------------------------------------
# eventually uniform tables: finitely many exceptions over a uniform tail


def fresh_index(*key_groups: Iterable[int]) -> int:
    """One past the largest key in any group: the first index past them all."""
    return max((i for keys in key_groups for i in keys), default=-1) + 1


def exception_table(mapping: Mapping, tail: object, key=None) -> tuple:
    """(index, value) pairs of mapping sorted by key, without values equal to tail."""
    return tuple((i, mapping[i]) for i in sorted(mapping, key=key) if mapping[i] != tail)


def keys_ascending(exceptions: tuple) -> bool:
    """True when the indices of exceptions are strictly increasing naturals."""
    prev = -1
    for i, _ in exceptions:
        if i <= prev:
            return False
        prev = i
    return True


_index_of = itemgetter(0)


class ExceptionTable:
    """Mixin for frozen nodes with fields ``exceptions`` and ``tail``.

    exceptions holds (index, value) pairs sorted by index; every index not
    listed carries tail.
    """

    __slots__ = ()

    @property
    def keys(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.exceptions)

    def at(self, i: int):
        excs = self.exceptions
        pos = bisect_left(excs, i, key=_index_of)
        if pos < len(excs) and excs[pos][0] == i:
            return excs[pos][1]
        return self.tail


def tail_component(d: DomainExpr) -> DomainExpr:
    """Inner domain shared by all but finitely many indices."""
    if isinstance(d, Prod):
        return d.inner
    if isinstance(d, DSum):
        return d.tail
    raise DomainError(f"domain {d!r} has no components")


def sum_domain(components: Mapping[int, DomainExpr], tail: DomainExpr) -> DomainExpr:
    """Prod(tail) when every listed component is tail, else their DSum.

    Only indices whose component differs from tail widen the sum, so a large
    key with a tail-shaped component costs nothing.
    """
    span = fresh_index(i for i, c in components.items() if c != tail)
    if span > MAX_SUM_SPAN:
        raise DomainError(f"sum component {span - 1} lies past index {MAX_SUM_SPAN - 1}")
    if not span:
        return Prod(tail)
    return DSum(tuple(components.get(i, tail) for i in range(span)), tail)


# ---------------------------------------------------------------------------
# points


class Point:
    __slots__ = ()


@node
class UnitPt(Point):
    pass


@node
class NatPt(Point):
    n: int


@node
class PairPt(Point):
    i: int
    rest: Point


@node
class SumPt(Point):
    i: int
    rest: Point


UNIT_PT = UnitPt()


def point_key(p: Point) -> tuple[int, ...]:
    """Coordinate tuple used for the canonical (lexicographic) order."""
    if isinstance(p, UnitPt):
        return ()
    if isinstance(p, NatPt):
        return (p.n,)
    if isinstance(p, (PairPt, SumPt)):
        return (p.i,) + point_key(p.rest)
    raise DomainError(f"not a point: {p!r}")


def split_point(p: Point) -> tuple[int, Point]:
    if isinstance(p, (PairPt, SumPt)):
        return p.i, p.rest
    raise DomainError(f"point {p!r} has no head index")


def make_point(d: DomainExpr, i: int, rest: Point) -> Point:
    if isinstance(d, Prod):
        return PairPt(i, rest)
    if isinstance(d, DSum):
        return SumPt(i, rest)
    raise DomainError(f"domain {d!r} is not indexed")


def point_in_domain(p: Point, d: DomainExpr) -> bool:
    if isinstance(d, Unit):
        return isinstance(p, UnitPt)
    if isinstance(d, Nat):
        return isinstance(p, NatPt) and p.n >= 0
    if isinstance(d, Prod):
        return isinstance(p, PairPt) and p.i >= 0 and point_in_domain(p.rest, d.inner)
    if isinstance(d, DSum):
        return (
            isinstance(p, SumPt)
            and p.i >= 0
            and point_in_domain(p.rest, component(d, p.i))
        )
    raise DomainError(f"not a domain: {d!r}")


def check_point(p: Point, d: DomainExpr) -> None:
    if not point_in_domain(p, d):
        raise DomainError(f"point {p!r} does not belong to domain {d!r}")


def point_from_key(d: DomainExpr, key: tuple[int, ...]) -> Point:
    """Inverse of point_key for a given domain."""
    if isinstance(d, Unit):
        if key != ():
            raise DomainError(f"bad coordinates {key} for Unit")
        return UNIT_PT
    if isinstance(d, Nat):
        if len(key) != 1:
            raise DomainError(f"bad coordinates {key} for Nat")
        return NatPt(key[0])
    if isinstance(d, (Prod, DSum)):
        if not key:
            raise DomainError(f"bad coordinates {key} for {d!r}")
        i = key[0]
        return make_point(d, i, point_from_key(component(d, i), key[1:]))
    raise DomainError(f"not a domain: {d!r}")


# ---------------------------------------------------------------------------
# pairing and canonical enumeration


def cantor_pair(i: int, j: int) -> int:
    s = i + j
    return s * (s + 1) // 2 + j


def cantor_unpair(n: int) -> tuple[int, int]:
    s = (isqrt(8 * n + 1) - 1) // 2
    j = n - s * (s + 1) // 2
    return s - j, j


def tuple_of_index(idx: int, k: int) -> tuple[int, ...]:
    """The idx-th tuple in the canonical enumeration of omega^k."""
    if k <= 0:
        raise DomainError("tuple arity must be positive")
    if k == 1:
        return (idx,)
    a, b = cantor_unpair(idx)
    return (a,) + tuple_of_index(b, k - 1)


def index_of_tuple(t: tuple[int, ...]) -> int:
    if len(t) == 1:
        return t[0]
    return cantor_pair(t[0], index_of_tuple(t[1:]))


def _all_components_unit(d: DomainExpr) -> bool:
    if isinstance(d, Prod):
        return isinstance(d.inner, Unit)
    if isinstance(d, DSum):
        return isinstance(d.tail, Unit) and all(
            isinstance(e, Unit) for e in d.exceptions
        )
    return False


def is_linear_domain(d: DomainExpr) -> bool:
    """Domains in canonical bijection with omega, one point per index."""
    return isinstance(d, Nat) or _all_components_unit(d)


def _components_all_infinite(d: DomainExpr) -> bool:
    if isinstance(d, Prod):
        return not domain_is_finite(d.inner)
    if isinstance(d, DSum):
        return not domain_is_finite(d.tail) and all(
            not domain_is_finite(e) for e in d.exceptions
        )
    return False


def enum_point(d: DomainExpr, n: int) -> Point:
    """The n-th point of d in the canonical enumeration."""
    if n < 0:
        raise DomainError("enumeration index must be a natural")
    if isinstance(d, Nat):
        return NatPt(n)
    if isinstance(d, Unit):
        if n != 0:
            raise DomainError("Unit has a single point")
        return UNIT_PT
    if is_indexed(d):
        if _all_components_unit(d):
            return make_point(d, n, UNIT_PT)
        if _components_all_infinite(d):
            i, m = cantor_unpair(n)
            return make_point(d, i, enum_point(component(d, i), m))
        raise EnumerationUnsupported(
            f"no canonical enumeration for mixed-size components: {d!r}"
        )
    raise DomainError(f"not a domain: {d!r}")


def point_index(d: DomainExpr, p: Point) -> int:
    """Inverse of enum_point."""
    check_point(p, d)
    if isinstance(d, Nat):
        assert isinstance(p, NatPt)
        return p.n
    if isinstance(d, Unit):
        return 0
    if is_indexed(d):
        i, rest = split_point(p)
        if _all_components_unit(d):
            return i
        if _components_all_infinite(d):
            return cantor_pair(i, point_index(component(d, i), rest))
        raise EnumerationUnsupported(
            f"no canonical enumeration for mixed-size components: {d!r}"
        )
    raise DomainError(f"not a domain: {d!r}")


def points_within(d: DomainExpr, bound: int) -> list[Point]:
    """All points whose every coordinate is < bound, in canonical order.

    Unit contributes its point at every bound (no coordinates to restrict).
    """
    if isinstance(d, Unit):
        return [UNIT_PT]
    if isinstance(d, Nat):
        return [NatPt(n) for n in range(bound)]
    if is_indexed(d):
        out: list[Point] = []
        for i in range(bound):
            for rest in points_within(component(d, i), bound):
                out.append(make_point(d, i, rest))
        return out
    raise DomainError(f"not a domain: {d!r}")
