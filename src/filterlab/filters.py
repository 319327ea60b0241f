"""Symbolic filters with an exact membership oracle.

A FilterExpr denotes a filter on a structured countable domain.  Membership
of a normal-form set is decided by structural recursion: sectionwise
constructors reduce a query to finitely many component verdicts plus one
tail verdict, which assemble into a finite or cofinite index set handed to
the base filter.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from random import Random
from typing import Mapping, Union

from .domains import (
    DSum,
    DomainError,
    DomainExpr,
    ExceptionTable,
    FilterLabError,
    Hidden,
    NAT,
    NatPt,
    Point,
    Prod,
    UNIT,
    UNIT_PT,
    Unit,
    check_point,
    component,
    enum_point,
    exception_table,
    is_indexed,
    keys_ascending,
    node,
    point_index,
    point_key,
    sum_domain,
    tail_component,
)
from .sets import (
    CofinSet,
    FinSet,
    SectionFamily,
    SetExpr,
    cofin_set,
    cofinite_excluded,
    empty_set,
    exception_keys,
    fin_set,
    finite_points,
    first_point,
    full_set,
    gen_random_setexpr,
    is_empty_set,
    leaf_set,
    listed_components,
    nat_leaf,
    section,
    section_family,
    set_complement,
    set_member,
    set_union,
    set_without,
    subset_check,
    validate_set,
)


class UnsupportedPreimage(FilterLabError):
    """A pushforward query left the decidable set language."""


class FilterError(FilterLabError):
    """A filter expression is malformed."""


# ---------------------------------------------------------------------------
# bijections (total, both directions)


@node
class IdentityBij:
    domain: DomainExpr

    def source_domain(self) -> DomainExpr:
        return self.domain

    def target_domain(self) -> DomainExpr:
        return self.domain

    def unapply(self, q: Point) -> Point:
        return q

    def image_set(self, a: SetExpr) -> SetExpr:
        return a

    def preimage_set(self, a: SetExpr) -> SetExpr:
        return a


@node
class TableBij:
    """The fixed pairing-function bijection from the naturals onto target,
    pre-composed with a finite permutation of the naturals.

    table lists the moved values as (n, perm(n)) pairs; with none it is the
    canonical enumeration enum(target).  A finite or cofinite set maps point
    by point.
    """

    target: DomainExpr
    table: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        src = [n for n, _ in self.table]
        dst = [m for _, m in self.table]
        if len(set(src)) != len(src) or sorted(src) != sorted(dst):
            raise FilterError("table must be a finite permutation patch")

    def _perm(self, n: int) -> int:
        for a, b in self.table:
            if a == n:
                return b
        return n

    def _perm_inv(self, m: int) -> int:
        for a, b in self.table:
            if b == m:
                return a
        return m

    def source_domain(self) -> DomainExpr:
        return NAT

    def target_domain(self) -> DomainExpr:
        return self.target

    def apply(self, p: Point) -> Point:
        if not isinstance(p, NatPt):
            raise DomainError("TableBij is defined on naturals")
        return enum_point(self.target, self._perm(p.n))

    def unapply(self, q: Point) -> Point:
        return NatPt(self._perm_inv(point_index(self.target, q)))

    def image_set(self, a: SetExpr) -> SetExpr:
        if isinstance(a, (FinSet, CofinSet)):
            return leaf_set([self.apply(p) for p in a.listed], a.tail_holds, self.target)
        raise UnsupportedPreimage("image of a non-leaf set under an enumeration")

    def preimage_set(self, a: SetExpr) -> SetExpr:
        for tail_holds, off_tail in ((False, finite_points), (True, cofinite_excluded)):
            pts = off_tail(a)
            if pts is not None:
                return leaf_set([self.unapply(q) for q in pts], tail_holds, NAT)
        raise UnsupportedPreimage(
            "preimage under an enumeration is only a normal form for finite or "
            f"cofinite sets, got {type(a).__name__}"
        )


BijectionSpec = Union[IdentityBij, TableBij]


# ---------------------------------------------------------------------------
# maps (quasi-homomorphism witnesses; injective but not surjective in general)


@node
class IntoSectionMap:
    """The bijection of a component domain onto one section of target."""

    target: DomainExpr
    index: int

    def source_domain(self) -> DomainExpr:
        return component(self.target, self.index)

    def target_domain(self) -> DomainExpr:
        return self.target

    def preimage_set(self, a: SetExpr) -> SetExpr:
        return section(a, self.index)


# ---------------------------------------------------------------------------
# filter expressions


@node
class FilterExpr:
    __slots__ = ()

    # the domain is set when the node is built and the kernel on first use;
    # neither takes part in eq, hash or repr
    _dom: DomainExpr = Hidden(None)
    # the kernel, or the UnsupportedPreimage that computing it raised
    _kernel: object = Hidden(None)

    def _set_dom(self, d: DomainExpr) -> None:
        object.__setattr__(self, "_dom", d)


@node
class FilterFamily(ExceptionTable):
    """Eventually uniform family of filters: finitely many exceptions + tail."""

    exceptions: tuple[tuple[int, "FilterExpr"], ...]
    tail: "FilterExpr"

    def __post_init__(self) -> None:
        if not keys_ascending(self.exceptions):
            raise FilterError("family exception keys must be sorted distinct naturals")


@node
class SectionwiseFamily:
    """Family whose i-th member is the cylinder of inner's i-th filter.

    Member i judges a set by its i-th section only; this is the family shape
    under which a Fubini sum becomes a limit.
    """

    inner: FilterFamily
    domain: DomainExpr


@node
class RepeatedSectionwiseFamily:
    """Sectionwise family in which every cylinder recurs infinitely often.

    Member n is the cylinder at pair-row(n), so each section index owns an
    infinite set of family positions.  Limits of such families along the
    cofinite-base filter demand every section verdict at once.
    """

    inner: FilterFamily
    domain: DomainExpr


FamilyLike = Union[FilterFamily, SectionwiseFamily, RepeatedSectionwiseFamily]


@node
class Principal(FilterExpr):
    """All supersets of a fixed core set."""

    core: SetExpr

    def __post_init__(self) -> None:
        # the one source of an improper filter: every other constructor keeps
        # the empty set out when its operands do
        validate_set(self.core)
        if is_empty_set(self.core):
            raise FilterError("a principal filter needs a nonempty core")
        self._set_dom(self.core.domain)


@node
class Frechet(FilterExpr):
    """All cofinite subsets of an infinite domain."""

    domain: DomainExpr = NAT

    def __post_init__(self) -> None:
        if isinstance(self.domain, Unit):
            raise FilterError("the cofinite filter over a one-point domain is improper")
        self._set_dom(self.domain)


@node
class Product(FilterExpr):
    """outer x inner: sets whose good-section index set lies in outer."""

    outer: FilterExpr
    inner: FilterExpr

    def __post_init__(self) -> None:
        if dom_of(self.outer) != NAT:
            raise FilterError("product outer factor must live on the naturals")
        self._set_dom(Prod(dom_of(self.inner)))


@node
class FubiniSum(FilterExpr):
    """base-indexed sum of a family: {M : {i : M_i in F_i} in base}."""

    base: FilterExpr
    family: FilterFamily

    def __post_init__(self) -> None:
        if dom_of(self.base) != NAT:
            raise FilterError("Fubini base must live on the naturals")
        self._set_dom(fubini_domain(self.family))


@node
class Limit(FilterExpr):
    """{A : {i : A in F_i} in base}."""

    base: FilterExpr
    family: FamilyLike

    def __post_init__(self) -> None:
        if dom_of(self.base) != NAT:
            raise FilterError("limit base must live on the naturals")
        if isinstance(self.family, RepeatedSectionwiseFamily) and not isinstance(
            self.base, Frechet
        ):
            raise FilterError("repeated sectionwise limits require a cofinite base")
        if isinstance(self.family, FilterFamily):
            d = dom_of(self.family.tail)
            if any(dom_of(g) != d for _, g in self.family.exceptions):
                raise FilterError("limit family members must share one domain")
        else:
            d, inner = self.family.domain, self.family.inner
            listed = set(inner.keys) | {i for i, _ in listed_components(d)}
            if not is_indexed(d) or dom_of(inner.tail) != tail_component(d) or any(
                dom_of(inner.at(i)) != component(d, i) for i in listed
            ):
                raise FilterError("sectionwise family members must live on their sections")
        self._set_dom(d)


@node
class Intersection(FilterExpr):
    left: FilterExpr
    right: FilterExpr

    def __post_init__(self) -> None:
        if dom_of(self.left) != dom_of(self.right):
            raise FilterError("intersection operands must share a domain")
        self._set_dom(dom_of(self.left))


@node
class Pushforward(FilterExpr):
    """The image filter {A : preimage of A under sigma is in inner}."""

    sigma: BijectionSpec
    inner: FilterExpr

    def __post_init__(self) -> None:
        if self.sigma.source_domain() != dom_of(self.inner):
            raise FilterError("pushforward bijection source must match the filter domain")
        self._set_dom(self.sigma.target_domain())


@node
class SectionFilter(FilterExpr):
    """Cylinder filter {M : the index-th section of M is in comp}."""

    index: int
    comp: FilterExpr
    domain: DomainExpr

    def __post_init__(self) -> None:
        if component(self.domain, self.index) != dom_of(self.comp):
            raise FilterError("section filter component domain mismatch")
        self._set_dom(self.domain)


def dom_of(f: FilterExpr) -> DomainExpr:
    """The domain of f, as computed when the node was built."""
    if not isinstance(f, FilterExpr):
        raise FilterError(f"not a FilterExpr: {f!r}")
    return f._dom


def fubini_domain(family: FilterFamily) -> DomainExpr:
    """Disjoint-sum domain of a Fubini family (tail component repeated)."""
    tail = dom_of(family.tail)
    d = sum_domain({i: dom_of(g) for i, g in family.exceptions}, tail)
    return d if isinstance(d, DSum) else DSum((), tail)


# ---------------------------------------------------------------------------
# constructors


def frechet(domain: DomainExpr = NAT) -> Frechet:
    return Frechet(domain)


def principal(core: SetExpr) -> Principal:
    return Principal(core)


def filter_family(
    exceptions: Mapping[int, FilterExpr], tail: FilterExpr
) -> FilterFamily:
    return FilterFamily(exception_table(exceptions, tail), tail)


def product(outer: FilterExpr, inner: FilterExpr) -> Product:
    return Product(outer, inner)


def fubini_sum(
    base: FilterExpr, exceptions: Mapping[int, FilterExpr], tail: FilterExpr
) -> FubiniSum:
    return FubiniSum(base, filter_family(exceptions, tail))


def limit_of(base: FilterExpr, family: FamilyLike) -> Limit:
    return Limit(base, family)


def meet(left: FilterExpr, right: FilterExpr) -> Intersection:
    return Intersection(left, right)


def pushforward(sigma: BijectionSpec, inner: FilterExpr) -> Pushforward:
    return Pushforward(sigma, inner)


def section_filter(index: int, comp: FilterExpr, domain: DomainExpr) -> SectionFilter:
    return SectionFilter(index, comp, domain)


def katetov(n: int) -> FilterExpr:
    """The depth-n tower: level 0 is the one-point principal ultrafilter,
    each next level is the cofinite filter times the previous one."""
    from .domains import DEFAULT_MAX_DEPTH

    if n < 0 or n > DEFAULT_MAX_DEPTH:
        raise DomainError(f"tower depth {n} outside [0, {DEFAULT_MAX_DEPTH}]")
    f: FilterExpr = Principal(fin_set((UNIT_PT,), UNIT))
    for _ in range(n):
        f = Product(Frechet(NAT), f)
    return f


# ---------------------------------------------------------------------------
# membership


def _section_verdicts(family: FilterFamily, a: SetExpr) -> SetExpr:
    """Index set {i : the i-th section of a is in F_i} as a normal form."""
    keys = sorted(set(family.keys) | set(exception_keys(a)))
    tail_verdict = member(family.tail, a.tail)
    off = [i for i in keys if member(family.at(i), section(a, i)) != tail_verdict]
    return nat_leaf(off, tail_verdict)


def member(f: FilterExpr, a: SetExpr) -> bool:
    """Exact membership of a normal-form set in the filter."""
    if a.domain != dom_of(f):
        raise DomainError(f"set over {a.domain!r} queried against filter over {dom_of(f)!r}")
    if isinstance(a, SetExpr) and not a._valid:
        # the rules below may read only part of a, so refuse a malformed one whole
        validate_set(a)
    return _member(f, a)


def _member(f: FilterExpr, a: SetExpr) -> bool:
    if isinstance(f, Principal):
        return subset_check(f.core, a)
    if isinstance(f, Frechet):
        return cofinite_excluded(a) is not None
    parts = sum_parts(f)
    if parts is not None:
        base, fam = parts
        if not isinstance(a, SectionFamily):
            raise DomainError("sectionwise membership needs a sectionwise set")
        if isinstance(base, Frechet):
            # {i : A_i in F_i}, like {i : A in F_i} for a limit below, differs
            # from the tail's verdict at finitely many i: it is cofinite
            # exactly when the tail verdict holds
            return member(fam.tail, a.tail)
        return _member(base, _section_verdicts(fam, a))
    if isinstance(f, Limit):
        if isinstance(f.base, Frechet):
            return member(f.family.tail, a)
        return _member_limit(f, a)
    if isinstance(f, Intersection):
        return _member(f.left, a) and _member(f.right, a)
    if isinstance(f, Pushforward):
        return _member(f.inner, f.sigma.preimage_set(a))
    if isinstance(f, SectionFilter):
        return _member(f.comp, section(a, f.index))
    raise FilterError(f"not a FilterExpr: {f!r}")


def _member_limit(f: Limit, a: SetExpr) -> bool:
    fam = f.family
    tail_verdict = member(fam.tail, a)
    off = [i for i in fam.keys if member(fam.at(i), a) != tail_verdict]
    return _member(f.base, nat_leaf(off, tail_verdict))


def dual_member(f: FilterExpr, a: SetExpr) -> bool:
    """Membership of a in the dual ideal."""
    return member(f, set_complement(a))


# ---------------------------------------------------------------------------
# freeness via the kernel (the intersection of the filter)


def kernel_set(f: FilterExpr) -> SetExpr:
    """The intersection of all members of f, as a normal form.

    Each node's kernel, or the UnsupportedPreimage that computing it raised,
    is computed once and kept on the node.  The lookup and the computation
    share one frame, so the recursion is no deeper than the expression.
    """
    ker = f._kernel if isinstance(f, FilterExpr) else None
    if ker is None:
        parts = sum_parts(f)
        try:
            if isinstance(f, Principal):
                ker = f.core
            elif isinstance(f, Frechet):
                ker = empty_set(f.domain)
            elif parts is not None:
                base, fam = parts
                ker = _sectionwise_kernel(kernel_set(base), fam, dom_of(f))
            elif isinstance(f, Limit):
                ker = _limit_kernel(f)
            elif isinstance(f, Intersection):
                ker = set_union(kernel_set(f.left), kernel_set(f.right))
            elif isinstance(f, Pushforward):
                ker = f.sigma.image_set(kernel_set(f.inner))
            elif isinstance(f, SectionFilter):
                ker = _column_set(f.domain, f.index, kernel_set(f.comp))
            else:
                raise FilterError(f"not a FilterExpr: {f!r}")
        except UnsupportedPreimage as e:
            ker = e
        object.__setattr__(f, "_kernel", ker)
    if isinstance(ker, UnsupportedPreimage):
        raise ker.with_traceback(None)
    return ker


def _column_set(domain: DomainExpr, index: int, sec: SetExpr) -> SetExpr:
    excs = {index: sec}
    _fill_dsum_empties(domain, excs)
    return section_family(excs, empty_set(tail_component(domain)), domain)


def _fill_dsum_empties(domain: DomainExpr, excs: dict) -> None:
    for i, e in listed_components(domain):
        excs.setdefault(i, empty_set(e))


def _sectionwise_kernel(
    base_kernel: SetExpr, family: FilterFamily, domain: DomainExpr
) -> SetExpr:
    # a co-singleton at (i, rest) is in the sum iff rest avoids F_i's kernel
    # or the base accepts the index set short of i: section i of the kernel
    # is F_i's kernel where the base kernel holds i, and empty elsewhere
    excs = {}
    for i in sorted({point_key(p)[0] for p in base_kernel.listed} | set(family.keys)):
        g = family.at(i)
        excs[i] = kernel_set(g) if set_member(NatPt(i), base_kernel) else empty_set(dom_of(g))
    tail = kernel_set(family.tail) if base_kernel.tail_holds else empty_set(tail_component(domain))
    return section_family(excs, tail, domain)


def _limit_kernel(f: Limit) -> SetExpr:
    """Kernel of a limit of a plain family, in one walk over its members' kernels.

    p is in the kernel iff the base rejects {i : p not in ker F_i}, so only p's
    pattern matters: which member kernels hold p.  Like the n-ary apply of
    ordered decision diagrams (Bryant, IEEE Trans. Computers 1986), the walk
    reads the kernels side by side, key by key then the tail, and point by
    point then the tail; the base judges each pattern some point realises once.
    """
    fam = f.family
    keys = fam.keys
    kernels = [kernel_set(fam.at(i)) for i in keys] + [kernel_set(fam.tail)]

    @cache
    def in_kernel(held: tuple[bool, ...]) -> bool:
        # {i : p is outside F_i's kernel} holds the tail's verdict off the keys where held differs
        off = [i for i, h in zip(keys, held) if h != held[-1]]
        return not member(f.base, nat_leaf(off, not held[-1]))

    def walk(kers: list[SetExpr]) -> SetExpr:
        domain = kers[0].domain
        if isinstance(kers[0], SectionFamily):
            ids = {i for ker in kers for i in ker.keys}
            excs = {i: walk([ker.at(i) for ker in kers]) for i in ids}
            return section_family(excs, walk([ker.tail for ker in kers]), domain)
        # a point's pattern is the kernels' tail bits, flipped where a kernel lists it
        tails = [ker.tail_holds for ker in kers]
        patterns: dict[Point, list[bool]] = {}
        for j, ker in enumerate(kers):
            for p in ker.listed:
                patterns.setdefault(p, tails.copy())[j] = not tails[j]
        # over Unit a listed point is the only one, so no point realises the tail
        tail = False if patterns and isinstance(domain, Unit) else in_kernel(tuple(tails))
        kept = [p for p, held in patterns.items() if in_kernel(tuple(held)) != tail]
        return leaf_set(kept, tail, domain)

    return walk(kernels)


def is_free(f: FilterExpr) -> bool:
    """True iff the filter has empty intersection."""
    return is_empty_set(kernel_set(f))


# ---------------------------------------------------------------------------
# Fubini sums as limits


def fubini_as_limit(f: FubiniSum) -> Limit:
    """The limit of cylinder filters that is membership-equivalent to f."""
    return Limit(f.base, SectionwiseFamily(f.family, dom_of(f)))


# A repeated sectionwise limit demands every section verdict at once: it is
# the sum along the principal filter of all indices.
ALL_INDICES = Principal(full_set(NAT))


def sum_parts(f: FilterExpr) -> tuple[FilterExpr, FilterFamily] | None:
    """(base, family) of f read as a Fubini sum over dom_of(f), or None.

    A product is the sum of a constant family, and a limit of cylinder
    filters is the sum of their components (fubini_as_limit read backwards).
    """
    if isinstance(f, Product):
        return f.outer, FilterFamily((), f.inner)
    if isinstance(f, FubiniSum):
        return f.base, f.family
    if isinstance(f, Limit):
        fam = f.family
        if isinstance(fam, SectionwiseFamily):
            return f.base, fam.inner
        if isinstance(fam, RepeatedSectionwiseFamily):
            return ALL_INDICES, fam.inner
    return None


# ---------------------------------------------------------------------------
# sequences and filter convergence


@node
class LeafSeq:
    """Eventually constant rational values on a leaf domain."""

    entries: tuple[tuple[Point, Fraction], ...]
    tail: Fraction
    domain: DomainExpr


@node
class SectionSeq(ExceptionTable):
    exceptions: tuple[tuple[int, "SeqExpr"], ...]
    tail: "SeqExpr"
    domain: DomainExpr


SeqExpr = Union[LeafSeq, SectionSeq]


@node
class Divergent:
    pass


DIVERGENT = Divergent()


def seq_leaf(
    entries: Mapping[Point, Fraction | int], tail: Fraction | int, domain: DomainExpr
) -> LeafSeq:
    tail_v = Fraction(tail)
    for p in entries:
        check_point(p, domain)
    values = {p: Fraction(v) for p, v in entries.items()}
    return LeafSeq(exception_table(values, tail_v, key=point_key), tail_v, domain)


def seq_sections(
    exceptions: Mapping[int, SeqExpr], tail: SeqExpr, domain: DomainExpr
) -> SectionSeq:
    return SectionSeq(exception_table(exceptions, tail), tail, domain)


def seq_values(s: SeqExpr) -> tuple[Fraction, ...]:
    if isinstance(s, LeafSeq):
        return tuple(sorted({v for _, v in s.entries} | {s.tail}))
    vals = set(seq_values(s.tail))
    for _, sub in s.exceptions:
        vals |= set(seq_values(sub))
    return tuple(sorted(vals))


def seq_level_set(s: SeqExpr, v: Fraction) -> SetExpr:
    """{p : s(p) = v} as a normal form."""
    if isinstance(s, LeafSeq):
        tail_holds = s.tail == v
        return leaf_set([p for p, w in s.entries if (w == v) != tail_holds], tail_holds, s.domain)
    excs = {i: seq_level_set(sub, v) for i, sub in s.exceptions}
    return section_family(excs, seq_level_set(s.tail, v), s.domain)


def flim(s: SeqExpr, f: FilterExpr) -> Fraction | Divergent:
    """The filter limit of an eventually uniform sequence, if any.

    The sequence attains finitely many values, so convergence to v reduces
    to membership of the exact level set of v once the tolerance drops below
    half the least value gap.
    """
    if s.domain != dom_of(f):
        raise DomainError("sequence and filter domains differ")
    for v in seq_values(s):
        if member(f, seq_level_set(s, v)):
            return v
    return DIVERGENT


# ---------------------------------------------------------------------------
# diagonalizability


@node
class DiagYes:
    witness: SetExpr


@node
class DiagNo:
    pass


@node
class DiagUnknown:
    pass


DiagResult = Union[DiagYes, DiagNo, DiagUnknown]


def is_diagonalizable(f: FilterExpr) -> DiagResult:
    """Decide whether some infinite set is almost contained in every member."""
    if isinstance(f, Principal):
        if finite_points(f.core) is None:
            return DiagYes(f.core)
        return DiagNo()
    if isinstance(f, Frechet):
        return DiagYes(full_set(f.domain))
    if isinstance(f, SectionFilter):
        r = is_diagonalizable(f.comp)
        if isinstance(r, DiagYes):
            return DiagYes(_column_set(f.domain, f.index, r.witness))
        return r
    if isinstance(f, Intersection):
        for side in (f.left, f.right):
            r = is_diagonalizable(side)
            if isinstance(r, DiagYes):
                return r
        return DiagUnknown()
    if isinstance(f, Pushforward):
        r = is_diagonalizable(f.inner)
        if isinstance(r, DiagYes):
            try:
                return DiagYes(f.sigma.image_set(r.witness))
            except UnsupportedPreimage:
                return DiagUnknown()
        return r
    parts = sum_parts(f)
    if parts is not None:
        return _diag_sum(*parts, dom_of(f))
    if isinstance(f, Limit) and not f.family.exceptions:
        return is_diagonalizable(f.family.tail)
    return DiagUnknown()


def _diag_sum(base: FilterExpr, fam: FilterFamily, domain: DomainExpr) -> DiagResult:
    if isinstance(base, Principal):
        core_pts = finite_points(base.core)
        candidates: list[int] = []
        if core_pts is not None:
            candidates = [point_key(p)[0] for p in core_pts]
        else:
            candidates = [i for i in fam.keys if set_member(NatPt(i), base.core)]
            # the core is cofinite, so some index off the family keys is in it
            candidates.append(first_point(set_without(base.core, map(NatPt, fam.keys))).n)
        answers = [is_diagonalizable(fam.at(i)) for i in candidates]
        for i, r in zip(candidates, answers):
            if isinstance(r, DiagYes):
                return DiagYes(_column_set(domain, i, r.witness))
        if core_pts is not None and all(isinstance(r, DiagNo) for r in answers):
            return DiagNo()
        return DiagUnknown()
    members = [g for _, g in fam.exceptions] + [fam.tail]
    try:
        base_free = is_free(base)
        members_free = [is_free(g) for g in members]
    except UnsupportedPreimage:
        return DiagUnknown()
    if base_free and all(members_free):
        return DiagNo()
    if isinstance(base, Frechet) and isinstance(fam.tail, Principal):
        tail_core = finite_points(fam.tail.core)
        if tail_core:
            # pack the tail cores into cofinitely many sections; the finitely
            # many bad sections of any member cost finitely many points
            excs = {i: empty_set(dom_of(fam.at(i))) for i in fam.keys}
            return DiagYes(section_family(excs, fam.tail.core, domain))
    return DiagUnknown()


# ---------------------------------------------------------------------------
# random generation for property tests


def gen_random_filter(domain: DomainExpr, depth_budget: int, seed: int) -> FilterExpr:
    rng = Random(seed)
    return _gen_filter(domain, depth_budget, rng)


def _nonempty(core: SetExpr) -> SetExpr:
    if is_empty_set(core):
        return full_set(core.domain)
    return core


def _gen_base(rng: Random) -> FilterExpr:
    roll = rng.random()
    if roll < 0.45:
        return Frechet(NAT)
    if roll < 0.8:
        pts = [NatPt(rng.randrange(8)) for _ in range(rng.randrange(4))]
        if rng.random() < 0.5:
            return Principal(_nonempty(fin_set(pts, NAT)))
        return Principal(cofin_set(pts, NAT))
    return Intersection(Principal(cofin_set([NatPt(rng.randrange(6))], NAT)), Frechet(NAT))


def _gen_filter(d: DomainExpr, budget: int, rng: Random) -> FilterExpr:
    choices = ["principal"]
    if not isinstance(d, Unit):
        choices.append("frechet")
    if budget > 0:
        choices += ["meet", "limit"]
        if is_indexed(d):
            choices += ["sectionwise", "sectionwise", "cylinder"]
    kind = rng.choice(choices)
    if kind == "principal":
        return Principal(_nonempty(gen_random_setexpr(d, 8, rng.randrange(1 << 30))))
    if kind == "frechet":
        return Frechet(d)
    if kind == "meet":
        return Intersection(
            _gen_filter(d, budget - 1, rng), _gen_filter(d, budget - 1, rng)
        )
    if kind == "limit":
        excs = {
            i: _gen_filter(d, 0, rng) for i in sorted(rng.sample(range(6), rng.randrange(3)))
        }
        fam = filter_family(excs, _gen_filter(d, 0, rng))
        return Limit(_gen_base(rng), fam)
    if kind == "cylinder":
        idx = rng.randrange(4)
        return SectionFilter(idx, _gen_filter(component(d, idx), budget - 1, rng), d)
    # sectionwise: a product or Fubini-style sum over this indexed domain
    excs = {}
    if not isinstance(d, DSum) or not d.exceptions:
        excs = {
            i: _gen_filter(component(d, i), budget - 1, rng)
            for i in sorted(rng.sample(range(5), rng.randrange(3)))
        }
    else:
        excs = {
            i: _gen_filter(component(d, i), budget - 1, rng)
            for i in range(len(d.exceptions))
        }
    tail = _gen_filter(tail_component(d), budget - 1, rng)
    if isinstance(d, Prod) and not excs and rng.random() < 0.5:
        return Product(_gen_base(rng), tail)
    if isinstance(d, Prod):
        # a Prod domain is the sum domain with all components equal
        fam = filter_family(excs, tail)
        lim = Limit(_gen_base(rng), SectionwiseFamily(fam, d))
        return lim
    return FubiniSum(_gen_base(rng), filter_family(excs, tail))
