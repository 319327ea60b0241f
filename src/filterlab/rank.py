"""Certified ordinal rank bounds for filter expressions.

Every derivation is a tree of rule applications over Cantor-normal-form
ordinals.  Each rule application records its inputs, parameters, and output
so a replayer can recompute the arithmetic; bounds from different rules at
one node are intersected, and an empty intersection raises instead of
clamping.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence, Union

from .domains import DomainExpr, FilterLabError, Hidden, NAT, NatPt, fresh_index, node
from .filters import (
    BijectionSpec,
    FilterExpr,
    FilterFamily,
    Frechet,
    FubiniSum,
    Intersection,
    IntoSectionMap,
    Limit,
    Principal,
    Product,
    Pushforward,
    RepeatedSectionwiseFamily,
    SectionFilter,
    UnsupportedPreimage,
    dom_of,
    katetov,
    kernel_set,
    member,
    sum_parts,
)
from .ordinals import (
    ONE,
    Ordinal,
    OrdinalError,
    ZERO,
    ord_add,
    ord_of_int,
    ord_str,
    ord_succ,
    parse_ordinal,
)
from .sets import SetExpr, cofin_set, finite_points


class InconsistentBounds(FilterLabError):
    """Two sound derivations produced an empty bounds interval."""
    exit_code = 3  # an internal inconsistency, not bad input


class CertificateError(FilterLabError):
    """A certificate failed to replay."""
    exit_code = 3


class WitnessRejected(FilterLabError):
    """A rank witness failed sample verification."""


# ---------------------------------------------------------------------------
# bounds


@node
class RankBounds:
    lo: Ordinal
    hi: Ordinal | None  # None: no upper bound derived
    _source: str | None = Hidden(None)  # the printed text, kept by bounds_text

    def __post_init__(self) -> None:
        if self.hi is not None and self.hi < self.lo:
            raise InconsistentBounds(f"empty interval {bounds_text(self)}")

    @property
    def exact(self) -> Ordinal | None:
        if self.hi is not None and self.lo == self.hi:
            return self.lo
        return None


TOP = RankBounds(ZERO, None)


def bounds_of(lo: int | Ordinal, hi: int | Ordinal | None) -> RankBounds:
    lo_o = lo if isinstance(lo, Ordinal) else ord_of_int(lo)
    hi_o = hi if (hi is None or isinstance(hi, Ordinal)) else ord_of_int(hi)
    return RankBounds(lo_o, hi_o)


def bounds_text(b: RankBounds) -> str:
    if b._source is None:
        hi = "*" if b.hi is None else ord_str(b.hi)
        object.__setattr__(b, "_source", f"[{ord_str(b.lo)},{hi}]")
    return b._source


# certificate text repeats a few (immutable) bounds on nearly every line
@lru_cache(maxsize=256)
def parse_bounds(text: str) -> RankBounds:
    m = re.fullmatch(r"\[([^,\]]+),([^,\]]+)\]", text.strip())
    if not m:
        raise CertificateError(f"malformed bounds {text!r}")
    try:
        lo = parse_ordinal(m.group(1))
        hi = None if m.group(2) == "*" else parse_ordinal(m.group(2))
    except OrdinalError as e:
        raise CertificateError(f"malformed bounds {text!r}: {e}") from None
    if hi is not None and hi < lo:
        raise CertificateError(f"malformed bounds {text!r}: empty interval")
    return RankBounds(lo, hi)


def min_hi(a: RankBounds, b: RankBounds) -> Ordinal | None:
    """The lesser of two upper bounds, where None is no bound."""
    if a.hi is None:
        return b.hi
    if b.hi is None:
        return a.hi
    return min(a.hi, b.hi)


def intersect_bounds(a: RankBounds, b: RankBounds, where: str = "") -> RankBounds:
    """The bounds both a and b give: the one of them within the other, if any."""
    lo, hi = max(a.lo, b.lo), min_hi(a, b)
    for c in (a, b):
        if c.lo == lo and c.hi == hi:
            return c
    if hi is not None and hi < lo:
        ctx = f" at {where}" if where else ""
        raise InconsistentBounds(
            f"bounds {bounds_text(a)} and {bounds_text(b)} have empty intersection{ctx}"
        )
    return RankBounds(lo, hi)


# ---------------------------------------------------------------------------
# certificates


@node
class RuleApp:
    rule: str
    params: tuple[tuple[str, str], ...]
    inputs: tuple[RankBounds, ...]
    output: RankBounds


@node
class CertNode:
    label: str
    applied: tuple[RuleApp, ...]
    final: RankBounds
    children: tuple["CertNode", ...]


@node
class RankCertificate:
    root: CertNode


# ---------------------------------------------------------------------------
# rule arithmetic (shared by the engine and the replayer)

CITES = {
    "R0": "a filter has rank 0 exactly when some point lies in every member; "
    "free filters have rank at least 1",
    "RKat": "the tower with cofinite steps over a one-point start has rank "
    "equal to its depth",
    "RMono": "a filter contained in another has rank at most the larger "
    "filter's rank; a meet is contained in both operands",
    "RFubLo": "if the index set J lies in the base, every summand indexed by J "
    "has rank at least xi, and the base has rank at least alpha, the sum has "
    "rank at least xi + alpha",
    "RFubHi": "if the index set J lies in the base, every summand indexed by J "
    "has rank at most xi, and the base has rank at most alpha, the sum has "
    "rank at most xi + 1 + alpha",
    "RFubFr": "a sum along the cofinite filter whose summands have rank at "
    "most xi on a cofinite index set has rank at most xi + 1",
    "RFubExact": "a sum along a free rank-one Borel base whose summands have "
    "rank exactly alpha on an index set in the base has rank exactly alpha + 1",
    "RLimHi": "if the index set J lies in the base, every family member "
    "indexed by J has rank at most beta, and the base has rank at most alpha, "
    "the limit has rank at most beta + 1 + alpha",
    "RLimHi1": "a limit along a rank-one Borel base of family members of rank "
    "at most alpha on an index set in the base has rank at most alpha + 1",
    "RLimLo": "a limit along a proper base is free when all family members on "
    "some index set in the base are free, so its rank is at least 1",
    "RLimConst": "the limit of a constant family along a proper base equals "
    "the constant filter, so the ranks agree",
    "RSection": "the cylinder filter judging one fixed section has the same "
    "rank as the filter it applies to that section",
    "RIso": "the image of a filter under a bijection is an isomorphic copy, "
    "and isomorphic filters have equal rank",
    "RCert": "externally certified bounds",
    "RQH": "if preimages under a map send members of the target filter into "
    "the source filter, the target's rank is at most the source's rank",
    "RCopy": "if a bijection sends every member of a filter into the target, "
    "the target contains an isomorphic copy, so its rank is at least the "
    "source's rank",
}
_CITE_TOKEN = {rule: f'cite="{claim}"' for rule, claim in CITES.items()}  # as RULE lines print it

# each rule's links to its node's children: the roles of the children it
# reads, in input order, and its parameters that restate those inputs, as
# (parameter, input, bound).  "J" reads the bounds the summands or members
# share on the index set the J parameter names; a cylinder reads the section
# its index parameter names
_J_BASE = ("J", "base")
_LINKS = {
    "R0": ((), ()),
    "RKat": ((), ()),
    "RMono": (("left", "right"), ()),
    "RFubLo": (_J_BASE, (("xi", 0, "lo"), ("alpha", 1, "lo"))),
    "RFubHi": (_J_BASE, (("xi", 0, "hi"), ("alpha", 1, "hi"))),
    "RFubFr": (_J_BASE, (("xi", 0, "hi"),)),
    "RFubExact": (_J_BASE, (("alpha", 0, "exact"),)),
    "RLimHi": (_J_BASE, (("beta", 0, "hi"), ("alpha", 1, "hi"))),
    "RLimHi1": (_J_BASE, (("alpha", 0, "hi"),)),
    "RLimLo": (("J",), ()),
    "RLimConst": (("tail",), ()),
    "RSection": (("section {index}",), ()),
    "RIso": (("inner",), ()),
    "RCert": ((), ()),
    "RQH": (("witness source",), ()),
    "RCopy": (("witness source",), ()),
}


def _need(name: str, inputs: Sequence[RankBounds], k: int) -> RankBounds:
    if len(inputs) <= k:
        raise CertificateError(f"{name}: missing input {k}")
    return inputs[k]


def _need_hi(name: str, inputs: Sequence[RankBounds], k: int) -> Ordinal:
    if (hi := _need(name, inputs, k).hi) is None:
        raise CertificateError(f"{name}: unbounded input where a bound is needed")
    return hi


def _param(name: str, params: Mapping[str, str], key: str, nat: bool = False) -> str:
    value = params.get(key)
    if value is None or nat and not (value.isascii() and value.isdigit()):
        raise CertificateError(f"{name}: missing or malformed parameter {key}={value!r}")
    return value


def eval_rule(
    name: str, params: Mapping[str, str], inputs: Sequence[RankBounds]
) -> RankBounds:
    """Recompute a rule application's output from its inputs and parameters."""
    if name == "R0":
        return TOP if params.get("free") == "yes" else RankBounds(ZERO, ZERO)
    if name == "RKat":
        d = ord_of_int(int(_param(name, params, "depth", nat=True)))
        return RankBounds(d, d)
    if name == "RMono":
        his = [b.hi for b in inputs if b.hi is not None]
        if not his:
            raise CertificateError("RMono: no bounded input")
        return RankBounds(ZERO, min(his))
    if name == "RFubLo":
        return RankBounds(ord_add(_need(name, inputs, 0).lo, _need(name, inputs, 1).lo), None)
    if name in ("RFubHi", "RLimHi"):
        xi, alpha = _need_hi(name, inputs, 0), _need_hi(name, inputs, 1)
        return RankBounds(ZERO, ord_add(ord_succ(xi), alpha))
    if name in ("RFubFr", "RLimHi1"):
        return RankBounds(ZERO, ord_succ(_need_hi(name, inputs, 0)))
    if name == "RFubExact":
        a = _need(name, inputs, 0).exact
        if a is None:
            raise CertificateError("RFubExact: summand bounds not exact")
        return RankBounds(ord_succ(a), ord_succ(a))
    if name == "RLimLo":
        if _need(name, inputs, 0).lo < ONE:
            raise CertificateError("RLimLo: family members not all free")
        return RankBounds(ONE, None)
    if name in ("RLimConst", "RSection", "RIso"):
        return _need(name, inputs, 0)
    if name == "RCert":
        return parse_bounds(_param(name, params, "bounds"))
    if name == "RQH":
        return RankBounds(ZERO, _need_hi(name, inputs, 0))
    if name == "RCopy":
        return RankBounds(_need(name, inputs, 0).lo, None)
    raise CertificateError(f"unknown rule {name!r}")


def _app(name: str, inputs: Sequence[RankBounds] = (), **fixed: str) -> RuleApp:
    """The rule applied: its fixed parameters, then those `_LINKS` says restate inputs."""
    p = (*fixed.items(), *((k, str(getattr(inputs[i], end))) for k, i, end in _LINKS[name][1]))
    return RuleApp(name, p, tuple(inputs), eval_rule(name, dict(p), inputs))


def _shared(finals: Sequence[RankBounds]) -> RankBounds:
    """The bounds that hold for every one of finals, a nonempty sequence."""
    his = [b.hi for b in finals]
    return RankBounds(min(b.lo for b in finals), None if None in his else max(his))


# ---------------------------------------------------------------------------
# certified oracle filters


@node
class CertifiedFilter:
    """A black-box membership oracle with externally certified rank bounds.

    decide returns True/False on its registered set sublanguage and None
    outside it.
    """

    name: str
    domain: DomainExpr
    bounds: RankBounds
    provenance: str
    decide: Callable[[object], bool | None]

    def __post_init__(self) -> None:  # its certificate node's label holds both on one line
        for text in (self.name, self.provenance):
            if "".join(text.splitlines()) != text:
                raise FilterLabError(f"certified filter text {text!r} breaks a line")


RankSubject = Union[FilterExpr, CertifiedFilter]


def holds_in(f: RankSubject, a: SetExpr) -> bool | None:
    """Membership for either an expression or a certified oracle."""
    if isinstance(f, CertifiedFilter):
        return f.decide(a)
    return member(f, a)


def _domain(f: RankSubject) -> DomainExpr:
    return f.domain if isinstance(f, CertifiedFilter) else dom_of(f)


# ---------------------------------------------------------------------------
# rank witnesses


@node
class CopyWitness:
    """sigma sends members of source into the target filter."""

    source: FilterExpr
    sigma: BijectionSpec
    samples: tuple[SetExpr, ...]


@node
class QHWitness:
    """Preimages under pi send members of the target back into source."""

    source: FilterExpr
    pi: IntoSectionMap
    samples: tuple[SetExpr, ...]


RankWitness = Union[CopyWitness, QHWitness]


# ---------------------------------------------------------------------------
# the engine


def rank_bounds(
    f: RankSubject, witnesses: Sequence[RankWitness] = ()
) -> tuple[RankBounds, "RankCertificate"]:
    node = _derive(f)[0]
    for w in witnesses:
        node = _attach_witness(node, f, w)
    return node.final, RankCertificate(node)


def _finalize(label: str, apps: list[RuleApp], kids: list[CertNode], role: str = "") -> CertNode:
    final = TOP
    for a in apps:
        final = intersect_bounds(final, a.output, where=label)
    return CertNode(f"{role}: {label}" if role else label, tuple(apps), final, tuple(kids))


# the tower's one-point start
_ONE_POINT = katetov(0).core


def _derive(f: RankSubject, role: str = "") -> tuple[CertNode, int | None, int | None]:
    """f's certificate node, labelled with its role among its parent's
    children, its depth as a tower copy and its countable-type level (None
    where there is none), the last two read off its children's."""
    if isinstance(f, CertifiedFilter):
        app = _app("RCert", bounds=bounds_text(f.bounds))
        return _finalize(f"certified {f.name} ({f.provenance})", [app], [], role), None, None
    head: list[RuleApp] = []
    apps: list[RuleApp] = []
    children: list[CertNode] = []
    pts = depth = level = None
    try:
        pts = finite_points(kernel_set(f))
        head.append(_app("R0", free="yes" if pts == () else "no"))
    except UnsupportedPreimage:
        pass
    if isinstance(f, Principal):
        # pts is the core: one point has level 0, finitely many level 1
        depth = 0 if f.core == _ONE_POINT else None
        level = (0 if len(pts) == 1 else 1) if pts else None
    elif isinstance(f, Frechet):
        depth = level = 1
    elif isinstance(f, (Product, FubiniSum, Limit)):
        depth, level = _derive_table(f, apps, children)
    elif isinstance(f, Intersection):
        left, _, left_level = _derive(f.left, "left")
        right, _, right_level = _derive(f.right, "right")
        children += [left, right]
        apps.append(_app("RMono", [left.final, right.final]))
        if left_level is not None and right_level is not None:
            level = max(left_level, right_level) + 1
    elif isinstance(f, Pushforward):
        inner, depth, level = _derive(f.inner, "inner")
        children.append(inner)
        apps.append(_app("RIso", [inner.final]))
    elif isinstance(f, SectionFilter):
        comp, _, level = _derive(f.comp, f"section {f.index}")
        children.append(comp)
        apps.append(_app("RSection", [comp.final], index=str(f.index)))
    if depth is not None:
        head.append(_app("RKat", depth=str(depth)))
    return _finalize(type(f).__name__, head + apps, children, role), depth, level


def _derive_table(
    f: Union[Product, FubiniSum, Limit], apps: list[RuleApp], children: list[CertNode]
) -> tuple[int | None, int | None]:
    """Sum or limit rules over a base and the members of an indexed family;
    returns f's tower depth and countable-type level.

    A sum or product lists its summands (sum_parts) and a limit of a plain
    family its own table; a limit of a sectionwise family lists, at each
    listed index i and at the first index past them, the cylinder judging
    section i by the i-th component.  J is every index ("full") or, where the
    base holds it, the cofinite set beyond the listed ones; a repeated family
    has no such J, since every row recurs on an infinite set of positions.
    """
    is_sum = not isinstance(f, Limit)
    base, fam = sum_parts(f) if is_sum else (f.base, f.family)
    base_node = _derive(base, "base")[0]
    base_b = base_node.final
    if isinstance(fam, FilterFamily):
        keys, tail = fam.keys, fam.tail
        listed: Iterable[tuple[int, FilterExpr]] = fam.exceptions
    else:
        inner, dom = fam.inner, fam.domain
        keys, tail = inner.keys, SectionFilter(fresh_index(inner.keys), inner.tail, dom)
        listed = ((i, SectionFilter(i, g, dom)) for i, g in inner.exceptions)
    repeated = isinstance(fam, RepeatedSectionwiseFamily)
    role = "summand" if is_sum else "member row" if repeated else "member"
    nodes, levels = [], []
    for i, g in listed:
        node, _, level = _derive(g, f"{role} {i}")
        nodes.append(node)
        levels.append(level)
    tail_node, tail_depth, tail_level = _derive(tail, "summand tail" if is_sum else "member tail")
    children += [base_node, *nodes, tail_node]
    constant = not is_sum and isinstance(fam, FilterFamily) and not keys

    # the members' bounds on each admissible J
    cands = [("full", _shared([tail_node.final] + [n.final for n in nodes]))]
    if keys and not repeated and member(base, cofin_set([NatPt(i) for i in keys], NAT)):
        cands.append(("cofinite-beyond-exceptions", tail_node.final))

    # max and min keep the first best J, so "full" wins ties
    if is_sum:
        j, agg = max(cands, key=lambda c: ord_add(c[1].lo, base_b.lo))
        apps.append(_app("RFubLo", [agg, base_b], J=j))
    elif constant:
        apps.append(_app("RLimConst", [tail_node.final]))
    bounded = [c for c in cands if c[1].hi is not None]
    if bounded:
        j, agg = min(bounded, key=lambda c: c[1].hi)
        if base_b.hi is not None:
            apps.append(_app("RFubHi" if is_sum else "RLimHi", [agg, base_b], J=j))
        # along the cofinite filter (or, for a limit, any base certified at
        # [1,1]: every filter built here is Borel) the base adds one, not 1 +
        # its rank
        if isinstance(base, Frechet) if is_sum else base_b.exact == ONE:
            apps.append(_app("RFubFr" if is_sum else "RLimHi1", [agg, base_b], J=j))
    if not is_sum:
        for j, agg in cands:
            if ONE <= agg.lo:
                apps.append(_app("RLimLo", [agg], J=j))
                break
    elif base_b.exact == ONE:  # the exact theorem needs a base of rank one
        for j, agg in cands:
            if agg.exact is not None:
                apps.append(_app("RFubExact", [agg, base_b], J=j))
                break

    # a sum of one tower copy along the cofinite filter is a tower one deeper
    depth = None
    if is_sum and not keys and isinstance(base, Frechet) and tail_depth is not None:
        depth = tail_depth + 1
    # countable type: the limit of a constant family is the constant filter
    # itself; a sum or limit along the cofinite filter is a plain sectionwise
    # limit, and along a principal base, repeating each index infinitely often
    # realizes the everywhere-quantified verdict as a cofinite one
    level = None
    if isinstance(base, (Frechet, Principal)):
        levels.append(tail_level)
        if constant:
            level = tail_level
        elif None not in levels:
            level = max(levels) + 1
    return depth, level


def _attach_witness(node: CertNode, f: RankSubject, w: RankWitness) -> CertNode:
    src_node = _derive(w.source, "witness source")[0]
    _check_witness(w, f)
    rule, via = ("RCopy", w.sigma) if isinstance(w, CopyWitness) else ("RQH", w.pi)
    app = _app(rule, [src_node.final], via=type(via).__name__)
    return _finalize(node.label, [*node.applied, app], [*node.children, src_node])


def _check_witness(w: RankWitness, target: RankSubject) -> None:
    """Every sample in the first filter must map into the second.

    A copy witness maps source members into the target by the bijection; a
    QH witness maps target members back into the source by preimages. The
    map must go from the source's domain to the target's, and a sample
    whose verdict or move leaves the decidable language rejects it.
    """
    if isinstance(w, CopyWitness):
        via, first, move, second = w.sigma, w.source, w.sigma.image_set, target
        kind, escaped = "copy ", "copy witness image escaped the target filter"
    else:
        via, first, move, second = w.pi, target, w.pi.preimage_set, w.source
        kind, escaped = "", "preimage of a target member escaped the source"
    if (via.source_domain(), via.target_domain()) != (_domain(w.source), _domain(target)):
        raise WitnessRejected(f"{kind}witness maps between the wrong domains")
    used = 0
    for a in w.samples:
        try:
            v = holds_in(first, a)
            if v:
                v = holds_in(second, move(a))
                if v is False:
                    raise WitnessRejected(escaped)
        except UnsupportedPreimage:
            v = None
        if v is None:
            raise WitnessRejected(f"{kind}witness sample outside the decidable language")
        used += v
    if used == 0:
        raise WitnessRejected(f"{kind}witness verified against no valid sample")


# ---------------------------------------------------------------------------
# serialization and replay


def certificate_text(cert: RankCertificate) -> str:
    lines: list[str] = []
    _render(cert.root, 0, lines)
    return "\n".join(lines) + "\n"


def _render(node: CertNode, depth: int, lines: list[str]) -> None:
    pad = "  " * depth
    lines.append(f'{pad}NODE "{node.label}" final={bounds_text(node.final)}')
    for a in node.applied:
        parts = [f"{pad}  RULE {a.rule}"]
        parts += [f"{k}={v}" for k, v in a.params]
        parts.append(_CITE_TOKEN[a.rule])
        parts += [f"in={bounds_text(b)}" for b in a.inputs]
        parts.append(f"out={bounds_text(a.output)}")
        lines.append(" ".join(parts))
    for c in node.children:
        _render(c, depth + 1, lines)


_NODE_RE = re.compile(r'^(\s*)NODE "(.*)" final=(\[[^\]]*\])$')
_RULE_RE = re.compile(r"^(\s*)RULE (\S+)(.*)$")


def certificate_from_text(text: str) -> RankCertificate:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    pos = 0

    def node_at(depth: int) -> re.Match | None:
        m = _NODE_RE.match(lines[pos]) if pos < len(lines) else None
        return m if m and len(m.group(1)) == 2 * depth else None

    def parse_node(depth: int, m: re.Match | None) -> CertNode:
        nonlocal pos
        if not m:
            raise CertificateError(f"expected NODE at line {pos + 1}")
        label, final = m.group(2), parse_bounds(m.group(3))
        pos += 1
        apps: list[RuleApp] = []
        while pos < len(lines):
            r = _RULE_RE.match(lines[pos])
            if not r or len(r.group(1)) != 2 * depth + 2:
                break
            apps.append(_parse_rule(r.group(2), r.group(3)))
            pos += 1
        kids: list[CertNode] = []
        while n := node_at(depth + 1):
            kids.append(parse_node(depth + 1, n))
        return CertNode(label, tuple(apps), final, tuple(kids))

    root = parse_node(0, node_at(0))
    if pos != len(lines):
        raise CertificateError(f"trailing certificate content at line {pos + 1}")
    return RankCertificate(root)


def _parse_rule(name: str, rest: str) -> RuleApp:
    # the first cite=" and the next quote, wherever they stand
    head, _, after = rest.partition('cite="')
    cite, closed, tail = after.partition('"')
    rest, cite = (head + tail, cite) if closed else (rest, "")
    params: list[tuple[str, str]] = []
    inputs: list[RankBounds] = []
    output: RankBounds | None = None
    # replay would read a repeated key's last copy, where the text shows its first
    seen = {"cite"} if closed else set()
    for tok in rest.split():
        key, _, val = tok.partition("=")
        if not _:
            raise CertificateError(f"malformed rule token {tok!r}")
        if key != "in" and key in seen:
            raise CertificateError(f"rule {name} repeats {key}=")
        seen.add(key)
        if key == "in":
            inputs.append(parse_bounds(val))
        elif key == "out":
            output = parse_bounds(val)
        else:
            params.append((key, val))
    if output is None:
        raise CertificateError(f"rule {name} missing output")
    if name not in CITES:
        raise CertificateError(f"unknown rule {name!r}")
    if cite != CITES[name]:
        raise CertificateError(f"rule {name} cites {cite!r}, not its own claim")
    return RuleApp(name, tuple(params), tuple(inputs), output)


def replay_certificate(cert: RankCertificate) -> RankBounds:
    """Recompute every rule application and node intersection."""
    return _replay_node(cert.root)


def _linked_inputs(rule: str, params: Mapping[str, str], roles: dict) -> tuple[RankBounds, ...]:
    """A rule's inputs as its node's children give them, by the roles its
    `_LINKS` entry names; an unknown rule reads nothing, and eval_rule names it."""
    reads, restated = _LINKS.get(rule, ((), ()))
    inputs = tuple(_linked(rule, role, params, roles) for role in reads)
    for key, k, end in restated:
        if params.get(key) != str(getattr(inputs[k], end)):
            raise CertificateError(f"rule {rule}: {key}={params.get(key)} restates no input bound")
    return inputs


def _linked(rule: str, role: str, params: Mapping[str, str], roles: dict) -> RankBounds:
    if role == "witness source":  # the k-th witness rule reads the k-th witness source
        if not roles.get(role):
            raise CertificateError(f"rule {rule}: no witness source child left")
        return roles[role].pop(0)
    j = params.get("J") if role == "J" else None
    if j == "full":  # the bounds every summand or member shares
        members = [
            b for r, bs in roles.items() if r.startswith(("summand", "member", "tail")) for b in bs
        ]
        if not members:
            raise CertificateError(f"rule {rule}: no summand or member children")
        return _shared(members)
    if role == "J" and j != "cofinite-beyond-exceptions":
        raise CertificateError(f"rule {rule}: unknown index set J={j!r}")
    role = "tail" if role == "J" else role.format(index=params.get("index"))
    found = roles.get(role, ())
    if len(found) != 1:
        raise CertificateError(f"rule {rule}: {len(found)} children with role {role!r}")
    return found[0]


def _replay_node(node: CertNode) -> RankBounds:
    # the children's final bounds by role, the summand or member tail as "tail"
    roles: dict[str, list[RankBounds]] = {}
    for c in node.children:
        role = c.label.partition(": ")[0]
        roles.setdefault("tail" if role.endswith(" tail") else role, []).append(c.final)
    final = TOP
    for a in node.applied:
        params = dict(a.params)
        if a.inputs != _linked_inputs(a.rule, params, roles):
            raise CertificateError(
                f"rule {a.rule} at {node.label!r}: inputs are not its children's bounds"
            )
        out = eval_rule(a.rule, params, a.inputs)
        if out != a.output:
            raise CertificateError(
                f"rule {a.rule} at {node.label!r}: recorded {bounds_text(a.output)}, "
                f"recomputed {bounds_text(out)}"
            )
        final = intersect_bounds(final, out, where=node.label)
    if final != node.final:
        raise CertificateError(
            f"node {node.label!r}: recorded final {bounds_text(node.final)}, "
            f"recomputed {bounds_text(final)}"
        )
    for c in node.children:
        _replay_node(c)
    return final


# ---------------------------------------------------------------------------
# countable-type level


@node
class CtBound:
    level: int | None  # None: no level derived


def ct_bound(f: FilterExpr) -> CtBound:
    node, _, lvl = _derive(f)
    lo = node.final.lo
    if lvl is not None and lo > ord_of_int(lvl):
        raise InconsistentBounds(f"construction level {lvl} below rank lower bound {lo}")
    return CtBound(lvl)
