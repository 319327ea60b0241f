"""Certified ordinal rank bounds for filter expressions.

Every derivation is a tree of rule applications over Cantor-normal-form
ordinals.  Each rule application records its inputs, parameters, and output
so a replayer can recompute the arithmetic; bounds from different rules at
one node are intersected, and an empty intersection raises instead of
clamping.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence, Union

from .domains import DomainExpr, FilterLabError, NAT, NatPt, fresh_index
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
    SectionFilter,
    SectionwiseFamily,
    UnsupportedPreimage,
    is_borel_rank_one,
    katetov_depth,
    kernel_set,
    member,
    sum_parts,
)
from .ordinals import (
    ONE,
    Ordinal,
    ZERO,
    ord_add,
    ord_le,
    ord_lt,
    ord_max,
    ord_min,
    ord_of_int,
    ord_str,
    ord_succ,
    parse_ordinal,
)
from .sets import SetExpr, cofin_set, finite_points, is_empty_set


class InconsistentBounds(FilterLabError):
    """Two sound derivations produced an empty bounds interval."""


class CertificateError(FilterLabError):
    """A certificate failed to replay."""


class WitnessRejected(FilterLabError):
    """A rank witness failed sample verification."""


# ---------------------------------------------------------------------------
# bounds


@dataclass(frozen=True)
class RankBounds:
    lo: Ordinal
    hi: Ordinal | None  # None: no upper bound derived

    def __post_init__(self) -> None:
        if self.hi is not None and ord_lt(self.hi, self.lo):
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
    hi = "*" if b.hi is None else ord_str(b.hi)
    return f"[{ord_str(b.lo)},{hi}]"


def parse_bounds(text: str) -> RankBounds:
    m = re.fullmatch(r"\[([^,\]]+),([^,\]]+)\]", text.strip())
    if not m:
        raise CertificateError(f"malformed bounds {text!r}")
    lo = parse_ordinal(m.group(1))
    hi = None if m.group(2) == "*" else parse_ordinal(m.group(2))
    return RankBounds(lo, hi)


def min_hi(a: RankBounds, b: RankBounds) -> Ordinal | None:
    """The lesser of two upper bounds, where None is no bound."""
    if a.hi is None:
        return b.hi
    if b.hi is None:
        return a.hi
    return ord_min(a.hi, b.hi)


def intersect_bounds(a: RankBounds, b: RankBounds, where: str = "") -> RankBounds:
    lo = ord_max(a.lo, b.lo)
    hi = min_hi(a, b)
    if hi is not None and ord_lt(hi, lo):
        ctx = f" at {where}" if where else ""
        raise InconsistentBounds(
            f"bounds {bounds_text(a)} and {bounds_text(b)} have empty intersection{ctx}"
        )
    return RankBounds(lo, hi)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class RuleApp:
    rule: str
    cite: str
    params: tuple[tuple[str, str], ...]
    inputs: tuple[RankBounds, ...]
    output: RankBounds


@dataclass(frozen=True)
class CertNode:
    label: str
    applied: tuple[RuleApp, ...]
    final: RankBounds
    children: tuple["CertNode", ...]


@dataclass(frozen=True)
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


def eval_rule(
    name: str, params: Mapping[str, str], inputs: Sequence[RankBounds]
) -> RankBounds:
    """Recompute a rule application's output from its inputs and parameters."""

    def need(k: int) -> RankBounds:
        if len(inputs) <= k:
            raise CertificateError(f"{name}: missing input {k}")
        return inputs[k]

    def need_hi(b: RankBounds) -> Ordinal:
        if b.hi is None:
            raise CertificateError(f"{name}: unbounded input where a bound is needed")
        return b.hi

    if name == "R0":
        return TOP if params.get("free") == "yes" else RankBounds(ZERO, ZERO)
    if name == "RKat":
        d = ord_of_int(int(params["depth"]))
        return RankBounds(d, d)
    if name == "RMono":
        his = [b.hi for b in inputs if b.hi is not None]
        if not his:
            raise CertificateError("RMono: no bounded input")
        hi = his[0]
        for h in his[1:]:
            hi = ord_min(hi, h)
        return RankBounds(ZERO, hi)
    if name == "RFubLo":
        return RankBounds(ord_add(need(0).lo, need(1).lo), None)
    if name == "RFubHi":
        return RankBounds(
            ZERO, ord_add(ord_add(need_hi(need(0)), ONE), need_hi(need(1)))
        )
    if name == "RFubFr":
        return RankBounds(ZERO, ord_succ(need_hi(need(0))))
    if name == "RFubExact":
        a = need(0).exact
        if a is None:
            raise CertificateError("RFubExact: summand bounds not exact")
        return RankBounds(ord_succ(a), ord_succ(a))
    if name == "RLimHi":
        return RankBounds(
            ZERO, ord_add(ord_add(need_hi(need(0)), ONE), need_hi(need(1)))
        )
    if name == "RLimHi1":
        return RankBounds(ZERO, ord_succ(need_hi(need(0))))
    if name == "RLimLo":
        if ord_lt(need(0).lo, ONE):
            raise CertificateError("RLimLo: family members not all free")
        return RankBounds(ONE, None)
    if name == "RLimConst":
        return need(0)
    if name in ("RSection", "RIso"):
        return need(0)
    if name == "RCert":
        return parse_bounds(params["bounds"])
    if name == "RQH":
        return RankBounds(ZERO, need_hi(need(0)))
    if name == "RCopy":
        return RankBounds(need(0).lo, None)
    raise CertificateError(f"unknown rule {name!r}")


def _app(
    name: str,
    params: Mapping[str, str] | Iterable[tuple[str, str]] = (),
    inputs: Sequence[RankBounds] = (),
) -> RuleApp:
    p = tuple(params.items()) if isinstance(params, Mapping) else tuple(params)
    out = eval_rule(name, dict(p), inputs)
    return RuleApp(name, CITES[name], p, tuple(inputs), out)


# ---------------------------------------------------------------------------
# certified oracle filters


@dataclass(frozen=True)
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


RankSubject = Union[FilterExpr, CertifiedFilter]


def holds_in(f: RankSubject, a: SetExpr) -> bool | None:
    """Membership for either an expression or a certified oracle."""
    if isinstance(f, CertifiedFilter):
        return f.decide(a)
    return member(f, a)


# ---------------------------------------------------------------------------
# rank witnesses


@dataclass(frozen=True)
class CopyWitness:
    """sigma sends members of source into the target filter."""

    source: FilterExpr
    sigma: BijectionSpec
    samples: tuple[SetExpr, ...]


@dataclass(frozen=True)
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
    node = _derive(f)
    for w in witnesses:
        node = _attach_witness(node, f, w)
    return node.final, RankCertificate(node)


def _finalize(label: str, apps: list[RuleApp], children: list[CertNode]) -> CertNode:
    final = TOP
    for a in apps:
        final = intersect_bounds(final, a.output, where=label)
    return CertNode(label, tuple(apps), final, tuple(children))


def _with_role(node: CertNode, role: str) -> CertNode:
    return replace(node, label=f"{role}: {node.label}")


def _derive(f: RankSubject) -> CertNode:
    if isinstance(f, CertifiedFilter):
        app = _app("RCert", {"bounds": bounds_text(f.bounds)})
        return _finalize(f"certified {f.name} ({f.provenance})", [app], [])
    label = type(f).__name__
    apps: list[RuleApp] = []
    children: list[CertNode] = []
    try:
        free = is_empty_set(kernel_set(f))
        apps.append(_app("R0", {"free": "yes" if free else "no"}))
    except UnsupportedPreimage:
        pass
    depth = katetov_depth(f)
    if depth is not None:
        apps.append(_app("RKat", {"depth": str(depth)}))
    if isinstance(f, (Product, FubiniSum)):
        _derive_sum(f, apps, children)
    elif isinstance(f, Limit):
        _derive_limit(f, apps, children)
    elif isinstance(f, Intersection):
        left = _derive(f.left)
        right = _derive(f.right)
        children += [_with_role(left, "left"), _with_role(right, "right")]
        apps.append(_app("RMono", (), [left.final, right.final]))
    elif isinstance(f, Pushforward):
        inner = _derive(f.inner)
        children.append(_with_role(inner, "inner"))
        apps.append(_app("RIso", (), [inner.final]))
    elif isinstance(f, SectionFilter):
        comp = _derive(f.comp)
        children.append(_with_role(comp, f"section {f.index}"))
        apps.append(_app("RSection", {"index": str(f.index)}, [comp.final]))
    return _finalize(label, apps, children)


def _aggregate(members: Sequence[RankBounds]) -> RankBounds:
    lo = members[0].lo
    hi: Ordinal | None = members[0].hi
    for b in members[1:]:
        lo = ord_min(lo, b.lo)
        hi = None if (hi is None or b.hi is None) else ord_max(hi, b.hi)
    return RankBounds(lo, hi)


def _family_candidates(
    exc_nodes: Sequence[CertNode], tail_node: CertNode, co_admissible: bool
) -> list[tuple[str, RankBounds]]:
    """Aggregated member bounds per admissible index set J."""
    full = _aggregate([n.final for n in exc_nodes] + [tail_node.final])
    cands = [("full", full)]
    if co_admissible and exc_nodes:
        cands.append(("cofinite-beyond-exceptions", tail_node.final))
    return cands


def _pick_lo(
    cands: list[tuple[str, RankBounds]], base: RankBounds
) -> tuple[str, RankBounds]:
    best = cands[0]
    for c in cands[1:]:
        if ord_lt(ord_add(best[1].lo, base.lo), ord_add(c[1].lo, base.lo)):
            best = c
    return best

def _pick_hi(cands: list[tuple[str, RankBounds]]) -> tuple[str, RankBounds] | None:
    bounded = [c for c in cands if c[1].hi is not None]
    if not bounded:
        return None
    best = bounded[0]
    for c in bounded[1:]:
        if ord_lt(c[1].hi, best[1].hi):
            best = c
    return best


def _co_admissible(base: FilterExpr, keys: Sequence[int]) -> bool:
    if not keys:
        return False
    return member(base, cofin_set([NatPt(i) for i in keys], NAT))


def _derive_sum(
    f: Union[Product, FubiniSum], apps: list[RuleApp], children: list[CertNode]
) -> None:
    base, fam = sum_parts(f)
    base_node = _derive(base)
    exc_nodes = [
        _with_role(_derive(g), f"summand {i}") for i, g in fam.exceptions
    ]
    tail_node = _with_role(_derive(fam.tail), "summand tail")
    children.append(_with_role(base_node, "base"))
    children.extend(exc_nodes)
    children.append(tail_node)
    cands = _family_candidates(exc_nodes, tail_node, _co_admissible(base, fam.keys))

    j, agg = _pick_lo(cands, base_node.final)
    apps.append(
        _app(
            "RFubLo",
            {"J": j, "xi": ord_str(agg.lo), "alpha": ord_str(base_node.final.lo)},
            [agg, base_node.final],
        )
    )
    if base_node.final.hi is not None:
        pick = _pick_hi(cands)
        if pick is not None:
            j, agg = pick
            apps.append(
                _app(
                    "RFubHi",
                    {
                        "J": j,
                        "xi": ord_str(agg.hi),
                        "alpha": ord_str(base_node.final.hi),
                    },
                    [agg, base_node.final],
                )
            )
    if isinstance(base, Frechet):
        pick = _pick_hi(cands)
        if pick is not None:
            j, agg = pick
            apps.append(
                _app("RFubFr", {"J": j, "xi": ord_str(agg.hi)}, [agg, base_node.final])
            )
    if is_borel_rank_one(base) and ord_le(ONE, base_node.final.lo):
        for j, agg in cands:
            if agg.exact is not None:
                apps.append(
                    _app(
                        "RFubExact",
                        {"J": j, "alpha": ord_str(agg.exact)},
                        [agg, base_node.final],
                    )
                )
                break


def _limit_member_nodes(f: Limit) -> tuple[list[CertNode], CertNode, bool, bool]:
    """Member certificate nodes, tail node, co-J admissibility, const flag."""
    fam = f.family
    if isinstance(fam, FilterFamily):
        exc = [_with_role(_derive(g), f"member {i}") for i, g in fam.exceptions]
        tail = _with_role(_derive(fam.tail), "member tail")
        return exc, tail, _co_admissible(f.base, fam.keys), not fam.exceptions
    if isinstance(fam, SectionwiseFamily):
        keys = fam.inner.keys
        exc = [_with_role(_derive(fam.at(i)), f"member {i}") for i in keys]
        tail = _with_role(_derive(fam.at(fresh_index(keys))), "member tail")
        return exc, tail, _co_admissible(f.base, keys), False
    keys = fam.inner.keys
    exc = [_with_role(_derive(fam.at(i)), f"member row {i}") for i in keys]
    tail = _with_role(_derive(fam.at(fresh_index(keys))), "member tail")
    # every row recurs on an infinite index set, so no cofinite J avoids the
    # exceptional rows
    return exc, tail, False, False


def _derive_limit(f: Limit, apps: list[RuleApp], children: list[CertNode]) -> None:
    base_node = _derive(f.base)
    exc_nodes, tail_node, co_adm, is_const = _limit_member_nodes(f)
    children.append(_with_role(base_node, "base"))
    children.extend(exc_nodes)
    children.append(tail_node)
    cands = _family_candidates(exc_nodes, tail_node, co_adm)

    if is_const:
        apps.append(_app("RLimConst", (), [tail_node.final]))
    if base_node.final.hi is not None:
        pick = _pick_hi(cands)
        if pick is not None:
            j, agg = pick
            apps.append(
                _app(
                    "RLimHi",
                    {
                        "J": j,
                        "beta": ord_str(agg.hi),
                        "alpha": ord_str(base_node.final.hi),
                    },
                    [agg, base_node.final],
                )
            )
    if is_borel_rank_one(f.base):
        pick = _pick_hi(cands)
        if pick is not None:
            j, agg = pick
            apps.append(
                _app("RLimHi1", {"J": j, "alpha": ord_str(agg.hi)}, [agg, base_node.final])
            )
    for j, agg in cands:
        if ord_le(ONE, agg.lo):
            apps.append(_app("RLimLo", {"J": j}, [agg]))
            break


def _attach_witness(node: CertNode, f: RankSubject, w: RankWitness) -> CertNode:
    src_node = _derive(w.source)
    if isinstance(w, CopyWitness):
        _check_copy(w, f)
        app = _app("RCopy", {"via": type(w.sigma).__name__}, [src_node.final])
    else:
        _check_qh(w, f)
        app = _app("RQH", {"via": type(w.pi).__name__}, [src_node.final])
    final = intersect_bounds(node.final, app.output, where=node.label)
    return CertNode(
        node.label,
        node.applied + (app,),
        final,
        node.children + (_with_role(src_node, "witness source"),),
    )


def _check_copy(w: CopyWitness, target: RankSubject) -> None:
    used = 0
    for a in w.samples:
        if not member(w.source, a):
            continue
        v = holds_in(target, w.sigma.image_set(a))
        if v is None:
            raise WitnessRejected("copy witness sample outside the decidable language")
        if not v:
            raise WitnessRejected("copy witness image escaped the target filter")
        used += 1
    if used == 0:
        raise WitnessRejected("copy witness verified against no valid sample")


def _check_qh(w: QHWitness, target: RankSubject) -> None:
    used = 0
    for a in w.samples:
        v = holds_in(target, a)
        if v is None:
            raise WitnessRejected("witness sample outside the decidable language")
        if not v:
            continue
        if not member(w.source, w.pi.preimage_set(a)):
            raise WitnessRejected("preimage of a target member escaped the source")
        used += 1
    if used == 0:
        raise WitnessRejected("witness verified against no valid sample")


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
        parts.append(f'cite="{a.cite}"')
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

    def parse_node(depth: int) -> CertNode:
        nonlocal pos
        m = _NODE_RE.match(lines[pos])
        if not m or len(m.group(1)) != 2 * depth:
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
        while pos < len(lines):
            n = _NODE_RE.match(lines[pos])
            if not n or len(n.group(1)) != 2 * (depth + 1):
                break
            kids.append(parse_node(depth + 1))
        return CertNode(label, tuple(apps), final, tuple(kids))

    root = parse_node(0)
    if pos != len(lines):
        raise CertificateError(f"trailing certificate content at line {pos + 1}")
    return RankCertificate(root)


def _parse_rule(name: str, rest: str) -> RuleApp:
    cite = ""
    cm = re.search(r'cite="([^"]*)"', rest)
    if cm:
        cite = cm.group(1)
        rest = rest[: cm.start()] + rest[cm.end():]
    params: list[tuple[str, str]] = []
    inputs: list[RankBounds] = []
    output: RankBounds | None = None
    for tok in rest.split():
        key, _, val = tok.partition("=")
        if not _:
            raise CertificateError(f"malformed rule token {tok!r}")
        if key == "in":
            inputs.append(parse_bounds(val))
        elif key == "out":
            output = parse_bounds(val)
        else:
            params.append((key, val))
    if output is None:
        raise CertificateError(f"rule {name} missing output")
    return RuleApp(name, cite, tuple(params), tuple(inputs), output)


def replay_certificate(cert: RankCertificate) -> RankBounds:
    """Recompute every rule application and node intersection."""
    return _replay_node(cert.root)


def _replay_node(node: CertNode) -> RankBounds:
    final = TOP
    for a in node.applied:
        out = eval_rule(a.rule, dict(a.params), a.inputs)
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


@dataclass(frozen=True)
class CtBound:
    level: int | None  # None: no level derived


def ct_bound(f: FilterExpr) -> CtBound:
    lvl = _ct(f)
    if lvl is not None:
        b, _ = rank_bounds(f)
        if not ord_le(b.lo, ord_of_int(lvl)):
            raise InconsistentBounds(
                f"construction level {lvl} below rank lower bound {ord_str(b.lo)}"
            )
    return CtBound(lvl)


def _ct_join(levels: Iterable[int | None]) -> int | None:
    out = 0
    for l in levels:
        if l is None:
            return None
        out = max(out, l)
    return out


def _ct(f: FilterExpr) -> int | None:
    if isinstance(f, Principal):
        pts = finite_points(f.core)
        if pts is None or not pts:
            return None
        return 0 if len(pts) == 1 else 1
    if isinstance(f, Frechet):
        return 1
    if isinstance(f, SectionFilter):
        return _ct(f.comp)
    if isinstance(f, Pushforward):
        return _ct(f.inner)
    if isinstance(f, Intersection):
        j = _ct_join([_ct(f.left), _ct(f.right)])
        return None if j is None else j + 1
    parts = sum_parts(f)
    if parts is not None:
        base, fam = parts
        return _ct_over_base(base, [g for _, g in fam.exceptions] + [fam.tail])
    if isinstance(f, Limit):
        fam = f.family
        if not fam.exceptions:
            return _ct_of_constant(f.base, fam.tail)
        return _ct_over_base(f.base, [g for _, g in fam.exceptions] + [fam.tail])
    return None


def _ct_of_constant(base: FilterExpr, tail: FilterExpr) -> int | None:
    # the limit of a constant family is the constant filter itself
    if isinstance(base, (Frechet, Principal)):
        return _ct(tail)
    return None


def _ct_over_base(base: FilterExpr, members: list[FilterExpr]) -> int | None:
    # a sum or limit along the cofinite filter is a plain sectionwise limit;
    # along a principal base, repeating each index infinitely often realizes
    # the everywhere-quantified verdict as a cofinite one
    if not isinstance(base, (Frechet, Principal)):
        return None
    if isinstance(base, Principal) and finite_points(base.core) == ():
        return None
    j = _ct_join([_ct(g) for g in members])
    return None if j is None else j + 1


# ---------------------------------------------------------------------------
# reporting


def rank_report(f: RankSubject, witnesses: Sequence[RankWitness] = ()) -> str:
    b, cert = rank_bounds(f, witnesses)
    lines = [f"bounds: {bounds_text(b)}"]
    if b.exact is not None:
        a = ord_str(b.exact)
        lines.append(f"exact rank: {a}")
        lines.append(
            f"Baire note: limits of continuous functions along this filter "
            f"form exactly Baire class B_{a} on zero-dimensional Polish spaces"
        )
    lines.append("certificate:")
    lines.append(certificate_text(cert).rstrip("\n"))
    return "\n".join(lines) + "\n"
