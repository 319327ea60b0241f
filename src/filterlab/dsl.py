"""Textual language for filter, set, and sequence expressions.

The grammar is keyword-headed and round-trips with the printers: parsing the
printed source of any supported expression reproduces it exactly.  Set and
sequence literals infer their domain from point shapes; an explicit
`@domain` suffix overrides inference, and literals supplied to a typed
context (such as a membership query) are resolved against that context's
domain instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .domains import (
    DSum,
    DomainError,
    DomainExpr,
    NAT,
    Nat,
    NatPt,
    PairPt,
    Point,
    Prod,
    SumPt,
    UNIT,
    UNIT_PT,
    Unit,
    UnitPt,
    component,
    enum_point,
    is_indexed,
    is_linear_domain,
    make_point,
    sum_domain,
    tail_component,
)
from .filters import (
    CanonicalEnum,
    FilterExpr,
    FilterFamily,
    Frechet,
    FubiniSum,
    IdentityBij,
    Intersection,
    LeafSeq,
    Limit,
    Principal,
    Product,
    Pushforward,
    RepeatedSectionwiseFamily,
    SectionFilter,
    SectionwiseFamily,
    SeqExpr,
    TableBij,
    dom_of,
    fubini_domain,
    katetov,
    seq_leaf,
    seq_sections,
)
from .sets import (
    CofinSet,
    FinSet,
    SectionFamily,
    SetExpr,
    cofin_set,
    fin_set,
    section_family,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# tokens


@dataclass(frozen=True)
class Token:
    kind: str  # "name" | "nat" | "punct" | "newline" | "eof"
    text: str
    line: int
    col: int


_PUNCT = set("(){}[],:;=@/-")


def tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            if not toks or toks[-1].kind != "newline":
                toks.append(Token("newline", "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(src) and src[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            toks.append(Token("nat", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(Token("name", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            toks.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# raw literal trees (resolved against a domain after parsing)


@dataclass(frozen=True)
class RawLeafSet:
    kind: str  # "fin" | "cofin"
    points: tuple[object, ...]
    tag: DomainExpr | None
    line: int
    col: int


@dataclass(frozen=True)
class RawSections:
    entries: tuple[tuple[int, "RawSet"], ...]
    tail: "RawSet"
    tag: DomainExpr | None
    line: int
    col: int


RawSet = RawLeafSet | RawSections


@dataclass(frozen=True)
class RawSeq:
    entries: tuple[tuple[object, object], ...]  # point/index -> Fraction | RawSeq
    tail: object  # Fraction | RawSeq
    tag: DomainExpr | None
    line: int
    col: int


FILTER_HEADS = {
    "frechet",
    "principal",
    "prod",
    "fubini",
    "limit",
    "meet",
    "katetov",
    "cylinder",
    "push",
}
SET_HEADS = {"fin", "cofin", "sections"}
FAMILY_HEADS = {"family", "secfamily", "repfamily"}
DOMAIN_HEADS = {"unit", "nat", "prod", "dsum"}
BIJ_HEADS = {"id", "enum", "table"}


class _Parser:
    def __init__(self, toks: list[Token], env: dict[str, tuple[str, object]]) -> None:
        self.toks = toks
        self.pos = 0
        self.env = env

    # -- token plumbing

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def take(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text:
            raise ParseError(f"expected {text!r}, got {t.text or 'end of input'!r}", t.line, t.col)
        return self.take()

    def fail(self, message: str) -> ParseError:
        t = self.peek()
        return ParseError(message, t.line, t.col)

    def skip_newlines(self) -> None:
        while self.peek().kind == "newline":
            self.take()

    def at_separator(self) -> bool:
        return self.peek().kind in ("newline", "eof") or self.peek().text == ";"

    # -- program

    def parse_bindings(self) -> None:
        self.skip_newlines()
        while (
            self.peek().kind == "name"
            and self.peek(1).text == "="
            and self.peek().text not in FILTER_HEADS | SET_HEADS | {"seq"}
        ):
            tok = self.take()
            name = tok.text
            if name in self.env:
                raise ParseError(f"{name!r} is already bound", tok.line, tok.col)
            self.expect("=")
            kind, value = self.parse_any()
            self.env[name] = (kind, value)
            if not self.at_separator():
                raise self.fail("expected end of statement after binding")
            if self.peek().text == ";":
                self.take()
            self.skip_newlines()

    def finish(self) -> None:
        self.skip_newlines()
        if self.peek().text == ";":
            self.take()
            self.skip_newlines()
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"unexpected trailing input {t.text!r}", t.line, t.col)

    def parse_any(self) -> tuple[str, object]:
        t = self.peek()
        if t.kind != "name":
            raise self.fail("expected an expression")
        if t.text in FILTER_HEADS:
            return ("filter", self.parse_filter())
        if t.text in SET_HEADS:
            return ("set", resolve_set(self.parse_raw_set(), None))
        if t.text == "seq":
            return ("seq", resolve_seq(self.parse_raw_seq(), None))
        if t.text in self.env:
            return self.env[self.take().text]
        raise self.fail(f"unknown name {t.text!r}")

    # -- numbers and points

    def parse_nat(self) -> int:
        t = self.peek()
        if t.kind != "nat":
            raise self.fail("expected a natural number")
        return int(self.take().text)

    def parse_rational(self) -> Fraction:
        sign = 1
        if self.peek().text == "-":
            self.take()
            sign = -1
        num = self.parse_nat()
        if self.peek().text == "/":
            self.take()
            den = self.parse_nat()
            if den == 0:
                raise self.fail("zero denominator")
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    def parse_raw_point(self) -> object:
        t = self.peek()
        if t.kind == "nat":
            return self.parse_nat()
        if t.text == "(":
            self.take()
            if self.peek().text == ")":
                self.take()
                return ()
            coords = [self.parse_raw_point()]
            while self.peek().text == ",":
                self.take()
                coords.append(self.parse_raw_point())
            self.expect(")")
            if len(coords) == 1:
                raise ParseError(
                    "a point tuple needs at least two coordinates or ()", t.line, t.col
                )
            return tuple(coords)
        raise self.fail("expected a point")

    # -- domains

    def parse_domain(self) -> DomainExpr:
        t = self.peek()
        if t.text == "unit":
            self.take()
            return UNIT
        if t.text == "nat":
            self.take()
            return NAT
        if t.text == "prod":
            self.take()
            self.expect("(")
            inner = self.parse_domain()
            self.expect(")")
            return Prod(inner)
        if t.text == "dsum":
            self.take()
            self.expect("(")
            self.expect("[")
            comps = []
            if self.peek().text != "]":
                comps.append(self.parse_domain())
                while self.peek().text == ",":
                    self.take()
                    comps.append(self.parse_domain())
            self.expect("]")
            self.expect(",")
            tail = self.parse_domain()
            self.expect(")")
            return DSum(tuple(comps), tail)
        raise self.fail("expected a domain")

    def parse_opt_tag(self) -> DomainExpr | None:
        if self.peek().text == "@":
            self.take()
            return self.parse_domain()
        return None

    # -- sets

    def parse_raw_set(self) -> RawSet:
        t = self.peek()
        if t.text in ("fin", "cofin"):
            kind = self.take().text
            self.expect("{")
            points = []
            if self.peek().text != "}":
                points.append(self.parse_raw_point())
                while self.peek().text == ",":
                    self.take()
                    points.append(self.parse_raw_point())
            self.expect("}")
            return RawLeafSet(kind, tuple(points), self.parse_opt_tag(), t.line, t.col)
        if t.text == "sections":
            self.take()
            self.expect("(")
            self.expect("{")
            entries = []
            if self.peek().text != "}":
                entries.append(self._parse_section_entry())
                while self.peek().text == ",":
                    self.take()
                    entries.append(self._parse_section_entry())
            self.expect("}")
            keys = [i for i, _ in entries]
            if len(set(keys)) != len(keys):
                raise ParseError("repeated key in a section table", t.line, t.col)
            self.expect(",")
            tail = self.parse_raw_set()
            self.expect(")")
            return RawSections(tuple(entries), tail, self.parse_opt_tag(), t.line, t.col)
        if t.kind == "name" and t.text in self.env:
            kind, value = self.env[t.text]
            if kind != "set":
                raise self.fail(f"{t.text!r} is bound to a {kind}, not a set")
            self.take()
            # a resolved binding re-enters as an opaque leaf
            return _ResolvedRaw(value, t.line, t.col)  # type: ignore[return-value]
        raise self.fail("expected a set")

    def _parse_section_entry(self) -> tuple[int, RawSet]:
        i = self.parse_nat()
        self.expect(":")
        return (i, self.parse_raw_set())

    # -- sequences

    def parse_raw_seq(self) -> RawSeq:
        t = self.expect("seq")
        self.expect("(")
        self.expect("{")
        entries = []
        if self.peek().text != "}":
            entries.append(self._parse_seq_entry())
            while self.peek().text == ",":
                self.take()
                entries.append(self._parse_seq_entry())
        self.expect("}")
        keys = [k for k, _ in entries]
        if len(set(map(repr, keys))) != len(keys):
            raise ParseError("repeated key in a sequence table", t.line, t.col)
        self.expect(",")
        if self.peek().text == "seq":
            tail: object = self.parse_raw_seq()
        else:
            tail = self.parse_rational()
        self.expect(")")
        return RawSeq(tuple(entries), tail, self.parse_opt_tag(), t.line, t.col)

    def _parse_seq_entry(self) -> tuple[object, object]:
        key = self.parse_raw_point()
        self.expect(":")
        if self.peek().text == "seq":
            return (key, self.parse_raw_seq())
        return (key, self.parse_rational())

    # -- families

    def parse_family(self):
        t = self.peek()
        if t.text == "family":
            self.take()
            self.expect("(")
            entries = self._parse_filter_table()
            self.expect(",")
            tail = self.parse_filter()
            self.expect(")")
            return FilterFamily(tuple(sorted(entries)), tail)
        if t.text == "secfamily":
            self.take()
            self.expect("(")
            entries = self._parse_filter_table()
            self.expect(",")
            tail = self.parse_filter()
            inner = FilterFamily(tuple(sorted(entries)), tail)
            domain = fubini_domain(inner)
            if self.peek().text == ",":
                self.take()
                domain = self.parse_domain()
            self.expect(")")
            return SectionwiseFamily(inner, domain)
        if t.text == "repfamily":
            self.take()
            self.expect("(")
            entries = []
            if self.peek().text == "{":
                entries = self._parse_filter_table()
                self.expect(",")
            tail = self.parse_filter()
            inner = FilterFamily(tuple(sorted(entries)), tail)
            domain = fubini_domain(inner)
            if self.peek().text == ",":
                self.take()
                domain = self.parse_domain()
            self.expect(")")
            return RepeatedSectionwiseFamily(inner, domain)
        raise self.fail("expected a filter family")

    def _parse_filter_table(self) -> list[tuple[int, FilterExpr]]:
        open_tok = self.expect("{")
        entries: list[tuple[int, FilterExpr]] = []
        if self.peek().text != "}":
            i = self.parse_nat()
            self.expect(":")
            entries.append((i, self.parse_filter()))
            while self.peek().text == ",":
                self.take()
                i = self.parse_nat()
                self.expect(":")
                entries.append((i, self.parse_filter()))
        self.expect("}")
        keys = [i for i, _ in entries]
        if len(set(keys)) != len(keys):
            raise ParseError("repeated key in a filter table", open_tok.line, open_tok.col)
        return entries

    # -- bijections

    def parse_bij(self):
        t = self.peek()
        if t.text == "id":
            self.take()
            self.expect("(")
            d = self.parse_domain()
            self.expect(")")
            return IdentityBij(d)
        if t.text == "enum":
            self.take()
            self.expect("(")
            d = self.parse_domain()
            self.expect(")")
            return CanonicalEnum(d)
        if t.text == "table":
            self.take()
            self.expect("(")
            d = self.parse_domain()
            self.expect(",")
            self.expect("{")
            pairs = []
            if self.peek().text != "}":
                a = self.parse_nat()
                self.expect(":")
                pairs.append((a, self.parse_nat()))
                while self.peek().text == ",":
                    self.take()
                    a = self.parse_nat()
                    self.expect(":")
                    pairs.append((a, self.parse_nat()))
            self.expect("}")
            self.expect(")")
            return TableBij(d, tuple(pairs))
        raise self.fail("expected a bijection")

    # -- filters

    def parse_filter(self) -> FilterExpr:
        t = self.peek()
        if t.kind != "name":
            raise self.fail("expected a filter")
        head = t.text
        if head == "frechet":
            self.take()
            if self.peek().text == "(":
                self.take()
                d = self.parse_domain()
                self.expect(")")
                return Frechet(d)
            return Frechet(NAT)
        if head == "principal":
            self.take()
            self.expect("(")
            core = resolve_set(self.parse_raw_set(), None)
            self.expect(")")
            return Principal(core)
        if head == "prod":
            self.take()
            self.expect("(")
            outer = self.parse_filter()
            self.expect(",")
            inner = self.parse_filter()
            self.expect(")")
            return Product(outer, inner)
        if head == "fubini":
            self.take()
            self.expect("(")
            base = self.parse_filter()
            self.expect(",")
            fam = self.parse_family()
            self.expect(")")
            if not isinstance(fam, FilterFamily):
                raise ParseError("fubini takes a plain family", t.line, t.col)
            return FubiniSum(base, fam)
        if head == "limit":
            self.take()
            self.expect("(")
            base = self.parse_filter()
            self.expect(",")
            fam = self.parse_family()
            self.expect(")")
            return Limit(base, fam)
        if head == "meet":
            self.take()
            self.expect("(")
            left = self.parse_filter()
            self.expect(",")
            right = self.parse_filter()
            self.expect(")")
            return Intersection(left, right)
        if head == "katetov":
            self.take()
            self.expect("(")
            n = self.parse_nat()
            self.expect(")")
            return katetov(n)
        if head == "cylinder":
            self.take()
            self.expect("(")
            i = self.parse_nat()
            self.expect(",")
            comp = self.parse_filter()
            if self.peek().text == ",":
                self.take()
                d = self.parse_domain()
            else:
                d = Prod(dom_of(comp))
            self.expect(")")
            return SectionFilter(i, comp, d)
        if head == "push":
            self.take()
            self.expect("(")
            sigma = self.parse_bij()
            self.expect(",")
            inner = self.parse_filter()
            self.expect(")")
            return Pushforward(sigma, inner)
        if head in self.env:
            kind, value = self.env[head]
            if kind != "filter":
                raise self.fail(f"{head!r} is bound to a {kind}, not a filter")
            self.take()
            return value  # type: ignore[return-value]
        raise self.fail(f"unknown filter head {head!r}")


@dataclass(frozen=True)
class _ResolvedRaw:
    """A set binding spliced into a raw tree (already a normal form)."""

    value: SetExpr
    line: int
    col: int


# ---------------------------------------------------------------------------
# raw resolution


def _infer_point_domain(raw: object, line: int, col: int) -> DomainExpr:
    if isinstance(raw, int):
        return NAT
    if raw == ():
        return UNIT
    if isinstance(raw, tuple):
        rest = raw[1] if len(raw) == 2 else tuple(raw[1:])
        return Prod(_infer_point_domain(rest, line, col))
    raise ParseError("malformed point", line, col)


def _resolve_point(raw: object, d: DomainExpr, line: int, col: int) -> Point:
    if isinstance(d, Unit):
        if raw == ():
            return UNIT_PT
        raise ParseError("expected the unit point ()", line, col)
    if isinstance(d, Nat):
        if isinstance(raw, int):
            return NatPt(raw)
        raise ParseError("expected a bare natural", line, col)
    if isinstance(raw, int):
        if is_linear_domain(d):
            return enum_point(d, raw)
        raise ParseError("a bare natural cannot name a point of this domain", line, col)
    if isinstance(raw, tuple) and len(raw) >= 2 and isinstance(raw[0], int):
        i = raw[0]
        rest = raw[1] if len(raw) == 2 else tuple(raw[1:])
        return make_point(d, i, _resolve_point(rest, component(d, i), line, col))
    raise ParseError("point shape does not fit the domain", line, col)


def _infer_set_domain(raw: RawSet) -> DomainExpr:
    if isinstance(raw, _ResolvedRaw):
        return raw.value.domain
    if raw.tag is not None:
        return raw.tag
    if isinstance(raw, RawLeafSet):
        if not raw.points:
            return NAT
        doms = {_infer_point_domain(p, raw.line, raw.col) for p in raw.points}
        if len(doms) != 1:
            raise ParseError("points of one set must share a shape", raw.line, raw.col)
        return doms.pop()
    tail_d = _infer_set_domain(raw.tail)
    entry_ds = {i: _infer_set_domain(e) for i, e in raw.entries}
    return sum_domain(entry_ds, tail_d)


def resolve_set(raw: RawSet, domain: DomainExpr | None) -> SetExpr:
    if isinstance(raw, _ResolvedRaw):
        if domain is not None and raw.value.domain != domain:
            raise ParseError(
                "bound set's domain does not match this context", raw.line, raw.col
            )
        return raw.value
    d = domain if domain is not None else _infer_set_domain(raw)
    if raw.tag is not None and domain is not None and raw.tag != domain:
        raise ParseError("domain tag does not match this context", raw.line, raw.col)
    if isinstance(raw, RawLeafSet):
        pts = [_resolve_point(p, d, raw.line, raw.col) for p in raw.points]
        try:
            return fin_set(pts, d) if raw.kind == "fin" else cofin_set(pts, d)
        except DomainError as e:
            raise ParseError(str(e), raw.line, raw.col) from e
    if not is_indexed(d):
        raise ParseError("sections need an indexed domain", raw.line, raw.col)
    tail_dom = tail_component(d)
    entries = {i: resolve_set(e, component(d, i)) for i, e in raw.entries}
    tail = resolve_set(raw.tail, tail_dom)
    try:
        return section_family(entries, tail, d)
    except DomainError as e:
        raise ParseError(str(e), raw.line, raw.col) from e


def _infer_seq_domain(raw: RawSeq) -> DomainExpr:
    if raw.tag is not None:
        return raw.tag
    if isinstance(raw.tail, Fraction):
        if not raw.entries:
            return NAT
        doms = {_infer_point_domain(p, raw.line, raw.col) for p, _ in raw.entries}
        if len(doms) != 1:
            raise ParseError("sequence points must share a shape", raw.line, raw.col)
        return doms.pop()
    tail_d = _infer_seq_domain(raw.tail)
    entry_ds = {}
    for key, val in raw.entries:
        if not isinstance(key, int):
            raise ParseError("nested sequence keys must be naturals", raw.line, raw.col)
        if not isinstance(val, RawSeq):
            raise ParseError("nested sequence entries must be sequences", raw.line, raw.col)
        entry_ds[key] = _infer_seq_domain(val)
    return sum_domain(entry_ds, tail_d)


def resolve_seq(raw: RawSeq, domain: DomainExpr | None) -> SeqExpr:
    d = domain if domain is not None else _infer_seq_domain(raw)
    if raw.tag is not None and domain is not None and raw.tag != domain:
        raise ParseError("domain tag does not match this context", raw.line, raw.col)
    if isinstance(raw.tail, Fraction):
        entries = {}
        for key, val in raw.entries:
            if isinstance(val, RawSeq):
                raise ParseError(
                    "leaf sequences need rational values", raw.line, raw.col
                )
            entries[_resolve_point(key, d, raw.line, raw.col)] = val
        try:
            return seq_leaf(entries, raw.tail, d)
        except DomainError as e:
            raise ParseError(str(e), raw.line, raw.col) from e
    if not is_indexed(d):
        raise ParseError("nested sequences need an indexed domain", raw.line, raw.col)
    tail_dom = tail_component(d)
    entries = {}
    for key, val in raw.entries:
        if not isinstance(key, int) or not isinstance(val, RawSeq):
            raise ParseError("nested sequence entries must be `nat: seq`", raw.line, raw.col)
        entries[key] = resolve_seq(val, component(d, key))
    return seq_sections(entries, resolve_seq(raw.tail, tail_dom), d)


# ---------------------------------------------------------------------------
# entry points


def parse_program(src: str, env: Mapping[str, tuple[str, object]] | None = None) -> tuple[str, object]:
    p = _Parser(tokenize(src), dict(env or {}))
    p.parse_bindings()
    kind, value = p.parse_any()
    p.finish()
    return kind, value


def parse_filter(src: str) -> FilterExpr:
    p = _Parser(tokenize(src), {})
    p.parse_bindings()
    f = p.parse_filter()
    p.finish()
    return f


def parse_set(src: str, domain: DomainExpr | None = None) -> SetExpr:
    p = _Parser(tokenize(src), {})
    p.parse_bindings()
    raw = p.parse_raw_set()
    p.finish()
    return resolve_set(raw, domain)


def parse_seq(src: str, domain: DomainExpr | None = None) -> SeqExpr:
    p = _Parser(tokenize(src), {})
    p.parse_bindings()
    raw = p.parse_raw_seq()
    p.finish()
    return resolve_seq(raw, domain)


def parse_domain(src: str) -> DomainExpr:
    p = _Parser(tokenize(src), {})
    p.skip_newlines()
    d = p.parse_domain()
    p.finish()
    return d


# ---------------------------------------------------------------------------
# printers


def domain_to_source(d: DomainExpr) -> str:
    if isinstance(d, Unit):
        return "unit"
    if isinstance(d, Nat):
        return "nat"
    if isinstance(d, Prod):
        return f"prod({domain_to_source(d.inner)})"
    if isinstance(d, DSum):
        comps = ",".join(domain_to_source(c) for c in d.exceptions)
        return f"dsum([{comps}],{domain_to_source(d.tail)})"
    raise DomainError(f"not a domain: {d!r}")


def point_to_source(p: Point) -> str:
    if isinstance(p, UnitPt):
        return "()"
    if isinstance(p, NatPt):
        return str(p.n)
    coords: list[str] = []
    while isinstance(p, (PairPt, SumPt)):
        coords.append(str(p.i))
        p = p.rest
    coords.append(point_to_source(p))
    return "(" + ",".join(coords) + ")"


def frac_to_source(q: Fraction) -> str:
    return str(q)


def set_to_source(a: SetExpr) -> str:
    body = _set_body(a)
    inferred = _reinferred_domain(a)
    if inferred != a.domain:
        return f"{body}@{domain_to_source(a.domain)}"
    return body


def _set_body(a: SetExpr) -> str:
    if isinstance(a, FinSet):
        return "fin{" + ",".join(point_to_source(p) for p in a.elements) + "}"
    if isinstance(a, CofinSet):
        return "cofin{" + ",".join(point_to_source(p) for p in a.excluded) + "}"
    if isinstance(a, SectionFamily):
        entries = ",".join(f"{i}: {set_to_source(e)}" for i, e in a.exceptions)
        return f"sections({{{entries}}},{set_to_source(a.tail)})"
    raise DomainError(f"not a printable set: {a!r}")


def _reinferred_domain(a: SetExpr) -> DomainExpr:
    if isinstance(a, FinSet):
        return a.domain if a.elements else NAT
    if isinstance(a, CofinSet):
        return NAT
    tail_d = _tagged_domain(a.tail)
    entry_ds = {i: _tagged_domain(e) for i, e in a.exceptions}
    return sum_domain(entry_ds, tail_d)


def _tagged_domain(a: SetExpr) -> DomainExpr:
    # what the parser will see for this sub-term: its printed tag if any,
    # else its re-inferred shape
    inferred = _reinferred_domain(a)
    return a.domain if inferred != a.domain else inferred


def seq_to_source(s: SeqExpr) -> str:
    body = _seq_body(s)
    inferred = _reinferred_seq_domain(s)
    if inferred != s.domain:
        return f"{body}@{domain_to_source(s.domain)}"
    return body


def _seq_body(s: SeqExpr) -> str:
    if isinstance(s, LeafSeq):
        entries = ",".join(
            f"{point_to_source(p)}: {frac_to_source(v)}" for p, v in s.entries
        )
        return f"seq({{{entries}}},{frac_to_source(s.tail)})"
    entries = ",".join(f"{i}: {seq_to_source(e)}" for i, e in s.exceptions)
    return f"seq({{{entries}}},{seq_to_source(s.tail)})"


def _reinferred_seq_domain(s: SeqExpr) -> DomainExpr:
    if isinstance(s, LeafSeq):
        return s.domain if s.entries else NAT
    tail_d = _tagged_seq_domain(s.tail)
    entry_ds = {i: _tagged_seq_domain(e) for i, e in s.exceptions}
    return sum_domain(entry_ds, tail_d)


def _tagged_seq_domain(s: SeqExpr) -> DomainExpr:
    inferred = _reinferred_seq_domain(s)
    return s.domain if inferred != s.domain else inferred


def bij_to_source(b) -> str:
    if isinstance(b, IdentityBij):
        return f"id({domain_to_source(b.domain)})"
    if isinstance(b, CanonicalEnum):
        return f"enum({domain_to_source(b.target)})"
    if isinstance(b, TableBij):
        entries = ",".join(f"{a}: {c}" for a, c in b.table)
        return f"table({domain_to_source(b.target)},{{{entries}}})"
    raise DomainError(f"not a printable bijection: {b!r}")


def family_to_source(fam) -> str:
    if isinstance(fam, FilterFamily):
        entries = ",".join(f"{i}: {filter_to_source(g)}" for i, g in fam.exceptions)
        return f"family({{{entries}}},{filter_to_source(fam.tail)})"
    if isinstance(fam, SectionwiseFamily):
        entries = ",".join(
            f"{i}: {filter_to_source(g)}" for i, g in fam.inner.exceptions
        )
        tail = filter_to_source(fam.inner.tail)
        if fam.domain == fubini_domain(fam.inner):
            return f"secfamily({{{entries}}},{tail})"
        return f"secfamily({{{entries}}},{tail},{domain_to_source(fam.domain)})"
    if isinstance(fam, RepeatedSectionwiseFamily):
        tail = filter_to_source(fam.inner.tail)
        prefix = ""
        if fam.inner.exceptions:
            entries = ",".join(
                f"{i}: {filter_to_source(g)}" for i, g in fam.inner.exceptions
            )
            prefix = f"{{{entries}}},"
        if fam.domain == fubini_domain(fam.inner):
            return f"repfamily({prefix}{tail})"
        return f"repfamily({prefix}{tail},{domain_to_source(fam.domain)})"
    raise DomainError(f"not a printable family: {fam!r}")


def filter_to_source(f: FilterExpr) -> str:
    if isinstance(f, Principal):
        return f"principal({set_to_source(f.core)})"
    if isinstance(f, Frechet):
        if f.domain == NAT:
            return "frechet"
        return f"frechet({domain_to_source(f.domain)})"
    if isinstance(f, Product):
        return f"prod({filter_to_source(f.outer)},{filter_to_source(f.inner)})"
    if isinstance(f, FubiniSum):
        return f"fubini({filter_to_source(f.base)},{family_to_source(f.family)})"
    if isinstance(f, Limit):
        return f"limit({filter_to_source(f.base)},{family_to_source(f.family)})"
    if isinstance(f, Intersection):
        return f"meet({filter_to_source(f.left)},{filter_to_source(f.right)})"
    if isinstance(f, Pushforward):
        return f"push({bij_to_source(f.sigma)},{filter_to_source(f.inner)})"
    if isinstance(f, SectionFilter):
        comp = filter_to_source(f.comp)
        if f.domain == Prod(dom_of(f.comp)):
            return f"cylinder({f.index},{comp})"
        return f"cylinder({f.index},{comp},{domain_to_source(f.domain)})"
    raise DomainError(f"not a printable filter: {f!r}")
