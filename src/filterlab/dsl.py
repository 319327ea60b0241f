"""Textual language for filter, set, and sequence expressions.

The grammar is keyword-headed and round-trips with the printers: parsing the
printed source of any supported expression reproduces it exactly.  Set and
sequence literals infer their domain from point shapes; an explicit
`@domain` suffix overrides inference, and literals supplied to a typed
context (such as a membership query) are resolved against that context's
domain instead.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, TypeVar

from .domains import (
    DSum,
    DomainError,
    DomainExpr,
    FilterLabError,
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
    node,
    sum_domain,
    tail_component,
)
from .filters import (
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
    SectionSeq,
    SectionwiseFamily,
    SeqExpr,
    TableBij,
    dom_of,
    filter_family,
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


# A token is its text: "" ends the input, "\n" stands for a run of newlines,
# a decimal string is a natural, and any other text a name or a mark.  \d is
# exactly the decimal digits int() reads.  A name goes on with what
# str.isalnum() accepts (that is \w), but starts with a letter or "_", which
# [^\W\d] admits together with the non-decimal digits and numerals that
# tokenize then rejects.  Blanks and comments are skipped at the start and
# after each token.
_SKIP = re.compile(r"(?:[ \t\r]+|#[^\n]*)*")
_TOKEN = re.compile(r"(\d+|[^\W\d]\w*|[(){}\[\],:;=@/\n-])" + _SKIP.pattern)
# the longest prefix that holds no unexpected character
_CLEAN = re.compile(r"(?:[ \t\r\n]+|#[^\n]*|\w+|[(){}\[\],:;=@/-])*")


def tokenize(src: str) -> list[str]:
    """The token texts of src, ending with "" for the end of input; a run of
    newlines, with any blanks and comments between them, gives one "\n"."""
    stop = _CLEAN.match(src).end()  # type: ignore[union-attr]
    start = _SKIP.match(src).end()  # type: ignore[union-attr]
    if not src.isascii():
        # only non-ASCII text can start a name with a non-decimal digit
        for m in _TOKEN.finditer(src, start, stop):
            c = m[1][0]
            if c.isnumeric() and not (c.isdecimal() or c.isalpha()):
                stop = m.start()
                break
    if stop < len(src):
        raise ParseError(f"unexpected character {src[stop]!r}", *line_col(src, stop))
    toks = _TOKEN.findall(src, start)
    if "\n" in src:
        toks = [t for t, prev in zip(toks, ["", *toks]) if t != "\n" or prev != "\n"]
    toks.append("")
    return toks


def token_starts(src: str) -> list[int]:
    """The offset in src of each token of tokenize(src), found by scanning
    src again: positions are worked out only to report an error."""
    starts, prev = [], ""
    for m in _TOKEN.finditer(src, _SKIP.match(src).end()):  # type: ignore[union-attr]
        if m[1] != "\n" or prev != "\n":
            starts.append(m.start())
        prev = m[1]
    starts.append(len(src))
    return starts


def line_col(src: str, at: int) -> tuple[int, int]:
    """The line and column of offset at in src, both from 1."""
    return src.count("\n", 0, at) + 1, at - src.rfind("\n", 0, at)


def _is_name(t: str) -> bool:
    return t[:1].isalpha() or t[:1] == "_"


# ---------------------------------------------------------------------------
# raw literal trees (resolved against a domain after parsing)


@node
class RawLiteral:
    """A set or sequence literal whose domain is not fixed yet.

    head is "fin", "cofin", "sections" or "seq".  entries holds raw points
    for fin and cofin, and (key, value) pairs otherwise.  tail is None for
    fin and cofin, a Fraction for a leaf sequence, and the tail's literal
    for sections and nested sequences.  at is the index of its head token.
    """

    head: str
    entries: tuple
    tail: object
    tag: DomainExpr | None
    at: int


@node
class _ResolvedRaw:
    """A set binding spliced into a raw tree (already a normal form)."""

    value: SetExpr
    at: int


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
_KEYWORDS = FILTER_HEADS | SET_HEADS | {"seq"}
# the node class of each two-operand filter head
_BINARY = {
    "prod": Product,
    "meet": Intersection,
    "fubini": FubiniSum,
    "limit": Limit,
    "push": Pushforward,
}


_T = TypeVar("_T")


class _Parser:
    """Reads one source text.

    The constructor tokenizes it and reads the leading bindings (the domain
    language has none), a reader method reads the expression, and end()
    checks that nothing but separators follows.  parse_filter calls itself
    for nested operands, so each nesting level of a filter costs one frame.
    An error works out the line and column of the token it reports.
    """

    def __init__(self, src: str, bindings: bool = True) -> None:
        self.src = src
        self.toks = tokenize(src)
        self.pos = 0
        self.env: dict[str, tuple[str, object]] = {}
        if bindings:
            self.parse_bindings()
        else:
            self.skip_newlines()

    # -- token plumbing

    def peek(self) -> str:
        return self.toks[self.pos]

    def take(self) -> str:
        self.pos += 1
        return self.toks[self.pos - 1]

    def expect(self, text: str) -> None:
        t = self.toks[self.pos]
        if t != text:
            raise self.fail(f"expected {text!r}, got {t or 'end of input'!r}")
        self.pos += 1

    def place(self, at: int) -> tuple[int, int]:
        """The line and column of token at."""
        return line_col(self.src, token_starts(self.src)[at])

    def build(self, at: int, make: Callable[..., _T], *args) -> _T:
        """make(*args); a FilterLabError it raises gains the place of token at."""
        try:
            return make(*args)
        except FilterLabError as e:
            e.line, e.col = self.place(at)
            raise

    def fail(self, message: str, at: int | None = None) -> ParseError:
        """A ParseError at token at, by default the next token."""
        return ParseError(message, *self.place(self.pos if at is None else at))

    def skip_newlines(self) -> None:
        while self.toks[self.pos] == "\n":
            self.pos += 1

    def at_separator(self) -> bool:
        return self.peek() in ("\n", "", ";")

    def items(self, open_: str, close: str, item, key=None) -> list:
        """Read `open_ item, ..., item close`, possibly empty.  With key,
        each item is written `key: item` and read as a (key, item) pair."""
        self.expect(open_)
        out = []
        if self.peek() != close:
            while True:
                if key is None:
                    out.append(item())
                else:
                    k = key()
                    self.expect(":")
                    out.append((k, item()))
                if self.peek() != ",":
                    break
                self.pos += 1
        self.expect(close)
        return out

    def table(self, key, value, what: str, at: int) -> list:
        """Read a `{key: value, ...}` table; a repeated key is an error at token at."""
        entries = self.items("{", "}", value, key)
        if len({k for k, _ in entries}) != len(entries):
            raise self.fail(f"repeated key in a {what} table", at)
        return entries

    # -- program

    def parse_bindings(self) -> None:
        self.skip_newlines()
        while (
            _is_name(self.peek())
            and self.toks[self.pos + 1] == "="
            and self.peek() not in _KEYWORDS
        ):
            name = self.peek()
            if name in self.env:
                raise self.fail(f"{name!r} is already bound")
            self.pos += 1
            self.expect("=")
            self.env[name] = self.parse_any()
            if not self.at_separator():
                raise self.fail("expected end of statement after binding")
            if self.peek() == ";":
                self.take()
            self.skip_newlines()

    def end(self, value: _T) -> _T:
        self.skip_newlines()
        if self.peek() == ";":
            self.take()
            self.skip_newlines()
        t = self.peek()
        if t:
            raise self.fail(f"unexpected trailing input {t!r}")
        return value

    def parse_any(self) -> tuple[str, object]:
        t = self.peek()
        if not _is_name(t):
            raise self.fail("expected an expression")
        if t in FILTER_HEADS:
            return ("filter", self.parse_filter())
        if t in SET_HEADS:
            return ("set", self.resolve(self.parse_raw_set(), None))
        if t == "seq":
            return ("seq", self.resolve(self.parse_raw_seq(), None))
        if t in self.env:
            return self.env[self.take()]
        raise self.fail(f"unknown name {t!r}")

    # -- numbers and points

    def parse_nat(self) -> int:
        t = self.toks[self.pos]
        if not t.isdecimal():
            raise self.fail("expected a natural number")
        self.pos += 1
        return int(t)

    def parse_rational(self) -> Fraction:
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        num = self.parse_nat()
        if self.peek() == "/":
            self.take()
            den = self.parse_nat()
            if den == 0:
                raise self.fail("zero denominator")
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    def parse_raw_point(self) -> object:
        t = self.peek()
        if t.isdecimal():
            return self.parse_nat()
        if t == "(":
            at = self.pos
            coords = self.items("(", ")", self.parse_raw_point)
            if len(coords) == 1:
                raise self.fail("a point tuple needs at least two coordinates or ()", at)
            return tuple(coords)
        raise self.fail("expected a point")

    # -- domains

    def parse_domain(self) -> DomainExpr:
        t = self.peek()
        if t in ("unit", "nat"):
            self.take()
            return UNIT if t == "unit" else NAT
        if t == "prod":
            self.take()
            self.expect("(")
            inner = self.parse_domain()
            self.expect(")")
            return Prod(inner)
        if t == "dsum":
            self.take()
            self.expect("(")
            comps = self.items("[", "]", self.parse_domain)
            self.expect(",")
            tail = self.parse_domain()
            self.expect(")")
            return DSum(tuple(comps), tail)
        raise self.fail("expected a domain")

    def parse_opt_tag(self) -> DomainExpr | None:
        if self.peek() == "@":
            self.take()
            return self.parse_domain()
        return None

    # -- sets and sequences

    def parse_raw_set(self) -> RawLiteral | _ResolvedRaw:
        at, t = self.pos, self.peek()
        if t in ("fin", "cofin"):
            self.take()
            points = self.items("{", "}", self.parse_raw_point)
            return RawLiteral(t, tuple(points), None, self.parse_opt_tag(), at)
        if t == "sections":
            self.take()
            self.expect("(")
            entries = self.table(self.parse_nat, self.parse_raw_set, "section", at)
            self.expect(",")
            tail = self.parse_raw_set()
            self.expect(")")
            tag = self.parse_opt_tag()
            return RawLiteral("sections", tuple(entries), tail, tag, at)
        if _is_name(t) and t in self.env:
            kind, value = self.env[t]
            if kind != "set":
                raise self.fail(f"{t!r} is bound to a {kind}, not a set")
            self.take()
            # a resolved binding re-enters as an opaque leaf
            return _ResolvedRaw(value, at)  # type: ignore[arg-type]
        raise self.fail("expected a set")

    def parse_raw_seq(self) -> RawLiteral:
        at = self.pos
        self.expect("seq")
        self.expect("(")
        entries = self.table(self.parse_raw_point, self.parse_seq_value, "sequence", at)
        self.expect(",")
        tail = self.parse_seq_value()
        self.expect(")")
        return RawLiteral("seq", tuple(entries), tail, self.parse_opt_tag(), at)

    def parse_seq_value(self) -> RawLiteral | Fraction:
        if self.peek() == "seq":
            return self.parse_raw_seq()
        return self.parse_rational()

    # -- families

    def parse_family(self):
        at, t = self.pos, self.peek()
        if t not in FAMILY_HEADS:
            raise self.fail("expected a filter family")
        self.take()
        self.expect("(")
        entries = []
        # only repfamily may leave its table out
        if t != "repfamily" or self.peek() == "{":
            entries = self.table(self.parse_nat, self.parse_filter, "filter", self.pos)
            self.expect(",")
        tail = self.parse_filter()
        inner = self.build(at, filter_family, dict(entries), tail)
        if t == "family":
            self.expect(")")
            return inner
        domain = self.build(at, fubini_domain, inner)
        if self.peek() == ",":
            self.take()
            domain = self.parse_domain()
        self.expect(")")
        if t == "secfamily":
            return SectionwiseFamily(inner, domain)
        return RepeatedSectionwiseFamily(inner, domain)

    # -- bijections

    def parse_bij(self):
        at, t = self.pos, self.peek()
        if t not in ("id", "enum", "table"):
            raise self.fail("expected a bijection")
        self.take()
        self.expect("(")
        d = self.parse_domain()
        if t == "table":
            self.expect(",")
            pairs = self.items("{", "}", self.parse_nat, self.parse_nat)
            self.expect(")")
            return self.build(at, TableBij, d, tuple(pairs))
        self.expect(")")
        return IdentityBij(d) if t == "id" else TableBij(d, ())

    # -- filters

    def parse_filter(self) -> FilterExpr:
        at, head = self.pos, self.peek()
        if head not in FILTER_HEADS:
            if not _is_name(head):
                raise self.fail("expected a filter")
            if head in self.env:
                kind, value = self.env[head]
                if kind != "filter":
                    raise self.fail(f"{head!r} is bound to a {kind}, not a filter")
                self.take()
                return value  # type: ignore[return-value]
            raise self.fail(f"unknown filter head {head!r}")
        self.pos += 1
        if head == "frechet" and self.peek() != "(":
            return Frechet(NAT)
        self.expect("(")
        if head in _BINARY:
            left = self.parse_bij() if head == "push" else self.parse_filter()
            self.expect(",")
            right = self.parse_family() if head in ("fubini", "limit") else self.parse_filter()
            self.expect(")")
            if head == "fubini" and not isinstance(right, FilterFamily):
                raise self.fail("fubini takes a plain family", at)
            return self.build(at, _BINARY[head], left, right)
        if head == "frechet":
            d = self.parse_domain()
            self.expect(")")
            return self.build(at, Frechet, d)
        if head == "principal":
            core = self.resolve(self.parse_raw_set(), None)
            self.expect(")")
            return self.build(at, Principal, core)
        if head == "katetov":
            n = self.parse_nat()
            self.expect(")")
            return self.build(at, katetov, n)
        # cylinder(index, component filter[, domain])
        i = self.parse_nat()
        self.expect(",")
        comp = self.parse_filter()
        if self.peek() == ",":
            self.take()
            d = self.parse_domain()
        else:
            d = Prod(dom_of(comp))
        self.expect(")")
        return self.build(at, SectionFilter, i, comp, d)

    # -- raw resolution

    def resolve_point(self, raw: object, d: DomainExpr, at: int) -> Point:
        if isinstance(d, Unit):
            if raw == ():
                return UNIT_PT
            raise self.fail("expected the unit point ()", at)
        if isinstance(d, Nat):
            if isinstance(raw, int):
                return NatPt(raw)
            raise self.fail("expected a bare natural", at)
        if isinstance(raw, int):
            if is_linear_domain(d):
                return enum_point(d, raw)
            raise self.fail("a bare natural cannot name a point of this domain", at)
        if isinstance(raw, tuple) and len(raw) >= 2 and isinstance(raw[0], int):
            i = raw[0]
            rest = raw[1] if len(raw) == 2 else tuple(raw[1:])
            return make_point(d, i, self.resolve_point(rest, component(d, i), at))
        raise self.fail("point shape does not fit the domain", at)

    def infer_domain(self, raw: RawLiteral | _ResolvedRaw) -> DomainExpr:
        """The domain a literal names without context: its tag, else its shape."""
        if isinstance(raw, _ResolvedRaw):
            return raw.value.domain
        if raw.tag is not None:
            return raw.tag
        is_seq = raw.head == "seq"
        if _is_leaf(raw):
            points = [p for p, _ in raw.entries] if is_seq else raw.entries
            if not points:
                return NAT
            doms = {_infer_point_domain(p) for p in points}
            if len(doms) != 1:
                what = "sequence points" if is_seq else "points of one set"
                raise self.fail(f"{what} must share a shape", raw.at)
            return doms.pop()
        tail_d = self.infer_domain(raw.tail)  # type: ignore[arg-type]
        entry_ds = {}
        for key, val in raw.entries:
            if is_seq and not isinstance(key, int):
                raise self.fail("nested sequence keys must be naturals", raw.at)
            if is_seq and not isinstance(val, RawLiteral):
                raise self.fail("nested sequence entries must be sequences", raw.at)
            entry_ds[key] = self.infer_domain(val)
        return sum_domain(entry_ds, tail_d)

    def resolve(
        self, raw: RawLiteral | _ResolvedRaw, domain: DomainExpr | None
    ) -> SetExpr | SeqExpr:
        """The set or sequence a literal names over domain (inferred if None)."""
        if isinstance(raw, _ResolvedRaw):
            if domain is not None and raw.value.domain != domain:
                raise self.fail("bound set's domain does not match this context", raw.at)
            return raw.value
        d = domain if domain is not None else self.infer_domain(raw)
        if raw.tag is not None and domain is not None and raw.tag != domain:
            raise self.fail("domain tag does not match this context", raw.at)
        is_seq = raw.head == "seq"
        if _is_leaf(raw):
            if not is_seq:
                pts = [self.resolve_point(p, d, raw.at) for p in raw.entries]
                make = fin_set if raw.head == "fin" else cofin_set
                args = (pts, d)
            else:
                values = {}
                for key, val in raw.entries:
                    if isinstance(val, RawLiteral):
                        raise self.fail("leaf sequences need rational values", raw.at)
                    values[self.resolve_point(key, d, raw.at)] = val
                make = seq_leaf
                args = (values, raw.tail, d)
        else:
            if not is_indexed(d):
                what = "nested sequences" if is_seq else "sections"
                raise self.fail(f"{what} need an indexed domain", raw.at)
            entries = {}
            for key, val in raw.entries:
                if is_seq and not (isinstance(key, int) and isinstance(val, RawLiteral)):
                    raise self.fail("nested sequence entries must be `nat: seq`", raw.at)
                entries[key] = self.resolve(val, component(d, key))
            tail = self.resolve(raw.tail, tail_component(d))  # type: ignore[arg-type]
            make = seq_sections if is_seq else section_family
            args = (entries, tail, d)
        try:
            return make(*args)
        except DomainError as e:
            raise self.fail(str(e), raw.at) from e


def _infer_point_domain(raw: object) -> DomainExpr:
    if isinstance(raw, int):
        return NAT
    if raw == ():
        return UNIT
    return Prod(_infer_point_domain(raw[1] if len(raw) == 2 else raw[1:]))  # type: ignore[index]


def _is_leaf(raw: RawLiteral) -> bool:
    return raw.tail is None or isinstance(raw.tail, Fraction)


# ---------------------------------------------------------------------------
# entry points


def parse_program(src: str) -> tuple[str, object]:
    p = _Parser(src)
    return p.end(p.parse_any())


def parse_filter(src: str) -> FilterExpr:
    p = _Parser(src)
    return p.end(p.parse_filter())


def parse_set(src: str, domain: DomainExpr | None = None) -> SetExpr:
    p = _Parser(src)
    return p.resolve(p.end(p.parse_raw_set()), domain)  # type: ignore[return-value]


def parse_seq(src: str, domain: DomainExpr | None = None) -> SeqExpr:
    p = _Parser(src)
    return p.resolve(p.end(p.parse_raw_seq()), domain)  # type: ignore[return-value]


def parse_domain(src: str) -> DomainExpr:
    p = _Parser(src, bindings=False)
    return p.end(p.parse_domain())


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


def _table(pairs, key=str, value=str) -> str:
    return "{" + ",".join(f"{key(k)}: {value(v)}" for k, v in pairs) + "}"


def set_to_source(a: SetExpr | SeqExpr) -> str:
    """Source of a set or a sequence, tagged with its domain where the
    parser would not infer that domain from the printed shape.

    A marked table keeps its text, so a section that many sets share is
    printed once; a leaf, printed without recursion, keeps nothing."""
    kept = getattr(a, "_source", None)
    if kept is not None:
        return kept
    if isinstance(a, (FinSet, CofinSet)):
        head = "cofin" if a.tail_holds else "fin"
        body = head + "{" + ",".join(point_to_source(p) for p in a.listed) + "}"
    elif isinstance(a, LeafSeq):
        body = f"seq({_table(a.entries, point_to_source)},{a.tail})"
    elif isinstance(a, (SectionFamily, SectionSeq)):
        head = "sections" if isinstance(a, SectionFamily) else "seq"
        body = f"{head}({_table(a.exceptions, value=_kept_source)},{_kept_source(a.tail)})"
    else:
        raise DomainError(f"not a printable set: {a!r}")
    if _shape_domain(a) != a.domain:
        body = f"{body}@{domain_to_source(a.domain)}"
    if isinstance(a, SectionFamily) and a._valid:
        object.__setattr__(a, "_source", body)
    return body


def _kept_source(a: SetExpr | SeqExpr) -> str:
    """The text a table keeps, printing it first where it has none."""
    return getattr(a, "_source", None) or set_to_source(a)


def _shape_domain(a: SetExpr | SeqExpr) -> DomainExpr | None:
    """The domain the printer leaves to the parser's inference: a leaf's
    points show it, except a cofinite set's; an empty leaf names nat; a
    table sums the domains of its entries, which their own tags fix.
    None where a leaf sequence's points show no one domain."""
    if isinstance(a, (FinSet, CofinSet)):
        return NAT if a.tail_holds or not a.listed else a.domain
    if isinstance(a, LeafSeq):
        # a set leaf lives on nat or unit, but a sequence leaf on any domain,
        # and the parser reads each printed coordinate before the last as prod
        shapes = {_point_shape(p) for p, _ in a.entries} or {NAT}
        return shapes.pop() if len(shapes) == 1 else None
    if isinstance(a, SectionFamily) and a._valid:
        # validation gives each section the component at its index, so the
        # sections sum to the set's own domain, save a dsum that lists none
        d = a.domain
        return Prod(d.tail) if isinstance(d, DSum) and not d.exceptions else d
    return sum_domain({i: e.domain for i, e in a.exceptions}, a.tail.domain)


def _point_shape(p: Point) -> DomainExpr:
    """The domain _infer_point_domain reads off point_to_source(p)."""
    if isinstance(p, (PairPt, SumPt)):
        return Prod(_point_shape(p.rest))
    return UNIT if isinstance(p, UnitPt) else NAT


def bij_to_source(b) -> str:
    if isinstance(b, IdentityBij):
        return f"id({domain_to_source(b.domain)})"
    if isinstance(b, TableBij):
        target = domain_to_source(b.target)
        return f"table({target},{_table(b.table)})" if b.table else f"enum({target})"
    raise DomainError(f"not a printable bijection: {b!r}")


def family_to_source(fam) -> str:
    if isinstance(fam, FilterFamily):
        entries = _table(fam.exceptions, value=filter_to_source)
        return f"family({entries},{filter_to_source(fam.tail)})"
    if isinstance(fam, (SectionwiseFamily, RepeatedSectionwiseFamily)):
        head = "secfamily" if isinstance(fam, SectionwiseFamily) else "repfamily"
        args = [filter_to_source(fam.inner.tail)]
        # only repfamily may leave an empty table out
        if head == "secfamily" or fam.inner.exceptions:
            args.insert(0, _table(fam.inner.exceptions, value=filter_to_source))
        if fam.domain != fubini_domain(fam.inner):
            args.append(domain_to_source(fam.domain))
        return f"{head}({','.join(args)})"
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
