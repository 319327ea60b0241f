"""Textual language for filter, set, and sequence expressions.

The grammar is keyword-headed and round-trips with the printers: parsing the
printed source of any supported expression reproduces it exactly.  Set and
sequence literals infer their domain from point shapes; an explicit
`@domain` suffix overrides inference, and literals supplied to a typed
context (such as a membership query) are read over that context's domain
instead.  Each literal is read once, straight into its normal form.
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
    exception_table,
    is_indexed,
    is_linear_domain,
    make_point,
    point_key,
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
    seq_sections,
)
from .sets import (
    CofinSet,
    FinSet,
    SectionFamily,
    SetExpr,
    leaf_set,
    nat_leaf,
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
# any character but an ASCII blank, "#" or ASCII token character: only texts with one need _CLEAN
_ODD = re.compile(r"[^ \t\r\n0-9A-Za-z_(){}\[\],:;=@/#-]")


def tokenize(src: str) -> list[str]:
    """The token texts of src, ending with "" for the end of input; a run of
    newlines, with any blanks and comments between them, gives one "\n"."""
    stop = _CLEAN.match(src).end() if _ODD.search(src) else len(src)  # type: ignore[union-attr]
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


_TAGGED = re.compile(r"\)[ \t\r]*@")  # a tag after a parenthesized body


def _closers(toks: list[str]) -> dict[int, int]:
    """The index of the ")" that closes each "(" of toks."""
    out, stack = {}, []
    for i, t in enumerate(toks):
        if t == "(":
            stack.append(i)
        elif t == ")" and stack:
            out[stack.pop()] = i
    return out


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
        self.closers = _closers(self.toks) if _TAGGED.search(src) else {}  # read by domain_of
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

    def made(self, at: int, make: Callable[..., _T], *args) -> _T:
        """make(*args); a FilterLabError it raises is a ParseError at token at."""
        try:
            return make(*args)
        except FilterLabError as e:
            raise self.fail(str(e), at) from e

    def fail(self, message: str, at: int | None = None) -> ParseError:
        """A ParseError at token at, by default the next token."""
        return ParseError(message, *self.place(self.pos if at is None else at))

    def skip_newlines(self) -> None:
        while self.toks[self.pos] == "\n":
            self.pos += 1

    def at_separator(self) -> bool:
        return self.peek() in ("\n", "", ";")

    def items(self, open_: str, close: str, item, key=None) -> list:
        """Read `open_ item, ..., item close`, possibly empty.  With key, each
        item is written `key: item` and read as the pair (key, item(key))."""
        self.expect(open_)
        out = []
        if self.toks[self.pos] != close:
            while True:
                if key is None:
                    out.append(item())
                else:
                    k = key()
                    self.expect(":")
                    out.append((k, item(k)))
                if self.toks[self.pos] != ",":
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
            return ("set", self.literal(None))
        if t == "seq":
            return ("seq", self.sequence(None))
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
        t = self.toks[self.pos]
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

    def domain_of(self, at: int, d: DomainExpr | None, tag: DomainExpr | None = None):
        """The tag of the literal headed at token at, else d.  A tag after a body in
        parentheses governs each part of it, so it is read ahead of the body."""
        close = self.closers.get(at + 1)
        if tag is None and close is not None and self.toks[close + 1] == "@":
            here, self.pos = self.pos, close + 2
            tag = self.parse_domain()
            self.pos = here
        if d is not None and tag not in (None, d):
            raise self.fail("domain tag does not match this context", at)
        return tag or d

    def literal(self, d: DomainExpr | None) -> SetExpr:
        """The set at the next token in normal form over d, else over its parts' or points'."""
        at = self.pos
        t = self.toks[at]
        if t in ("fin", "cofin"):
            self.pos += 1
            ns = self.naturals()
            raw = self.items("{", "}", self.parse_raw_point) if ns is None else ns
            d = self.domain_of(at, d, self.parse_opt_tag())
            if ns is not None and (d is None or isinstance(d, Nat)):
                return nat_leaf(ns, t == "cofin")
            d, pts = self.points(raw, d, "points of one set", at)
            return leaf_set(pts, t == "cofin", d)
        if t == "sections":
            d = self.domain_of(at, d)
            if d is not None and not is_indexed(d):
                raise self.fail("sections need an indexed domain", at)
            self.pos += 1
            self.expect("(")
            entries = self.table(
                self.parse_nat, lambda k: self.literal(d and component(d, k)), "section", at
            )
            self.expect(",")
            tail = self.literal(d and tail_component(d))
            self.expect(")")
            self.parse_opt_tag()
            if d is None:
                d = self.made(at, sum_domain, {k: e.domain for k, e in entries}, tail.domain)
            return self.made(at, section_family, dict(entries), tail, d)
        if _is_name(t) and t in self.env:
            kind, value = self.env[t]
            if kind != "set":
                raise self.fail(f"{t!r} is bound to a {kind}, not a set")
            self.take()
            if d is not None and value.domain != d:  # type: ignore[attr-defined]
                raise self.fail("bound set's domain does not match this context", at)
            return value  # type: ignore[return-value]
        raise self.fail("expected a set")

    def naturals(self) -> list[int] | None:
        """The naturals of the `{n, ..., n}` list at the next token, or None, reading nothing."""
        toks, i, ns = self.toks, self.pos, []
        while toks[i] == ("," if ns else "{") and toks[i + 1].isdecimal():
            ns.append(int(toks[i + 1]))
            i += 2
        end = i if ns else i + 1
        if toks[self.pos] != "{" or toks[end] != "}":
            return None
        self.pos = end + 1
        return ns

    def points(self, raw: list, d: DomainExpr | None, what: str, at: int) -> tuple:
        """d, or else the one domain the raw points' shapes name, and their points in it."""
        pts = [self.resolve_point(p, d, at) for p in raw]
        if d is None:
            shapes = {_point_shape(p) for p in pts} or {NAT}
            if len(shapes) != 1:
                raise self.fail(f"{what} must share a shape", at)
            d = shapes.pop()
        return d, pts

    def sequence(self, d: DomainExpr | None) -> SeqExpr:
        """The sequence at the next token, read as literal reads a set; its tail tells its kind."""
        at = self.pos
        self.expect("seq")
        d = self.domain_of(at, d)

        def value(key: object) -> SeqExpr | Fraction:
            if self.peek() != "seq":
                return self.parse_rational()
            typed = d is not None and isinstance(key, int) and is_indexed(d)
            return self.sequence(component(d, key) if typed else None)  # type: ignore[arg-type]

        self.expect("(")
        entries = self.table(self.parse_raw_point, value, "sequence", at)
        self.expect(",")
        nested = self.peek() == "seq"
        if nested and d is not None and not is_indexed(d):
            raise self.fail("nested sequences need an indexed domain", at)
        tail = self.sequence(d and tail_component(d)) if nested else self.parse_rational()
        self.expect(")")
        self.parse_opt_tag()
        if not nested:
            d, pts = self.points([p for p, _ in entries], d, "sequence points", at)
            if not all(isinstance(v, Fraction) for _, v in entries):
                raise self.fail("leaf sequences need rational values", at)
            values = dict(zip(pts, (v for _, v in entries)))
            return LeafSeq(exception_table(values, tail, key=point_key), tail, d)
        for key, val in entries:
            if d is not None and (not isinstance(key, int) or isinstance(val, Fraction)):
                raise self.fail("nested sequence entries must be `nat: seq`", at)
            if not isinstance(key, int):
                raise self.fail("nested sequence keys must be naturals", at)
            if isinstance(val, Fraction):
                raise self.fail("nested sequence entries must be sequences", at)
        if d is None:
            d = self.made(at, sum_domain, {k: e.domain for k, e in entries}, tail.domain)
        return seq_sections(dict(entries), tail, d)

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
            entries = self.table(self.parse_nat, lambda _: self.parse_filter(), "filter", self.pos)
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
            pairs = self.items("{", "}", lambda _: self.parse_nat(), self.parse_nat)
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
            core = self.literal(None)
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

    # -- points

    def resolve_point(self, raw: object, d: DomainExpr | None, at: int) -> Point:
        """The point raw names in d, or where d is None in the domain its shape names."""
        if isinstance(d, Unit) or d is None and raw == ():
            if raw == ():
                return UNIT_PT
            raise self.fail("expected the unit point ()", at)
        if isinstance(d, Nat) or d is None and isinstance(raw, int):
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
            if d is None:
                return PairPt(i, self.resolve_point(rest, None, at))
            return make_point(d, i, self.resolve_point(rest, component(d, i), at))
        raise self.fail("point shape does not fit the domain", at)


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
    return p.end(p.literal(domain))


def parse_seq(src: str, domain: DomainExpr | None = None) -> SeqExpr:
    p = _Parser(src)
    return p.end(p.sequence(domain))


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
    """The domain the parser reads off point_to_source(p), where no domain is given."""
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
