"""Ordinals below w^w in Cantor normal form.

An ordinal is a sum  w^e1*c1 + ... + w^ek*ck  with strictly decreasing
natural exponents and positive integer coefficients.  Addition absorbs on
the left: lower terms of the left operand vanish under a higher right head.
Ordinals compare with <, <=, min and max: their term tuples order
lexicographically exactly as the ordinals do.  ord_str spells a term as w,
w^e, w*c, w^e*c or a natural, and parse_ordinal reads that one grammar.
"""

from __future__ import annotations

import re

from .domains import FilterLabError, node


class OrdinalError(FilterLabError):
    pass


@node(order=True)
class Ordinal:
    """terms = ((exponent, coefficient), ...), exponents strictly decreasing.

    The field order is the ordinal order: the higher leading exponent wins,
    then the larger coefficient, then the form with more terms.
    """

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        last = None
        for e, c in self.terms:
            if e < 0 or c < 1:
                raise OrdinalError(f"bad CNF term w^{e}*{c}")
            if last is not None and e >= last:
                raise OrdinalError("CNF exponents must strictly decrease")
            last = e

    def __str__(self) -> str:
        return ord_str(self)


ZERO = Ordinal(())
ONE = Ordinal(((0, 1),))
OMEGA = Ordinal(((1, 1),))


def ord_of_int(n: int) -> Ordinal:
    if n < 0:
        raise OrdinalError("ordinals are nonnegative")
    return Ordinal(((0, n),)) if n else ZERO


def omega_pow(e: int, c: int = 1) -> Ordinal:
    return Ordinal(((e, c),)) if c else ZERO


def ord_add(a: Ordinal, b: Ordinal) -> Ordinal:
    if not b.terms:
        return a
    head = b.terms[0][0]
    kept = [(e, c) for e, c in a.terms if e > head]
    merged = list(b.terms)
    for e, c in a.terms:
        if e == head:
            merged[0] = (head, c + merged[0][1])
    return Ordinal(tuple(kept) + tuple(merged))


def ord_cmp(a: Ordinal, b: Ordinal) -> int:
    return (a > b) - (a < b)


def ord_succ(a: Ordinal) -> Ordinal:
    return ord_add(a, ONE)


def ord_str(a: Ordinal) -> str:
    if not a.terms:
        return "0"
    parts = []
    for e, c in a.terms:
        if e == 0:
            parts.append(str(c))
        elif e == 1:
            parts.append("w" if c == 1 else f"w*{c}")
        else:
            parts.append(f"w^{e}" if c == 1 else f"w^{e}*{c}")
    return "+".join(parts)


# one +-separated term: w, w^e, w*c, w^e*c or a natural, blanks around ^ and *;
# numerals are ASCII, as ord_str writes them
_TERM = re.compile(r"\s*(?:w\s*(?:\^\s*([0-9]+)\s*)?(?:\*\s*([0-9]+))?|([0-9]+))\s*")


def parse_ordinal(text: str) -> Ordinal:
    """Inverse of ord_str, tolerant of whitespace around + * ^."""
    out = ZERO
    for chunk in text.split("+"):
        m = _TERM.fullmatch(chunk)
        if m is None:
            raise OrdinalError(f"malformed term {chunk.strip()!r} in {text!r}")
        e, c, n = m.groups()
        term = omega_pow(int(e or 1), int(c or 1)) if n is None else ord_of_int(int(n))
        out = ord_add(out, term)
    return out
