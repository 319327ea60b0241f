"""References that the benchmark's outputs are checked against.

None of this calls the code under test.  Membership is decided by the
definitional evaluator in tests/naive.py (imported read-only), which reads
the frozen expression dataclasses field by field.  The few constructions
that evaluator leaves out are written here in the same style: the
complement of a set and the level sets of a sequence are built as plain
dataclasses, and the tower rule decides deep towers, whose clamped grid
would be too large to enumerate.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

from filterlab.domains import DSum, Nat, NatPt, PairPt, Prod, SumPt, Unit, UnitPt, UNIT_PT
from filterlab.sets import CofinSet, FinSet, SectionFamily

# the grid above this many points is not enumerated; such inputs count as unchecked
GRID_LIMIT = 200_000


def load_naive(root: Path):
    tests = root / "tests"
    if not (tests / "naive.py").is_file():
        raise SystemExit("benchmark: tests/naive.py is missing; it is the reference evaluator")
    sys.path.insert(1, str(tests))
    import naive

    return naive


class Reference:
    def __init__(self, naive) -> None:
        self.naive = naive

    # -- membership ---------------------------------------------------------

    def member(self, f, a) -> bool | None:
        """Definitional verdict, or None where the evaluator cannot decide."""
        nv = self.naive
        try:
            bound = max(nv.span_filter(f), nv.span_set(a), nv.span_domain(a.domain)) + 1
            if _grid_size(a.domain, bound) > GRID_LIMIT:
                return None
            return nv.naive_member(f, a)
        except nv.NaiveUnsupported:
            return None

    def tower_member(self, depth: int, a) -> bool:
        """Membership in katetov(depth) by its definition: the Frechet filter
        on the index set holds iff the eventual (tail) section is in the tower
        one level down; level 0 is the principal ultrafilter at the point."""
        for _ in range(depth):
            if not isinstance(a, SectionFamily):
                raise TypeError(f"tower set is not sectionwise: {a!r}")
            a = a.tail
        return self.naive.contains(a, ())

    # -- sets -----------------------------------------------------------------

    def set_equal_on_grid(self, result, sets, combine) -> bool:
        """result(p) == combine(s(p) for s in sets) on the clamped grid, which
        decides equality of eventually uniform sets exactly."""
        nv = self.naive
        d = result.domain
        bound = max([nv.span_set(result), nv.span_domain(d)] + [nv.span_set(s) for s in sets]) + 1
        return all(
            nv.contains(result, p) == combine([nv.contains(s, p) for s in sets])
            for p in nv.grid(d, bound)
        )


def _grid_size(d, bound: int) -> int:
    if isinstance(d, Unit):
        return 1
    if isinstance(d, Nat):
        return bound + 1
    if isinstance(d, Prod):
        return (bound + 1) * _grid_size(d.inner, bound)
    if isinstance(d, DSum):
        comps = list(d.exceptions) + [d.tail] * (bound + 1 - len(d.exceptions))
        return sum(_grid_size(c, bound) for c in comps[: bound + 1])
    return GRID_LIMIT + 1


def naive_point(p):
    """A point as the evaluator writes it: int, (), or (index, rest)."""
    if isinstance(p, UnitPt):
        return ()
    if isinstance(p, NatPt):
        return p.n
    if isinstance(p, (PairPt, SumPt)):
        return (p.i, naive_point(p.rest))
    raise TypeError(f"unknown point {p!r}")


def complement(a):
    """The complement as plain dataclasses, leaf by leaf."""
    if isinstance(a, SectionFamily):
        return SectionFamily(
            tuple((i, complement(s)) for i, s in a.exceptions), complement(a.tail), a.domain
        )
    if isinstance(a, FinSet) and isinstance(a.domain, Unit):
        return FinSet(() if a.elements else (UNIT_PT,), a.domain)
    if isinstance(a, FinSet):
        return CofinSet(a.elements, a.domain)
    if isinstance(a, CofinSet):
        return FinSet(a.excluded, a.domain)
    raise TypeError(f"not a set: {a!r}")


# ---------------------------------------------------------------------------
# sequences, kept by the benchmark as nested (table, tail) pairs so that
# the reference never reads the program's parsed sequence


def seq_values(seq) -> set[Fraction]:
    table, tail = seq
    if isinstance(tail, Fraction):
        return set(table.values()) | {tail}
    out = seq_values(tail)
    for sub in table.values():
        out |= seq_values(sub)
    return out


def level_set(seq, v: Fraction, domain):
    """{p : seq(p) == v} as plain dataclasses over the given domain."""
    table, tail = seq
    if isinstance(tail, Fraction):
        if tail == v:
            return CofinSet(tuple(NatPt(i) for i in sorted(table) if table[i] != v), domain)
        return FinSet(tuple(NatPt(i) for i in sorted(table) if table[i] == v), domain)
    inner = domain.inner
    return SectionFamily(
        tuple((i, level_set(table[i], v, inner)) for i in sorted(table)),
        level_set(tail, v, inner),
        domain,
    )


def seq_source(seq) -> str:
    table, tail = seq
    entries = ", ".join(f"{i}: {_value_source(x)}" for i, x in sorted(table.items()))
    return f"seq({{{entries}}}, {_value_source(tail)})"


def _value_source(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    return seq_source(x)
