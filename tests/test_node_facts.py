"""Facts kept on expression nodes: set validity, filter domain and kernel,
and a sectionwise set's printed source.

Nodes may be built raw, so a raw invalid set must still be rejected wherever
a constructor takes it, and the kept facts must not change eq, hash or repr.
"""

from random import Random

import pytest

from filterlab.domains import (
    DSum,
    NAT,
    NatPt,
    Prod,
    UNIT,
    DomainError,
    sum_domain,
)
from filterlab.dsl import domain_to_source, parse_filter, parse_set, point_to_source, set_to_source
from filterlab.filters import (
    Frechet,
    Intersection,
    LeafSeq,
    Principal,
    SectionSeq,
    dom_of,
    is_free,
    kernel_set,
    katetov,
    meet,
    principal,
)
from filterlab.game import make_player_i, make_player_ii, play, transcript_lines
from filterlab.sets import (
    CofinSet,
    FinSet,
    NotNormalForm,
    SectionFamily,
    SetExpr,
    empty_set,
    fin_set,
    full_set,
    gen_random_setexpr,
    section_family,
)
from test_dsl import DOMAINS, _random_seq

UNSORTED = (NatPt(4), NatPt(1))


def test_raw_invalid_section_under_section_family_is_rejected_every_time():
    bad = FinSet(UNSORTED, NAT)
    for _ in range(2):  # a failed check leaves no mark behind
        with pytest.raises(NotNormalForm):
            section_family({0: bad}, empty_set(NAT), Prod(NAT))


def test_raw_invalid_family_under_principal_is_rejected_every_time():
    bad = SectionFamily(((0, FinSet(UNSORTED, NAT)),), empty_set(NAT), Prod(NAT))
    for _ in range(2):
        with pytest.raises(NotNormalForm):
            principal(bad)


def test_raw_family_with_a_tail_duplicate_is_rejected_every_time():
    tail = empty_set(NAT)
    bad = SectionFamily(((0, FinSet((), NAT)),), tail, Prod(NAT))
    for _ in range(2):
        with pytest.raises(NotNormalForm):
            principal(bad)


def test_valid_section_over_the_wrong_domain_is_rejected():
    # a constructor-built section is valid over its own domain only
    with pytest.raises(NotNormalForm):
        section_family({0: empty_set(Prod(NAT))}, empty_set(NAT), Prod(NAT))


def test_kept_facts_leave_eq_hash_and_repr_alone():
    built = fin_set([NatPt(4), NatPt(1)], NAT)
    raw = FinSet((NatPt(1), NatPt(4)), NAT)
    assert built == raw and hash(built) == hash(raw) and repr(built) == repr(raw)
    assert repr(raw) == "FinSet(elements=(NatPt(n=1), NatPt(n=4)), domain=Nat())"
    f = meet(Frechet(NAT), Principal(built))
    g = Intersection(Frechet(NAT), Principal(raw))
    kernel_set(f)
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)


def test_domain_and_kernel_are_kept_on_the_node():
    f = katetov(3)
    assert dom_of(f) is f._dom
    assert is_free(f)
    assert kernel_set(f) is kernel_set(f)


# ---------------------------------------------------------------------------
# printed source


def uncached_source(a) -> str:
    """The printer as it was before sets kept their text: every node is
    printed afresh, and a table's tag is decided by summing its entries'
    domains.  A leaf sequence is tagged unless the parser reads its domain
    off every printed point alike."""
    if isinstance(a, FinSet):
        body = "fin{" + ",".join(point_to_source(p) for p in a.elements) + "}"
        shape = a.domain if a.elements else NAT
    elif isinstance(a, CofinSet):
        body = "cofin{" + ",".join(point_to_source(p) for p in a.excluded) + "}"
        shape = NAT
    elif isinstance(a, LeafSeq):
        entries = ",".join(f"{point_to_source(p)}: {v}" for p, v in a.entries)
        body = f"seq({{{entries}}},{a.tail})"
        shapes = {parse_set("fin{" + point_to_source(p) + "}").domain for p, _ in a.entries}
        shapes = shapes or {NAT}
        shape = shapes.pop() if len(shapes) == 1 else None
    elif isinstance(a, (SectionFamily, SectionSeq)):
        head = "sections" if isinstance(a, SectionFamily) else "seq"
        entries = ",".join(f"{i}: {uncached_source(e)}" for i, e in a.exceptions)
        body = f"{head}({{{entries}}},{uncached_source(a.tail)})"
        shape = sum_domain({i: e.domain for i, e in a.exceptions}, a.tail.domain)
    else:
        raise DomainError(f"not a printable set: {a!r}")
    return f"{body}@{domain_to_source(a.domain)}" if shape != a.domain else body


def raw_copy(a):
    """An equal set built without the constructors, so nothing is marked."""
    if isinstance(a, SectionFamily):
        excs = tuple((i, raw_copy(e)) for i, e in a.exceptions)
        return SectionFamily(excs, raw_copy(a.tail), a.domain)
    return type(a)(a.elements if isinstance(a, FinSet) else a.excluded, a.domain)


def kept(a) -> str | None:
    """The text a set node keeps, or None."""
    return getattr(a, "_source", None)


def set_nodes(a) -> list:
    out = [a]
    if isinstance(a, SectionFamily):
        for _, e in a.exceptions:
            out += set_nodes(e)
        out += set_nodes(a.tail)
    return out


# the four test domains, then sums whose first component is the tail's and
# sums that list no component at all
PRINT_DOMAINS = DOMAINS + [DSum((Prod(NAT), NAT), Prod(NAT)), DSum((), NAT), DSum((), Prod(UNIT))]


@pytest.mark.parametrize("d", PRINT_DOMAINS, ids=domain_to_source)
def test_kept_source_is_the_uncached_text(d):
    for seed in range(400):
        a = gen_random_setexpr(d, 8, seed)
        want = uncached_source(a)
        assert set_to_source(a) == want
        assert set_to_source(a) == want
        # every table below is marked, so each now keeps its own text, and
        # no leaf keeps any
        for e in set_nodes(a):
            assert kept(e) == (uncached_source(e) if isinstance(e, SectionFamily) else None)


def test_sums_that_list_no_component_keep_their_tag():
    for d in (DSum((), NAT), DSum((), Prod(UNIT))):
        a = full_set(d)
        assert set_to_source(a) == uncached_source(a)
        assert set_to_source(a).endswith("@" + domain_to_source(d))


@pytest.mark.parametrize("d", DOMAINS, ids=domain_to_source)
def test_sequences_print_as_the_uncached_printer(d):
    rng = Random(11)
    for _ in range(100):
        s = _random_seq(d, rng)
        assert set_to_source(s) == set_to_source(s) == uncached_source(s)


@pytest.mark.parametrize("d", PRINT_DOMAINS, ids=domain_to_source)
def test_raw_nodes_print_as_before_and_keep_nothing(d):
    for seed in range(100):
        a = gen_random_setexpr(d, 8, seed)
        raw = raw_copy(a)
        assert set_to_source(raw) == uncached_source(a) == set_to_source(a)
        assert all(kept(e) is None for e in set_nodes(raw))


def test_kept_source_leaves_eq_hash_and_repr_alone():
    a = gen_random_setexpr(Prod(Prod(UNIT)), 8, 3)
    raw = raw_copy(a)
    set_to_source(a)
    assert kept(a) is not None and kept(raw) is None
    assert a == raw and hash(a) == hash(raw) and repr(a) == repr(raw)
    assert "_source" not in repr(a)
    assert {a: 1}[raw] == 1


@pytest.mark.parametrize("p1, p2", [("copy", "random"), ("exclude-union", "fresh")])
def test_a_second_game_reads_no_text_from_the_first(p1, p2):
    def game():
        return play(parse_filter("katetov(2)"), make_player_i(p1), make_player_ii(p2), 20, seed=3)

    first = game()
    lines = transcript_lines(first)
    second = game()
    assert second == first
    held = {id(e) for r in first.rounds for e in set_nodes(r.c)}
    nodes = [e for r in second.rounds for e in set_nodes(r.c)]
    # no node is shared between the games, and play prints nothing
    assert not any(id(e) in held for e in nodes)
    assert all(isinstance(e, SetExpr) and kept(e) is None for e in nodes)
    assert transcript_lines(second) == lines
