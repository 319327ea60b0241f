"""The shared eventually uniform table: lookup, normalisation, key checks."""

import pytest

from filterlab.domains import (
    DSum,
    ExceptionTable,
    NAT,
    NatPt,
    Prod,
    UNIT,
    exception_table,
    fresh_index,
    sum_domain,
)
from filterlab.dsl import parse_seq, parse_set, set_to_source
from filterlab.filters import (
    FilterError,
    FilterFamily,
    frechet,
    fubini_domain,
    gen_random_filter,
    katetov,
    principal,
    seq_leaf,
    seq_sections,
)
from filterlab.sets import (
    NotNormalForm,
    SectionFamily,
    empty_set,
    fin_set,
    full_set,
    gen_random_setexpr,
    section_family,
    validate_set,
)

DOMAINS = [Prod(NAT), Prod(Prod(UNIT)), DSum((Prod(UNIT),), NAT), DSum((NAT, UNIT), Prod(NAT))]


def tables_in(x):
    """Every ExceptionTable reachable through node fields and tuples."""
    if isinstance(x, ExceptionTable):
        yield x
    if isinstance(x, tuple):
        for y in x:
            yield from tables_in(y)
    elif hasattr(x, "__node_fields__"):  # every field, hidden ones included
        for name in x.__node_fields__:
            yield from tables_in(getattr(x, name))


def linear_at(table, i):
    for k, v in table.exceptions:
        if k == i:
            return v
    return table.tail


def assert_lookup_matches_scan(table):
    for i in range(fresh_index(table.keys) + 3):
        assert table.at(i) is linear_at(table, i)


# tables visited over the seeds below, pinned so that a walk which stops at
# the top level fails
@pytest.mark.parametrize("d, visits", zip(DOMAINS, [40, 134, 80, 123]), ids=["d0", "d1", "d2", "d3"])
def test_set_lookup_matches_linear_scan(d, visits):
    seen = 0
    for seed in range(40):
        for table in tables_in(gen_random_setexpr(d, 8, seed)):
            assert isinstance(table, SectionFamily)
            assert_lookup_matches_scan(table)
            seen += 1
    assert seen == visits


@pytest.mark.parametrize(
    "d, visits", zip([NAT] + DOMAINS, [18, 68, 167, 132, 159]), ids=["d0", "d1", "d2", "d3", "d4"]
)
def test_family_lookup_matches_linear_scan(d, visits):
    seen = families = 0
    for seed in range(60):
        for table in tables_in(gen_random_filter(d, 2, seed)):
            assert_lookup_matches_scan(table)
            seen += 1
            families += isinstance(table, FilterFamily)
    assert seen == visits and families > 0


def test_exception_table_sorts_and_drops_tail_values():
    assert exception_table({5: "a", 1: "t", 0: "b", 3: "a"}, "t") == (
        (0, "b"),
        (3, "a"),
        (5, "a"),
    )
    assert exception_table({2: "t"}, "t") == ()


def test_fresh_index_spans_every_group():
    assert fresh_index() == 0
    assert fresh_index((), {}) == 0
    assert fresh_index((0, 4), {7: None}, [2]) == 8


def test_normalising_constructors_prune_tail_entries():
    tail = fin_set([NatPt(1)], NAT)
    a = section_family({4: tail, 2: empty_set(NAT)}, tail, Prod(NAT))
    assert a.exceptions == ((2, empty_set(NAT)),)
    fam = FilterFamily((), frechet(NAT))
    assert fam.keys == () and fam.at(9) == frechet(NAT)
    s = seq_sections({3: seq_leaf({}, 0, NAT), 1: seq_leaf({}, 1, NAT)}, seq_leaf({}, 0, NAT), Prod(NAT))
    assert s.keys == (1,)
    assert s.at(1) == seq_leaf({}, 1, NAT)


@pytest.mark.parametrize(
    "exceptions", [((2, 0), (1, 1)), ((1, 0), (1, 1)), ((-1, 0),)]
)
def test_bad_set_keys_raise_not_normal_form(exceptions):
    secs = {0: empty_set(NAT), 1: fin_set([NatPt(0)], NAT)}
    bad = SectionFamily(
        tuple((i, secs[j]) for i, j in exceptions), fin_set([NatPt(5)], NAT), Prod(NAT)
    )
    with pytest.raises(NotNormalForm):
        validate_set(bad)


def test_negative_section_key_raises_not_normal_form():
    tail = empty_set(NAT)
    for sec in (tail, fin_set([NatPt(0)], NAT)):
        with pytest.raises(NotNormalForm):
            section_family({-1: sec}, tail, Prod(NAT))


@pytest.mark.parametrize("keys", [(2, 1), (1, 1), (-1,)])
def test_bad_family_keys_raise_filter_error(keys):
    with pytest.raises(FilterError):
        FilterFamily(tuple((i, katetov(1)) for i in keys), frechet(NAT))


def test_sum_domain_chooses_prod_or_dsum():
    assert sum_domain({}, NAT) == Prod(NAT)
    assert sum_domain({10**9: NAT}, NAT) == Prod(NAT)
    assert sum_domain({2: UNIT, 0: NAT}, NAT) == DSum((NAT, NAT, UNIT), NAT)
    assert sum_domain({1: Prod(NAT)}, NAT) == DSum((NAT, Prod(NAT)), NAT)


def test_fubini_domain_is_always_a_sum():
    assert fubini_domain(FilterFamily((), frechet(NAT))) == DSum((), NAT)
    far = FilterFamily(((10**9, principal(full_set(NAT))),), frechet(NAT))
    assert fubini_domain(far) == DSum((), NAT)
    hetero = FilterFamily(((1, katetov(2)),), frechet(NAT))
    assert fubini_domain(hetero) == DSum((NAT, Prod(Prod(UNIT))), NAT)


@pytest.mark.parametrize("d", DOMAINS)
def test_sets_round_trip_without_a_domain_hint(d):
    for seed in range(30):
        a = gen_random_setexpr(d, 8, seed)
        assert parse_set(set_to_source(a)) == a


def test_nested_seq_round_trips_over_a_sum():
    d = DSum((Prod(NAT),), NAT)
    inner = seq_sections({0: seq_leaf({NatPt(2): 1}, 0, NAT)}, seq_leaf({}, 0, NAT), Prod(NAT))
    s = seq_sections({0: inner}, seq_leaf({NatPt(1): 3}, 0, NAT), d)
    assert parse_seq(set_to_source(s)) == s
