"""One table derivation: sums, products and limits of every family kind.

Covers the rows of a repeated sectionwise limit (each certified over its own
section), family tables read through `filter_family`'s normal form, the three
ways a rank witness is rejected, and the sectionwise kernel rule against the
two-branch form it replaced.
"""

import pytest

from filterlab.constructions import BlockInterleaveBij, collapse_pair
from filterlab.domains import DSum, NAT, NatPt, Prod, UNIT, point_key, tail_component
from filterlab.dsl import filter_to_source, parse_filter
from filterlab.filters import (
    FilterError,
    FilterFamily,
    IdentityBij,
    Intersection,
    IntoSectionMap,
    Limit,
    Pushforward,
    RepeatedSectionwiseFamily,
    SectionFilter,
    SectionwiseFamily,
    UnsupportedPreimage,
    _fill_dsum_empties,
    _sectionwise_kernel,
    dom_of,
    filter_family,
    frechet,
    fubini_domain,
    fubini_sum,
    gen_random_filter,
    katetov,
    kernel_set,
    limit_of,
    principal,
    section_filter,
    sum_parts,
)
from filterlab.rank import (
    CopyWitness,
    QHWitness,
    WitnessRejected,
    bounds_of,
    certificate_from_text,
    certificate_text,
    rank_bounds,
    replay_certificate,
)
from filterlab.sets import CofinSet, FinSet, cofin_set, empty_set, fin_set, full_set, section_family

DOMAINS = [NAT, Prod(NAT), Prod(Prod(UNIT)), DSum((Prod(UNIT),), NAT)]


# ---------------------------------------------------------------------------
# repeated sectionwise limits


def test_repfamily_rows_are_certified_over_their_own_sections():
    f = parse_filter(
        "limit(frechet, repfamily({1: principal(cofin{0}), 4: katetov(5)}, frechet))"
    )
    b, cert = rank_bounds(f)
    labels = [c.label for c in cert.root.children]
    assert labels == [
        "base: Frechet",
        "member row 1: SectionFilter",
        "member row 4: SectionFilter",
        "member tail: SectionFilter",
    ]
    row1, row4, tail = cert.root.children[1:]
    assert [c.label for c in row1.children] == ["section 1: Principal"]
    assert [c.label for c in row4.children] == ["section 4: Product"]
    assert [c.label for c in tail.children] == ["section 5: Frechet"]
    # the row-4 node is the depth-5 tower's cylinder, with the tower's rank
    assert row4.final == bounds_of(5, 5)
    assert row4.children[0].final == bounds_of(5, 5)
    assert any(app.rule == "RKat" for app in row4.children[0].applied)
    assert b == bounds_of(0, 0)
    # every row recurs on infinitely many positions: J is never cofinite
    assert {dict(app.params).get("J") for app in cert.root.applied} == {None, "full"}
    assert replay_certificate(cert) == b
    assert replay_certificate(certificate_from_text(certificate_text(cert))) == b


def test_repfamily_rows_match_the_cylinders_they_name():
    dom = DSum((NAT, NAT, NAT, NAT, dom_of(katetov(2))), NAT)
    inner = filter_family({2: principal(cofin_set([NatPt(3)], NAT)), 4: katetov(2)}, frechet())
    f = limit_of(frechet(), RepeatedSectionwiseFamily(inner, dom))
    _, cert = rank_bounds(f)
    for i, node in zip((2, 4, 5), cert.root.children[1:]):
        want, _ = rank_bounds(section_filter(i, inner.at(i), dom))
        assert node.final == want
        assert node.children[0].label.startswith(f"section {i}: ")


# ---------------------------------------------------------------------------
# family tables parse to their normal form


def test_family_entry_equal_to_the_tail_is_dropped():
    f = parse_filter("limit(principal(fin{0,1}), family({0: katetov(2)}, katetov(2)))")
    base = principal(fin_set([NatPt(0), NatPt(1)], NAT))
    assert f == limit_of(base, filter_family({}, katetov(2)))
    assert f.family.exceptions == ()
    assert rank_bounds(f)[0] == bounds_of(2, 2)
    assert filter_to_source(f).startswith("limit(principal(fin{0,1}),family({},")
    assert parse_filter(filter_to_source(f)) == f


@pytest.mark.parametrize("head, kind", [
    ("secfamily", SectionwiseFamily),
    ("repfamily", RepeatedSectionwiseFamily),
])
def test_sectionwise_tables_parse_to_their_normal_form(head, kind):
    f = parse_filter(f"limit(frechet, {head}({{0: frechet, 2: principal(fin{{1}})}}, frechet))")
    inner = filter_family({2: principal(fin_set([NatPt(1)], NAT))}, frechet())
    assert f == limit_of(frechet(), kind(inner, fubini_domain(inner)))
    _, cert = rank_bounds(f)
    assert [c.label.split(":")[0] for c in cert.root.children][1:] == [
        "member row 2" if head == "repfamily" else "member 2", "member tail"
    ]


def test_fubini_table_parses_to_its_normal_form():
    f = parse_filter("fubini(frechet, family({3: katetov(1)}, katetov(1)))")
    assert f == fubini_sum(frechet(), {}, katetov(1))
    assert rank_bounds(f)[0] == bounds_of(2, 2)


# ---------------------------------------------------------------------------
# one witness check, three rejections


_SUM_DOM = DSum((), NAT)
_SUM_SAMPLE = section_family({0: cofin_set([NatPt(5)], NAT)}, cofin_set((), NAT), _SUM_DOM)
_FINITE_SECTION = section_family({0: fin_set([NatPt(1)], NAT)}, cofin_set((), NAT), _SUM_DOM)
# the sets with all but finitely many columns cofinite; both samples above
# are members
_COLUMNS = fubini_sum(frechet(NAT), {}, frechet(NAT))


def _copy(target, sample):
    return target, CopyWitness(frechet(NAT), IdentityBij(NAT), (sample,))


def _qh(target, source=frechet(NAT), sample=_SUM_SAMPLE):
    return target, QHWitness(source, IntoSectionMap(_SUM_DOM, 0), (sample,))


# a streaming interleaving has no closed form for set images or preimages,
# so neither witness below can move its sample


def _interleaved_copy():
    cp = collapse_pair(1)
    src = katetov(1)
    return cp.push0, CopyWitness(src, BlockInterleaveBij(cp.pair, 0), (full_set(dom_of(src)),))


def _interleaved_qh():
    cp = collapse_pair(1)
    f = fubini_sum(frechet(NAT), {}, cp.push0)
    d = dom_of(f)
    return f, QHWitness(cp.push0, IntoSectionMap(d, 0), (full_set(d),))


@pytest.mark.parametrize("case, message", [
    # membership in a relabelling along a streaming interleaving is undecided
    (
        lambda: _copy(collapse_pair(1).push0, full_set(NAT)),
        "copy witness sample outside the decidable language",
    ),
    (
        lambda: _copy(principal(fin_set([NatPt(0)], NAT)), cofin_set([NatPt(0)], NAT)),
        "copy witness image escaped the target filter",
    ),
    (
        lambda: _copy(frechet(NAT), fin_set([NatPt(0)], NAT)),
        "copy witness verified against no valid sample",
    ),
    (
        lambda: _qh(_COLUMNS, collapse_pair(1).push0),
        "witness sample outside the decidable language",
    ),
    (
        lambda: _qh(_COLUMNS, sample=_FINITE_SECTION),
        "preimage of a target member escaped the source",
    ),
    (
        lambda: _qh(_COLUMNS, sample=empty_set(_SUM_DOM)),
        "witness verified against no valid sample",
    ),
    pytest.param(
        _interleaved_copy, "copy witness sample outside the decidable language",
        id="copy-through-a-streaming-interleaving",
    ),
    pytest.param(
        _interleaved_qh, "witness sample outside the decidable language",
        id="qh-through-a-streaming-interleaving",
    ),
    pytest.param(
        lambda: (principal(full_set(NAT)), CopyWitness(
            frechet(NAT), IdentityBij(NAT), (cofin_set([NatPt(5)], NAT),)
        )),
        "copy witness image escaped the target filter",
        id="copy-into-a-stricter-filter",
    ),
    pytest.param(
        lambda: (frechet(NAT), CopyWitness(
            katetov(1), IdentityBij(dom_of(katetov(1))), (full_set(dom_of(katetov(1))),)
        )),
        "copy witness maps between the wrong domains",
        id="copy-onto-another-domain",
    ),
    pytest.param(
        lambda: (frechet(NAT), QHWitness(
            frechet(NAT), IntoSectionMap(_SUM_DOM, 0), (full_set(NAT),)
        )),
        "witness maps between the wrong domains",
        id="qh-from-another-domain",
    ),
])
def test_witness_rejections(case, message):
    target, w = case()
    with pytest.raises(WitnessRejected, match=f"^{message}$"):
        rank_bounds(target, witnesses=(w,))


def test_copy_witness_skips_samples_outside_the_source():
    # the engine bounds this meet by [0,1]; the copy of the cofinite filter
    # lifts it to [1,1] on its one sample inside the source
    target = Intersection(frechet(NAT), frechet(NAT))
    assert rank_bounds(target)[0] == bounds_of(0, 1)
    w = CopyWitness(frechet(NAT), IdentityBij(NAT), (fin_set([NatPt(0)], NAT), full_set(NAT)))
    b, cert = rank_bounds(target, witnesses=(w,))
    assert b == bounds_of(1, 1)
    last = cert.root.applied[-1]
    assert (last.rule, last.output) == ("RCopy", bounds_of(1, None))


def test_a_witness_needs_a_filter_expression_target():
    # a certified filter has no members to check samples against
    target = collapse_pair(1).meet
    w = CopyWitness(frechet(NAT), IdentityBij(NAT), (full_set(NAT),))
    with pytest.raises(FilterError, match="^not a FilterExpr: "):
        rank_bounds(target, witnesses=(w,))


# ---------------------------------------------------------------------------
# the sectionwise kernel rule


def _two_branch_sectionwise_kernel(base_kernel, family, domain):
    """The kernel rule as two branches, one per leaf kind of the base kernel."""
    if isinstance(base_kernel, FinSet):
        live = {point_key(p)[0] for p in base_kernel.elements}
        excs = {i: kernel_set(family.at(i)) for i in live}
        for i in family.keys:
            excs.setdefault(i, empty_set(dom_of(family.at(i))))
        _fill_dsum_empties(domain, excs)
        return section_family(excs, empty_set(tail_component(domain)), domain)
    assert isinstance(base_kernel, CofinSet)
    dead = {point_key(p)[0] for p in base_kernel.excluded}
    excs = {}
    for i in sorted(dead | set(family.keys)):
        if i in dead:
            excs[i] = empty_set(dom_of(family.at(i)))
        else:
            excs[i] = kernel_set(family.at(i))
    _fill_dsum_empties(domain, excs)
    return section_family(excs, kernel_set(family.tail), domain)


def _subfilters(f):
    yield f
    parts = sum_parts(f)
    if parts is not None:
        base, fam = parts
        kids = [base, *(g for _, g in fam.exceptions), fam.tail]
    elif isinstance(f, Limit):
        fam = f.family if isinstance(f.family, FilterFamily) else f.family.inner
        kids = [f.base, *(g for _, g in fam.exceptions), fam.tail]
    elif isinstance(f, Intersection):
        kids = [f.left, f.right]
    elif isinstance(f, Pushforward):
        kids = [f.inner]
    elif isinstance(f, SectionFilter):
        kids = [f.comp]
    else:
        kids = []
    for g in kids:
        yield from _subfilters(g)


def _kernel_or_error(rule, base, fam, domain):
    try:
        return rule(kernel_set(base), fam, domain)
    except UnsupportedPreimage as e:
        return type(e)


def test_sectionwise_kernel_matches_the_two_branch_rule():
    checked = {FinSet: 0, CofinSet: 0}
    for domain in DOMAINS:
        for seed in range(400):
            for g in _subfilters(gen_random_filter(domain, 3, seed)):
                parts = sum_parts(g)
                if parts is None:
                    continue
                base, fam = parts
                one = _kernel_or_error(_sectionwise_kernel, base, fam, dom_of(g))
                two = _kernel_or_error(_two_branch_sectionwise_kernel, base, fam, dom_of(g))
                assert one == two, (domain, seed, g)
                checked[type(kernel_set(base))] += 1
    # both leaf kinds of the base kernel are exercised
    assert min(checked.values()) >= 100, checked
