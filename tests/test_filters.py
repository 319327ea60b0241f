"""Filter constructors, membership, kernels, limits, and witnesses."""

import hashlib
from collections import Counter
from fractions import Fraction

import pytest

from filterlab.constructions import collapse_pair
from filterlab.domains import (
    DSum,
    DomainError,
    NAT,
    NatPt,
    Prod,
    UNIT,
)
from filterlab.filters import (
    DIVERGENT,
    DiagNo,
    DiagUnknown,
    DiagYes,
    FilterError,
    IdentityBij,
    Limit,
    Principal,
    RepeatedSectionwiseFamily,
    SectionwiseFamily,
    TableBij,
    dom_of,
    dual_member,
    filter_family,
    flim,
    frechet,
    fubini_as_limit,
    fubini_sum,
    gen_random_filter,
    is_diagonalizable,
    is_free,
    katetov,
    kernel_set,
    limit_of,
    meet,
    member,
    principal,
    product,
    pushforward,
    section_filter,
    seq_leaf,
    seq_sections,
)
from filterlab.ordinals import ONE
from filterlab.rank import rank_bounds
from filterlab.sets import (
    CofinSet,
    FinSet,
    NotNormalForm,
    SectionFamily,
    cofin_set,
    empty_set,
    fin_set,
    full_set,
    gen_random_setexpr,
    is_empty_set,
    section_family,
)

DOMAINS = [NAT, Prod(NAT), Prod(Prod(UNIT)), DSum((Prod(UNIT),), NAT)]


# ---------------------------------------------------------------------------
# basic membership


def test_frechet_membership():
    f = frechet(NAT)
    assert member(f, cofin_set([NatPt(3)], NAT))
    assert not member(f, fin_set([NatPt(3)], NAT))
    assert not member(f, empty_set(NAT))
    assert dual_member(f, fin_set([NatPt(3)], NAT))
    assert not dual_member(f, cofin_set([NatPt(3)], NAT))


def test_principal_membership_is_superset():
    core = cofin_set([NatPt(0), NatPt(1)], NAT)
    f = principal(core)
    assert member(f, core)
    assert member(f, cofin_set([NatPt(0)], NAT))
    assert not member(f, cofin_set([NatPt(0), NatPt(1), NatPt(2)], NAT))


def test_member_domain_mismatch_raises():
    with pytest.raises(DomainError):
        member(frechet(NAT), full_set(Prod(NAT)))


def test_meet_is_intersection_of_verdicts():
    # members of principal(cofin{0}) may exclude 0 and nothing else
    f = meet(principal(cofin_set([NatPt(0)], NAT)), frechet(NAT))
    assert member(f, cofin_set([NatPt(0)], NAT))
    assert member(f, full_set(NAT))
    assert not member(f, cofin_set([NatPt(0), NatPt(1)], NAT))
    assert not member(f, fin_set([NatPt(1)], NAT))


def test_a_raw_cofinite_leaf_is_checked_then_marked_valid():
    a = CofinSet((NatPt(1), NatPt(4)), NAT)
    assert not a._valid
    assert member(frechet(NAT), a)
    assert a._valid


def test_katetov_tower_shapes():
    def depth(f):
        root = rank_bounds(f)[1].root
        return [dict(a.params)["depth"] for a in root.applied if a.rule == "RKat"]

    for n in range(5):
        assert depth(katetov(n)) == [str(n)]
    assert depth(frechet(NAT)) == ["1"]
    assert depth(principal(full_set(NAT))) == []


def test_katetov2_membership():
    f = katetov(2)
    d = dom_of(f)
    # all sections full: in
    assert member(f, full_set(d))
    # cofinitely many full sections: in
    a = section_family({0: empty_set(Prod(UNIT))}, full_set(Prod(UNIT)), d)
    assert member(f, a)
    # every section empty: out
    assert not member(f, empty_set(d))


def test_product_and_fubini_agree_on_uniform_families():
    # a product is the Fubini sum with the constant family; the two live on
    # the Prod and DSum spellings of the same domain, so sets transfer by
    # relabelling the domain tag while keeping every section
    inner = katetov(1)
    p = product(frechet(NAT), inner)
    s = fubini_sum(frechet(NAT), {}, inner)
    dp, ds = dom_of(p), dom_of(s)
    assert isinstance(dp, Prod) and isinstance(ds, DSum)
    for seed in range(40):
        a = gen_random_setexpr(ds, 8, seed)
        b = section_family(dict(a.exceptions), a.tail, dp)
        assert member(s, a) == member(p, b)


def test_section_filter_reads_one_section():
    d = Prod(NAT)
    f = section_filter(2, frechet(NAT), d)
    a = section_family({2: cofin_set([NatPt(0)], NAT)}, empty_set(NAT), d)
    assert member(f, a)
    b = section_family({2: fin_set([NatPt(0)], NAT)}, full_set(NAT), d)
    assert not member(f, b)


def test_pushforward_relabels_membership():
    f = pushforward(IdentityBij(NAT), frechet(NAT))
    assert member(f, cofin_set([NatPt(5)], NAT))
    g = pushforward(TableBij(Prod(UNIT), ()), frechet(NAT))
    assert dom_of(g) == Prod(UNIT)
    assert member(g, full_set(Prod(UNIT)))


# ---------------------------------------------------------------------------
# families, limits, and the Fubini bridge


def test_filter_family_drops_tail_copies():
    fam = filter_family({0: frechet(NAT), 1: frechet(NAT)}, frechet(NAT))
    assert fam.exceptions == ()
    fam2 = filter_family({1: principal(full_set(NAT))}, frechet(NAT))
    assert fam2.keys == (1,)
    assert fam2.at(1) == principal(full_set(NAT))
    assert fam2.at(7) == frechet(NAT)


def test_limit_with_constant_family_is_the_constant():
    g = principal(cofin_set([NatPt(0)], NAT))
    lim = limit_of(frechet(NAT), filter_family({}, g))
    for seed in range(30):
        a = gen_random_setexpr(NAT, 8, seed)
        assert member(lim, a) == member(g, a)


@pytest.mark.parametrize("kind", [SectionwiseFamily, RepeatedSectionwiseFamily])
def test_sectionwise_limit_members_must_live_on_their_sections(kind):
    d = DSum((UNIT,), NAT)
    assert dom_of(limit_of(frechet(NAT), kind(filter_family({0: katetov(0)}, frechet(NAT)), d))) == d
    for exceptions, tail, domain in [
        ({0: katetov(1)}, frechet(NAT), Prod(NAT)),  # member 0 off component 0
        ({}, katetov(1), Prod(NAT)),  # tail off the tail component
        ({}, frechet(NAT), d),  # member 0, the tail, off component 0
        ({}, frechet(NAT), NAT),  # no components at all
    ]:
        with pytest.raises(FilterError):
            limit_of(frechet(NAT), kind(filter_family(exceptions, tail), domain))


def test_limit_finite_base_reads_finitely_many_members():
    # base principal on {0,1}: membership means membership in both members,
    # and the tail, which holds only the full set, is never read
    base = principal(fin_set([NatPt(0), NatPt(1)], NAT))
    fam = filter_family(
        {0: principal(cofin_set([NatPt(0)], NAT)), 1: frechet(NAT)},
        principal(full_set(NAT)),
    )
    lim = limit_of(base, fam)
    assert member(lim, cofin_set([NatPt(0)], NAT))
    assert not member(lim, cofin_set([NatPt(0), NatPt(1)], NAT))
    assert not member(lim, fin_set([NatPt(1)], NAT))


@pytest.mark.parametrize("shape", range(2))
def test_fubini_as_limit_equivalence(shape):
    if shape == 0:
        f = fubini_sum(frechet(NAT), {}, frechet(NAT))
    else:
        f = fubini_sum(
            principal(cofin_set([NatPt(0)], NAT)),
            {0: principal(cofin_set([NatPt(1)], NAT))},
            frechet(NAT),
        )
    lim = fubini_as_limit(f)
    assert isinstance(lim, Limit)
    d = dom_of(f)
    for seed in range(60):
        a = gen_random_setexpr(d, 8, seed)
        assert member(f, a) == member(lim, a)


# ---------------------------------------------------------------------------
# kernels and freeness


def test_kernel_of_frechet_empty():
    assert is_empty_set(kernel_set(frechet(NAT)))
    assert is_free(frechet(NAT))


def test_kernel_of_principal_is_core():
    core = cofin_set([NatPt(1)], NAT)
    assert kernel_set(principal(core)) == core
    assert not is_free(principal(core))
    with pytest.raises(FilterError, match="nonempty core"):
        principal(empty_set(NAT))


@pytest.mark.parametrize(
    "core",
    [FinSet((), NAT), FinSet((), UNIT), SectionFamily((), FinSet((), NAT), Prod(NAT))],
    ids=["nat", "unit", "sections"],
)
def test_a_raw_empty_core_is_refused(core):
    # built without the set constructors, so nothing has marked it valid yet
    with pytest.raises(FilterError, match="nonempty core"):
        Principal(core)


def test_a_raw_core_is_validated_when_the_filter_is_built():
    with pytest.raises(NotNormalForm):
        Principal(FinSet((NatPt(2), NatPt(1)), NAT))


def test_kernel_of_katetov_towers_empty():
    for n in range(1, 4):
        assert is_free(katetov(n))


def test_kernel_of_meet_is_union():
    f = meet(principal(fin_set([NatPt(0)], NAT)), principal(fin_set([NatPt(2)], NAT)))
    k = kernel_set(f)
    assert k == fin_set([NatPt(0), NatPt(2)], NAT)


# ---------------------------------------------------------------------------
# filter limits of sequences


def test_flim_of_eventually_constant_sequence():
    s = seq_leaf({NatPt(0): Fraction(1, 2)}, Fraction(1, 3), NAT)
    assert flim(s, frechet(NAT)) == Fraction(1, 3)


def test_flim_principal_reads_core_values():
    s = seq_leaf({NatPt(0): 1, NatPt(1): 1}, 0, NAT)
    assert flim(s, principal(fin_set([NatPt(0), NatPt(1)], NAT))) == 1
    assert flim(s, principal(fin_set([NatPt(0), NatPt(2)], NAT))) is DIVERGENT


def test_flim_sectionwise():
    d = Prod(NAT)
    inner = seq_leaf({}, Fraction(2, 7), NAT)
    s = seq_sections({0: seq_leaf({}, 0, NAT)}, inner, d)
    assert flim(s, katetov(2) if dom_of(katetov(2)) == d else product(frechet(NAT), frechet(NAT))) == Fraction(2, 7)


def test_flim_frechet_always_converges_to_tail():
    # eventually uniform sequences cannot oscillate forever: along Frechet
    # the limit is the tail value no matter how many exceptions there are
    entries = {NatPt(2 * k): Fraction(1) for k in range(60)}
    s = seq_leaf(entries, 0, NAT)
    assert flim(s, frechet(NAT)) == 0


def test_flim_divergent_under_principal_split():
    # a two-point core seeing two different values has no limit
    s = seq_leaf({NatPt(0): 1}, 0, NAT)
    assert flim(s, principal(fin_set([NatPt(0), NatPt(1)], NAT))) is DIVERGENT


# ---------------------------------------------------------------------------
# diagonalizability


def test_frechet_is_diagonalizable():
    r = is_diagonalizable(frechet(NAT))
    assert isinstance(r, DiagYes)
    assert not is_empty_set(r.witness)


def test_katetov2_is_not_diagonalizable():
    assert isinstance(is_diagonalizable(katetov(2)), DiagNo)


def test_principal_diagonalizable_iff_infinite_core():
    assert isinstance(is_diagonalizable(principal(cofin_set([], NAT))), DiagYes)
    assert isinstance(is_diagonalizable(principal(fin_set([NatPt(0)], NAT))), DiagNo)


def test_a_cofinite_sum_base_finds_its_first_tail_column():
    # column 0 is a key and columns 1-5 are outside the core: 6 is the first
    # column that the tail, frechet, diagonalizes
    core = cofin_set([NatPt(n) for n in range(1, 6)], NAT)
    f = fubini_sum(principal(core), {0: principal(fin_set([NatPt(0)], NAT))}, frechet(NAT))
    r = is_diagonalizable(f)
    assert isinstance(r, DiagYes)
    assert r.witness == section_family({6: full_set(NAT)}, empty_set(NAT), dom_of(f))


def test_a_relabelled_cofinite_filter_is_diagonalized_by_the_full_set():
    f = pushforward(TableBij(Prod(UNIT), ()), frechet(NAT))
    assert is_diagonalizable(f) == DiagYes(full_set(Prod(UNIT)))


def test_a_relabelled_tower_on_the_interleaved_pair_is_undecided():
    assert is_diagonalizable(collapse_pair(1).push0) == DiagUnknown()


def test_a_relabelled_finite_principal_filter_is_not_diagonalizable():
    f = pushforward(TableBij(Prod(UNIT), ()), principal(fin_set([NatPt(0)], NAT)))
    assert is_diagonalizable(f) == DiagNo()


def test_a_sum_along_the_empty_principal_base_is_refused():
    with pytest.raises(FilterError, match="a principal filter needs a nonempty core"):
        fubini_sum(principal(fin_set([], NAT)), {}, frechet(NAT))


def test_a_sum_whose_member_kernel_is_unsupported_is_undecided():
    # the interleaving has no closed form for set images, so the kernel raises
    f = fubini_sum(frechet(NAT), {}, collapse_pair(1).push0)
    assert is_diagonalizable(f) == DiagUnknown()


def test_a_relabelled_cofinite_filter_is_a_rank_one_borel_base():
    # every filter built here is Borel, and the sharp limit rule reads "rank
    # one" off the base's certified bounds
    b, _ = rank_bounds(pushforward(TableBij(Prod(UNIT), ()), frechet(NAT)))
    assert b.exact == ONE


def test_random_diagonalization_verdicts_are_pinned():
    # one letter (Y, N or U) per generated filter; re-pin only after checking
    # that no DiagYes or DiagNo became DiagUnknown
    doms = [UNIT, NAT, Prod(NAT), Prod(UNIT), DSum((Prod(UNIT),), NAT)]
    verdicts = "".join(
        type(is_diagonalizable(gen_random_filter(d, 2, seed))).__name__[4]
        for d in doms
        for seed in range(400)
    )
    assert Counter(verdicts) == {"Y": 1039, "N": 421, "U": 540}
    digest = hashlib.sha256(verdicts.encode()).hexdigest()
    assert digest == "76ae47faa9a161859e9da01976f54fb1f80c382c14bf03dfdd1d4f5374881384"


# ---------------------------------------------------------------------------
# generated filters stay well-formed


@pytest.mark.parametrize("d", DOMAINS)
def test_gen_random_filter_is_deterministic_and_proper(d):
    for seed in range(25):
        f = gen_random_filter(d, 2, seed)
        assert f == gen_random_filter(d, 2, seed)
        assert not member(f, empty_set(dom_of(f)))
        assert member(f, full_set(dom_of(f)))
