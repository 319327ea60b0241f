"""The rank-bounds engine: rules, certificates, replay, witnesses."""

import pytest

from filterlab.domains import DSum, NAT, NatPt
from filterlab.dsl import parse_filter
from filterlab.filters import (
    FilterError,
    IdentityBij,
    dom_of,
    IntoSectionMap,
    Pushforward,
    filter_family,
    frechet,
    fubini_sum,
    katetov,
    limit_of,
    meet,
    principal,
)
from filterlab.ordinals import ord_of_int, ord_str
from filterlab.rank import (
    CertificateError,
    CopyWitness,
    InconsistentBounds,
    QHWitness,
    WitnessRejected,
    bounds_of,
    bounds_text,
    certificate_from_text,
    certificate_text,
    ct_bound,
    eval_rule,
    parse_bounds,
    rank_bounds,
    replay_certificate,
)
from filterlab.sets import cofin_set, fin_set, full_set, section_family


# ---------------------------------------------------------------------------
# bounds values


def test_bounds_construction_and_text():
    b = bounds_of(1, 3)
    assert bounds_text(b) == "[1,3]"
    assert parse_bounds("[1,3]") == b
    assert parse_bounds("[2,*]") == bounds_of(2, None)
    assert bounds_of(2, None).exact is None
    assert bounds_of(2, 2).exact == ord_of_int(2)


def test_bounds_reject_empty_interval():
    with pytest.raises(InconsistentBounds):
        bounds_of(3, 2)


def test_parse_bounds_rejects_garbage():
    for bad in ["", "[1,", "1,2", "[a,b]"]:
        with pytest.raises(CertificateError):
            parse_bounds(bad)
    with pytest.raises(CertificateError, match=r"malformed bounds '\[2,1\]': empty interval"):
        parse_bounds("[2,1]")


@pytest.mark.parametrize("n", range(5))
def test_tower_rank_is_depth(n):
    b, cert = rank_bounds(katetov(n))
    assert b == bounds_of(n, n)
    assert replay_certificate(cert) == b


def test_pushforward_preserves_rank():
    f = Pushforward(IdentityBij(dom_of(katetov(2))), katetov(2))
    b, _ = rank_bounds(f)
    assert b == bounds_of(2, 2)


def test_principal_rank_zero():
    b, _ = rank_bounds(principal(cofin_set([NatPt(0)], NAT)))
    assert b == bounds_of(0, 0)


def test_meet_bounds_stay_below_members():
    b, _ = rank_bounds(meet(frechet(NAT), frechet(NAT)))
    assert b.hi is not None and ord_str(b.hi) == "1"


# ---------------------------------------------------------------------------
# sum and limit rules


def test_fubini_over_frechet_is_exact_successor():
    b2, cert = rank_bounds(fubini_sum(frechet(NAT), {}, katetov(2)))
    assert b2 == bounds_of(3, 3)
    assert replay_certificate(cert) == b2
    b1, _ = rank_bounds(fubini_sum(frechet(NAT), {}, katetov(1)))
    assert b1 == bounds_of(2, 2)


def test_limit_sharp_rule_beats_generic_rule():
    lim = limit_of(
        frechet(NAT),
        filter_family({0: principal(full_set(dom_of(katetov(2))))}, katetov(2)),
    )
    b, cert = rank_bounds(lim)
    outs = {app.rule: app.output for app in cert.root.applied}
    assert outs["RLimHi"].hi == ord_of_int(4)
    assert outs["RLimHi1"].hi == ord_of_int(3)
    assert b.hi == ord_of_int(3)
    assert replay_certificate(cert) == b


def test_limit_of_constant_family_collapses_to_member_rank():
    # a constant family has the member itself as its limit
    lim = limit_of(frechet(NAT), filter_family({}, frechet(NAT)))
    b, cert = rank_bounds(lim)
    assert b == bounds_of(1, 1)
    assert any(app.rule == "RLimConst" for app in cert.root.applied)


def test_eval_rule_is_the_single_arithmetic_source():
    # RFubHi: fam_hi + 1 + base_hi
    out = eval_rule("RFubHi", {}, [bounds_of(1, 1), bounds_of(1, 1)])
    assert out.hi == ord_of_int(3)
    # RFubFr: fam_hi + 1, base ignored
    out = eval_rule("RFubFr", {}, [bounds_of(1, 1), bounds_of(1, 1)])
    assert out.hi == ord_of_int(2)
    # RLimHi1 caps at fam_hi + 1
    out = eval_rule("RLimHi1", {}, [bounds_of(0, 2), bounds_of(1, 1)])
    assert out.hi == ord_of_int(3)
    with pytest.raises(CertificateError):
        eval_rule("NoSuchRule", {}, [])


# ---------------------------------------------------------------------------
# certificates


def test_certificate_text_round_trip():
    for f in [katetov(3), fubini_sum(frechet(NAT), {}, katetov(1))]:
        b, cert = rank_bounds(f)
        txt = certificate_text(cert)
        back = certificate_from_text(txt)
        assert replay_certificate(back) == b
        assert certificate_text(back) == txt


def test_certificate_replay_detects_tampering():
    _, cert = rank_bounds(katetov(2))
    txt = certificate_text(cert)
    tampered = txt.replace("final=[2,2]", "final=[1,1]", 1)
    assert tampered != txt
    with pytest.raises(CertificateError):
        replay_certificate(certificate_from_text(tampered))


def test_certificate_rejects_unknown_rule_text():
    _, cert = rank_bounds(katetov(1))
    txt = certificate_text(cert).replace("RKat", "RBogus")
    with pytest.raises(CertificateError):
        replay_certificate(certificate_from_text(txt))


# ---------------------------------------------------------------------------
# witness routes


def _type_gap_filter():
    return fubini_sum(principal(full_set(NAT)), {}, frechet(NAT))


def _qh_witness():
    dom = DSum((), NAT)
    samples = (
        full_set(dom),
        section_family({0: cofin_set([NatPt(5)], NAT)}, cofin_set((), NAT), dom),
    )
    return QHWitness(frechet(NAT), IntoSectionMap(dom, 0), samples)


def test_qh_witness_lowers_upper_bound():
    f = _type_gap_filter()
    plain, _ = rank_bounds(f)
    with_w, cert = rank_bounds(f, witnesses=(_qh_witness(),))
    assert with_w == bounds_of(1, 1)
    assert with_w.hi is not None
    assert plain.hi is None or plain.hi != with_w.hi or plain == with_w
    assert replay_certificate(cert) == with_w


def test_qh_witness_rejected_on_bad_samples():
    dom = DSum((), NAT)
    # sample claims membership in the target, but one section is finite
    bad = section_family({0: fin_set([NatPt(1)], NAT)}, cofin_set((), NAT), dom)
    w = QHWitness(frechet(NAT), IntoSectionMap(dom, 0), (bad,))
    with pytest.raises(WitnessRejected):
        rank_bounds(_type_gap_filter(), witnesses=(w,))


def test_copy_witness_raises_lower_bound():
    tower = katetov(1)
    w = CopyWitness(tower, IdentityBij(dom_of(tower)), (full_set(dom_of(tower)),))
    b, cert = rank_bounds(tower, witnesses=(w,))
    assert b == bounds_of(1, 1)
    assert any(app.rule == "RCopy" for app in cert.root.applied)
    assert replay_certificate(cert) == b


def test_copy_witness_needs_a_valid_sample():
    tower = katetov(1)
    w = CopyWitness(tower, IdentityBij(dom_of(tower)), (fin_set((), dom_of(tower)),))
    with pytest.raises(WitnessRejected):
        rank_bounds(tower, witnesses=(w,))


# ---------------------------------------------------------------------------
# countable type


def test_ct_bound_of_towers_matches_depth():
    assert ct_bound(katetov(0)).level == 0
    assert ct_bound(katetov(1)).level == 1
    assert ct_bound(katetov(2)).level == 2


def test_ct_bound_of_type_gap_filter_is_two():
    ct = ct_bound(_type_gap_filter())
    assert ct.level is not None and ct.level <= 2


# the sharp limit rule reads its hypothesis off the base's certificate: the
# relabelled cofinite filter is certified [1,1], the meet [0,0]
@pytest.mark.parametrize(
    "base, sharp",
    [("push(table(nat, {0: 1, 1: 0}), frechet)", True), ("meet(principal(cofin{0}), frechet)", False)],
)
def test_the_sharp_limit_rule_needs_a_base_certified_at_rank_one(base, sharp):
    family = "family({0: principal(cofin{}@prod(prod(unit)))}, katetov(2))"
    b, cert = rank_bounds(parse_filter(f"limit({base}, {family})"))
    outs = {a.rule: bounds_text(a.output) for a in cert.root.applied}
    assert outs["RLimHi"] == ("[0,4]" if sharp else "[0,3]")
    assert outs.get("RLimHi1") == ("[0,3]" if sharp else None)
    assert b == bounds_of(1, 3)
    assert replay_certificate(certificate_from_text(certificate_text(cert))) == b


@pytest.mark.parametrize(
    "text, level",
    [
        ("limit(meet(frechet, principal(cofin{0})), family({}, frechet))", None),
        ("push(enum(prod(unit)), meet(frechet, frechet))", 2),
        ("limit(principal(fin{0,1}), family({0: principal(fin{0})}, frechet))", 2),
    ],
)
def test_edge_case_levels_are_pinned(text, level):
    assert ct_bound(parse_filter(text)).level == level


# principal(fin{}) would be improper: it holds the empty set
@pytest.mark.parametrize(
    "text",
    [
        "prod(principal(fin{}), frechet)",
        "limit(principal(fin{}), family({}, frechet))",
        "limit(principal(fin{}), family({0: principal(fin{0})}, frechet))",
        "fubini(principal(fin{}), family({}, katetov(2)))",
    ],
    ids=["product", "limit", "limit with an exception", "sum"],
)
def test_an_empty_principal_core_is_refused(text):
    with pytest.raises(FilterError, match="a principal filter needs a nonempty core"):
        parse_filter(text)


def _tower_depth(f):
    """The depth the root's RKat rule states, or None without one."""
    _, cert = rank_bounds(f)
    depths = [dict(a.params)["depth"] for a in cert.root.applied if a.rule == "RKat"]
    assert len(depths) <= 1
    return int(depths[0]) if depths else None


@pytest.mark.parametrize("n", range(9))
def test_a_tower_has_its_depth(n):
    assert _tower_depth(katetov(n)) == n


@pytest.mark.parametrize(
    "text, depth",
    [
        ("frechet", 1),
        ("push(enum(prod(unit)), frechet)", 1),
        ("fubini(frechet, family({}, katetov(2)))", 3),
        ("principal(cofin{})", None),
        ("limit(frechet, family({}, katetov(1)))", None),
    ],
)
def test_tower_copies_have_their_depths(text, depth):
    assert _tower_depth(parse_filter(text)) == depth
