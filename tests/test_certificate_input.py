"""Certificate text is read only in the forms certificate_text writes.

Ordinals and rule parameters take ASCII decimal digits, and a missing or
malformed parameter or bound is a CertificateError, not a raw ValueError,
KeyError, OrdinalError or InconsistentBounds.  A rule line names each key
but `in` once, and cites its rule's own claim.  A certified filter's name
and provenance, which its node label holds, break no line.
"""

import pytest

from filterlab.constructions import collapse_limit, collapse_pair
from filterlab.domains import FilterLabError
from filterlab.dsl import parse_filter
from filterlab.ordinals import OrdinalError, parse_ordinal
from filterlab.rank import (
    CITES,
    CertificateError,
    CertifiedFilter,
    bounds_of,
    certificate_from_text,
    certificate_text,
    eval_rule,
    rank_bounds,
    replay_certificate,
)

KAT = 'NODE "x" final=[{out}]\n  RULE RKat {params} cite="%s" out=[{out}]\n' % CITES["RKat"]


@pytest.mark.parametrize("text", ["w^٣", "٣", "w*٣", "w^2+١"])
def test_an_ordinal_takes_only_ascii_digits(text):
    with pytest.raises(OrdinalError):
        parse_ordinal(text)


@pytest.mark.parametrize(
    "rule, params",
    [
        ("RKat", {"depth": "x"}),
        ("RKat", {"depth": "٣"}),
        ("RKat", {"depth": "-1"}),
        ("RKat", {}),
        ("RCert", {}),
    ],
)
def test_a_bad_rule_parameter_is_a_certificate_error(rule, params):
    with pytest.raises(CertificateError, match=rule):
        eval_rule(rule, params, ())


@pytest.mark.parametrize(
    "rule, inputs, message",
    [
        # a limit is free only when its family members are
        ("RLimLo", [bounds_of(0, 1)], "family members not all free"),
        # an exact sum needs exact summands, not an interval
        ("RFubExact", [bounds_of(1, 2), bounds_of(1, 1)], "summand bounds not exact"),
    ],
    ids=["RLimLo", "RFubExact"],
)
def test_a_rule_whose_inputs_break_its_hypothesis_is_a_certificate_error(rule, inputs, message):
    with pytest.raises(CertificateError, match=f"^{rule}: {message}$"):
        eval_rule(rule, {"J": "full"}, inputs)


@pytest.mark.parametrize("params", ["depth=x", "depth=٣", ""])
def test_replaying_a_certificate_with_a_bad_depth_is_a_certificate_error(params):
    cert = certificate_from_text(KAT.format(out="3,3", params=params))
    with pytest.raises(CertificateError):
        replay_certificate(cert)


def test_a_well_formed_depth_replays():
    cert = certificate_from_text(KAT.format(out="3,3", params="depth=3"))
    assert str(replay_certificate(cert).exact) == "3"


def test_a_bad_ordinal_in_node_bounds_is_a_certificate_error():
    with pytest.raises(CertificateError, match=r"malformed bounds '\[x,1\]'"):
        certificate_from_text('NODE "x" final=[x,1]')


def test_replaying_a_bad_ordinal_in_certified_bounds_is_a_certificate_error():
    rule = f'RULE RCert bounds=[y,1] cite="{CITES["RCert"]}" out=[1,1]'
    cert = certificate_from_text(f'NODE "x" final=[1,1]\n  {rule}\n')
    with pytest.raises(CertificateError, match=r"malformed bounds '\[y,1\]'"):
        replay_certificate(cert)


@pytest.mark.parametrize(
    "old, new",
    [
        pytest.param("RULE RKat depth=3", "RULE RKat depth=9 depth=3", id="parameter"),
        pytest.param("J=full xi=2 alpha=1", "J=full xi=9 alpha=9 xi=2 alpha=1", id="restated"),
        pytest.param(" out=[3,3]", " out=[9,9] out=[3,3]", id="out"),
        pytest.param("RULE RKat depth=3", 'RULE RKat cite="c" depth=3', id="cite"),
    ],
)
def test_a_rule_line_that_repeats_a_key_is_a_certificate_error(old, new):
    text = certificate_text(rank_bounds(parse_filter("fubini(frechet, family({}, katetov(2)))"))[1])
    assert replay_certificate(certificate_from_text(text)) == bounds_of(3, 3)
    edited = text.replace(old, new, 1)
    assert edited != text
    with pytest.raises(CertificateError, match="repeats"):
        certificate_from_text(edited)


@pytest.mark.parametrize(
    "old, new, message",
    [
        (f'cite="{CITES["RKat"]}"', 'cite="any text at all"', "cites 'any text at all'"),
        (f' cite="{CITES["RKat"]}"', "", "cites ''"),
        ("RULE RKat", "RULE RTower", "unknown rule 'RTower'"),
    ],
    ids=["other text", "no cite", "unknown rule"],
)
def test_a_rule_line_cites_its_rules_own_claim(old, new, message):
    text = certificate_text(rank_bounds(parse_filter("fubini(frechet, family({}, katetov(2)))"))[1])
    edited = text.replace(old, new, 1)
    assert edited != text
    with pytest.raises(CertificateError, match=message):
        certificate_from_text(edited)


FUB_KAT2 = "fubini(frechet, family({}, katetov(2)))"
RKAT_CITE = f'cite="{CITES["RKat"]}"'


@pytest.mark.parametrize(
    "old, new, message",
    [
        (RKAT_CITE, RKAT_CITE[:-1], "malformed rule token 'tower'"),
        ("RULE RKat depth=3", f"RULE RKat {RKAT_CITE} depth=3", "rule RKat repeats cite="),
        (RKAT_CITE, 'cite=""', "cites '', not its own claim"),
    ],
    ids=["unterminated", "two cites", "empty"],
)
def test_a_misplaced_cite_fails_with_its_own_message(old, new, message):
    text = certificate_text(rank_bounds(parse_filter(FUB_KAT2))[1])
    edited = text.replace(old, new, 1)
    assert edited != text
    with pytest.raises(CertificateError, match=message):
        certificate_from_text(edited)


def test_a_cite_before_the_parameters_replays_and_renders_in_canonical_order():
    text = certificate_text(rank_bounds(parse_filter(FUB_KAT2))[1])
    edited = text.replace(f"RULE RKat depth=3 {RKAT_CITE}", f"RULE RKat {RKAT_CITE} depth=3", 1)
    assert edited != text
    cert = certificate_from_text(edited)
    assert replay_certificate(cert) == bounds_of(3, 3)
    assert certificate_text(cert) == text


@pytest.mark.parametrize("where", ["final", "in", "out", "bounds"])
def test_a_reversed_interval_is_a_certificate_error_naming_it(where):
    b = dict.fromkeys(["final", "in", "out", "bounds"], "[1,1]") | {where: "[2,1]"}
    ins = f" in={b['in']}" if where == "in" else ""
    rule = f'RULE RCert bounds={b["bounds"]} cite="{CITES["RCert"]}"{ins} out={b["out"]}'
    with pytest.raises(CertificateError, match=r"malformed bounds '\[2,1\]'"):
        replay_certificate(certificate_from_text(f'NODE "x" final={b["final"]}\n  {rule}\n'))


def test_empty_certificate_text_is_a_certificate_error():
    with pytest.raises(CertificateError, match="expected NODE at line 1"):
        certificate_from_text(" \n")


def test_errors_name_the_line_of_the_text_blank_lines_counted():
    rcert = f'NODE "x" final=[1,1]\n  RULE RCert bounds=[1,1] cite="{CITES["RCert"]}" out=[1,1]\n'
    assert replay_certificate(certificate_from_text(rcert)) == bounds_of(1, 1)
    with pytest.raises(CertificateError, match=r"trailing certificate content at line 5$"):
        certificate_from_text(rcert + "\n\ngarbage")
    with pytest.raises(CertificateError, match=r"expected NODE at line 3$"):
        certificate_from_text("\n\ngarbage")


def certified(name: str = "G", provenance: str = "given") -> CertifiedFilter:
    return CertifiedFilter(name, bounds_of(1, 1), provenance)


@pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
@pytest.mark.parametrize("field", ["name", "provenance"])
def test_a_certified_filter_refuses_a_line_break(field, brk):
    with pytest.raises(FilterLabError, match="breaks a line"):
        certified(**{field: f"a{brk}b"})


def test_certified_filters_round_trip_their_certificates():
    cp1, cp2, cl = collapse_pair(1), collapse_pair(2), collapse_limit(1)
    stock = [cp1.g0, cp1.g1, cp1.meet, cp2.g0, cp2.g1, cp2.meet, cl.limit]
    assert {g.name for g in stock} == {"G0", "G1", "G0&G1", "limit(G0,G1)"}
    for g in [*stock, certified('a\tb "c"', "")]:
        bounds, cert = rank_bounds(g)
        text = certificate_text(cert)
        parsed = certificate_from_text(text)
        assert replay_certificate(parsed) == bounds == g.bounds
        assert certificate_text(parsed) == text
