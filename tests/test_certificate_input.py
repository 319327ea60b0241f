"""Certificate text is read only in the forms certificate_text writes.

Ordinals and rule parameters take ASCII decimal digits, and a missing or
malformed parameter or bound is a CertificateError, not a raw ValueError,
KeyError or OrdinalError.  A rule line names each key but `in` once, and
cites its rule's own claim.
"""

import pytest

from filterlab.dsl import parse_filter
from filterlab.ordinals import OrdinalError, parse_ordinal
from filterlab.rank import (
    CITES,
    CertificateError,
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
