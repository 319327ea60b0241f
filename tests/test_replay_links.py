"""Replay links every rule's inputs to the children they come from.

A rule's inputs must be the final bounds of the node's children, read by the
role each child's label starts with, and a sum or limit rule's parameters
must restate those bounds.  An edit that keeps every rule's arithmetic
consistent but cuts that link is a CertificateError.
"""

import pytest

from filterlab.constructions import rank_type_gap_example
from filterlab.domains import NAT, UNIT, DSum, Prod, replace
from filterlab.dsl import parse_filter
from filterlab.filters import (
    IdentityBij,
    dom_of,
    frechet,
    gen_random_filter,
    katetov,
    meet,
    section_filter,
)
from filterlab.rank import (
    _LINKS,
    CITES,
    TOP,
    CertificateError,
    CopyWitness,
    RankCertificate,
    bounds_of,
    certificate_from_text,
    certificate_text,
    eval_rule,
    intersect_bounds,
    rank_bounds,
    replay_certificate,
)
from filterlab.sets import full_set

DOMAINS = [NAT, Prod(NAT), Prod(Prod(NAT)), Prod(Prod(UNIT)), DSum((Prod(UNIT),), NAT)]


def _text(source: str) -> str:
    return certificate_text(rank_bounds(parse_filter(source))[1])


def test_a_meet_rule_reads_its_operands_bounds():
    txt = _text("meet(katetov(3), katetov(3))")
    edited = txt.replace('"Intersection" final=[0,3]', '"Intersection" final=[0,1]', 1)
    edited = edited.replace("in=[3,3] in=[3,3] out=[0,3]", "in=[1,1] in=[3,3] out=[0,1]", 1)
    assert edited.count("[0,1]") == txt.count("[0,1]") + 2
    with pytest.raises(CertificateError, match="RMono at 'Intersection'"):
        replay_certificate(certificate_from_text(edited))


def test_a_sum_rule_needs_a_known_index_set():
    txt = _text("fubini(frechet, family({}, katetov(2)))")
    edited = txt.replace("RULE RFubLo J=full xi=2 alpha=1", "RULE RFubLo J=bogus xi=7 alpha=9", 1)
    assert edited != txt
    with pytest.raises(CertificateError, match="unknown index set J='bogus'"):
        replay_certificate(certificate_from_text(edited))


def test_a_sum_rule_parameter_restates_its_input():
    txt = _text("fubini(frechet, family({}, katetov(2)))")
    edited = txt.replace("RULE RFubLo J=full xi=2 alpha=1", "RULE RFubLo J=full xi=7 alpha=1", 1)
    assert edited != txt
    with pytest.raises(CertificateError, match="xi=7 restates no input bound"):
        replay_certificate(certificate_from_text(edited))


def _rewired(cert: RankCertificate, rule: str, inputs) -> RankCertificate:
    """The root's `rule` fed `inputs`, with its output and the root's final
    recomputed, so only the link to the children is wrong."""
    root = cert.root
    apps = [
        replace(a, inputs=inputs, output=eval_rule(a.rule, dict(a.params), inputs))
        if a.rule == rule
        else a
        for a in root.applied
    ]
    final = TOP
    for a in apps:
        final = intersect_bounds(final, a.output)
    return RankCertificate(replace(root, applied=tuple(apps), final=final))


def _cert(f, witnesses=()) -> RankCertificate:
    return rank_bounds(f, witnesses)[1]


def _copy_witnessed() -> RankCertificate:
    tower = katetov(1)
    sample = full_set(dom_of(tower))
    return _cert(tower, (CopyWitness(tower, IdentityBij(dom_of(tower)), (sample,)),))


# rule -> (a certificate whose root applies it, inputs no child of the root has)
REWIRED = {
    "RIso": (lambda: _cert(parse_filter("push(enum(prod(unit)), frechet)")), (TOP,)),
    "RLimConst": (lambda: _cert(parse_filter("limit(frechet, family({}, katetov(2)))")), (TOP,)),
    "RMono": (lambda: _cert(meet(katetov(2), katetov(2))), (bounds_of(0, 9), bounds_of(0, 9))),
    "RSection": (lambda: _cert(section_filter(2, frechet(NAT), Prod(NAT))), (TOP,)),
    "RQH": (lambda: rank_type_gap_example().certificate, (bounds_of(0, 9),)),
    "RCopy": (_copy_witnessed, (TOP,)),
}


@pytest.mark.parametrize("rule", list(REWIRED))
def test_a_rule_fed_bounds_no_child_has_is_rejected(rule):
    make, inputs = REWIRED[rule]
    original = make()
    assert rule in [a.rule for a in original.root.applied]
    assert replay_certificate(original) == original.root.final
    with pytest.raises(CertificateError, match=f"rule {rule} at .*: inputs are not its children"):
        replay_certificate(_rewired(original, rule, inputs))


def test_each_witness_rule_reads_its_own_source():
    tower = katetov(1)
    sample = (full_set(dom_of(tower)),)
    sources = (tower, meet(tower, tower))
    ws = tuple(CopyWitness(src, IdentityBij(dom_of(tower)), sample) for src in sources)
    cert = _cert(tower, ws)
    root = cert.root
    assert replay_certificate(cert) == bounds_of(1, 1)
    *rest, first, second = root.children
    assert [first.final, second.final] == [bounds_of(1, 1), bounds_of(0, 1)]
    swapped = RankCertificate(replace(root, children=(*rest, second, first)))
    with pytest.raises(CertificateError, match="rule RCopy at .*: inputs are not its children"):
        replay_certificate(swapped)


def test_the_cited_rules_are_the_linked_rules():
    assert sorted(CITES) == sorted(_LINKS)


@pytest.mark.parametrize("rule", list(_LINKS))
def test_eval_rule_knows_every_linked_rule(rule):
    reads, restated = _LINKS[rule]
    try:
        eval_rule(rule, {key: "1" for key, _, _ in restated}, [bounds_of(1, 1)] * len(reads))
    except CertificateError as e:  # RKat and RCert also need a fixed parameter
        assert "unknown rule" not in str(e)


def test_every_random_certificate_replays_from_its_text():
    for d in DOMAINS:
        for depth in (2, 3):
            for seed in range(300):
                b, cert = rank_bounds(gen_random_filter(d, depth, seed))
                assert replay_certificate(certificate_from_text(certificate_text(cert))) == b
