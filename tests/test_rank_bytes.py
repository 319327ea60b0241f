"""The printed bytes of rank certificates, pinned by digest.

Each domain's digest covers `certificate_text` for `gen_random_filter` at
depths 1-3 and seeds 0-99 (or the error a derivation raised); one more digest
covers the towers `katetov(1..8)`, the type-gap example with its witness
and its repeated-family limit form.
A change to how ranks are derived must leave every byte alone.
"""

import hashlib

import pytest

from filterlab.constructions import rank_type_gap_example
from filterlab.domains import DSum, FilterLabError, NAT, Prod, UNIT
from filterlab.filters import gen_random_filter, katetov
from filterlab.rank import certificate_text, rank_bounds


def cert_text(f) -> str:
    try:
        return certificate_text(rank_bounds(f)[1])
    except FilterLabError as e:
        return f"error {type(e).__name__}: {e}\n"


def digest(texts) -> str:
    return hashlib.sha256("".join(texts).encode()).hexdigest()


@pytest.mark.parametrize(
    "domain, want",
    [
        pytest.param(
            NAT, "956577abc51103c202a9fe8d3b6fbd11fba6c5f344380556a6e745717c66ac32", id="nat"
        ),
        pytest.param(
            Prod(NAT),
            "79268c06286d701ae4e686322ed4cd9b0e16d8d09fd92fd7fc1e7faf1a1c1ce6",
            id="prod-nat",
        ),
        pytest.param(
            Prod(Prod(UNIT)),
            "7d0f9f6b34cc2eeee21342aff0d2c0a440ab2cd168369036b3f49bdcb73879df",
            id="prod-prod-unit",
        ),
        pytest.param(
            DSum((Prod(UNIT),), NAT),
            "c9be94ffaea88a51fd1e6d288ce1edba0af503eccc3435ab911e1e7cb07f2cf3",
            id="dsum-prod-unit-nat",
        ),
        pytest.param(
            Prod(UNIT),
            "b0184acd7d2babe1fd78b1ac6cf9e9ee982df3be6a0fbbc29a271190d8100404",
            id="prod-unit",
        ),
    ],
)
def test_random_certificates_are_pinned(domain, want):
    texts = [
        cert_text(gen_random_filter(domain, depth, seed))
        for depth in (1, 2, 3)
        for seed in range(100)
    ]
    assert digest(texts) == want


def test_tower_and_type_gap_certificates_are_pinned():
    texts = [cert_text(katetov(n)) for n in range(1, 9)]
    gap = rank_type_gap_example()
    texts += [certificate_text(gap.certificate), cert_text(gap.limit_form)]
    assert digest(texts) == "6453007143e101420df651cbdd560094fa342c7153cdde684242bacdca0a8fed"
