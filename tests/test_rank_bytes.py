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
        (NAT, "7ea216ee70bd6b4ab04c53d2245f1a8798c3fd0ea97de89a3449bfb67ce987d5"),
        (Prod(NAT), "45aa810dd01544d228a9a05faeeb31cbaae1351b936fbedcebb9bc5d81fc92a0"),
        (Prod(Prod(UNIT)), "ec9c4402042df89aab87e34f91d3c5091f57432d32dc87e1a2604a10c28a2262"),
        (DSum((Prod(UNIT),), NAT), "4f9b31eacc175cec835235aa5bb37cdd97d40f71fd08d4a16fbb4cf2cf17cea4"),
        (Prod(UNIT), "0fafbd9275eec7158c4a9d10681ff52974b4c634693544871a40b5e0352a1010"),
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
