"""The limit kernel by partition refinement against the full enumeration.

The oracle below enumerates all 2^(k+1) patterns of membership in the k
exception kernels and the tail kernel, as the library once did; it is kept
here only as a reference.
"""

import pytest

from filterlab.domains import NAT, DSum, NatPt, Prod
from filterlab.dsl import parse_filter
from filterlab.filters import (
    FilterFamily,
    FubiniSum,
    Intersection,
    Limit,
    Product,
    Pushforward,
    SectionFilter,
    dom_of,
    gen_random_filter,
    kernel_set,
    member,
)
from filterlab.sets import (
    cofin_set,
    empty_set,
    fin_set,
    full_set,
    is_empty_set,
    set_complement,
    set_intersect,
    set_union,
)

DOMAINS = {
    "nat": NAT,
    "prod": Prod(NAT),
    "dsum": DSum((NAT, Prod(NAT)), NAT),
    "prod2": Prod(Prod(NAT)),
}
SEEDS = range(3000)
CHAIN_BASES = ["frechet", "principal(fin{0,3})", "principal(cofin{1})"]


def enumerated_limit_kernel(f: Limit):
    fam = f.family
    keys = fam.keys
    kernels = [kernel_set(fam.at(i)) for i in keys]
    k_tail = kernel_set(fam.tail)
    target = dom_of(fam.tail)
    out = empty_set(target)
    for mask in range(1 << (len(keys) + 1)):
        bits = [(mask >> b) & 1 == 1 for b in range(len(keys))]
        tail_bit = (mask >> len(keys)) & 1 == 1
        region = full_set(target)
        for ker, bit in zip(kernels, bits):
            region = set_intersect(region, ker if bit else set_complement(ker))
        region = set_intersect(region, k_tail if tail_bit else set_complement(k_tail))
        if is_empty_set(region):
            continue
        if tail_bit:
            good = fin_set([NatPt(i) for i, b in zip(keys, bits) if not b], NAT)
        else:
            good = cofin_set([NatPt(i) for i, b in zip(keys, bits) if b], NAT)
        if not member(f.base, good):
            out = set_union(out, region)
    return out


def plain_limits(f, out: list) -> list:
    """Every Limit over a plain FilterFamily inside f, f included."""
    if isinstance(f, Limit):
        fam = f.family
        if isinstance(fam, FilterFamily):
            out.append(f)
        else:
            fam = fam.inner
        kids = [f.base] + [g for _, g in fam.exceptions] + [fam.tail]
    elif isinstance(f, FubiniSum):
        kids = [f.base] + [g for _, g in f.family.exceptions] + [f.family.tail]
    elif isinstance(f, Product):
        kids = [f.outer, f.inner]
    elif isinstance(f, Intersection):
        kids = [f.left, f.right]
    elif isinstance(f, Pushforward):
        kids = [f.inner]
    elif isinstance(f, SectionFilter):
        kids = [f.comp]
    else:
        kids = []
    for g in kids:
        plain_limits(g, out)
    return out


def chain(base: str, k: int) -> Limit:
    excs = ", ".join(f"{i}: principal(cofin{{{i}}})" for i in range(k))
    return parse_filter(f"limit({base}, family({{{excs}}}, frechet))")


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_refined_kernel_equals_enumeration_on_random_limits(name):
    limits = []
    for seed in SEEDS:
        plain_limits(gen_random_filter(DOMAINS[name], 2, seed), limits)
    distinct = list(dict.fromkeys(limits))
    assert len(distinct) >= 500
    bad = [f for f in distinct if kernel_set(f) != enumerated_limit_kernel(f)]
    assert bad == []


@pytest.mark.parametrize("base", CHAIN_BASES)
def test_refined_kernel_equals_enumeration_on_cofinite_chains(base):
    for k in range(11):
        f = chain(base, k)
        assert kernel_set(f) == enumerated_limit_kernel(f), k
