"""Operation-count gates for the kernel paths.

These count calls, never wall time, so they are deterministic.
"""

import filterlab.filters as filters
import filterlab.rank as rank
from filterlab.constructions import random_tower_member
from filterlab.dsl import parse_filter
from filterlab.filters import katetov, kernel_set, member
from filterlab.rank import rank_bounds


def meet_chain(length: int):
    """A right-nested meet of frechet and principal(cofin{i}), alternating."""
    parts = ["frechet" if i % 2 == 0 else f"principal(cofin{{{i}}})" for i in range(length)]
    src = parts[-1]
    for p in reversed(parts[:-1]):
        src = f"meet({p}, {src})"
    return parse_filter(src)


def cofinite_chain(k: int):
    excs = ", ".join(f"{i}: principal(cofin{{{i}}})" for i in range(k))
    return parse_filter(f"limit(frechet, family({{{excs}}}, frechet))")


def counting(monkeypatch, name: str) -> list:
    calls = []
    inner = getattr(filters, name)

    def wrapper(*args):
        calls.append(args[0])
        return inner(*args)

    monkeypatch.setattr(filters, name, wrapper)
    return calls


def test_rank_bounds_computes_each_node_kernel_once(monkeypatch):
    f = meet_chain(128)
    computed = []
    inner = filters.kernel_of

    def kernel_of(g, memo):
        if id(g) not in memo:
            computed.append(g)
        return inner(g, memo)

    monkeypatch.setattr(filters, "kernel_of", kernel_of)
    monkeypatch.setattr(rank, "kernel_of", kernel_of)
    rank_bounds(f)
    nodes = 2 * 128 - 1
    assert len(computed) <= 2 * nodes


def test_limit_kernel_intersections_are_polynomial(monkeypatch):
    k = 64
    f = cofinite_chain(k)
    calls = counting(monkeypatch, "set_intersect")
    kernel_set(f)
    assert len(calls) <= 2 * (k + 1) * (k + 2)


def test_tower_membership_builds_no_unused_sum_domains(monkeypatch):
    # 7,357 is the count when member does not build the domain of each sum
    # it reads; building them made 12,239
    f = katetov(8)
    sets = [random_tower_member(8, s) for s in range(20)]
    calls = counting(monkeypatch, "dom_of")
    for a in sets:
        member(f, a)
    assert len(calls) <= 7357


def test_kernel_recursion_is_no_deeper_than_the_expression():
    # one frame per nesting level leaves room for 700 nested meets under
    # the default recursion limit of 1000
    src = "frechet"
    for _ in range(700):
        src = f"meet(frechet, {src})"
    bounds, _ = rank_bounds(parse_filter(src))
    assert bounds == rank_bounds(parse_filter("meet(frechet, frechet)"))[0]
