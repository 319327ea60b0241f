"""kernel_set against its definition, decided by the independent evaluator.

A point p lies in the kernel of f exactly when the set missing only p is not
a member of f.  tests/naive.py decides that membership on its clamped grid,
so every grid point is checked without the package's kernel code.
"""

import pytest

from naive import grid, naive_member, span_filter

from filterlab.domains import NAT, DSum, Prod, point_from_key
from filterlab.dsl import parse_filter
from filterlab.filters import dom_of, gen_random_filter, is_free, kernel_set
from filterlab.ordinals import ZERO
from filterlab.rank import rank_bounds
from filterlab.sets import cofin_set, finite_points, set_member

DOMAINS = {
    "nat": NAT,
    "prod": Prod(NAT),
    "dsum": DSum((NAT, Prod(NAT)), NAT),
    "prod2": Prod(Prod(NAT)),
}
SEEDS = range(120)
# each grid point costs one naive evaluation over a grid of the same size;
# filters with larger grids are skipped to keep this file to a few seconds
MAX_GRID = 100


def _coords(np) -> tuple[int, ...]:
    """Flatten a naive grid point (int, () or (index, rest)) to coordinates."""
    if np == ():
        return ()
    if isinstance(np, int):
        return (np,)
    i, rest = np
    return (i,) + _coords(rest)


def _kernel_mismatches(f, points) -> list:
    d = dom_of(f)
    ker = kernel_set(f)
    bad = []
    for np in points:
        p = point_from_key(d, _coords(np))
        if set_member(p, ker) == naive_member(f, cofin_set([p], d)):
            bad.append(np)
    return bad


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_kernel_is_the_set_of_essential_points(name):
    d = DOMAINS[name]
    checked = 0
    for seed in SEEDS:
        f = gen_random_filter(d, 2, seed)
        points = grid(d, span_filter(f) + 1)
        if len(points) > MAX_GRID:
            continue
        assert _kernel_mismatches(f, points) == [], (seed, f)
        checked += 1
    assert checked >= 25


def test_sectionwise_limit_keeps_base_kernel_past_family_keys():
    f = parse_filter("limit(principal(fin{7}), secfamily({}, principal(fin{0})))")
    d = dom_of(f)
    assert _kernel_mismatches(f, grid(d, span_filter(f) + 1)) == []
    assert finite_points(kernel_set(f)) == (point_from_key(d, (7, 0)),)
    assert kernel_set(f) == kernel_set(
        parse_filter("fubini(principal(fin{7}), family({}, principal(fin{0})))")
    )
    assert not is_free(f)
    bounds, _ = rank_bounds(f)
    assert bounds.exact == ZERO
