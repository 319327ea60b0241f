"""The oracle agrees with the definitional evaluator on pushforwards and
repeated sectionwise limits, which gen_random_filter never builds.

Each case wraps gen_random_filter outputs at fixed seeds: pushforwards along
the identity and along table bijections onto linear targets, and limits of
repeated sectionwise families along the cofinite filter.
"""

from random import Random

import pytest

from filterlab.domains import DSum, NAT, Prod, UNIT, enum_point
from filterlab.filters import (
    IdentityBij,
    RepeatedSectionwiseFamily,
    TableBij,
    dom_of,
    filter_family,
    frechet,
    gen_random_filter,
    limit_of,
    member,
    pushforward,
)
from filterlab.sets import cofin_set, fin_set, gen_random_setexpr
from naive import NaiveUnsupported, naive_member

DOMAINS = [NAT, Prod(NAT), Prod(Prod(UNIT)), DSum((Prod(UNIT),), NAT)]
LINEAR = [NAT, Prod(UNIT), DSum((UNIT, UNIT), UNIT)]
CASES = 60


def _table(rng):
    """A random cycle of two to five naturals below 8, as table pairs."""
    moved = rng.sample(range(8), rng.randrange(2, 6))
    return tuple(zip(moved, moved[1:] + moved[:1]))


def _identity(k, rng):
    d = DOMAINS[k % len(DOMAINS)]
    return pushforward(IdentityBij(d), gen_random_filter(d, 3, 500 + k))


def _table_push(k, rng):
    target = LINEAR[k % len(LINEAR)]
    return pushforward(TableBij(target, _table(rng)), gen_random_filter(NAT, 3, 600 + k))


def _repeated(k, rng):
    d = DOMAINS[k % len(DOMAINS)]
    members = {i: gen_random_filter(d, 2, 700 + 8 * k + i) for i in rng.sample(range(5), 2)}
    family = RepeatedSectionwiseFamily(
        filter_family(members, gen_random_filter(d, 2, 700 + 8 * k + 7)), Prod(d)
    )
    return limit_of(frechet(NAT), family)


def _probes(d, k):
    """A random set over d; over a linear d also each point below 8 and its
    complement, the sets a table's moves decide."""
    yield gen_random_setexpr(d, 8, 800 + k)
    if d in LINEAR:
        for n in range(8):
            yield fin_set([enum_point(d, n)], d)
            yield cofin_set([enum_point(d, n)], d)


@pytest.mark.parametrize("build", [_identity, _table_push, _repeated])
def test_the_oracle_matches_the_evaluator(build):
    rng = Random(build.__name__)
    verdicts = []
    for k in range(CASES):
        f = build(k, rng)
        for a in _probes(dom_of(f), k):
            got = member(f, a)
            assert got == naive_member(f, a), (k, a)
            verdicts.append(got)
    assert any(verdicts) and not all(verdicts)


def test_a_table_onto_a_nonlinear_target_is_outside_the_evaluator():
    f = pushforward(TableBij(Prod(NAT), ((0, 1), (1, 0))), frechet(NAT))
    with pytest.raises(NaiveUnsupported):
        naive_member(f, gen_random_setexpr(Prod(NAT), 8, 0))
