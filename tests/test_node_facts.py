"""Facts kept on expression nodes: set validity, filter domain and kernel.

Nodes may be built raw, so a raw invalid set must still be rejected wherever
a constructor takes it, and the kept facts must not change eq, hash or repr.
"""

import pytest

from filterlab.domains import NAT, NatPt, Prod
from filterlab.filters import (
    Frechet,
    Intersection,
    Principal,
    dom_of,
    is_free,
    kernel_set,
    katetov,
    meet,
    principal,
)
from filterlab.sets import (
    FinSet,
    NotNormalForm,
    SectionFamily,
    empty_set,
    fin_set,
    section_family,
)

UNSORTED = (NatPt(4), NatPt(1))


def test_raw_invalid_section_under_section_family_is_rejected_every_time():
    bad = FinSet(UNSORTED, NAT)
    for _ in range(2):  # a failed check leaves no mark behind
        with pytest.raises(NotNormalForm):
            section_family({0: bad}, empty_set(NAT), Prod(NAT))


def test_raw_invalid_family_under_principal_is_rejected_every_time():
    bad = SectionFamily(((0, FinSet(UNSORTED, NAT)),), empty_set(NAT), Prod(NAT))
    for _ in range(2):
        with pytest.raises(NotNormalForm):
            principal(bad)


def test_raw_family_with_a_tail_duplicate_is_rejected_every_time():
    tail = empty_set(NAT)
    bad = SectionFamily(((0, FinSet((), NAT)),), tail, Prod(NAT))
    for _ in range(2):
        with pytest.raises(NotNormalForm):
            principal(bad)


def test_valid_section_over_the_wrong_domain_is_rejected():
    # a constructor-built section is valid over its own domain only
    with pytest.raises(NotNormalForm):
        section_family({0: empty_set(Prod(NAT))}, empty_set(NAT), Prod(NAT))


def test_kept_facts_leave_eq_hash_and_repr_alone():
    built = fin_set([NatPt(4), NatPt(1)], NAT)
    raw = FinSet((NatPt(1), NatPt(4)), NAT)
    assert built == raw and hash(built) == hash(raw) and repr(built) == repr(raw)
    assert repr(raw) == "FinSet(elements=(NatPt(n=1), NatPt(n=4)), domain=Nat())"
    f = meet(Frechet(NAT), Principal(built))
    g = Intersection(Frechet(NAT), Principal(raw))
    kernel_set(f)
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)


def test_domain_and_kernel_are_kept_on_the_node():
    f = katetov(3)
    assert dom_of(f) is f._dom
    assert is_free(f)
    assert kernel_set(f) is kernel_set(f)
