"""Node classes made by domains.node behave as the frozen dataclasses they replace.

Every node reached from random filters and sets, rank certificates and game
transcripts is checked against the dataclass rules: repr lists the shown
fields, hash is the hash of their tuple, equality needs the same class,
fields can be neither assigned nor deleted, and hidden fields stay out of
__init__, eq, hash and repr.
"""

from random import Random

import pytest

from filterlab.constructions import ZFamily
from filterlab.domains import (
    NAT,
    UNIT,
    DSum,
    DomainError,
    Hidden,
    NatPt,
    Prod,
    node,
    replace,
)
from filterlab.dsl import parse_filter
from filterlab.filters import (
    FilterError,
    FilterFamily,
    Frechet,
    Principal,
    Product,
    SectionFilter,
    TableBij,
    frechet,
    gen_random_filter,
    katetov,
)
from filterlab.game import GameState, make_player_i, make_player_ii, play
from filterlab.ordinals import Ordinal, OrdinalError, ord_of_int
from filterlab.rank import InconsistentBounds, RankBounds, rank_bounds
from filterlab.sets import FinSet, SectionFamily, fin_set, gen_random_setexpr

DOMAINS = [NAT, Prod(NAT), Prod(Prod(UNIT)), DSum((Prod(UNIT),), NAT)]
GAMES = [
    ("frechet", "exclude-union", "universal", 12),
    ("frechet", "full", "fresh", 12),
    ("katetov(2)", "exclude-union", "fresh", 8),
    ("katetov(2)", "copy", "random", 8),
    ("fubini(frechet, family({}, frechet))", "exclude-union", "fresh", 8),
]


def shown(x) -> list[str]:
    return [k for k, spec in type(x).__node_fields__.items() if not isinstance(spec, Hidden)]


def hidden(x) -> dict[str, object]:
    specs = type(x).__node_fields__
    return {k: spec.default for k, spec in specs.items() if isinstance(spec, Hidden)}


def nodes_in(x, seen: dict):
    """Every node reachable from x through fields, tuples, lists and dicts, once."""
    if isinstance(x, (tuple, list)):
        for y in x:
            nodes_in(y, seen)
    elif isinstance(x, dict):
        for k, v in x.items():
            nodes_in(k, seen)
            nodes_in(v, seen)
    elif hasattr(type(x), "__node_fields__") and id(x) not in seen:
        seen[id(x)] = x
        for name in x.__node_fields__:
            nodes_in(getattr(x, name), seen)


def reached() -> list:
    seen: dict = {}
    for d in DOMAINS:
        for seed in range(200):
            nodes_in(gen_random_filter(d, 2, seed), seen)
            nodes_in(gen_random_setexpr(d, 8, seed), seen)
        for seed in range(20):
            nodes_in(rank_bounds(gen_random_filter(d, 2, seed)), seen)
    for n in (1, 2, 3):
        nodes_in(rank_bounds(katetov(n)), seen)
    for fsrc, p1, p2, rounds in GAMES:
        nodes_in(play(parse_filter(fsrc), make_player_i(p1), make_player_ii(p2), rounds, 5), seen)
    return list(seen.values())


NODES = reached()
TWINS: dict = {}


def twin_of(x):
    """An instance of another node class with the same shown fields and values."""
    cls = type(x)
    if cls not in TWINS:
        TWINS[cls] = node(type("Twin", (), {"__annotations__": dict.fromkeys(shown(x), "object")}))
    return TWINS[cls](*(getattr(x, k) for k in shown(x)))


def test_the_walk_reaches_the_node_classes_of_every_source():
    names = {type(x).__name__ for x in NODES}
    assert {
        "Unit", "Nat", "Prod", "DSum", "UnitPt", "NatPt", "PairPt", "SumPt",
        "FinSet", "CofinSet", "SectionFamily", "Principal", "Frechet", "Product",
        "FubiniSum", "Limit", "Intersection", "FilterFamily", "Ordinal", "RankBounds",
        "RuleApp", "CertNode", "RankCertificate", "Round", "Transcript",
    } <= names


def test_repr_lists_the_shown_fields_like_a_dataclass():
    for x in NODES:
        fields = ", ".join(f"{k}={getattr(x, k)!r}" for k in shown(x))
        assert repr(x) == f"{type(x).__qualname__}({fields})"


def test_hash_is_the_hash_of_the_shown_field_tuple():
    for x in NODES:
        assert hash(x) == hash(tuple(getattr(x, k) for k in shown(x)))


def test_equality_needs_the_same_class():
    for x in NODES:
        other = twin_of(x)
        assert x == x and not x != x
        assert x != other and other != x
        assert not x == other


def test_a_copy_from_the_shown_fields_is_equal():
    for x in NODES:
        y = replace(x)
        assert y is not x and y == x and hash(y) == hash(x) and repr(y) == repr(x)


def test_fields_can_be_neither_assigned_nor_deleted():
    for x in NODES:
        for k in type(x).__node_fields__:
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(x, k, None)
            with pytest.raises(AttributeError, match="cannot delete"):
                delattr(x, k)
        with pytest.raises(AttributeError):
            x.not_a_field = 1


def test_hidden_fields_keep_their_defaults_and_stay_out_of_init_eq_hash_and_repr():
    names = set()
    for x in NODES:
        for k, default in hidden(x).items():
            names.add(k)
            assert getattr(type(x), k) is default
            y = replace(x)
            if k not in vars(y):  # not set by __post_init__
                assert getattr(y, k) is default
            object.__setattr__(y, k, object())
            assert y == x and hash(y) == hash(x) and repr(y) == repr(x)
            with pytest.raises(TypeError):
                type(x)(*(getattr(x, f) for f in shown(x)), **{k: default})
    assert names == {"_dom", "_kernel", "_valid", "_source"}


def test_field_order_follows_the_bases_then_the_class():
    assert list(Principal.__node_fields__) == ["_dom", "_kernel", "core"]
    assert list(SectionFamily.__node_fields__) == ["_valid", "exceptions", "tail", "domain", "_source"]
    assert list(FinSet.__node_fields__) == ["_valid", "elements", "domain"]
    assert Frechet() == Frechet(NAT)


def test_post_init_still_runs_and_rejects_bad_input():
    assert DSum((NAT, UNIT, NAT), NAT).exceptions == (NAT, UNIT)
    assert Principal(fin_set([NatPt(1)], NAT))._dom == NAT
    assert SectionFilter(0, frechet(NAT), Prod(NAT))._dom == Prod(NAT)
    f = frechet(NAT)
    cases = [
        (OrdinalError, Ordinal, ((0, 0),)),
        (OrdinalError, Ordinal, ((0, 1), (1, 1))),
        (FilterError, FilterFamily, ((1, f), (0, f)), f),
        (FilterError, TableBij, NAT, ((0, 1),)),
        (FilterError, Frechet, UNIT),
        (FilterError, Product, katetov(1), f),
        (InconsistentBounds, RankBounds, ord_of_int(2), ord_of_int(1)),
        (DomainError, ZFamily, 0),
    ]
    for error, cls, *args in cases:
        with pytest.raises(error):
            cls(*args)


def test_ordinal_order_is_the_order_of_term_tuples():
    ordinals = {x for x in NODES if isinstance(x, Ordinal)}
    rng = Random(3)
    for _ in range(60):
        exps = sorted(rng.sample(range(5), rng.randrange(4)), reverse=True)
        ordinals.add(Ordinal(tuple((e, rng.randrange(1, 4)) for e in exps)))
    assert len(ordinals) > 40
    for a in ordinals:
        for b in ordinals:
            assert (a < b, a <= b, a > b, a >= b, a == b) == (
                a.terms < b.terms,
                a.terms <= b.terms,
                a.terms > b.terms,
                a.terms >= b.terms,
                a.terms == b.terms,
            )
    with pytest.raises(TypeError):
        ord_of_int(1) < 1


def test_game_state_is_a_mutable_record_equal_only_to_itself():
    f = frechet(NAT)
    a, b = GameState(f, [], {}), GameState(f, [], {})
    assert a == a and a != b and hash(a) == object.__hash__(a)
    a.rounds = [1]
    assert a.rounds == [1]
    assert repr(b) == f"GameState(filt={f!r}, rounds=[], claimed={{}})"
