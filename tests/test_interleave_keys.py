"""The interleaved pair streams coordinate keys and builds points on demand.

The digests pin the stage lines, the allocated points and the CLI bytes of
the shadow and preimage grids; the count gate pins that allocating stages
builds no Point at all.
"""

import contextlib
import hashlib
import io
from collections import Counter

import pytest

import filterlab.constructions as constructions
import filterlab.domains as domains
from filterlab.cli import main
from filterlab.constructions import InterleavedPair
from filterlab.domains import enum_point, index_of_tuple, point_key, tuple_of_index
from filterlab.filters import dom_of, katetov


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# sha256 of repr(pair.stage_lines(side, 5000)), per (alpha, side)
STAGE_LINES = {
    (1, 0): "7ee76fc1c1976814c285d7740239061b477ff7403f8f42058338bb5fd7cb5e8d",
    (1, 1): "e8094089592e19576e766f867578dd8d50ed34ae82c3531615448140670d072d",
    (2, 0): "7ee76fc1c1976814c285d7740239061b477ff7403f8f42058338bb5fd7cb5e8d",
    (2, 1): "e8094089592e19576e766f867578dd8d50ed34ae82c3531615448140670d072d",
    (3, 0): "9a4260435a0f3ce112ecc07612ffca8ff5689e09f68e2f41924ae959bcdbf2f5",
    (3, 1): "872e0704e6f6707852d0c4d12d87343e4f80bc7328fd86b03c2f9116125dc743",
}

# sha256 of repr([point_key(pair.pi(side, n)) for n in range(2000)])
POINT_KEYS = {
    (1, 0): "49ac2d8779a1147632cd885f32a97b2f49fd8b861bdac678f161d65c2870a827",
    (1, 1): "12e54049f2a1dd4612e9e7ef12d67ab7c5e1e15c3ce6bb2d4d62075126db6433",
    (2, 0): "f4009053ea73e952760de21589bdcbc26d97ff421b8b7a9941d16290c0ce60c1",
    (2, 1): "8a74615de3eb4c49c17a5e2dbf360bd02d773aaf138ac4260a21a299860c9a15",
    (3, 0): "f3c6e74a841de25760e2dd48e81ee9c16221c7ba570ace07cbab33c9261f83de",
    (3, 1): "ab054bd06e3c637513f035fee8b47de0524be8a106ec3b50f5024d49255ecc98",
}

# sha256 of the stdout of main(argv)
CLI_STDOUT = {
    ("construct", "zfamily", "--depth", "2", "--trunc", "10000"):
        "daca95b7ce9e6ca70c7277acf03e3dbc1fe9a574350d5a779b1dcbe07df07e2e",
    ("construct", "collapse-pair"):
        "69c4b778cc4cfa72e1f823e9d08485a1875ca476fb7a5ab29354df49a5227f4a",
}


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_stage_lines_are_pinned(alpha):
    pair = InterleavedPair(alpha)
    for side in (0, 1):
        assert digest(pair.stage_lines(side, 5000)) == STAGE_LINES[(alpha, side)]


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_allocated_points_are_pinned(alpha):
    pair = InterleavedPair(alpha)
    for side in (0, 1):
        keys = [point_key(pair.pi(side, n)) for n in range(2000)]
        assert digest(keys) == POINT_KEYS[(alpha, side)]


@pytest.mark.parametrize("argv", sorted(CLI_STDOUT))
def test_cli_grids_are_pinned(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == CLI_STDOUT[argv]


def test_allocating_stages_builds_no_points(monkeypatch):
    calls = []
    for module in (constructions, domains):
        for name in ("point_from_key", "enum_point", "point_key"):
            inner = getattr(module, name, None)
            if inner is None:
                continue  # a module that does not import the name cannot call it

            def wrapper(*args, inner=inner, name=name):
                calls.append(name)
                return inner(*args)

            monkeypatch.setattr(module, name, wrapper)
    InterleavedPair(2).ensure(10**4)
    assert not calls, Counter(calls)


@pytest.mark.parametrize("alpha", [2, 3])
def test_index_of_inverts_pi(alpha):
    pair = InterleavedPair(alpha)
    for n in range(300):
        for side in (0, 1):
            assert pair.index_of(side, pair.pi(side, n)) == n


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_enumeration_keys_are_index_tuples(alpha):
    # the m-th point of a tower domain has the m-th alpha-tuple as its key
    d = dom_of(katetov(alpha))
    for m in range(3000):
        key = tuple_of_index(m, alpha)
        assert point_key(enum_point(d, m)) == key
        assert index_of_tuple(key) == m
