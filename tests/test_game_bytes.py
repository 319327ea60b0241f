"""The printed bytes of game transcripts, pinned by digest.

Covers the benchmark's fifteen game inputs at seeds 1-3 and every pair of
strategies on three filters: each game's rendered lines, its validation
problems and its per-column budget report go into one sha256.  A change to
how games are played or printed must leave every byte alone.
"""

import hashlib
from random import Random

import pytest

from filterlab.dsl import parse_filter
from filterlab.domains import FilterLabError
from filterlab.game import (
    STRATEGIES_I,
    STRATEGIES_II,
    copy_column_bound,
    make_player_i,
    make_player_ii,
    play,
    transcript_lines,
    validate_transcript,
)


def benchmark_games(seed: int) -> list[tuple[str, str, str, int, int]]:
    """(filter, player I, player II, rounds, game seed) in the benchmark's order."""
    rng = Random(f"game:{seed}")
    games = []
    for rounds in (50, 100, 200):
        games.append(("frechet", "exclude-union", "universal", rounds, 0))
        games.append(("frechet", "full", "fresh", rounds, 0))
    for rounds in (10, 20, 40):
        games.append(("katetov(2)", "exclude-union", "fresh", rounds, 0))
    for rounds in (10, 40):
        for _ in range(3):
            games.append(("katetov(2)", "copy", "random", rounds, rng.randrange(1 << 16)))
    return games


def rendered(fsrc: str, p1: str, p2: str, rounds: int, seed: int) -> list[str]:
    head = f"{fsrc} {p1}/{p2} r={rounds} seed={seed}"
    try:
        t = play(parse_filter(fsrc), make_player_i(p1), make_player_ii(p2), rounds, seed)
    except FilterLabError as e:
        return [head, f"error {type(e).__name__}: {e}"]
    ok, problems = copy_column_bound(t)
    return [head, *transcript_lines(t), *validate_transcript(t), f"bound={ok}", *problems]


def digest(games) -> str:
    lines = [line for g in games for line in rendered(*g)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize(
    "seed, want",
    [
        (1, "81fb774709d3fd44cbee03b642d2d499fc58c2ed0f963d2b78f0ace10beb0638"),
        (2, "f0788d417025d4acab1b5c78a44908ab4b671e165b8b1bb53ec9048cd7b17153"),
        (3, "49a78babfdf83eb32503678107a8501f9a08b8f0d7d39b10eb0a1017d9c24904"),
    ],
    ids=["seed1", "seed2", "seed3"],
)
def test_benchmark_games_print_the_pinned_bytes(seed, want):
    games = benchmark_games(seed)
    assert len(games) == 15
    assert digest(games) == want


def test_every_strategy_pair_prints_the_pinned_bytes():
    games = [
        (fsrc, p1, p2, 30, 7)
        for fsrc in ("frechet", "katetov(2)", "prod(frechet, frechet)")
        for p1 in sorted(STRATEGIES_I)
        for p2 in sorted(STRATEGIES_II)
    ]
    assert digest(games) == "d99dc7bd18e427e835ff5a4dc40e62e7920a2a5d8a340911e2536bf9add7f9b4"
