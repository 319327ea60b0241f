"""Command line front end.

Commands read filter, set, and sequence expressions in the package's
source language and print deterministic text.  ``--format structured``
switches stdout to ``key=value`` lines behind a ``format=1`` header so
scripts need not scrape prose.

Exit codes: 0 success (for ``member``, a positive verdict), 1 negative
verdict, 2 bad usage or unparsable input, 3 an internal inconsistency
surfaced by the rank engine or any other unexpected failure, such as an
input nested too deeply to evaluate.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module
from typing import Iterable, Sequence

from .domains import FilterLabError
from .dsl import (
    ParseError,
    filter_to_source,
    parse_filter,
    parse_seq,
    parse_set,
    set_to_source,
)
from .filters import DIVERGENT, dom_of, flim, member

# the names cli uses from each command module, bound when a command first
# needs them: `member` and `flim` never compile rank, game or constructions
_LAZY = {
    "constructions": (
        "InterleavedPair", "ZFamily", "collapse_limit", "collapse_pair", "preimage_grid",
        "rank_type_gap_example", "selector_grid", "selector_shadow", "z_family_grid",
    ),
    "game": ("make_player_i", "make_player_ii", "play", "transcript_lines"),
    "ordinals": ("ord_str",),
    "rank": (
        "InconsistentBounds", "bounds_text", "certificate_text", "rank_bounds",
        "replay_certificate",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def _load(*modules: str) -> None:
    """Bind the modules' names here, keeping any name already set on this module."""
    for module in modules:
        m = import_module(f".{module}", __package__)
        for name in _LAZY[module]:
            globals().setdefault(name, getattr(m, name))


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(_HOME[name])
    return globals()[name]


DEFAULT_TRUNC = 10_000

CONSTRUCTIONS = ("collapse-pair", "collapse-limit", "zfamily", "type-gap")


class _Output:
    """Collects either prose lines or key=value pairs; main prints them once."""

    def __init__(self, structured: bool) -> None:
        self.structured = structured
        self._lines: list[str] = []

    def text(self, line: str) -> None:
        if not self.structured:
            self._lines.append(line)

    def kv(self, key: str, value: object) -> None:
        if self.structured:
            self._lines.append(f"{key}={value}")

    def put(self, key: str, value: object, line: str | None = None) -> None:
        """One fact: key=value when structured, else line, or the value itself."""
        self.kv(key, value)
        self.text(str(value) if line is None else line)

    def rows(self, key: str, lines: Iterable[str], indent: str = "") -> None:
        """Numbered facts: key.0, key.1, ... when structured, else the indented lines."""
        for i, line in enumerate(lines):
            self.put(f"{key}.{i}", line, indent + line)

    def flush(self) -> None:
        lines = ["format=1", *self._lines] if self.structured else self._lines
        try:
            for line in lines:
                print(line)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has gone: keep the exit code, and point stdout at
            # devnull so the interpreter's flush at exit cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


def _trunc_from(args: argparse.Namespace) -> int:
    if args.trunc is None:
        return DEFAULT_TRUNC
    try:
        value = int(args.trunc)
    except ValueError:
        raise FilterLabError(f"--trunc must be an integer, got {args.trunc!r}") from None
    if value < 10:
        raise FilterLabError("--trunc must be at least 10")
    return value


def build_parser() -> argparse.ArgumentParser:
    # shared flags accept either position: before or after the subcommand
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format",
        choices=("text", "structured"),
        default=argparse.SUPPRESS,
        help="structured prints key=value lines behind a format=1 header",
    )
    shared.add_argument(
        "--trunc",
        default=argparse.SUPPRESS,
        help="truncation bound for shadows and grids (default: 10000)",
    )

    parser = argparse.ArgumentParser(
        prog="filterlab",
        description="filters on countable sets: membership, rank bounds, games",
    )
    parser.add_argument("--format", choices=("text", "structured"), default="text")
    parser.add_argument("--trunc", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "member", parents=[shared], help="decide membership of a set in a filter"
    )
    p.add_argument("filter", help="filter expression")
    p.add_argument("set", help="set expression, resolved over the filter's domain")

    p = sub.add_parser("rank", parents=[shared], help="certified rank bounds for a filter")
    p.add_argument("filter")

    p = sub.add_parser("flim", parents=[shared], help="limit of a sequence along a filter")
    p.add_argument("seq", help="sequence expression")
    p.add_argument("filter")

    p = sub.add_parser(
        "game", parents=[shared], help="run the covering game and print the transcript"
    )
    p.add_argument("filter")
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--pI", default="full")
    p.add_argument("--pII", default="fresh")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "construct", parents=[shared], help="build and summarize a stock construction"
    )
    p.add_argument("name", choices=CONSTRUCTIONS)
    p.add_argument(
        "--depth", type=int, default=1, help="tower depth for the collapse and line families"
    )
    return parser


# ---------------------------------------------------------------------------
# command bodies: each puts its facts on out and returns the exit code


def _cmd_member(args: argparse.Namespace, out: _Output) -> int:
    f = parse_filter(args.filter)
    a = parse_set(args.set, dom_of(f))
    verdict = member(f, a)
    out.put("verdict", "true" if verdict else "false")
    return 0 if verdict else 1


def _cmd_rank(args: argparse.Namespace, out: _Output) -> int:
    _load("rank", "ordinals")
    f = parse_filter(args.filter)
    bounds, cert = rank_bounds(f)
    if replay_certificate(cert) != bounds:
        raise InconsistentBounds("replayed certificate disagrees with the engine")
    out.put("bounds", bounds_text(bounds), f"bounds: {bounds_text(bounds)}")
    if bounds.exact is not None:
        out.put("exact", ord_str(bounds.exact), f"exact rank: {ord_str(bounds.exact)}")
    out.text("certificate:")
    out.rows("cert", certificate_text(cert).rstrip("\n").split("\n"))
    return 0


def _cmd_flim(args: argparse.Namespace, out: _Output) -> int:
    f = parse_filter(args.filter)
    s = parse_seq(args.seq, dom_of(f))
    v = flim(s, f)
    out.put("value", "divergent" if v is DIVERGENT else str(v))
    return 1 if v is DIVERGENT else 0


def _cmd_game(args: argparse.Namespace, out: _Output) -> int:
    _load("game")
    if args.rounds < 1:
        raise FilterLabError("--rounds must be positive")
    f = parse_filter(args.filter)
    t = play(f, make_player_i(args.pI), make_player_ii(args.pII), args.rounds, args.seed)
    out.kv("rounds", len(t.rounds))
    out.kv("player_i", t.player_i)
    out.kv("player_ii", t.player_ii)
    out.kv("seed", t.seed)
    out.rows("round", transcript_lines(t))
    return 0


def _cmd_construct(args: argparse.Namespace, out: _Output) -> int:
    _load("rank", "constructions")
    trunc = args.trunc
    if args.name == "collapse-pair":
        cp = collapse_pair(args.depth)
        for g in (cp.g0, cp.g1, cp.meet):
            bounds = bounds_text(g.bounds)
            out.put(f"bounds.{g.name}", bounds, f"{g.name} bounds {bounds}: {g.provenance}")
        for side in (0, 1):
            out.text(f"side-{side} line preimages, truncated at {trunc}:")
            out.rows(f"preimage{side}", preimage_grid(cp.pair, side, 4, trunc), "  ")
        return 0
    if args.name == "collapse-limit":
        cl = collapse_limit(args.depth)
        bounds = bounds_text(cl.limit.bounds)
        out.put("bounds", bounds, f"{cl.limit.name} bounds {bounds}")
        out.put("provenance", cl.limit.provenance, f"  {cl.limit.provenance}")
        base = filter_to_source(cl.base)
        out.put("base", base, f"base: {base}")
        out.put("split", cl.split, f"split along: {cl.split} (undecided by the base, both ways)")
        for g in (cl.parts.g0, cl.parts.g1):
            bounds = bounds_text(g.bounds)
            out.put(f"bounds.{g.name}", bounds, f"{g.name} bounds {bounds}")
        return 0
    if args.name == "zfamily":
        out.rows("line", z_family_grid(ZFamily(args.depth), 6, 10))
        shadow = selector_shadow(InterleavedPair(args.depth), trunc, i_max=10, j_max=10)
        out.text(f"selector shadow at truncation {trunc}:")
        out.rows("selector", selector_grid(shadow), "  ")
        out.kv("selector.bound_ok", str(shadow.bound_ok).lower())
        return 0
    bundle = rank_type_gap_example()
    source = filter_to_source(bundle.filt)
    out.put("filter", source, f"filter: {source}")
    out.put("bounds", bounds_text(bundle.bounds), f"bounds {bounds_text(bundle.bounds)}")
    out.put("ct", bundle.ct.level, f"countable type level: {bundle.ct.level}")
    witness = getattr(bundle.diag, "witness", None)
    if witness is not None:
        source = set_to_source(witness)
        out.put("witness", source, f"diagonal witness: {source}")
    out.put("commentary", bundle.commentary)
    out.text("certificate:")
    out.rows("cert", certificate_text(bundle.certificate).rstrip("\n").split("\n"))
    return 0


_COMMANDS = {
    "member": _cmd_member,
    "rank": _cmd_rank,
    "flim": _cmd_flim,
    "game": _cmd_game,
    "construct": _cmd_construct,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse already printed usage or help; surface its code
        return int(e.code or 0)
    out = _Output(args.format == "structured")
    try:
        args.trunc = _trunc_from(args)
        code = _COMMANDS[args.command](args, out)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FilterLabError as e:
        at = "" if e.line is None else f"line {e.line}, column {e.col}: "
        print(f"error: {at}{e}", file=sys.stderr)
        return e.exit_code
    except Exception as e:
        # keep exit 1 meaning "negative verdict" whatever goes wrong
        detail = " ".join(str(e).split())
        print(f"error: internal: {type(e).__name__}: {detail}", file=sys.stderr)
        return 3
    # a command that raised printed nothing: stdout holds whole answers only
    out.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
