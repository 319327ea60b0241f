"""The four workloads: inputs made from a seed, the timed calls, the checks.

Every input the program sees is DSL source text, an argv, or a stock
construction's parameters; objects the generators return are rendered to
text before timing starts.  Each workload is a fixed cycle of operations
(its size sweep), shuffled once by the seed and then repeated.
"""

from __future__ import annotations

import contextlib
import functools
import io
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from random import Random

import filterlab.cli as flcli
from filterlab.constructions import collapse_limit, collapse_pair, random_tower_member, rank_type_gap_example
from filterlab.domains import NAT, NatPt, Prod, enum_point, point_index
from filterlab.dsl import filter_to_source, parse_filter, parse_seq, parse_set, set_to_source
from filterlab.filters import DIVERGENT, dom_of, dual_member, flim, gen_random_filter, katetov, kernel_set, member
from filterlab.game import (
    copy_column_bound,
    make_player_i,
    make_player_ii,
    play,
    replay_transcript,
    transcript_lines,
    validate_transcript,
)
from filterlab.rank import bounds_text, certificate_from_text, certificate_text, rank_bounds, replay_certificate
from filterlab.sets import CofinSet, gen_random_setexpr, set_complement, set_intersect, set_member, set_union

from harness import Op
from reference import Reference, complement, level_set, naive_point, seq_source, seq_values

RANDOM_DOMAINS = (NAT, Prod(NAT), Prod(Prod(NAT)))
# certify's random filters come in operations of RANDOM_BATCH filters each:
# single random filters cost from 0.1 to 10 ms, so how many of them a seed
# puts below the median decided which sweep input was the median; a batch's
# cost is an average over draws and ranks in the same place for every seed
RANDOM_BATCHES = 4
RANDOM_BATCH = 16


@dataclass
class Workload:
    name: str
    modules: tuple[str, ...]  # what a fresh interpreter imports before its first operation
    ops: list[Op]
    traced: object = contextlib.nullcontext  # context factory(tracer) active during a traced phase


def build(name: str, seed: int, ref: Reference, child_env: dict) -> Workload:
    rng = Random(f"{name}:{seed}")
    if name == "oracle":
        ops = oracle_ops(rng, ref)
        mods = ("filterlab.dsl", "filterlab.filters", "filterlab.sets", "filterlab.domains")
        wl = Workload(name, mods, ops)
    elif name == "certify":
        ops = certify_ops(rng, ref)
        mods = ("filterlab.dsl", "filterlab.rank", "filterlab.filters", "filterlab.constructions")
        wl = Workload(name, mods, ops)
    elif name == "game":
        wl = Workload(name, ("filterlab.dsl", "filterlab.game"), game_ops(rng, ref))
    elif name == "cli":
        wl = Workload(name, ("filterlab.cli",), cli_ops(child_env), traced=trace_cli_main)
    else:
        raise ValueError(name)
    rng.shuffle(wl.ops)
    return wl


# ---------------------------------------------------------------------------
# shared pieces


def _parse_filter(tr, src: str):
    return tr.call("dsl.parse_filter", parse_filter, src, size=len(src))


def _parse_set(tr, src: str, d):
    return tr.call("dsl.parse_set", parse_set, src, d, size=len(src))


def _parse_check(f, expect) -> list[tuple[str, str]]:
    if expect is not None and f != expect:
        return [("dsl", "parsed filter differs from the generated expression")]
    return []


def meet_chain_source(length: int) -> str:
    """A right-nested meet of `length` factors, Frechet and principal(cofin{i}) alternating."""
    parts = ["frechet" if i % 2 == 0 else f"principal(cofin{{{i}}})" for i in range(length)]
    src = parts[-1]
    for p in reversed(parts[:-1]):
        src = f"meet({p}, {src})"
    return src


def limit_source(k: int) -> str:
    """A Frechet limit of a finite family: k exceptions principal(cofin{i}), Frechet tail."""
    excs = ", ".join(f"{i}: principal(cofin{{{i}}})" for i in range(k))
    return f"limit(frechet, family({{{excs}}}, frechet))"


def _points(rng: Random, hi: int, count: int, step: int = 1) -> str:
    return ",".join(str(x) for x in sorted({rng.randrange(0, hi, step) for _ in range(count)}))


# ---------------------------------------------------------------------------
# oracle: membership queries given as text


def membership_op(ref: Reference, tag: str, fsrc: str, ssrc: str, dual: bool, expect=None, tower=None) -> Op:
    fn, span = (dual_member, "filters.dual_member") if dual else (member, "filters.member")

    def run(tr):
        f = _parse_filter(tr, fsrc)
        a = _parse_set(tr, ssrc, tr.call("filters.dom_of", dom_of, f))
        return f, a, tr.call(span, fn, f, a, tag=tag)

    def check(out):
        f, a, got = out
        probe = complement(a) if dual else a
        want = ref.tower_member(tower, probe) if tower is not None else ref.member(f, probe)
        if want is None:
            return None
        bad = _parse_check(f, expect)
        if got != want:
            bad.append(("filters", f"verdict {got}, reference {want} for {fsrc[:60]} / {ssrc[:60]}"))
        return bad

    return Op("dual" if dual else "member", tag, run, lambda out: str(out[2]), check)


def flim_op(ref: Reference, tag: str, fsrc: str, seq, d, expect) -> Op:
    ssrc = seq_source(seq)

    def run(tr):
        f = _parse_filter(tr, fsrc)
        s = tr.call("dsl.parse_seq", parse_seq, ssrc, tr.call("filters.dom_of", dom_of, f), size=len(ssrc))
        return f, tr.call("filters.flim", flim, s, f, tag=tag)

    def check(out):
        f, got = out
        hits = []
        for v in sorted(seq_values(seq)):
            verdict = ref.member(f, level_set(seq, v, d))
            if verdict is None:
                return None
            if verdict:
                hits.append(v)
        if len(hits) > 1:
            return None  # an improper filter has no unique limit to compare
        want = hits[0] if hits else DIVERGENT
        bad = _parse_check(f, expect)
        if got != want:
            bad.append(("filters", f"flim {got}, reference {want} for {ssrc[:60]}"))
        return bad

    return Op("flim", tag, run, lambda out: str(out[1]), check)


def random_seq(rng: Random, depth: int):
    """A nested (table, tail) sequence; leaves take a few rational values."""
    values = (Fraction(0), Fraction(1, 2), Fraction(1))
    if depth == 0:
        table = {rng.randrange(10): rng.choice(values) for _ in range(rng.randrange(4))}
        return table, rng.choice(values)
    table = {rng.randrange(8): random_seq(rng, depth - 1) for _ in range(rng.randrange(3))}
    return table, random_seq(rng, depth - 1)


SET_OPS = {
    "union": (set_union, 2, any),
    "intersect": (set_intersect, 2, all),
    "complement": (set_complement, 1, lambda xs: not xs[0]),
}


def sets_op(ref: Reference, d, asrc: str, bsrc: str, which: str, point) -> Op:
    def run(tr):
        a = _parse_set(tr, asrc, d)
        b = _parse_set(tr, bsrc, d)
        if which == "member":
            return a, b, tr.call("sets.set_member", set_member, point, a)
        fn, arity, _ = SET_OPS[which]
        return a, b, tr.call("sets." + fn.__name__, fn, *(a, b)[:arity])

    def digest(out):
        r = out[2]
        return str(r) if isinstance(r, bool) else set_to_source(r)

    def check(out):
        a, b, r = out
        if which == "member":
            ok = r == ref.naive.contains(a, naive_point(point))
        else:
            _, arity, combine = SET_OPS[which]
            ok = ref.set_equal_on_grid(r, [a, b][:arity], combine)
        return [] if ok else [("sets", f"{which} disagrees with the pointwise reference")]

    return Op("sets", which, run, digest, check)


def enum_op(d, start: int, count: int) -> Op:
    def run(tr):
        out = []
        for n in range(start, start + count):
            p = tr.call("domains.enum_point", enum_point, d, n)
            out.append((p, tr.call("domains.point_index", point_index, d, p)))
        return out

    def check(out):
        pts = [naive_point(p) for p, _ in out]
        if [i for _, i in out] != list(range(start, start + count)) or len(set(pts)) != count:
            return [("domains", f"enumeration round trip broken at {start}")]
        if d == NAT and pts != list(range(start, start + count)):
            return [("domains", "naturals enumerate out of order")]
        return []

    return Op("enum", "roundtrip", run, lambda out: repr([(naive_point(p), i) for p, i in out]), check)


def oracle_ops(rng: Random, ref: Reference) -> list[Op]:
    """600 random filters per domain depth, then the scaled shapes with eight
    random sets each, then a small share of set algebra and enumeration.
    The 90th percentile falls among the random filters, so their number sets
    how much it moves from seed to seed."""
    ops = []
    for depth, d in enumerate(RANDOM_DOMAINS):
        for _ in range(600):
            f = gen_random_filter(d, 3, rng.randrange(1 << 30))
            fsrc = filter_to_source(f)
            roll = rng.random()
            if roll < 0.25:
                ops.append(flim_op(ref, "random", fsrc, random_seq(rng, depth), d, f))
                continue
            ssrc = set_to_source(gen_random_setexpr(dom_of(f), 8, rng.randrange(1 << 30)))
            ops.append(membership_op(ref, "random", fsrc, ssrc, roll < 0.5, f))
    for _ in range(8):
        # towers against their random members, meet chains, finite-family limits
        for depth in range(1, 9):
            f = katetov(depth)
            for dual in (False, True):
                ssrc = set_to_source(random_tower_member(depth, rng.randrange(1 << 30)))
                ops.append(membership_op(ref, f"tower{depth}", f"katetov({depth})", ssrc, dual, f, tower=depth))
        for length in (8, 16, 32, 64):
            src = meet_chain_source(length)
            ops.append(membership_op(ref, f"meet{length}", src, f"cofin{{{_points(rng, 2 * length, 2)}}}", False))
            ops.append(membership_op(ref, f"meet{length}", src, f"cofin{{{_points(rng, 2 * length, 3, 2)}}}", False))
        for k in (8, 16, 32, 64):
            src = limit_source(k)
            ops.append(membership_op(ref, f"limit{k}", src, f"cofin{{{_points(rng, 2 * k, 3)}}}", False))
            ops.append(membership_op(ref, f"limit{k}", src, f"fin{{{_points(rng, 2 * k, 3)}}}", False))
        for which in ("union", "intersect", "complement", "member") * 3:
            d = rng.choice(RANDOM_DOMAINS)
            a, b = (set_to_source(gen_random_setexpr(d, 8, rng.randrange(1 << 30))) for _ in range(2))
            ops.append(sets_op(ref, d, a, b, which, enum_point(d, rng.randrange(200))))
        for d in RANDOM_DOMAINS * 2:
            ops.append(enum_op(d, rng.randrange(10_000), 16))
    return ops


# ---------------------------------------------------------------------------
# certify: rank bounds, certificate text round trip, replay


def _ord_value(o) -> float:
    """A finite ordinal as an int; anything from omega on as infinity."""
    if o is None or any(e > 0 for e, _ in o.terms):
        return float("inf")
    return sum(c for _, c in o.terms)


def _certify(tr, tag: str, subject, given=None):
    """Bounds, certificate text, the text parsed back and replayed, re-rendered."""
    if given is None:
        bounds, cert = tr.call("rank.rank_bounds", rank_bounds, subject, tag=tag)
    else:
        bounds, cert = given
    text = tr.call("rank.certificate_text", certificate_text, cert, tag=tag)
    parsed = tr.call("rank.certificate_from_text", certificate_from_text, text, tag=tag)
    replayed = tr.call("rank.replay_certificate", replay_certificate, parsed, tag=tag)
    return bounds, text, replayed, tr.call("rank.certificate_text", certificate_text, parsed, tag=tag)


def _cert_problems(certs, known) -> list[tuple[str, str]]:
    bad = []
    for (bounds, text, replayed, text2), rank in zip(certs, known):
        if replayed != bounds:
            bad.append(("rank", f"replay {bounds_text(replayed)} != bounds {bounds_text(bounds)}"))
        if text2 != text:
            bad.append(("rank", "certificate text does not round-trip"))
        if rank is not None and not (_ord_value(bounds.lo) <= rank <= _ord_value(bounds.hi)):
            bad.append(("rank", f"known rank {rank} outside {bounds_text(bounds)}"))
    return bad


def certificate_results(op: Op, out) -> list:
    """The (bounds, text, replayed, re-rendered text) tuples in an output."""
    if op.kind == "rankbatch":
        return [c for _, certs, _ in out for c in certs]
    return {"rank": lambda: out[1], "bundle": lambda: out}.get(op.kind, list)()


def batch_op(kind: str, tag: str, ops: list[Op]) -> Op:
    """One operation that runs `ops` one after another."""

    def check(outs):
        results = [op.check(out) for op, out in zip(ops, outs)]
        return None if None in results else [p for r in results for p in r]

    return Op(
        kind,
        tag,
        lambda tr: [op.run(tr) for op in ops],
        lambda outs: "\n".join(op.digest(out) for op, out in zip(ops, outs)),
        check,
    )


def _cert_digest(certs) -> str:
    return "\n".join(f"{bounds_text(b)}|{bounds_text(r)}\n{t}" for b, t, r, _ in certs)


def rank_op(ref: Reference, tag: str, fsrc: str, known: int | None, expect=None, kernel: bool = False) -> Op:
    def run(tr):
        f = _parse_filter(tr, fsrc)
        certs = [_certify(tr, tag, f)]
        ker = tr.call("filters.kernel_set", kernel_set, f, tag=tag) if kernel else None
        return f, certs, ker

    def digest(out):
        f, certs, ker = out
        return _cert_digest(certs) + ("" if ker is None else "\nkernel " + set_to_source(ker))

    def check(out):
        f, certs, ker = out
        bad = _parse_check(f, expect) + _cert_problems(certs, [known])
        if ker is not None:
            bad += _kernel_problems(ref, f, ker, certs[0][0])
        return bad

    return Op("rank", tag, run, digest, check)


def _kernel_problems(ref: Reference, f, ker, bounds) -> list[tuple[str, str]]:
    """Kernel over the naturals by definition: p is in every member iff the
    set missing only p is not a member.  Points at or past the bound behave
    like the bound itself."""
    bound = ref.naive.span_filter(f) + 1
    in_kernel = [ref.member(f, CofinSet((NatPt(p),), NAT)) is False for p in range(bound + 1)]
    bad = []
    if [ref.naive.contains(ker, p) for p in range(bound + 1)] != in_kernel:
        bad.append(("filters", "kernel_set disagrees with the definitional kernel"))
    # rank 0 exactly when some point lies in every member
    free = not any(in_kernel)
    if (_ord_value(bounds.hi) < 1) if free else (_ord_value(bounds.lo) > 0):
        bad.append(("rank", f"free={free} but bounds {bounds_text(bounds)}"))
    return bad


def bundle_op(name: str, alpha: int) -> Op:
    """Build a stock construction and certify every rank-bearing part of it.
    Known ranks: each side of a collapse pair is a relabelled depth-alpha
    tower; the pair's meet, the collapse limit and the type-gap filter have
    rank one."""

    def run(tr):
        if name == "collapse_pair":
            cp = tr.call("constructions.collapse_pair", collapse_pair, alpha, tag=name)
            return [_certify(tr, name, s) for s in (cp.push0, cp.push1, cp.meet)]
        if name == "collapse_limit":
            cl = tr.call("constructions.collapse_limit", collapse_limit, alpha, tag=name)
            return [_certify(tr, name, cl.limit)]
        tg = tr.call("constructions.rank_type_gap_example", rank_type_gap_example, tag=name)
        return [_certify(tr, name, tg.filt, (tg.bounds, tg.certificate))]

    known = {"collapse_pair": [alpha, alpha, 1], "collapse_limit": [1], "type_gap": [1]}[name]
    return Op("bundle", f"{name}{alpha}", run, _cert_digest, lambda certs: _cert_problems(certs, known))


def certify_ops(rng: Random, ref: Reference) -> list[Op]:
    ops = []
    for n in range(1, 9):
        ops.append(rank_op(ref, f"tower{n}", f"katetov({n})", n, katetov(n)))
        ops.append(rank_op(ref, f"fubini{n}", f"fubini(frechet, family({{}}, katetov({n})))", n + 1))
    for length in (8, 16, 32, 64, 128):
        ops.append(rank_op(ref, f"meet{length}", meet_chain_source(length), None))
    for k in (4, 8, 10, 12):
        ops.append(rank_op(ref, f"limit{k}", limit_source(k), None, kernel=True))
    for b in range(RANDOM_BATCHES):
        batch = []
        for i in range(RANDOM_BATCH):
            f = gen_random_filter(RANDOM_DOMAINS[i % 3], 3, rng.randrange(1 << 30))
            batch.append(rank_op(ref, "random", filter_to_source(f), None, f))
        ops.append(batch_op("rankbatch", f"random{RANDOM_BATCH}", batch))
    ops += [bundle_op("collapse_pair", 1), bundle_op("collapse_pair", 2)]
    ops += [bundle_op("collapse_limit", 1), bundle_op("type_gap", 1)]
    return ops


# ---------------------------------------------------------------------------
# game: whole games with validation, replay and rendering


def game_op(ref: Reference, fsrc: str, p1: str, p2: str, rounds: int, seed: int) -> Op:
    tag = f"r{rounds}"

    def run(tr):
        f = _parse_filter(tr, fsrc)
        s1 = tr.call("game.make_player_i", make_player_i, p1)
        s2 = tr.call("game.make_player_ii", make_player_ii, p2)
        t = tr.call("game.play", play, f, s1, s2, rounds, seed, tag=tag, size=rounds)
        problems = tr.call("game.validate_transcript", validate_transcript, t, tag=tag)
        again = tr.call("game.replay_transcript", replay_transcript, t, tag=tag)
        lines = tr.call("game.transcript_lines", transcript_lines, t, tag=tag)
        bound = tr.call("game.copy_column_bound", copy_column_bound, t, tag=tag) if p1 == "copy" else None
        return f, t, problems, again, lines, bound

    def digest(out):
        _, _, problems, _, lines, bound = out
        return "\n".join(lines) + f"\nproblems={len(problems)} bound={bound and bound[0]}"

    def check(out):
        f, t, problems, again, lines, bound = out
        bad = [("game", p) for p in problems[:1]]
        if again != t:
            bad.append(("game", "replay differs from the transcript"))
        if bound is not None and not bound[0]:
            bad.append(("game", "copy_column_bound reports a breach"))
        return bad + _transcript_problems(ref, f, t, lines, p1)

    return Op("game", tag, run, digest, check)


def _transcript_problems(ref: Reference, f, t, lines, p1: str) -> list[tuple[str, str]]:
    """Re-check the transcript from its fields: every move is a member of the
    filter, claims lie inside the move, sorted and distinct, the printed |U|
    is the size of the union so far; exclude-union moves avoid the union and
    copy games keep every column within its budget."""
    nv = ref.naive
    union: list = []
    budget = []
    for n, r in enumerate(t.rounds):
        claims = [naive_point(p) for p in r.f]
        if ref.member(f, r.c) is False:
            return [("game", f"round {n}: move is not in the filter")]
        if any(not nv.contains(r.c, q) for q in claims) or claims != sorted(set(claims)):
            return [("game", f"round {n}: claims outside the move or unsorted")]
        if p1 == "exclude-union" and any(nv.contains(r.c, q) for q in union):
            return [("game", f"round {n}: move meets the union")]
        union += [q for q in claims if q not in union]
        if not lines[n].startswith(f"n={n} ") or not lines[n].endswith(f"|U|={len(union)}"):
            return [("game", f"round {n}: printed line disagrees: {lines[n][:60]}")]
        budget.append(len(claims))
        if p1 == "copy":
            for col in {q[0] for q in union}:
                if sum(1 for q in union if q[0] == col) > sum(budget[: min(col, n) + 1]):
                    return [("game", f"round {n}: column {col} over budget")]
    if len(t.rounds) != len(lines):
        return [("game", "transcript and rendering differ in length")]
    return []


def game_ops(rng: Random, ref: Reference) -> list[Op]:
    """The seeded copy games sit at 10 and 40 rounds, well below and above
    the median game, so that the median is a game no seed changes."""
    ops = []
    for rounds in (50, 100, 200):
        ops.append(game_op(ref, "frechet", "exclude-union", "universal", rounds, 0))
        ops.append(game_op(ref, "frechet", "full", "fresh", rounds, 0))
    for rounds in (10, 20, 40):
        ops.append(game_op(ref, "katetov(2)", "exclude-union", "fresh", rounds, 0))
    for rounds in (10, 40):
        for _ in range(3):
            ops.append(game_op(ref, "katetov(2)", "copy", "random", rounds, rng.randrange(1 << 16)))
    return ops


# ---------------------------------------------------------------------------
# cli: one child process per operation


README_GAME = [
    "n=0 C=cofin{} F={0} |U|=1",
    "n=1 C=cofin{0} F={1} |U|=2",
    "n=2 C=cofin{0,1} F={2} |U|=3",
    "n=3 C=cofin{0,1,2} F={3} |U|=4",
]
README_COLLAPSE_LIMIT = [
    "limit(G0,G1) bounds [1,1]",
    "  two-valued limit: equals the meet of its two values because the base filter decides neither block",
    "base: frechet",
    "split along: evens (undecided by the base, both ways)",
    "G0 bounds [1,1]",
    "G1 bounds [1,1]",
]
README_RANK_HEAD = ["bounds: [3,3]", "exact rank: 3", "certificate:", 'NODE "FubiniSum" final=[3,3]']
FUBINI2 = "fubini(frechet, family({}, katetov(2)))"


def _exact(lines):
    return lambda out: out == lines


def _prefix(lines, then):
    return lambda out: out[: len(lines)] == lines and len(out) > len(lines) and then(out[len(lines):])


def _lines_start(*heads):
    return lambda out: len(out) >= len(heads) and all(o.startswith(h) for o, h in zip(out, heads))


def _shadow_ok(trunc: int):
    """The selector shadow's claim: class E_j meets the selector union at most j times."""

    def ok(out):
        if f"selector shadow at truncation {trunc}:" not in out:
            return False
        hits = [ln for ln in out if ln.strip().startswith("E-hits:")]
        if len(hits) != 1:
            return False
        pairs = [tuple(map(int, x.split(":"))) for x in hits[0].split(":", 1)[1].split()]
        picks = [ln.split(":", 1)[1].split() for ln in out if ln.strip().startswith("S")]
        return (
            bool(pairs)
            and all(h <= j for j, h in pairs)
            and all(list(map(int, p)) == sorted(map(int, p)) and all(int(x) < trunc for x in p) for p in picks)
        )

    return ok


# argv, expected exit code, expected stdout lines (README examples where the
# README prints them; the paper's ranks and the selector bound elsewhere)
CLI_LIGHT = [
    (["member", FUBINI2, "sections({}, cofin{})"], 0, _exact(["true"])),
    (["member", "frechet", "fin{1,2,3}"], 1, _exact(["false"])),
    (["member", "frechet", "cofin{1}"], 0, _exact(["true"])),
    (["rank", FUBINI2], 0, _prefix(README_RANK_HEAD, _lines_start("  RULE R0 free=yes", "  RULE RKat depth=3"))),
    (["flim", "seq({0: 1/2, 2: 1/2}, 1/3)", "frechet"], 0, _exact(["1/3"])),
    (["game", "--pI", "exclude-union", "--pII", "universal", "--rounds", "4", "frechet"], 0, _exact(README_GAME)),
]
CLI_CONSTRUCT = [
    (["construct", "collapse-limit"], 0, _exact(README_COLLAPSE_LIMIT)),
    (["construct", "collapse-pair"], 0, _lines_start("G0 bounds [1,1]", "G1 bounds [1,1]", "G0&G1 bounds [1,1]")),
    (["construct", "type-gap"], 0, lambda out: "bounds [1,1]" in out and "countable type level: 2" in out),
]
SHADOW_TRUNCS = {1_000: "t1e3", 10_000: "t1e4", 30_000: "t3e4"}


def run_child(argv: list[str], env: dict) -> tuple[int, str]:
    p = subprocess.run([sys.executable, "-m", "filterlab.cli", *argv], env=env, capture_output=True, text=True)
    return p.returncode, p.stdout


def run_main(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = flcli.main(argv)
    return code, buf.getvalue()


def cli_op(argv: list[str], want_code: int, want_out, env: dict, tag: str) -> Op:
    def run(tr):
        child = tr.call("cli.child", run_child, argv, env, tag=tag)
        inproc = tr.call("cli.main", run_main, argv, tag=tag) if tr.tracing else None
        return child, inproc

    def check(out):
        (code, stdout), inproc = out
        bad = []
        if code != want_code or not want_out(stdout.splitlines()):
            bad.append(("cli", f"{' '.join(argv)[:60]}: exit {code}, stdout {stdout[:80]!r}"))
        if inproc is not None and inproc != (code, stdout):
            bad.append(("cli", f"{' '.join(argv)[:60]}: in-process main differs from the child"))
        return bad

    return Op("cli", tag, run, lambda out: f"{out[0][0]}\n{out[0][1]}", check)


def cli_ops(env: dict) -> list[Op]:
    ops = []
    for argv, code, want in CLI_LIGHT:
        ops.append(cli_op(argv, code, want, env, argv[0]))
    for argv, code, want in CLI_CONSTRUCT:
        ops.append(cli_op(argv, code, want, env, argv[1]))
    for trunc, tag in SHADOW_TRUNCS.items():
        argv = ["construct", "zfamily", "--depth", "2", "--trunc", str(trunc)]
        ops.append(cli_op(argv, 0, _shadow_ok(trunc), env, tag))
    return ops


# the calls cli.main makes into each layer, wrapped while a traced phase runs
CLI_CALLS = {
    "dsl": ("parse_filter", "parse_set", "parse_seq", "filter_to_source", "set_to_source"),
    "filters": ("member", "flim", "dom_of"),
    "rank": ("rank_bounds", "replay_certificate", "certificate_text", "bounds_text"),
    "game": ("play", "transcript_lines", "make_player_i", "make_player_ii"),
    "constructions": (
        "collapse_pair", "collapse_limit", "rank_type_gap_example", "selector_shadow",
        "ZFamily", "z_family_grid", "preimage_grid", "selector_grid",
    ),
}


@contextlib.contextmanager
def trace_cli_main(tr):
    saved = {}

    def wrap(span, fn):
        def traced(*args, **kwargs):
            call = functools.partial(fn, **kwargs) if kwargs else fn
            # parse calls carry their source length, as in the other workloads
            size = len(args[0]) if args and isinstance(args[0], str) else 0
            return tr.call(span, call, *args, tag=tr.op_tag, size=size)

        return traced

    try:
        for layer, names in CLI_CALLS.items():
            for name in names:
                saved[name] = getattr(flcli, name)
                setattr(flcli, name, wrap(f"{layer}.{name}", saved[name]))
        yield
    finally:
        for name, fn in saved.items():
            setattr(flcli, name, fn)
