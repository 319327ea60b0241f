"""filterlab benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload {oracle,certify,game,cli,all} \
        --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; the package is imported from its
src/ directory, never from an installed copy.  --trace 0 measures the
end-to-end metrics with tracing off; --trace 1 runs the workload untraced
for half the time and traced for the other half, and reports the
per-layer metrics and the tracing overhead.  The last line of output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Spans and
a full result record are written under benchmarks/out/.

See benchmarks/README.md for the workloads, the metrics and what each
per-layer metric is expected to move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from harness import (
    CAL_REF_S,
    LAYERS,
    NullTracer,
    SpanTotals,
    Tracer,
    calibrate,
    latency_stats,
    run_digest,
    run_phase,
    scaled,
    span_metrics,
    typical_latencies,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("oracle", "certify", "game", "cli")
MIN_OPS = 100  # operations in an untraced run
MIN_BEYOND = 10  # samples above the 90th percentile in an untraced run
# repeats of every input in an untraced run: certify's 90th percentile lies
# between two single inputs, and medians of four or five repeats moved it by
# up to 8% from run to run
MIN_REPEATS = 6
SETUP_REPEATS = 11
PROBE_REPEATS = 5


def die(msg: str) -> None:
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(2)


def guard_tree() -> dict:
    """Import filterlab from this checkout's src/ and nowhere else; return
    the environment for child interpreters, with src/ first on their path."""
    init = SRC / "filterlab" / "__init__.py"
    if not init.is_file():
        die(f"{init.relative_to(ROOT)} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import filterlab

    if Path(filterlab.__file__).resolve() != init.resolve():
        die(f"filterlab resolved to {filterlab.__file__}, not this checkout's src/")
    os.environ.pop("FILTERLAB_TRUNC", None)  # the cli reads it; keep runs comparable
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def time_child(code: str, env: dict) -> tuple[float, str]:
    t0 = perf_counter()
    p = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, cwd=ROOT)
    dt = perf_counter() - t0
    if p.returncode != 0:
        die(f"child interpreter failed: {p.stderr.strip()[-300:]}")
    return dt, p.stdout.strip()


def child_seconds(code: str, env: dict, repeats: int) -> tuple[float, list[str]]:
    """Median scaled time of a fresh interpreter running `code`, and the
    stdout of each child."""
    times, outs = [], []
    cal = [calibrate()]
    for _ in range(repeats):
        dt, out = time_child(code, env)
        cal.append(calibrate())
        times.append(dt)
        outs.append(out)
    return statistics.median(scaled(times, cal)), outs


def import_seconds(modules: tuple[str, ...], env: dict, repeats: int) -> float:
    """Median scaled time of a fresh interpreter that imports `modules`,
    checking that each child found this checkout's package."""
    code = f"import {', '.join(modules)}, filterlab; print(filterlab.__file__)"
    seconds, outs = child_seconds(code, env, repeats)
    for where in outs:
        if Path(where).resolve() != (SRC / "filterlab" / "__init__.py").resolve():
            die(f"a child interpreter imported filterlab from {where}")
    return seconds


def git_sha() -> str:
    try:
        p = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    lines = p.stdout.split()
    if p.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


# ---------------------------------------------------------------------------


def end_to_end_cycles(n: int) -> int:
    """Cycles of n inputs that give MIN_REPEATS repeats of each, MIN_OPS
    operations and MIN_BEYOND samples of the inputs above the 90th
    percentile (exclusive method)."""
    tail = n - math.floor(0.9 * (n + 1))
    return max(MIN_REPEATS, math.ceil(MIN_OPS / n), math.ceil(MIN_BEYOND / tail))


def unscaled_stats(ph) -> tuple[float, float, float]:
    """ops/s, p50 ms and p90 ms from wall times, for comparison with the scaled metrics."""
    ops_per_s, p50, p90 = latency_stats(ph.typical_wall())
    return ops_per_s, p50 * 1e3, p90 * 1e3


def end_to_end(ph, setup_s: float, rss_mb: float) -> dict:
    ops_per_s, p50, p90 = latency_stats(ph.typical())
    return {
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(wl, untraced, traced, tracer, interp_s: float, import_s: float) -> dict:
    from workloads import certificate_results

    spans = tracer.spans
    t = SpanTotals(spans)
    m: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    parse = ("dsl.parse_filter", "dsl.parse_set", "dsl.parse_seq")
    parse_ms = t.ms(*parse)
    put("dsl.parse_ms", parse_ms, "ms")
    put("dsl.parse_calls", t.calls(*parse), "count")
    put("dsl.chars_per_s", t.size(*parse) / (parse_ms / 1e3) if parse_ms else 0.0, "1/s")

    mem = ("filters.member", "filters.dual_member")
    put("filters.member_ms", t.ms(*mem), "ms")
    put("filters.member_calls", t.calls(*mem), "count")
    for tag in ("meet64", "tower8", "limit64"):
        put(f"filters.member_ms.{tag}", t.ms(*mem, tag=tag), "ms")
    put("filters.flim_ms", t.ms("filters.flim"), "ms")
    put("filters.kernel_ms", t.ms("filters.kernel_set"), "ms")
    for k in (4, 8, 10, 12):
        put(f"filters.kernel_ms.k{k}", t.ms("filters.kernel_set", tag=f"limit{k}"), "ms")

    algebra = ("sets.set_union", "sets.set_intersect", "sets.set_complement", "sets.set_member")
    put("sets.algebra_ms", t.ms(*algebra), "ms")
    put("sets.algebra_calls", t.calls(*algebra), "count")
    enum = ("domains.enum_point", "domains.point_index")
    put("domains.enum_ms", t.ms(*enum), "ms")
    put("domains.enum_calls", t.calls(*enum), "count")

    put("rank.derive_ms", t.ms("rank.rank_bounds"), "ms")
    put("rank.derive_ms.meet64", t.ms("rank.rank_bounds", tag="meet64"), "ms")
    put("rank.derive_ms.limit12", t.ms("rank.rank_bounds", tag="limit12"), "ms")
    put("rank.render_ms", t.ms("rank.certificate_text"), "ms")
    put("rank.parse_ms", t.ms("rank.certificate_from_text"), "ms")
    put("rank.replay_ms", t.ms("rank.replay_certificate"), "ms")
    certs = [c for op, out in zip(wl.ops, traced.first) if out is not None for c in certificate_results(op, out)]
    put("rank.cert_lines", sum(text.count("\n") for _, text, _, _ in certs), "count")
    exact = sum(1 for b, *_ in certs if b.exact is not None)
    put("rank.exact_share", exact / len(certs) if certs else 0.0, "ratio")

    play_ms = t.ms("game.play")
    rounds = t.size("game.play")
    put("game.play_ms", play_ms, "ms")
    for r in (50, 100, 200):
        put(f"game.play_ms.r{r}", t.ms("game.play", tag=f"r{r}"), "ms")
    put("game.rounds", rounds, "count")
    put("game.ms_per_round", play_ms / rounds if rounds else 0.0, "ms")
    put("game.validate_ms", t.ms("game.validate_transcript"), "ms")
    put("game.replay_ms", t.ms("game.replay_transcript"), "ms")
    put("game.render_ms", t.ms("game.transcript_lines"), "ms")
    put("game.column_bound_ms", t.ms("game.copy_column_bound"), "ms")

    bundles = ("constructions.collapse_pair", "constructions.collapse_limit", "constructions.rank_type_gap_example")
    put("constructions.bundle_ms", t.ms(*bundles), "ms")
    for tag in ("t1e3", "t1e4", "t3e4"):
        put(f"constructions.shadow_ms.{tag}", t.ms("constructions.selector_shadow", tag=tag), "ms")

    put("cli.interpreter_ms", interp_s * 1e3, "ms")
    put("cli.import_ms", (import_s - interp_s) * 1e3, "ms")
    put("cli.startup_ms", t.ms("cli.child") - t.ms("cli.main"), "ms")

    for name, value in span_metrics(spans).items():
        put(name, value, "ms")
    for layer in LAYERS:
        put(f"{layer}.failed", traced.failed_by_layer.get(layer, 0), "count")

    # op spans minus the in-process cli replay, which only the traced run does
    op_ns = [0] * traced.attempted
    for name, _, _, t0, t1, _, op_id, _ in spans:
        if name.startswith("op."):
            op_ns[op_id] += t1 - t0
        elif name == "cli.main":
            op_ns[op_id] -= t1 - t0
    traced_scaled = scaled([x / 1e9 for x in op_ns], traced.cal)
    traced_ops_per_s = latency_stats(typical_latencies(traced_scaled, len(wl.ops)))[0]
    untraced_ops_per_s = latency_stats(untraced.typical())[0]
    put("trace.ops_per_s", traced_ops_per_s, "1/s")
    put("trace.overhead_ops_per_s", untraced_ops_per_s - traced_ops_per_s, "1/s")
    put("trace.overhead_share", 1 - traced_ops_per_s / untraced_ops_per_s, "ratio")
    put("trace.spans", len(spans), "count")
    return m


def write_spans(path: Path, spans: list) -> None:
    keys = ("name", "tag", "size", "start_ns", "end_ns", "parent", "op", "ok")
    with path.open("w") as fh:
        for s in spans:
            fh.write(json.dumps(dict(zip(keys, s))) + "\n")


# ---------------------------------------------------------------------------


def run_one(args) -> int:
    env = guard_tree()
    from reference import Reference, load_naive
    from workloads import build

    ref = Reference(load_naive(ROOT))
    wl = build(args.workload, args.seed, ref, env)
    setup_s = import_seconds(wl.modules, env, SETUP_REPEATS)
    is_cli = args.workload == "cli"

    if args.trace == 0:
        ph = run_phase(wl.ops, NullTracer(), args.seconds, end_to_end_cycles(len(wl.ops)))
        rss = peak_rss_mb(children=is_cli)
        metrics = end_to_end(ph, setup_s, rss)
        phases = [ph]
    else:
        untraced = run_phase(wl.ops, NullTracer(), args.seconds / 2)
        tracer = Tracer()
        with wl.traced(tracer):
            ph = run_phase(wl.ops, tracer, args.seconds / 2)
        interp_s = child_seconds("pass", env, PROBE_REPEATS)[0]
        import_s = import_seconds(("filterlab.cli",), env, PROBE_REPEATS)
        metrics = per_layer(wl, untraced, ph, tracer, interp_s, import_s)
        phases = [untraced, ph]

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        write_spans(OUT / f"spans-{stem}.jsonl", tracer.spans)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    digest = run_digest(ph, wl.ops)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "digest": digest,
        "cycle_ops": len(wl.ops),
        "cycles": ph.cycles,
        "samples": ph.attempted,
        "timed_s": ph.wall_s,
        "unchecked": ph.unchecked,
        "fail_ratio": failed / attempted,
        "failed_by_layer": ph.failed_by_layer,
        "calibration_ms": statistics.median(c for c in ph.cal if c is not None) * 1e3,
        "unscaled": dict(zip(("ops_per_s", "op_p50_ms", "op_p90_ms"), unscaled_stats(ph))),
    }
    for k in ("git_sha", "python", "nproc", "seed", "digest", "cycle_ops", "cycles", "unchecked"):
        print(f"{args.workload} {k} = {info[k]}")
    print(f"{args.workload} calibration = {info['calibration_ms']:.4g} ms median (reference {CAL_REF_S * 1e3:g} ms)")
    print("{} unscaled: ops_per_s = {:.6g} 1/s, op_p50_ms = {:.6g} ms, op_p90_ms = {:.6g} ms".format(
        args.workload, *info["unscaled"].values()))
    for name, (value, unit) in metrics.items():
        extra = ""
        if name == "op_p90_ms":
            beyond = sum(1 for x in ph.typical() if x * 1e3 > value)
            n = len(wl.ops)
            extra = f"  ({n} inputs x {ph.cycles} repeats = {ph.attempted} samples; {beyond * ph.cycles} beyond)"
        print(f"{args.workload} {name} = {value:.6g} {unit}{extra}")
    print(f"{args.workload} fail_ratio = {info['fail_ratio']:.6g} ratio  ({failed}/{attempted} operations)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps({**info, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own child process, one after another."""
    code = 0
    for w in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", w, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        p = subprocess.run(argv, cwd=ROOT)
        code = code or p.returncode
    return code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
