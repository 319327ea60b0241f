"""Closed-loop timing, span tracing and metric arithmetic for the benchmark.

One client in one process runs a workload's cycle of operations again and
again; the next operation starts when the previous one returns.  Only the
operations themselves are timed.  Outputs are kept from the first cycle
for checking after the timed phase; later cycles are compared with the
first by digest, so a run whose answers drift between cycles fails.

Every operation is timed between two runs of a fixed calibration routine
(pure Python, no filterlab code; run before an operation once 5 ms of
operations have passed since the last one), and its wall time is scaled by
the routine's time around it: scaled = wall * CAL_REF_S / calibration.  On a
shared machine the speed of one process drifts by a third or more over
seconds to minutes; the scaled time follows the program, not the drift.
Each input's latency is then the median of its scaled repeats in the run.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns
from typing import Callable

# layers that get busy/self/failed metrics; `op` is the benchmark's own
# glue around each operation and `ordinals` has no calls of its own
LAYERS = ("domains", "sets", "filters", "rank", "game", "constructions", "dsl", "cli")
MIN_CYCLES = 3  # repeats of every input, so that its median latency means something
CAL_LOOPS = 2400  # sizes the calibration routine: about 1 ms on the reference machine
CAL_REF_S = 1e-3  # the routine's time at reference speed; scaled times are in its units
CAL_EVERY_S = 0.005  # operation time between calibrations


def calibration_work(n: int = CAL_LOOPS) -> int:
    """Fixed interpreter work of the kind the program does (tuples, dict and
    set lookups, list growth, a sort); independent of the code under test."""
    seen = set()
    table: dict = {}
    out = []
    for i in range(n):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + 1
        if key not in seen:
            seen.add(key)
            out.append(key)
    out.sort()
    return len(out) + sum(table.values())


def calibrate() -> float:
    """Seconds the calibration routine takes now."""
    t0 = perf_counter()
    calibration_work()
    return perf_counter() - t0


def scaled(wall: list[float], cal: list[float | None]) -> list[float]:
    """Wall times in reference seconds.  cal[i] is the calibration taken just
    before wall[i], or None if there was none; cal[-1] follows the last.
    Each time is scaled by the mean of the nearest calibrations before and
    after it."""
    after: list[float] = [0.0] * len(cal)
    last = cal[-1]
    for i in range(len(cal) - 1, -1, -1):
        last = cal[i] if cal[i] is not None else last
        after[i] = last
    out = []
    before = cal[0]
    for i, w in enumerate(wall):
        before = cal[i] if cal[i] is not None else before
        out.append(w * CAL_REF_S * 2 / (before + after[i + 1]))
    return out


@dataclass
class Op:
    """One closed-loop operation of a workload.

    run     makes the timed calls into the program through the tracer and
            returns the raw outputs;
    digest  renders those outputs as canonical text (not timed);
    check   compares the first cycle's outputs with a reference after the
            timed phase: a list of (layer, problem), or None when no
            reference covers the input (counted as unchecked, not passed).
    """

    kind: str
    tag: str
    run: Callable[["NullTracer"], object]
    digest: Callable[[object], str]
    check: Callable[[object], list[tuple[str, str]] | None]


class NullTracer:
    """Tracing off: calls go straight through; only the innermost failing
    call is remembered so a failure can be charged to its layer."""

    tracing = False

    def __init__(self) -> None:
        self.failed_in: str | None = None
        self.op_tag = ""

    def call(self, name: str, fn, *args, tag: str = "", size: int = 0):
        try:
            return fn(*args)
        except Exception:
            if self.failed_in is None:
                self.failed_in = name
            raise

    def begin_op(self, op_id: int, tag: str) -> None:
        self.failed_in = None
        self.op_tag = tag


class Tracer(NullTracer):
    """Records a span per call: (name, tag, size, start_ns, end_ns, parent, op_id, ok).

    Spans stay in memory until the run ends; `parent` is the index of the
    enclosing span or -1.
    """

    tracing = True

    def __init__(self) -> None:
        super().__init__()
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self.op_id = -1

    def begin_op(self, op_id: int, tag: str) -> None:
        super().begin_op(op_id, tag)
        self.op_id = op_id

    def call(self, name: str, fn, *args, tag: str = "", size: int = 0):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        ok = False
        t0 = perf_counter_ns()
        try:
            out = fn(*args)
            ok = True
            return out
        except Exception:
            if self.failed_in is None:
                self.failed_in = name
            raise
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, tag, size, t0, t1, parent, self.op_id, ok)


@dataclass
class Phase:
    latencies: list[float] = field(default_factory=list)  # wall seconds per op
    cal: list[float | None] = field(default_factory=list)  # calibration before each op or None, one after the last
    cycles: int = 0
    failed: int = 0
    failed_by_layer: dict[str, int] = field(default_factory=dict)
    unchecked: int = 0
    first: list = field(default_factory=list)  # raw outputs of cycle one
    digests: list[str] = field(default_factory=list)  # digest text of cycle one
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def scaled(self) -> list[float]:
        return scaled(self.latencies, self.cal)

    def typical(self) -> list[float]:
        """Median scaled latency of each input of the cycle."""
        return typical_latencies(self.scaled(), len(self.digests))

    def typical_wall(self) -> list[float]:
        """Median wall latency of each input of the cycle, unscaled."""
        return typical_latencies(self.latencies, len(self.digests))

    def fail(self, layer: str, count: int = 1) -> None:
        self.failed += count
        self.failed_by_layer[layer] = self.failed_by_layer.get(layer, 0) + count


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def run_phase(ops: list[Op], tracer: NullTracer, seconds: float, min_cycles: int = MIN_CYCLES) -> Phase:
    """Run whole cycles of `ops` until `seconds` have passed and at least
    `min_cycles` cycles have completed; then check the outputs."""
    ph = Phase()
    n = len(ops)
    ph.first = [None] * n
    ph.digests = [""] * n
    raised = [0] * n
    drifted = [0] * n
    start = perf_counter()
    deadline = start + seconds
    op_id = 0
    since_cal = CAL_EVERY_S
    while True:
        for i, op in enumerate(ops):
            tracer.begin_op(op_id, op.tag)
            out = None
            err = None
            if since_cal >= CAL_EVERY_S:
                ph.cal.append(calibrate())
                since_cal = 0.0
            else:
                ph.cal.append(None)
            t0 = perf_counter()
            try:
                out = tracer.call("op." + op.kind, op.run, tracer, tag=op.tag)
            except Exception as e:  # a failing operation is counted, not fatal
                err = e
            ph.latencies.append(perf_counter() - t0)
            since_cal += ph.latencies[-1]
            op_id += 1
            if err is not None:
                raised[i] += 1
                layer = _layer(tracer.failed_in or "op")
                ph.fail(layer)
                if raised[i] == 1:
                    print(f"raised [{layer}] {op.kind}/{op.tag}: {type(err).__name__}: {err}")
                if ph.first[i] is None:
                    ph.digests[i] = f"raised {type(err).__name__}"
                continue
            text = op.digest(out)
            if ph.cycles == 0 or ph.first[i] is None:
                ph.first[i] = out
                ph.digests[i] = text
            elif text != ph.digests[i]:
                drifted[i] += 1
                ph.fail(op_layer(op))
        ph.cycles += 1
        if perf_counter() >= deadline and ph.cycles >= max(min_cycles, MIN_CYCLES):
            break
    ph.cal.append(calibrate())
    ph.wall_s = perf_counter() - start
    for i, op in enumerate(ops):
        if ph.first[i] is None:
            continue
        problems = op.check(ph.first[i])
        if problems is None:
            ph.unchecked += ph.cycles
            continue
        if problems:
            # every successful occurrence of this input carries the bad output
            ph.fail(problems[0][0], ph.cycles - raised[i] - drifted[i])
            for layer, text in problems[:3]:
                print(f"check failed [{layer}] {op.kind}/{op.tag}: {text}")
    return ph


def op_layer(op: Op) -> str:
    """The layer an operation's output belongs to, for drift failures."""
    return {
        "member": "filters", "dual": "filters", "flim": "filters",
        "sets": "sets", "enum": "domains", "rank": "rank", "rankbatch": "rank", "bundle": "constructions",
        "game": "game", "cli": "cli",
    }.get(op.kind, "op")


def run_digest(ph: Phase, ops: list[Op]) -> str:
    h = hashlib.sha256()
    for op, text in zip(ops, ph.digests):
        h.update(f"{op.kind}\t{op.tag}\t{text}\n".encode())
    return h.hexdigest()[:16]


def typical_latencies(latencies: list[float], cycle_len: int) -> list[float]:
    """Median latency of each input of the cycle over the run's repeats."""
    return [statistics.median(latencies[i::cycle_len]) for i in range(cycle_len)]


def latency_stats(typical: list[float]) -> tuple[float, float, float]:
    """ops/s of one cycle, and the median and 90th percentile of its
    operations (statistics.quantiles, exclusive method), from each input's
    median latency."""
    return len(typical) / sum(typical), statistics.median(typical), statistics.quantiles(typical, n=10)[8]


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def _ms(ns: int) -> float:
    return ns / 1e6


def span_metrics(spans: list[tuple]) -> dict[str, float]:
    """Busy and self time per layer, plus named call totals, from spans.

    Busy time of a layer counts spans whose parent is in another layer, so
    nested calls inside one layer are not counted twice; self time is each
    span's duration minus the durations of its direct children.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s[5] >= 0:
            child_ns[s[5]] += s[4] - s[3]
    busy: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    for i, s in enumerate(spans):
        layer = _layer(s[0])
        dur = s[4] - s[3]
        parent = s[5]
        if parent < 0 or _layer(spans[parent][0]) != layer:
            busy[layer] = busy.get(layer, 0) + dur
        self_ns[layer] = self_ns.get(layer, 0) + dur - child_ns[i]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.busy_ms"] = _ms(busy.get(layer, 0))
        out[f"{layer}.self_ms"] = _ms(self_ns.get(layer, 0))
    return out


class SpanTotals:
    """Sums of span durations and sizes, selected by name and tag."""

    def __init__(self, spans: list[tuple]) -> None:
        self._ns: dict[tuple[str, str], int] = {}
        self._calls: dict[tuple[str, str], int] = {}
        self._size: dict[tuple[str, str], int] = {}
        for name, tag, size, t0, t1, *_ in spans:
            key = (name, tag)
            self._ns[key] = self._ns.get(key, 0) + (t1 - t0)
            self._calls[key] = self._calls.get(key, 0) + 1
            self._size[key] = self._size.get(key, 0) + size

    def _sum(self, table: dict, names: tuple[str, ...], tag: str | None) -> int:
        return sum(v for (n, t), v in table.items() if n in names and (tag is None or t == tag))

    def ms(self, *names: str, tag: str | None = None) -> float:
        return _ms(self._sum(self._ns, names, tag))

    def calls(self, *names: str, tag: str | None = None) -> int:
        return self._sum(self._calls, names, tag)

    def size(self, *names: str, tag: str | None = None) -> int:
        return self._sum(self._size, names, tag)
