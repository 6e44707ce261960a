"""Timed and traced passes over a workload, and the metrics they give.

End-to-end metrics come only from the timed run, which installs
nothing into the program.  The traced run makes three passes over one
fixed set of operations: an untraced counting pass, then two traced
passes.  Their exact work counts must agree; their spans give each
layer's self time.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Sequence, Tuple

from repro.campaign import engine
from repro.infer import campaign as infer_campaign
from repro.infer.summary import InferSummary

from layerbench import workloads
from layerbench.counters import STACK_COUNTS, ExecutorCounts, StackCounts
from layerbench.shardtasks import TracedInferShardTask, TracedShardTask, collect
from layerbench.tracer import (
    PACKET_LAYERS,
    Patcher,
    Span,
    Tracer,
    call_counts,
    install_packet_stack,
    self_times,
    write_spans,
)

#: p90 is reported only when at least ten samples lie beyond it.
P90_MIN_SAMPLES = 100
CALIBRATION_REPS = 5

#: Exact counts that every pass of one traced run must agree on.
GATED_COUNTS = tuple(STACK_COUNTS) + (
    "executor.processes_started", "checkpoint.flushes",
    "checkpoint.final_bytes")
#: Counts that legitimately differ between passes and are only
#: reported: the checkpoint is flushed as shards complete, so the sizes
#: of the intermediate files, and their sum, follow completion order.
#: The final file, gated above, does not.
ORDER_DEPENDENT_COUNTS = ("checkpoint.bytes_written",)

END_TO_END = (
    ("sessions_per_s", "1/s"),
    ("session_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)

PER_LAYER = (
    tuple((f"{layer}.self_ms", "ms/session") for layer in PACKET_LAYERS)
    + tuple((f"{layer}.calls", "count/session") for layer in PACKET_LAYERS)
    + tuple((name, "count/session") for name in STACK_COUNTS)
    + (
        ("campaign.shards", "count/job"),
        ("executor.processes_started", "count/job"),
        ("executor.overhead_ms_per_shard", "ms/shard"),
        ("executor.overhead_share", "ratio"),
        ("campaign.shard_compute_ms", "ms/shard"),
        ("fastpath.generate_ms", "ms/shard"),
        ("fastpath.evaluate_ms", "ms/shard"),
        ("columnar.fold_ms", "ms/shard"),
        ("columnar.merge_ms", "ms/shard"),
        ("checkpoint.flushes", "count/job"),
        ("checkpoint.flush_ms", "ms/job"),
        ("checkpoint.bytes_written", "B/job"),
        ("infer.observe_ms", "ms/session"),
        ("infer.features_ms", "ms/session"),
        ("infer.fit_ms", "ms/session"),
        ("infer.predict_ms", "ms/session"),
        ("infer.overhead_ms", "ms/session"),
        ("infer.fold_ms", "ms/session"),
        ("trace.overhead_ratio", "ratio"),
    )
)


def calibrate() -> float:
    """Milliseconds of a fixed pure-Python loop: the host's speed now."""
    began = time.perf_counter()
    total = 0
    for value in range(200_000):
        total += value * value % 7
    return (time.perf_counter() - began) * 1000.0


def latency_percentiles(samples: Sequence[float]) -> Dict[str, float]:
    """p50 always; p90 only with at least ``P90_MIN_SAMPLES`` samples."""
    ordered = sorted(samples)
    result = {"p50": statistics.median(ordered)}
    if len(ordered) >= P90_MIN_SAMPLES:
        result["p90"] = ordered[math.ceil(0.9 * len(ordered)) - 1]
    return result


@dataclass
class Tally:
    """Outcome of a sequence of operations."""

    attempted: int = 0
    failed: int = 0
    sessions: int = 0
    wall_s: float = 0.0
    #: Per-session latency of each group of operations, in ms.
    latencies_ms: List[float] = field(default_factory=list)
    #: The same latencies, by group input.
    by_group: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(list))
    #: (sessions completed, seconds) of every run of each input.
    by_input: Dict[str, List[Tuple[int, float]]] = field(
        default_factory=lambda: defaultdict(list))

    def record(self, operation: workloads.Operation, seconds: float,
               ok: bool) -> None:
        self.attempted += 1
        self.wall_s += seconds
        done = operation.sessions if ok else 0
        self.sessions += done
        self.failed += 0 if ok else 1
        self.by_input[operation.key or operation.label].append(
            (done, seconds))

    @property
    def success_rate(self) -> float:
        return (self.attempted - self.failed) / self.attempted

    @property
    def sessions_per_s(self) -> float:
        return self.sessions / self.wall_s

    @property
    def median_sessions_per_s(self) -> float:
        """Sessions per second of one pass over the inputs, each input
        at its median time over the run: a host slowdown during part of
        the run moves it less than the run's overall rate."""
        runs = self.by_input.values()
        sessions = sum(statistics.median(n for n, _ in r) for r in runs)
        seconds = sum(statistics.median(t for _, t in r) for r in runs)
        return sessions / seconds

    @property
    def median_latency_ms(self) -> float:
        """Median over the group inputs of each one's median latency."""
        return statistics.median(
            statistics.median(samples) for samples in self.by_group.values())


def execute(operation: workloads.Operation, tally: Tally) -> None:
    """Time one operation and check its output against its digest.

    An exception or a wrong digest is printed and counted as a failure.
    """
    began = time.perf_counter()
    try:
        output = operation.run()
    except Exception:
        tally.record(operation, time.perf_counter() - began, ok=False)
        print(f"layerbench: {operation.label} raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return
    finally:
        elapsed = time.perf_counter() - began
        operation.cleanup()
    digest = operation.digest(output)
    ok = digest == operation.expected
    if not ok:
        print(f"layerbench: {operation.label}: output digest {digest} "
              f"!= expected {operation.expected}", file=sys.stderr)
    tally.record(operation, elapsed, ok)


# ---------------------------------------------------------------------------
# Timed run: the end-to-end metrics
# ---------------------------------------------------------------------------


@dataclass
class TimedRun:
    tally: Tally
    calibration_ms: Tuple[List[float], List[float]]


def timed_run(workload, seconds: float) -> TimedRun:
    """Closed loop over whole cycles of the workload's operations for
    about ``seconds`` of timed wall time: the run stops at the cycle
    boundary nearest to ``seconds``, and runs at least one cycle.

    A cycle is a list of groups: one pass over the attack rounds, or one
    job.  Each group gives one per-session latency sample, its wall time
    divided by its sessions; each operation one time sample of its input.
    """
    before = [calibrate() for _ in range(CALIBRATION_REPS)]
    tally = Tally()
    cycles = workload.timed_cycles()
    cycle_s = 0.0
    while tally.wall_s == 0.0 or tally.wall_s + cycle_s / 2 < seconds:
        cycle_began = tally.wall_s
        for group in next(cycles):
            began = tally.wall_s
            for operation in group:
                execute(operation, tally)
            sessions = sum(operation.sessions for operation in group)
            latency = (tally.wall_s - began) * 1000.0 / sessions
            tally.latencies_ms.append(latency)
            tally.by_group["+".join(operation.key or operation.label
                                    for operation in group)].append(latency)
        cycle_s = tally.wall_s - cycle_began
    after = [calibrate() for _ in range(CALIBRATION_REPS)]
    return TimedRun(tally, (before, after))


def peak_rss_mb(workers: int) -> float:
    """Parent high-water RSS plus ``workers`` times the largest waited-for
    child's: the most the run can have held at once."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


# ---------------------------------------------------------------------------
# Traced run: the per-layer metrics
# ---------------------------------------------------------------------------


@dataclass
class PassResult:
    tally: Tally
    counts: Dict[str, int]
    spans: List[Span]
    shard_compute_ns: List[int]
    flush_ns: int


def merge_spans(into: List[Span], spans: Sequence[Span]) -> None:
    """Append another process's spans, keeping parent links valid."""
    offset = len(into)
    for name, start, end, parent, session in spans:
        into.append([name, start, end,
                     parent + offset if parent >= 0 else -1, session])


def run_pass(workload, out_dir: str, traced: bool) -> PassResult:
    """One pass over the workload's fixed traced operations."""
    tracer = Tracer()
    stack = StackCounts()
    executor = ExecutorCounts()
    with Patcher() as patcher:
        if isinstance(workload, workloads.AttackWorkload):
            if traced:
                install_packet_stack(patcher, tracer)
            operations = workload.traced_operations()
        elif isinstance(workload, workloads.CampaignWorkload):
            factory = None
            if traced:
                factory = partial(TracedShardTask, backend="fast",
                                  out_dir=out_dir)
                patcher.span(tracer, "columnar.merge_ms", engine,
                             ["merge_summaries"])
            operations = workload.traced_operations(factory)
        else:
            if traced:
                patcher.set(infer_campaign, "InferShardTask",
                            partial(TracedInferShardTask, out_dir=out_dir))
                patcher.span(tracer, "infer.fold_ms", InferSummary,
                             ["merge", "from_json"])
            operations = workload.traced_operations()
        stack.install(patcher)
        executor.install(patcher)
        tally = Tally()
        with stack.activate():
            for index, operation in enumerate(operations):
                tracer.session = index
                execute(operation, tally)
    shard_compute_ns = []
    for record in collect(out_dir):
        shard_compute_ns.append(record["compute_ns"])
        merge_spans(tracer.spans, record["spans"])
    counts = {**stack.counts(), **executor.counts()}
    return PassResult(tally, counts, tracer.spans, shard_compute_ns,
                      executor.flush_ns)


def count_differences(passes: Sequence[PassResult],
                      names: Sequence[str]) -> List[str]:
    """The named counts on which the passes disagree, with the values."""
    problems = []
    for name in names:
        values = [result.counts[name] for result in passes]
        if len(set(values)) > 1:
            problems.append(f"{name}: {values}")
    return problems


def count_mismatches(passes: Sequence[PassResult]) -> List[str]:
    """Exact counts on which the passes disagree (program
    nondeterminism): the gated counts across all passes, and per-layer
    call counts across the traced ones."""
    problems = count_differences(passes, GATED_COUNTS)
    calls = [call_counts(result.spans) for result in passes[1:]]
    if len({tuple(sorted(table.items())) for table in calls}) > 1:
        problems.append(f"span calls: {calls}")
    return problems


def layer_metrics(workload, untraced: PassResult,
                  traced: Sequence[PassResult]) -> Dict[str, float]:
    metrics = {name: 0.0 for name, _unit in PER_LAYER}
    self_ms: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for result in traced:
        for name, ns in self_times(result.spans).items():
            self_ms[name] += ns / 1e6
        for name, count in call_counts(result.spans).items():
            calls[name] += count
    jobs = sum(result.tally.attempted for result in traced)

    if isinstance(workload, workloads.AttackWorkload):
        sessions = sum(result.tally.attempted for result in traced)
        # Packet-stack spans are keyed by the self-time metric they feed.
        for layer in PACKET_LAYERS:
            metrics[f"{layer}.self_ms"] = (
                self_ms.get(f"{layer}.self_ms", 0.0) / sessions)
            metrics[f"{layer}.calls"] = (
                calls.get(f"{layer}.self_ms", 0) / sessions)
        for name in STACK_COUNTS:
            metrics[name] = untraced.counts[name] / untraced.tally.attempted
    elif isinstance(workload, workloads.CampaignWorkload):
        shard_count = workload.config.shard_count
        shards = shard_count * jobs
        compute_ms = [ns / 1e6 for result in traced
                      for ns in result.shard_compute_ns]
        overhead = [
            workload.workers * result.tally.wall_s * 1000.0
            - sum(result.shard_compute_ns) / 1e6
            for result in traced
        ]
        wall_ms = sum(workload.workers * result.tally.wall_s * 1000.0
                      for result in traced)
        metrics.update({
            "campaign.shards": shard_count,
            "executor.overhead_ms_per_shard": sum(overhead) / shards,
            "executor.overhead_share": sum(overhead) / wall_ms,
            "campaign.shard_compute_ms": statistics.median(compute_ms),
            "checkpoint.flushes": untraced.counts["checkpoint.flushes"]
            / untraced.tally.attempted,
            "checkpoint.flush_ms": sum(result.flush_ns for result in traced)
            / 1e6 / jobs,
            "checkpoint.bytes_written":
            untraced.counts["checkpoint.bytes_written"]
            / untraced.tally.attempted,
        })
        for name in ("fastpath.generate_ms", "fastpath.evaluate_ms",
                     "columnar.fold_ms", "columnar.merge_ms"):
            metrics[name] = self_ms.get(name, 0.0) / shards
    else:
        sessions = workload.config.sessions * jobs
        for name in ("infer.observe_ms", "infer.features_ms",
                     "infer.fit_ms", "infer.predict_ms",
                     "infer.overhead_ms", "infer.fold_ms"):
            metrics[name] = self_ms.get(name, 0.0) / sessions
    metrics["executor.processes_started"] = (
        untraced.counts["executor.processes_started"]
        / untraced.tally.attempted)

    traced_rate = statistics.mean(result.tally.sessions_per_s
                                  for result in traced)
    metrics["trace.overhead_ratio"] = (
        traced_rate / untraced.tally.sessions_per_s)
    return metrics


@dataclass
class TracedRun:
    passes: List[PassResult]
    metrics: Dict[str, float]
    mismatches: List[str]
    #: Differences in ``ORDER_DEPENDENT_COUNTS``, reported only.
    order_dependent: List[str]
    calibration_ms: Tuple[List[float], List[float]]

    @property
    def attempted(self) -> int:
        return sum(result.tally.attempted for result in self.passes)

    @property
    def failed(self) -> int:
        return sum(result.tally.failed for result in self.passes)


def traced_run(workload, workdir: str, spans_path: str) -> TracedRun:
    """Untraced counting pass, two traced passes, then the gate."""
    out_dir = os.path.join(workdir, "shards")
    os.makedirs(out_dir, exist_ok=True)
    before = [calibrate() for _ in range(CALIBRATION_REPS)]
    passes = [run_pass(workload, out_dir, traced=False)]
    passes += [run_pass(workload, out_dir, traced=True) for _ in range(2)]
    after = [calibrate() for _ in range(CALIBRATION_REPS)]
    for number, result in enumerate(passes[1:], start=1):
        write_spans(f"{spans_path}-pass{number}.csv", result.spans)
    return TracedRun(
        passes,
        layer_metrics(workload, passes[0], passes[1:]),
        count_mismatches(passes),
        count_differences(passes, ORDER_DEPENDENT_COUNTS),
        (before, after),
    )
