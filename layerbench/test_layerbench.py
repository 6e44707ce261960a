"""Self-tests of the benchmark's own arithmetic and checks.

    python3 -m pytest -q layerbench
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from layerbench import measure, workloads  # noqa: E402
from layerbench.tracer import (  # noqa: E402
    Patcher,
    Tracer,
    call_counts,
    self_times,
)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["a.self_ms:root", 0, 100, -1, 0],
        ["b.self_ms:child", 10, 40, 0, 0],
        ["b.self_ms:child", 30, 50, 0, 0],     # overlaps its sibling
        ["c.self_ms:grandchild", 12, 20, 1, 0],
        ["c.self_ms:late", 90, 130, 0, 0],     # runs past its parent
    ]
    totals = self_times(spans)
    # root: 100 - (covered [10, 50] + [90, 100]) = 50
    # b: (30 - 8) + 20 = 42; c: 8 + 40 = 48
    assert totals == {"a.self_ms": 50, "b.self_ms": 42, "c.self_ms": 48}
    assert call_counts(spans) == {"a.self_ms": 1, "b.self_ms": 2,
                                  "c.self_ms": 2}


class _Layer:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1

    @classmethod
    def build(cls):
        return cls()


def test_patched_calls_nest_and_are_restored():
    tracer = Tracer()
    original = vars(_Layer)["outer"]
    with Patcher() as patcher:
        patcher.span(tracer, "x.self_ms", _Layer, ["outer", "build"])
        patcher.span(tracer, "y.self_ms", _Layer, ["inner"])
        tracer.session = 7
        assert _Layer.build().outer() == 2
    assert vars(_Layer)["outer"] is original
    names = [span[0] for span in tracer.spans]
    assert names == ["x.self_ms:_Layer.build", "x.self_ms:_Layer.outer",
                     "y.self_ms:_Layer.inner"]
    assert [span[3] for span in tracer.spans] == [-1, -1, 1]
    assert {span[4] for span in tracer.spans} == {7}
    assert _Layer().outer() == 2 and len(tracer.spans) == 3


def test_p90_is_emitted_only_with_100_samples():
    short = measure.latency_percentiles([float(v) for v in range(99)])
    assert short == {"p50": 49.0}
    full = measure.latency_percentiles([float(v) for v in range(1, 101)])
    assert full["p90"] == 90.0 and full["p50"] == 50.5


def test_perturbed_expected_digest_lowers_success_rate():
    golden = workloads.load_golden()
    workload = workloads.build("attack-tcp", 0, "", golden)
    tally = measure.Tally()
    operation = workload.operation(workloads.ROUNDS[0], "table1")
    measure.execute(operation, tally)
    assert (tally.attempted, tally.failed, tally.success_rate) == (1, 0, 1.0)
    operation.expected = "0" * 16
    measure.execute(operation, tally)
    assert (tally.attempted, tally.failed, tally.success_rate) == (2, 1, 0.5)
    assert tally.sessions == 1


def test_median_rate_takes_each_input_at_its_median_time():
    tally = measure.Tally()
    fast = workloads.Operation("a#1", 1, None, None, None)
    slow = workloads.Operation("job#1", 10, None, None, None, key="job")
    for seconds in (1.0, 1.0, 7.0):         # one slowed-down run of "a"
        tally.record(fast, seconds, ok=True)
    for seconds in (2.0, 3.0):
        tally.record(slow, seconds, ok=True)
    # one pass: 1 + 10 sessions in 1.0 + 2.5 s
    assert tally.median_sessions_per_s == 11 / 3.5
    assert tally.sessions_per_s == 23 / 14.0


def test_stop_children_leaves_no_process_behind():
    import gc
    import multiprocessing

    import run

    queue = multiprocessing.get_context("spawn").Queue()
    queue.put(1)
    assert queue.get() == 1
    queue.close()
    queue.join_thread()
    del queue
    gc.collect()
    assert run.child_pids()              # the resource tracker
    run.stop_children()
    assert run.child_pids() == []
    assert not multiprocessing.active_children()
