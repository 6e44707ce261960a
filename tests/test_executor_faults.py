"""Tests for the executor's fault tolerance.

Covers the indexed wrapping of worker exceptions (every failure names
its trial), the retry/timeout/crash-isolation semantics of supervised
dispatch, worker reuse and recycling (exact process-start counts), and
checkpoint/resume.  All tasks are module-level dataclasses so they
pickle across the spawn boundary.
"""

import json
import multiprocessing
import multiprocessing.process
import os
import pickle
import signal
import time
from dataclasses import dataclass

import pytest

from repro.campaign import CampaignConfig, run_campaign
from repro.experiments import executor as executor_module
from repro.experiments.executor import (
    CAPTURE_ENV,
    Checkpoint,
    FaultTolerance,
    TrialError,
    TrialExecutionError,
    TrialExecutor,
    heartbeat,
    map_trials,
)
from repro.simkernel.randomstream import RandomStreams


def _square(index):
    return index * index


def _seeded_draw(index):
    """A deterministic per-index result: what a seeded trial computes."""
    return RandomStreams(index).stream("task").random()


@dataclass(frozen=True)
class _Offset:
    base: int

    def __call__(self, index: int) -> int:
        return self.base + index


@dataclass(frozen=True)
class _FailOn:
    """Raises every time for one index."""

    bad: int

    def __call__(self, index: int) -> int:
        if index == self.bad:
            raise ValueError(f"boom at {index}")
        return index * index


@dataclass(frozen=True)
class _FailOnce:
    """Raises on the first attempt for one index (marker on disk)."""

    marker_dir: str
    bad: int

    def __call__(self, index: int) -> int:
        if index == self.bad:
            marker = os.path.join(self.marker_dir, f"failed-{index}")
            if not os.path.exists(marker):
                with open(marker, "w"):
                    pass
                raise ValueError("first attempt fails")
        return index * index


@dataclass(frozen=True)
class _CrashOnce:
    """SIGKILLs its own worker on the first attempt for one index.

    Only meaningful on the supervised process backend — a serial run
    would kill the test process.
    """

    marker_dir: str
    bad: int

    def __call__(self, index: int) -> float:
        if index == self.bad:
            marker = os.path.join(self.marker_dir, f"crashed-{index}")
            if not os.path.exists(marker):
                with open(marker, "w"):
                    pass
                os.kill(os.getpid(), signal.SIGKILL)
        return _seeded_draw(index)


@dataclass(frozen=True)
class _CrashAlways:
    bad: int

    def __call__(self, index: int) -> int:
        if index == self.bad:
            os.kill(os.getpid(), signal.SIGKILL)
        return index * index


@dataclass(frozen=True)
class _Hang:
    bad: int

    def __call__(self, index: int) -> int:
        if index == self.bad:
            time.sleep(60)
        return index * index


@dataclass(frozen=True)
class _FailFirstAttempt:
    """Fails the first attempt of trial ``bad``; every trial returns its PID.

    ``bad`` must be one of the first two trials dispatched (0 or 1 on
    two workers), or the waiting trials would hold both workers.
    ``fault`` is ``raise``, ``kill`` (SIGKILL its own worker) or
    ``stall`` (go silent, for the heartbeat watchdog).  The failed
    attempt leaves its PID in ``failed-<bad>``.  Every other trial
    waits, beating, until the retry of ``bad`` has started, so the
    surviving worker is still busy when the failure is handled and the
    process-start count does not depend on timing.
    """

    marker_dir: str
    bad: int = 0
    fault: str = "raise"

    def _marker(self, name: str) -> str:
        return os.path.join(self.marker_dir, f"{name}-{self.bad}")

    def __call__(self, index: int) -> int:
        failed, retried = self._marker("failed"), self._marker("retried")
        if index == self.bad:
            if os.path.exists(failed):
                open(retried, "w").close()
                return os.getpid()
            with open(failed, "w") as handle:
                handle.write(str(os.getpid()))
            if self.fault == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            if self.fault == "stall":
                time.sleep(60)
            raise ValueError("first attempt fails")
        waited_until = time.monotonic() + 30
        while not os.path.exists(retried) and time.monotonic() < waited_until:
            heartbeat()
            time.sleep(0.02)
        return os.getpid()


@dataclass(frozen=True)
class _Sleep:
    seconds: float

    def __call__(self, index: int) -> int:
        time.sleep(self.seconds)
        return index


@pytest.fixture
def started_processes(monkeypatch):
    """Every process started while the test runs, counted like the
    layer benchmark counts them (``BaseProcess.start`` calls)."""
    started = []
    start = multiprocessing.process.BaseProcess.start

    def counted(process):
        started.append(process)
        return start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted)
    return started


def _assert_all_reaped(processes):
    assert processes
    assert [process.is_alive() for process in processes] == [False] * len(
        processes
    )
    assert all(process.exitcode is not None for process in processes)


# ---------------------------------------------------------------------------
# Satellite: worker exceptions carry the failing trial index
# ---------------------------------------------------------------------------

def test_serial_exception_carries_trial_index():
    with pytest.raises(TrialExecutionError) as excinfo:
        map_trials(5, _FailOn(bad=3))
    assert excinfo.value.trial == 3
    assert "ValueError" in excinfo.value.details
    assert "trial 3" in str(excinfo.value)


def test_process_exception_carries_trial_index():
    executor = TrialExecutor(workers=2)
    with pytest.raises(TrialExecutionError) as excinfo:
        executor.map_trials(5, _FailOn(bad=3))
    assert excinfo.value.trial == 3
    assert "ValueError" in excinfo.value.details


def test_trial_execution_error_pickles():
    error = TrialExecutionError(7, "ValueError: boom")
    clone = pickle.loads(pickle.dumps(error))
    assert clone.trial == 7
    assert clone.details == "ValueError: boom"
    assert str(clone) == str(error)


# ---------------------------------------------------------------------------
# FaultTolerance policy
# ---------------------------------------------------------------------------

def test_fault_tolerance_validation():
    with pytest.raises(ValueError):
        FaultTolerance(timeout=0)
    with pytest.raises(ValueError):
        FaultTolerance(retries=-1)
    with pytest.raises(ValueError):
        FaultTolerance(checkpoint_every=0)


def test_trial_error_to_json():
    error = TrialError(trial=4, attempts=2, error="ValueError: x",
                       traceback="tb",
                       history=({"attempt": 1, "kind": "exception"},))
    assert error.to_json() == {
        "trial": 4, "attempts": 2, "error": "ValueError: x",
        "traceback": "tb", "kind": "exception",
        "history": [{"attempt": 1, "kind": "exception"}],
    }


def test_fault_tolerant_matches_plain_map():
    plain = map_trials(6, _square)
    tolerant = map_trials(6, _square, fault_tolerance=FaultTolerance())
    assert tolerant == plain


# ---------------------------------------------------------------------------
# Serial fallback: retries and error records, no preemption
# ---------------------------------------------------------------------------

def test_serial_retry_recovers_transient_failure(tmp_path):
    task = _FailOnce(marker_dir=str(tmp_path), bad=2)
    results = map_trials(4, task, fault_tolerance=FaultTolerance(retries=1))
    assert results == [0, 1, 4, 9]


def test_serial_exhausted_retries_yield_error_record(tmp_path):
    results = map_trials(
        4, _FailOn(bad=2), fault_tolerance=FaultTolerance(retries=1)
    )
    assert results[0] == 0 and results[1] == 1 and results[3] == 9
    error = results[2]
    assert isinstance(error, TrialError)
    assert error.trial == 2
    assert error.attempts == 2
    assert "ValueError" in error.error
    assert "boom at 2" in error.traceback


# ---------------------------------------------------------------------------
# Supervised dispatch: crash isolation, same-seed retry, timeout
# ---------------------------------------------------------------------------

def test_supervised_retry_reproduces_crashed_trial(tmp_path):
    """Property: a same-seed retry computes what the lost worker would
    have — the final results match an uncrashed run exactly."""
    task = _CrashOnce(marker_dir=str(tmp_path), bad=1)
    executor = TrialExecutor(workers=2)
    results = executor.map_trials(
        4, task, fault_tolerance=FaultTolerance(retries=1)
    )
    assert results == [_seeded_draw(index) for index in range(4)]
    assert os.path.exists(os.path.join(str(tmp_path), "crashed-1"))


def test_supervised_crash_without_budget_yields_error():
    executor = TrialExecutor(workers=2)
    results = executor.map_trials(
        [0, 1, 2], _CrashAlways(bad=1),
        fault_tolerance=FaultTolerance(retries=0),
    )
    assert results[0] == 0 and results[2] == 4
    error = results[1]
    assert isinstance(error, TrialError)
    assert error.trial == 1
    assert "crashed" in error.error
    assert "-9" in error.error  # SIGKILL exit code


def test_supervised_timeout_kills_hung_trial():
    executor = TrialExecutor(workers=2)
    start = time.monotonic()
    results = executor.map_trials(
        [0, 1], _Hang(bad=1),
        fault_tolerance=FaultTolerance(timeout=1.0, retries=0),
    )
    assert time.monotonic() - start < 30  # nowhere near the 60 s sleep
    assert results[0] == 0
    error = results[1]
    assert isinstance(error, TrialError)
    assert "timeout" in error.error


def test_supervised_preserves_order():
    executor = TrialExecutor(workers=2)
    results = executor.map_trials(
        6, _square, fault_tolerance=FaultTolerance()
    )
    assert results == [index * index for index in range(6)]


# ---------------------------------------------------------------------------
# Checkpoint / resume
# ---------------------------------------------------------------------------

def test_checkpoint_resume_skips_completed_trials(tmp_path):
    path = str(tmp_path / "checkpoint.json")
    first = map_trials(
        4, _FailOn(bad=2),
        fault_tolerance=FaultTolerance(retries=0, checkpoint_path=path),
    )
    assert isinstance(first[2], TrialError)
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["version"] == Checkpoint.VERSION
    assert payload["payload_sha256"]  # integrity seal embedded
    assert sorted(payload["results"]) == ["0", "1", "3"]  # no error persisted

    # Resume with a task returning *different* values: completed trials
    # come from the checkpoint, only the failed one is recomputed.
    second = map_trials(
        4, _Offset(base=100),
        fault_tolerance=FaultTolerance(retries=0, checkpoint_path=path),
    )
    assert second == [0, 1, 102, 9]


def test_checkpoint_quarantines_unknown_version(tmp_path):
    path = tmp_path / "checkpoint.json"
    path.write_text('{"version": 99, "results": {}}')
    checkpoint = Checkpoint(str(path))
    assert len(checkpoint) == 0
    assert checkpoint.quarantined == str(path) + ".corrupt"
    assert "version" in checkpoint.quarantine_reason
    assert not path.exists()
    assert (tmp_path / "checkpoint.json.corrupt").exists()


def test_checkpoint_records_and_flushes_atomically(tmp_path):
    path = str(tmp_path / "checkpoint.json")
    checkpoint = Checkpoint(path)
    checkpoint.record(3, {"value": 1}, flush_every=1)
    reloaded = Checkpoint(path)
    assert 3 in reloaded
    assert reloaded.results[3] == {"value": 1}
    assert len(reloaded) == 1
    leftovers = [
        name for name in os.listdir(str(tmp_path))
        if name.startswith(".checkpoint-")
    ]
    assert leftovers == []  # temp file replaced, not left behind


def test_checkpoint_resume_is_deterministic_end_to_end(tmp_path):
    """Interrupted-and-resumed output equals the uninterrupted one."""
    uninterrupted = map_trials(
        5, _square, fault_tolerance=FaultTolerance()
    )
    path = str(tmp_path / "checkpoint.json")
    # Simulate an interrupted run: only trials 0-2 completed.
    partial = Checkpoint(path)
    for index in range(3):
        partial.record(index, _square(index))
    resumed = map_trials(
        5, _square,
        fault_tolerance=FaultTolerance(checkpoint_path=path),
    )
    assert resumed == uninterrupted


# ---------------------------------------------------------------------------
# Persistent workers: exact process starts, reuse and recycling
# ---------------------------------------------------------------------------

def test_clean_supervised_map_starts_one_process_per_worker(
    started_processes,
):
    results = TrialExecutor(workers=2).map_trials(
        16, _square, fault_tolerance=FaultTolerance(retries=1)
    )
    assert results == [index * index for index in range(16)]
    assert len(started_processes) == 2
    _assert_all_reaped(started_processes)


@pytest.mark.parametrize("fault", ["kill", "stall"])
def test_failed_attempt_recycles_exactly_one_worker(
    tmp_path, started_processes, fault
):
    """A SIGKILLed or watchdog-killed worker is replaced once: 2 + 1."""
    policy = FaultTolerance(
        retries=1,
        heartbeat_timeout=1.0 if fault == "stall" else None,
    )
    task = _FailFirstAttempt(marker_dir=str(tmp_path), fault=fault)
    results = TrialExecutor(workers=2).map_trials(
        16, task, fault_tolerance=policy
    )
    assert not any(isinstance(result, TrialError) for result in results)
    assert len(started_processes) == 3
    _assert_all_reaped(started_processes)


def test_retry_runs_in_a_fresh_process_and_successes_reuse_workers(tmp_path):
    task = _FailFirstAttempt(marker_dir=str(tmp_path))
    pids = TrialExecutor(workers=2).map_trials(
        16, task, fault_tolerance=FaultTolerance(retries=1)
    )
    with open(os.path.join(str(tmp_path), "failed-0")) as handle:
        failed_pid = int(handle.read())
    assert pids[0] != failed_pid  # the retry ran in a clean process
    assert failed_pid not in pids  # the failed worker ran nothing else
    assert len(set(pids)) == 2  # 16 successes shared the two live workers


def test_deadline_expiry_reaps_running_workers(started_processes):
    results = TrialExecutor(workers=2).map_trials(
        4, _Sleep(30.0), fault_tolerance=FaultTolerance(deadline=1.0)
    )
    assert [result.kind for result in results] == ["deadline"] * 4
    _assert_all_reaped(started_processes)


def test_process_crash_without_policy_raises_and_reaps(started_processes):
    with pytest.raises(TrialExecutionError) as excinfo:
        TrialExecutor(workers=2).map_trials(4, _CrashAlways(bad=2))
    assert excinfo.value.trial == 2
    assert "crashed" in excinfo.value.details
    _assert_all_reaped(started_processes)


@dataclass(frozen=True)
class _Unpicklable:
    def __call__(self, index: int):
        return lambda: index


def test_unpicklable_result_is_reported_not_a_crash():
    with pytest.raises(TrialExecutionError) as excinfo:
        TrialExecutor(workers=2).map_trials(2, _Unpicklable())
    assert "unpicklable result" in excinfo.value.details


@pytest.mark.parametrize("backend", ["python", "fast"])
def test_supervised_campaign_digest_matches_serial(tmp_path, backend):
    config = CampaignConfig(sessions=800, shard_size=50, seed=3)
    assert config.shard_count == 16
    serial = run_campaign(config, workers=1, backend=backend)
    supervised = run_campaign(
        config, workers=2, backend=backend,
        checkpoint_dir=str(tmp_path / "ck"),
    )
    assert supervised.digest() == serial.digest()


# ---------------------------------------------------------------------------
# Heartbeat channel: one per trial in a reused worker
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ChannelProbe:
    """Reports which trial the open heartbeat channel belongs to."""

    def __call__(self, index: int) -> int:
        heartbeat()  # within the throttle interval of the entry beat
        return executor_module._worker_heartbeat[1]


def test_worker_loop_opens_a_fresh_heartbeat_channel_per_trial(monkeypatch):
    monkeypatch.delenv(CAPTURE_ENV, raising=False)
    parent_end, worker_end = multiprocessing.Pipe()
    with parent_end, worker_end:
        for item in (3, 4, None):
            parent_end.send(item)
        executor_module._worker_loop(_ChannelProbe(), worker_end)
        messages = []
        while parent_end.poll():
            messages.append(parent_end.recv())
    heartbeat_kind = executor_module._HEARTBEAT
    # Each trial announces itself at entry even though the previous
    # trial beat moments ago (fresh throttle clock), under its own
    # index; no beat of trial 3 is credited to trial 4.
    assert messages == [
        (3, heartbeat_kind, None, ""),
        (3, True, 3, ""),
        (4, heartbeat_kind, None, ""),
        (4, True, 4, ""),
    ]
    assert executor_module._worker_heartbeat is None  # closed after trials
    heartbeat()  # a no-op again outside a trial
