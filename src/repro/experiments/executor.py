"""Parallel trial execution.

Every paper experiment replays ``run_trial`` over a range of trial
indices.  Each trial is a fully seeded, independent simulation, so the
sweep is embarrassingly parallel — but a live
:class:`~repro.experiments.harness.TrialResult` cannot cross a process
boundary.  :class:`TrialExecutor` therefore maps *picklable task
callables* over trial indices; tasks run the trial and extract a
picklable :class:`~repro.experiments.harness.TrialSummary` (or any
other plain-data result) worker-side.

The worker count picks the execution strategy:

* 1 worker — a plain in-process loop;
* ``workers > 1`` — ``workers`` persistent spawn-context worker
  processes per ``map_trials`` call, each fed one trial index at a time
  over its own duplex pipe and recycled after a failed attempt.  Spawn
  is used on every platform so workers never inherit forked simulator
  state, and because tasks must be picklable anyway.

Determinism: trials are seeded from their index alone and results are
collected by index and returned in input order, so aggregates are
bit-identical regardless of worker count or which worker ran
which trial.

Worker count resolution order: explicit ``workers=`` argument, then the
``REPRO_WORKERS`` environment variable, then 1 (serial).

Fault tolerance
---------------

``map_trials`` accepts an optional :class:`FaultTolerance` policy.  With
one active, a multi-worker map supervises its workers and guarantees:

* a worker exception is returned as a structured :class:`TrialError`
  carrying the trial index and traceback instead of poisoning the run;
* a crashed worker (``SIGKILL``, OOM, hard exit) is seen at once as an
  end-of-file on its pipe, and only that trial's attempt is affected;
* a hung trial is killed after ``timeout`` wall-clock seconds;
* each failed trial is retried up to ``retries`` times — trials are
  seeded from their index alone, so a retry deterministically
  reproduces what the lost worker would have computed;
* a worker is reused only after a trial succeeds: any failed attempt
  kills it and the next trial gets a fresh process, so every retry runs
  in a clean process and no process outlives ``map_trials``;
* completed results stream into a JSON checkpoint
  (``checkpoint_path``), and a re-run with the same checkpoint skips
  completed trials — a long sweep survives interruption of the whole
  run, with a final output identical to an uninterrupted one.

Even without a :class:`FaultTolerance` policy, worker exceptions are
wrapped as :class:`TrialExecutionError` so the failing trial index is
never lost.

Supervision extensions (campaign supervisor layer)
--------------------------------------------------

The policy also carries the knobs the campaign supervisor needs:

* **checkpoint integrity** — checkpoint files embed a payload SHA-256
  (and optionally the owning config's digest); a corrupted, truncated,
  foreign or unversioned file found on resume is *quarantined* to a
  ``<path>.corrupt`` sidecar and the run restarts those trials cleanly
  instead of crashing.  :meth:`Checkpoint.flush` fsyncs both the temp
  file and its directory before/after the atomic ``os.replace`` so a
  power loss cannot tear the file either.
* **deadline** — a wall-clock budget for the whole ``map_trials`` call;
  once exhausted, no new trials launch, running ones are killed, and
  every unfinished trial yields a :class:`TrialError` with
  ``kind="deadline"`` (never persisted, so a later resume recomputes
  them).
* **heartbeat watchdog** — tasks report progress via :func:`heartbeat`;
  with ``heartbeat_timeout`` set, a supervised worker that stays silent
  longer than that is declared stalled (``kind="stalled"``), killed and
  retried, even if its per-trial ``timeout`` has not expired.
* **deterministic retry backoff** — the wait before a same-seed retry
  is seeded from ``(backoff_seed, trial index, attempt)``, so
  fault-tolerant reruns pause identically; ``REPRO_BACKOFF=0`` (the
  test/CI default) disables waiting entirely.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import io
import itertools
import json
import multiprocessing
import os
import pickle
import sys
import tempfile
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as wait_connections
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    TypeVar,
    Union,
)

T = TypeVar("T")

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV = "REPRO_WORKERS"

#: While set, worker processes swallow their own stdout so that a
#: parent-side :func:`capture_stdout` capture stays byte-clean even
#: with ``--workers`` parallelism (experiment tables are rendered
#: parent-side; anything a worker prints is non-deterministic noise).
CAPTURE_ENV = "REPRO_CAPTURE_WORKER_STDOUT"

#: While set to a directory, :meth:`TrialExecutor.map_trials` calls
#: without an explicit policy checkpoint into it (see
#: :func:`auto_fault_tolerance`) — the hook the ``repro verify``
#: determinism matrix uses to kill-and-resume *any* experiment.
CHECKPOINT_DIR_ENV = "REPRO_CHECKPOINT_DIR"

#: Overrides the retry-backoff base for every policy when set: a float
#: number of seconds, ``0`` disabling backoff waits entirely (tests/CI).
BACKOFF_ENV = "REPRO_BACKOFF"

#: Seconds a worker is given to exit (after the ``None`` sentinel or
#: SIGTERM) before the next escalation, and a dead worker to be reaped.
_EXIT_GRACE = 1.0

#: Supervision loop poll interval, seconds.
_POLL_INTERVAL = 0.05

#: Minimum spacing between heartbeat messages a worker emits.
_HEARTBEAT_INTERVAL = 0.2

#: Sentinel in a result tuple's ``ok`` slot marking a heartbeat.
_HEARTBEAT = "heartbeat"


@contextlib.contextmanager
def capture_stdout() -> Iterator[io.StringIO]:
    """Capture experiment stdout for golden-master comparison.

    Redirects this process's ``sys.stdout`` into the yielded buffer and
    sets :data:`CAPTURE_ENV` so spawned workers (which write to the
    real file descriptor, out of reach of a parent-side redirect)
    silence their own stdout instead of interleaving into the capture.
    """
    buffer = io.StringIO()
    previous = os.environ.get(CAPTURE_ENV)
    os.environ[CAPTURE_ENV] = "1"
    try:
        with contextlib.redirect_stdout(buffer):
            yield buffer
    finally:
        if previous is None:
            os.environ.pop(CAPTURE_ENV, None)
        else:
            os.environ[CAPTURE_ENV] = previous


def _silence_worker_stdout() -> None:
    """Worker-side half of :func:`capture_stdout` (spawn inherits env)."""
    if os.environ.get(CAPTURE_ENV):
        sys.stdout = io.StringIO()


#: Worker-side heartbeat channel of the running trial, set by
#: :func:`_worker_loop`: ``[connection, trial_index, last_beat_monotonic]``
#: while a trial runs in a worker process, ``None`` otherwise.
_worker_heartbeat: Optional[List[Any]] = None


def heartbeat() -> None:
    """Report liveness from inside a supervised trial task.

    A no-op outside supervised workers, so tasks may call it
    unconditionally (the campaign shard loop beats once per session).
    Beats are throttled to one per :data:`_HEARTBEAT_INTERVAL` so a
    tight loop cannot flood the worker's pipe.  The parent's hung-shard
    watchdog (``FaultTolerance.heartbeat_timeout``) kills and retries a
    worker whose beats stop.
    """
    channel = _worker_heartbeat
    if channel is None:
        return
    connection, index, last = channel
    now = time.monotonic()
    if now - last < _HEARTBEAT_INTERVAL:
        return
    channel[2] = now
    try:
        connection.send((index, _HEARTBEAT, None, ""))
    except OSError:  # parent gone mid-shutdown — liveness only
        pass


def retry_backoff(base: float, seed_key: str, index: int, attempt: int) -> float:
    """Deterministic exponential backoff before a same-seed retry.

    The jitter is derived from ``sha256(seed_key | index | attempt)``
    rather than wall-clock randomness, so a fault-tolerant rerun of the
    same configuration pauses for exactly the same spans — timing noise
    never sneaks into otherwise bit-identical executions.  The
    :data:`BACKOFF_ENV` environment variable overrides ``base`` when
    set (``REPRO_BACKOFF=0`` disables waiting in tests and CI).
    """
    env = os.environ.get(BACKOFF_ENV, "").strip()
    if env:
        try:
            base = float(env)
        except ValueError:
            raise ValueError(
                f"{BACKOFF_ENV} must be a float, got {env!r}"
            ) from None
    if base <= 0:
        return 0.0
    token = hashlib.sha256(
        f"{seed_key}|{index}|{attempt}".encode("utf-8")
    ).digest()
    jitter = int.from_bytes(token[:8], "big") / 2**64
    return base * (2 ** max(0, attempt - 1)) * (0.5 + jitter)


#: Sequence number for :func:`auto_fault_tolerance` checkpoint files,
#: distinguishing repeated ``map_trials`` calls with identical tasks.
#: Reset via :func:`reset_auto_checkpoint_calls` before a run so an
#: interrupted and a resumed run derive the same file names.
_auto_checkpoint_calls = itertools.count()


def reset_auto_checkpoint_calls() -> None:
    """Restart auto-checkpoint file numbering (before each tracked run)."""
    global _auto_checkpoint_calls
    _auto_checkpoint_calls = itertools.count()


def auto_fault_tolerance(
    task: Callable[[int], Any], indices: List[int]
) -> Optional["FaultTolerance"]:
    """The :data:`CHECKPOINT_DIR_ENV`-derived policy, if the env is set.

    The checkpoint file name combines a per-process call sequence
    number with a digest of the task's ``repr`` and the index list, so
    every ``map_trials`` call in a deterministic experiment maps to a
    stable file — which is exactly what lets a killed run resume: the
    re-run replays the same call sequence and finds its own files.
    Tasks are frozen dataclasses or partials of module functions, whose
    reprs are deterministic; an address-bearing repr would only cost a
    cache miss (the trials re-run), never a wrong resume.
    """
    directory = os.environ.get(CHECKPOINT_DIR_ENV, "").strip()
    if not directory:
        return None
    call = next(_auto_checkpoint_calls)
    digest = hashlib.sha256(
        f"{task!r}|{indices!r}".encode()
    ).hexdigest()[:12]
    path = os.path.join(directory, f"call{call:03d}-{digest}.json")
    return FaultTolerance(retries=0, checkpoint_path=path)


def _encode_checkpoint_result(result: Any) -> Any:
    """JSON-encode a result, wrapping non-JSON payloads via pickle.

    Experiment tasks return either plain-JSON dicts (robustness study)
    or picklable dataclasses (``TrialSummary``); the wrapper lets one
    checkpoint format carry both.
    """
    try:
        json.dumps(result)
        return result
    except (TypeError, ValueError):
        payload = base64.b64encode(pickle.dumps(result)).decode("ascii")
        return {"__pickled__": payload}


def _decode_checkpoint_result(value: Any) -> Any:
    if isinstance(value, dict) and set(value) == {"__pickled__"}:
        return pickle.loads(base64.b64decode(value["__pickled__"]))
    return value


class TrialExecutionError(RuntimeError):
    """A worker-side exception, wrapped with the failing trial index.

    Raised in the parent process when a trial task fails and no
    :class:`FaultTolerance` policy asked for structured error records.
    ``trial`` identifies the failing trial; ``details`` carries the
    worker-side ``repr`` (and traceback, when available) of the cause.
    """

    def __init__(self, trial: int, details: str) -> None:
        super().__init__(f"trial {trial} failed: {details}")
        self.trial = trial
        self.details = details

    def __reduce__(self):
        # Exceptions cross the process boundary pickled; rebuild from
        # the two real arguments rather than the formatted message.
        return (TrialExecutionError, (self.trial, self.details))


#: The per-trial failure taxonomy carried by :class:`TrialError.kind`.
ERROR_KINDS = ("exception", "crash", "timeout", "stalled", "deadline")


@dataclass(frozen=True)
class TrialError:
    """Structured record of one trial that exhausted its retries.

    ``kind`` classifies the terminal failure (:data:`ERROR_KINDS`);
    ``history`` is the attempt-by-attempt record — one dict per failed
    attempt with ``attempt``, ``kind``, ``error`` and ``elapsed_s`` —
    which the campaign failure manifest surfaces verbatim.
    """

    trial: int
    attempts: int
    error: str
    traceback: str = ""
    kind: str = "exception"
    history: tuple = ()

    def to_json(self) -> Dict[str, Any]:
        return {
            "trial": self.trial,
            "attempts": self.attempts,
            "error": self.error,
            "traceback": self.traceback,
            "kind": self.kind,
            "history": [dict(entry) for entry in self.history],
        }


@dataclass(frozen=True)
class FaultTolerance:
    """Fault-tolerance policy for :meth:`TrialExecutor.map_trials`.

    Attributes:
        timeout: per-trial wall-clock budget in seconds, counted
            from the trial's dispatch to a worker (a fresh worker's
            start-up included); a worker running longer is killed and
            the trial retried (``workers > 1`` only — an in-process
            run cannot preempt itself).
        retries: extra attempts per trial after the first failure.
        checkpoint_path: JSON file streaming completed results; on the
            next run, trials already recorded there are not re-run.
            Results must be JSON-serializable (plain dicts/lists/
            scalars) when checkpointing is enabled.
        checkpoint_every: flush the checkpoint after this many newly
            completed trials (1 = after every trial).
        checkpoint_digest: config digest bound into the checkpoint
            file; a file carrying a *different* digest is quarantined
            on resume instead of silently poisoning the run.
        deadline: wall-clock budget in seconds for the whole
            ``map_trials`` call; unfinished trials become
            ``kind="deadline"`` :class:`TrialError` records.
        heartbeat_timeout: a supervised worker silent (no
            :func:`heartbeat`) for longer than this is declared stalled,
            killed and retried (``workers > 1`` only).
        backoff_base: base seconds of the deterministic exponential
            backoff before each same-seed retry (0 disables; the
            :data:`BACKOFF_ENV` environment variable overrides).
        backoff_seed: seed key mixed into the backoff jitter (the
            campaign passes its config digest).
    """

    timeout: Optional[float] = None
    retries: int = 1
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 1
    checkpoint_digest: Optional[str] = None
    deadline: Optional[float] = None
    heartbeat_timeout: Optional[float] = None
    backoff_base: float = 0.0
    backoff_seed: str = ""

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.deadline is not None and self.deadline < 0:
            raise ValueError("deadline must be >= 0")
        if self.heartbeat_timeout is not None and self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")


class _IndexedTask:
    """Wraps the user task so worker failures carry the trial index."""

    def __init__(self, task: Callable[[int], T]) -> None:
        self.task = task

    def __call__(self, index: int) -> T:
        try:
            return self.task(index)
        except Exception as error:
            raise TrialExecutionError(
                index, f"{type(error).__name__}: {error}"
            ) from error


def _worker_loop(task, connection):  # pragma: no cover - subprocess
    """Spawn target: run trials received over ``connection`` until ``None``.

    Each received index runs ``task(index)`` and sends ``(index, ok,
    payload, tb)`` back on the same pipe.  The heartbeat channel is
    opened at each trial's entry with a fresh throttle clock, announced
    once, and closed after the trial, so the parent's watchdog clock
    starts at task entry and no beat of one trial is credited to the
    next.  Failures are reported rather than raised (this is the
    boundary that must keep reporting); the parent then kills the
    worker, so an interrupt or exit inside the task is not lost.
    """
    global _worker_heartbeat
    _silence_worker_stdout()
    while True:
        index = connection.recv()
        if index is None:
            return
        _worker_heartbeat = [connection, index, 0.0]
        heartbeat()
        try:
            message = (index, True, task(index), "")
        except BaseException as error:
            message = (
                index, False, f"{type(error).__name__}: {error}",
                traceback.format_exc(),
            )
        finally:
            _worker_heartbeat = None
        try:
            connection.send(message)
        except (pickle.PicklingError, TypeError, AttributeError) as error:
            # Pickling fails before any byte is written, so the pipe is
            # still clean for the error report.
            connection.send((
                index, False,
                f"unpicklable result: {type(error).__name__}: {error}",
                traceback.format_exc(),
            ))


#: Chaos/test hook: when set, called at the top of every checkpoint
#: write — raising ``OSError`` there simulates ENOSPC/EIO on the
#: checkpoint writer (see :mod:`repro.chaos.inject`).
_flush_fault_hook: Optional[Callable[[], None]] = None


def set_flush_fault_hook(hook: Optional[Callable[[], None]]) -> None:
    """Install (or clear) the checkpoint-writer fault-injection hook."""
    global _flush_fault_hook
    _flush_fault_hook = hook


class Checkpoint:
    """A JSON file of completed trial results, written atomically.

    Format (version 2)::

        {"version": 2,
         "config_digest": "<owning config digest or ''>",
         "results": {"<trial index>": <result>, ...},
         "payload_sha256": "<sha256 of the canonical rest>"}

    Only successes are persisted — errored trials are retried from
    scratch on resume.

    Integrity: the embedded SHA-256 covers the canonical JSON of every
    other field.  A file that fails to parse, carries an unknown
    version, fails the digest check, or belongs to a *different* config
    (``config_digest`` mismatch) is **quarantined** — atomically renamed
    to ``<path>.corrupt`` — and the checkpoint starts empty, so a
    corrupted or foreign file costs a recompute, never a crash and
    never a silently wrong merge.

    Durability: :meth:`flush` writes to a temp file, fsyncs it, renames
    it over ``path``, then fsyncs the directory — the pair of fsyncs is
    what makes the rename actually atomic across power loss.

    Degradation: a flush that fails with ``OSError`` (disk full, I/O
    error) disables further writes (``disabled``/``write_error``) with
    a one-line stderr warning instead of killing the run; the
    computation continues, merely losing resumability.
    """

    VERSION = 2

    def __init__(
        self, path: str, config_digest: Optional[str] = None
    ) -> None:
        self.path = path
        self.config_digest = config_digest
        self.results: Dict[int, Any] = {}
        self.quarantined: Optional[str] = None
        self.quarantine_reason: Optional[str] = None
        self.disabled = False
        self.write_error: Optional[str] = None
        self._dirty = 0
        if os.path.exists(path):
            self._load(path)
        #: Results read back from disk — a supervisor's resumed count.
        self.loaded = len(self.results)

    # -- loading & quarantine -------------------------------------------

    def _quarantine(self, reason: str) -> None:
        corrupt = self.path + ".corrupt"
        try:
            os.replace(self.path, corrupt)
        except OSError as error:  # can't even move it aside: start fresh
            corrupt = f"{self.path} (unmovable: {error})"
        self.quarantined = corrupt
        self.quarantine_reason = reason
        self.results = {}
        print(
            f"repro: warning: quarantined checkpoint {self.path} -> "
            f"{corrupt} ({reason}); affected trials restart cleanly",
            file=sys.stderr,
        )

    def _load(self, path: str) -> None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as error:
            self._quarantine(f"unreadable: {type(error).__name__}: {error}")
            return
        if not isinstance(payload, dict):
            self._quarantine("not a JSON object")
            return
        if payload.get("version") != self.VERSION:
            self._quarantine(
                f"unsupported version {payload.get('version')!r}"
            )
            return
        recorded_sha = payload.get("payload_sha256")
        body = {k: v for k, v in payload.items() if k != "payload_sha256"}
        actual_sha = self._payload_sha(body)
        if recorded_sha != actual_sha:
            self._quarantine(
                f"payload sha256 mismatch (recorded "
                f"{str(recorded_sha)[:12]}, actual {actual_sha[:12]})"
            )
            return
        file_digest = payload.get("config_digest") or None
        if self.config_digest is None:
            self.config_digest = file_digest
        elif file_digest is not None and file_digest != self.config_digest:
            self._quarantine(
                f"foreign config digest {file_digest!r} "
                f"(expected {self.config_digest!r})"
            )
            return
        self.results = {
            int(key): _decode_checkpoint_result(value)
            for key, value in payload.get("results", {}).items()
        }

    @staticmethod
    def _payload_sha(body: Dict[str, Any]) -> str:
        canonical = json.dumps(body, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def __len__(self) -> int:
        return len(self.results)

    def __contains__(self, index: int) -> bool:
        return index in self.results

    def record(self, index: int, result: Any, flush_every: int = 1) -> None:
        self.results[index] = result
        self._dirty += 1
        if self._dirty >= flush_every:
            self.flush()

    def flush(self) -> None:
        """Write the sealed payload atomically; degrade on I/O failure."""
        if self.disabled:
            return
        try:
            self._write()
        except OSError as error:
            self.disabled = True
            self.write_error = f"{type(error).__name__}: {error}"
            print(
                f"repro: warning: checkpoint write to {self.path} failed "
                f"({self.write_error}); continuing without checkpointing",
                file=sys.stderr,
            )
        else:
            self._dirty = 0

    def _write(self) -> None:
        if _flush_fault_hook is not None:
            _flush_fault_hook()
        body = {
            "version": self.VERSION,
            "config_digest": self.config_digest or "",
            "results": {
                str(index): _encode_checkpoint_result(value)
                for index, value in sorted(self.results.items())
            },
        }
        payload = dict(body)
        payload["payload_sha256"] = self._payload_sha(body)
        directory = os.path.dirname(os.path.abspath(self.path))
        fd, temp_path = tempfile.mkstemp(
            dir=directory, prefix=".checkpoint-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, self.path)
            self._fsync_directory(directory)
        except BaseException:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise

    @staticmethod
    def _fsync_directory(directory: str) -> None:
        """Persist the rename itself (no-op where dirs can't be opened)."""
        try:
            dir_fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - non-POSIX directory open
            return
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    @classmethod
    def truncate(cls, path: str, keep: Optional[int] = None) -> int:
        """Drop the tail of a checkpoint's results and re-seal the file.

        Simulates a kill between flushes (every flush is atomic, so a
        real kill always leaves some valid earlier file).  ``keep`` is
        how many results survive, default half.  Returns the kept
        count; a missing or empty file is left alone.
        """
        if not os.path.exists(path):
            return 0
        checkpoint = cls(path)
        keys = sorted(checkpoint.results)
        if keep is None:
            keep = len(keys) // 2
        checkpoint.results = {
            key: checkpoint.results[key] for key in keys[:keep]
        }
        checkpoint.flush()
        return len(checkpoint.results)


#: The policy of a policy-free multi-worker map: one attempt, no
#: checkpoint; the first failure raises :class:`TrialExecutionError`.
_FAIL_FAST = FaultTolerance(retries=0)


class _Worker:
    """Parent-side handle of one persistent worker process."""

    def __init__(self, process, connection) -> None:
        self.process = process
        self.connection = connection
        #: The trial it runs (the last one it ran, once idle).
        self.index: Optional[int] = None
        self.started = 0.0
        self.last_beat = 0.0

    def stop(self) -> None:
        """Terminate (escalating to kill), reap, and close the pipe."""
        process = self.process
        for signal_process in (process.terminate, process.kill):
            if not process.is_alive():
                break
            signal_process()
            process.join(timeout=_EXIT_GRACE)
        self.connection.close()


def resolve_workers(workers: Optional[int] = None) -> int:
    """The effective worker count: argument, else env, else 1.

    Raises:
        ValueError: on a non-positive worker count.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if raw:
            try:
                workers = int(raw)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV} must be an integer, got {raw!r}"
                ) from None
        else:
            workers = 1
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


class TrialExecutor:
    """Maps picklable tasks over trial indices, serially or in workers.

    Attributes:
        workers: resolved worker count; more than one runs trials in
            supervised worker processes, one runs them in-process.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = resolve_workers(workers)
        #: The Checkpoint of the most recent fault-tolerant map (None
        #: otherwise) — supervisors read resume, quarantine and
        #: write-error state off it.
        self.last_checkpoint: Optional[Checkpoint] = None

    def map_trials(
        self,
        trials: Union[int, Iterable[int]],
        task: Callable[[int], T],
        fault_tolerance: Optional[FaultTolerance] = None,
    ) -> List[Union[T, TrialError]]:
        """Run ``task(index)`` for every trial index, in index order.

        Args:
            trials: a trial count (mapped over ``range(trials)``) or an
                explicit iterable of indices.
            task: a picklable callable — a module-level function,
                ``functools.partial`` of one, or an instance of a
                module-level class defining ``__call__``.  Its return
                value must be picklable when ``workers > 1``.
            fault_tolerance: optional policy adding per-trial timeout,
                retry, crash isolation and checkpoint/resume.  With a
                policy active, trials that exhaust their retries yield
                :class:`TrialError` records in the result list instead
                of raising; without one, the first failing trial is
                raised as :class:`TrialExecutionError` naming it.

        Returns:
            The task results, ordered like the input indices regardless
            of worker count.
        """
        indices = (
            list(range(trials)) if isinstance(trials, int) else list(trials)
        )
        if fault_tolerance is None:
            fault_tolerance = auto_fault_tolerance(task, indices)
        if fault_tolerance is not None:
            return self._map_fault_tolerant(indices, task, fault_tolerance)
        workers = min(self.workers, len(indices))
        if workers <= 1:
            wrapped = _IndexedTask(task)
            return [wrapped(index) for index in indices]
        results: Dict[int, Any] = {}
        self._run_supervised(
            indices, task, _FAIL_FAST, results, None, workers,
            time.monotonic(), fail_fast=True,
        )
        return [results[index] for index in indices]

    # -- Fault-tolerant dispatch ------------------------------------------

    def _map_fault_tolerant(
        self,
        indices: List[int],
        task: Callable[[int], T],
        policy: FaultTolerance,
    ) -> List[Union[T, TrialError]]:
        started = time.monotonic()
        checkpoint = (
            Checkpoint(
                policy.checkpoint_path,
                config_digest=policy.checkpoint_digest,
            )
            if policy.checkpoint_path else None
        )
        self.last_checkpoint = checkpoint
        results: Dict[int, Any] = {}
        if checkpoint is not None:
            results.update(
                (index, checkpoint.results[index])
                for index in indices
                if index in checkpoint
            )
        pending = [index for index in indices if index not in results]
        workers = min(self.workers, len(pending)) if pending else 0
        if pending:
            if workers <= 1:
                self._run_serial_tolerant(
                    pending, task, policy, results, checkpoint, started
                )
            else:
                self._run_supervised(
                    pending, task, policy, results, checkpoint, workers,
                    started,
                )
        if checkpoint is not None:
            checkpoint.flush()
        return [results[index] for index in indices]

    def _deadline_error(self, index: int, attempts: int,
                        history: tuple = ()) -> TrialError:
        return TrialError(
            trial=index,
            attempts=attempts,
            error="deadline: campaign wall-clock budget exhausted",
            kind="deadline",
            history=history,
        )

    def _run_serial_tolerant(
        self, pending, task, policy, results, checkpoint, started
    ) -> None:
        """In-process fallback: retries and checkpointing, no preemption.

        ``timeout`` and ``heartbeat_timeout`` cannot preempt a trial
        in-process; ``deadline`` is honoured between trials and
        between retries.
        """
        deadline_at = (
            started + policy.deadline if policy.deadline is not None else None
        )
        for position, index in enumerate(pending):
            if deadline_at is not None and time.monotonic() >= deadline_at:
                for skipped in pending[position:]:
                    self._finish_trial(
                        skipped, self._deadline_error(skipped, 0),
                        results, checkpoint, policy,
                    )
                return
            attempts = 0
            history: List[Dict[str, Any]] = []
            trial_started = time.monotonic()
            while True:
                attempts += 1
                try:
                    outcome = task(index)
                except Exception as error:
                    history.append({
                        "attempt": attempts,
                        "kind": "exception",
                        "error": f"{type(error).__name__}: {error}",
                        "elapsed_s": round(
                            time.monotonic() - trial_started, 3
                        ),
                    })
                    if attempts <= policy.retries:
                        delay = retry_backoff(
                            policy.backoff_base, policy.backoff_seed,
                            index, attempts,
                        )
                        if delay > 0:
                            time.sleep(delay)
                        if (
                            deadline_at is not None
                            and time.monotonic() >= deadline_at
                        ):
                            outcome = self._deadline_error(
                                index, attempts, tuple(history)
                            )
                            break
                        continue
                    outcome = TrialError(
                        trial=index,
                        attempts=attempts,
                        error=f"{type(error).__name__}: {error}",
                        traceback=traceback.format_exc(),
                        kind="exception",
                        history=tuple(history),
                    )
                break
            self._finish_trial(index, outcome, results, checkpoint, policy)

    def _run_supervised(
        self, pending, task, policy, results, checkpoint, workers, started,
        fail_fast=False,
    ) -> None:
        """Supervise ``workers`` persistent spawn processes over ``pending``.

        Each worker runs one trial at a time, fed over its own duplex
        pipe; the parent waits on the busy pipes, so a result, a
        heartbeat or a crash (end-of-file) is seen as soon as it
        happens.  A worker is reused only after a success: an
        exception, crash, timeout, stall or deadline kills it, and the
        next trial starts a fresh process — so a ``SIGKILL`` mid-trial,
        an OOM kill or an infinite loop costs one attempt of one trial,
        never the sweep, and every same-seed retry runs in a clean
        process.  With ``heartbeat_timeout`` set, a silent-but-alive
        worker (a stalled shard) is killed and retried like a hung one.
        ``deadline`` bounds the whole call: on expiry every unfinished
        trial is recorded as ``kind="deadline"`` and the loop stops.
        With ``fail_fast`` the first failed attempt raises
        :class:`TrialExecutionError` instead.  No worker outlives the
        call.
        """
        context = multiprocessing.get_context("spawn")
        todo = deque(pending)
        idle: List[_Worker] = []
        busy: Dict[Any, _Worker] = {}  # keyed by the parent's pipe end
        attempts: Dict[int, int] = {}
        history: Dict[int, List[Dict[str, Any]]] = {}
        ready_at: Dict[int, float] = {}
        deadline_at = (
            started + policy.deadline if policy.deadline is not None else None
        )

        def launch(index: int) -> None:
            if idle:
                worker = idle.pop()
            else:
                parent_end, child_end = context.Pipe()
                process = context.Process(
                    target=_worker_loop, args=(task, child_end), daemon=True,
                )
                process.start()
                child_end.close()
                worker = _Worker(process, parent_end)
            attempts[index] = attempts.get(index, 0) + 1
            worker.index = index
            worker.started = worker.last_beat = time.monotonic()
            busy[worker.connection] = worker
            try:
                worker.connection.send(index)
            except OSError:  # the worker died while idle
                crashed(worker)

        def succeed(worker: _Worker, outcome: Any) -> None:
            del busy[worker.connection]
            idle.append(worker)
            self._finish_trial(
                worker.index, outcome, results, checkpoint, policy
            )

        def fail(
            worker: _Worker, error: str, tb: str = "", kind: str = "exception"
        ) -> None:
            del busy[worker.connection]
            worker.stop()
            index = worker.index
            history.setdefault(index, []).append({
                "attempt": attempts[index],
                "kind": kind,
                "error": error,
                "elapsed_s": round(time.monotonic() - worker.started, 3),
            })
            if fail_fast:
                raise TrialExecutionError(index, error)
            if attempts[index] <= policy.retries:
                delay = retry_backoff(
                    policy.backoff_base, policy.backoff_seed,
                    index, attempts[index],
                )
                ready_at[index] = time.monotonic() + delay
                todo.appendleft(index)
            else:
                self._finish_trial(
                    index,
                    TrialError(
                        trial=index,
                        attempts=attempts[index],
                        error=error,
                        traceback=tb,
                        kind=kind,
                        history=tuple(history[index]),
                    ),
                    results, checkpoint, policy,
                )

        def crashed(worker: _Worker) -> None:
            worker.process.join(timeout=_EXIT_GRACE)
            fail(
                worker,
                f"worker crashed with exit code {worker.process.exitcode}",
                kind="crash",
            )

        def expire_deadline() -> None:
            """Kill everything in flight; record all unfinished trials."""
            unfinished = [worker.index for worker in busy.values()]
            for worker in busy.values():
                worker.stop()
            busy.clear()
            for index in unfinished + list(todo):
                self._finish_trial(
                    index,
                    self._deadline_error(
                        index, attempts.get(index, 0),
                        tuple(history.get(index, ())),
                    ),
                    results, checkpoint, policy,
                )
            todo.clear()

        try:
            while todo or busy:
                if (
                    deadline_at is not None
                    and time.monotonic() >= deadline_at
                ):
                    expire_deadline()
                    break
                # The head of the queue may be backing off; trials
                # behind it wait too (retries go to the front so a
                # recovering shard is not starved by fresh work).
                while (
                    todo and len(busy) < workers
                    and ready_at.get(todo[0], 0.0) <= time.monotonic()
                ):
                    launch(todo.popleft())
                for connection in wait_connections(
                    list(busy), timeout=_POLL_INTERVAL
                ):
                    worker = busy[connection]
                    try:
                        _index, ok, payload, tb = connection.recv()
                    except (EOFError, OSError):
                        crashed(worker)
                        continue
                    if ok == _HEARTBEAT:
                        worker.last_beat = time.monotonic()
                    elif ok:
                        succeed(worker, payload)
                    else:
                        fail(worker, payload, tb)
                now = time.monotonic()
                for worker in list(busy.values()):
                    if (
                        policy.timeout is not None
                        and now - worker.started > policy.timeout
                    ):
                        fail(
                            worker,
                            f"timeout: trial exceeded {policy.timeout:.1f}s",
                            kind="timeout",
                        )
                    elif (
                        policy.heartbeat_timeout is not None
                        and now - worker.last_beat > policy.heartbeat_timeout
                    ):
                        fail(
                            worker,
                            "stalled: no heartbeat for "
                            f"{policy.heartbeat_timeout:.1f}s",
                            kind="stalled",
                        )
        finally:
            for worker in busy.values():
                worker.stop()
            for worker in idle:
                try:
                    worker.connection.send(None)
                except OSError:
                    pass
            for worker in idle:
                worker.process.join(timeout=_EXIT_GRACE)
                worker.stop()

    def _finish_trial(self, index, outcome, results, checkpoint, policy):
        results[index] = outcome
        if checkpoint is not None and not isinstance(outcome, TrialError):
            checkpoint.record(
                index, outcome, flush_every=policy.checkpoint_every
            )

    def __repr__(self) -> str:
        return f"TrialExecutor(workers={self.workers})"


def map_trials(
    trials: Union[int, Iterable[int]],
    task: Callable[[int], T],
    workers: Optional[int] = None,
    fault_tolerance: Optional[FaultTolerance] = None,
) -> List[Union[T, TrialError]]:
    """One-shot convenience wrapper over :class:`TrialExecutor`."""
    return TrialExecutor(workers=workers).map_trials(
        trials, task, fault_tolerance=fault_tolerance
    )
