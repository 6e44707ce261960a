"""The sharded-job runner and its supervision artifacts.

:func:`run_sharded` runs every shard of a :class:`ShardPlan` config on
the trial executor for both job kinds, ``repro campaign``
(:mod:`repro.campaign.engine`) and ``repro infer``
(:mod:`repro.infer.campaign`); each engine only builds its shard task
and merges the payloads the runner returns.

A degraded job must be *accountable*: which shards completed, which
failed and why, what was quarantined, and exactly which sessions the
partial result covers.  Two interfaces carry that accounting:

* the **failure manifest** — a machine-readable JSON document
  (:data:`MANIFEST_SCHEMA`) written by ``run_campaign(...,
  failure_manifest=PATH)`` / ``repro campaign --failure-manifest PATH``
  with per-shard attempt history, tracebacks, error taxonomy, session
  coverage and quarantined-checkpoint records;
* the **shard error table** — the concise per-shard stderr rendering
  the CLI prints instead of a raw traceback when a job fails.

The manifest deliberately allows wall-clock fields (``elapsed_s``,
attempt timings): it is a diagnostic artifact, never an input to the
bit-identity machinery, and nothing in the golden/verify layers hashes
it.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Dict, List, Optional, Sequence

from repro.experiments.executor import (
    ERROR_KINDS,
    FaultTolerance,
    TrialError,
    TrialExecutor,
)
from repro.experiments.report import format_table

#: Default base seconds of the deterministic retry backoff between
#: same-seed shard retries (``REPRO_BACKOFF`` overrides; 0 disables).
DEFAULT_BACKOFF_BASE = 0.05


@dataclass(frozen=True)
class ShardPlan:
    """How a job's sessions split into shards, and the job's identity.

    Subclasses redeclare the three fields with their own defaults (a
    redeclared field keeps its place, first in the ``repr``) and add
    their parameters after them.  Configs hold only ints, floats,
    strings and tuples, whose reprs are deterministic across processes
    and runs, so :meth:`digest` is a stable identity.
    """

    #: Checkpoint file-name prefix of the job kind (``campaign``/``infer``).
    kind: ClassVar[str]

    sessions: int
    shard_size: int
    seed: int

    def __post_init__(self) -> None:
        if self.sessions < 1:
            raise ValueError("sessions must be >= 1")
        if self.shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")

    @property
    def shard_count(self) -> int:
        return -(-self.sessions // self.shard_size)

    def shard_range(self, shard: int) -> range:
        """Session indices of one shard."""
        start = shard * self.shard_size
        return range(start, min(start + self.shard_size, self.sessions))

    def digest(self) -> str:
        """Short config identity: seals and names the checkpoint file."""
        return hashlib.sha256(repr(self).encode("utf-8")).hexdigest()[:12]


def checkpoint_path(config: ShardPlan, checkpoint_dir: str) -> str:
    """The job's checkpoint file: a re-run resumes its own file only."""
    return os.path.join(
        checkpoint_dir, f"{config.kind}-{config.digest()}.json"
    )


class CampaignError(RuntimeError):
    """A shard exhausted its retries; the merged total would be wrong.

    Raised only when ``allow_partial`` is off.  ``errors`` carries the
    structured per-shard records (kind, attempts, history) and
    ``manifest_path`` names the failure manifest, when one was written,
    so callers can point operators at the full accounting.
    """

    def __init__(
        self,
        errors: List[TrialError],
        manifest_path: Optional[str] = None,
    ) -> None:
        shards = ", ".join(str(error.trial) for error in errors)
        message = f"{len(errors)} shard(s) failed after retries: {shards}"
        if manifest_path:
            message += f" (failure manifest: {manifest_path})"
        super().__init__(message)
        self.errors = errors
        self.manifest_path = manifest_path


@dataclass
class ShardRun:
    """The completed shard payloads of one run plus its accounting.

    ``payloads`` is in shard-index order whichever worker finished
    first, so a left fold over it is the canonical merge order.
    """

    payloads: List[Any]
    errors: List[TrialError]
    workers: int
    resumed_shards: int
    #: Checkpoint files quarantined on resume (``.corrupt`` sidecars).
    quarantined: List[str]
    manifest_path: Optional[str] = None


def run_sharded(
    config: ShardPlan,
    task: Callable[[int], Any],
    workers: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    retries: int = 1,
    allow_partial: bool = False,
    deadline: Optional[float] = None,
    heartbeat_timeout: Optional[float] = None,
    failure_manifest: Optional[str] = None,
) -> ShardRun:
    """Run (or resume) every shard of ``config`` through ``task``.

    A :class:`FaultTolerance` policy — same-seed retries, a checkpoint
    sealed with the config digest, the deadline and the heartbeat
    watchdog — is built only when one of ``checkpoint_dir``,
    ``allow_partial``, ``deadline`` or ``heartbeat_timeout`` asks for
    supervision; otherwise the first failing shard raises
    :class:`~repro.experiments.executor.TrialExecutionError`.  See
    :func:`repro.campaign.engine.run_campaign` for the arguments.

    Raises:
        CampaignError: when a shard exhausted its retries and
            ``allow_partial`` is off.
    """
    started = time.perf_counter()
    executor = TrialExecutor(workers=workers)
    path = None
    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)
        path = checkpoint_path(config, checkpoint_dir)
    fault_tolerance = None
    if (
        path or allow_partial or deadline is not None
        or heartbeat_timeout is not None
    ):
        fault_tolerance = FaultTolerance(
            retries=retries,
            checkpoint_path=path,
            checkpoint_every=1,
            checkpoint_digest=config.digest(),
            deadline=deadline,
            heartbeat_timeout=heartbeat_timeout,
            backoff_base=DEFAULT_BACKOFF_BASE,
            backoff_seed=config.digest(),
        )
    outcomes = executor.map_trials(
        config.shard_count, task, fault_tolerance=fault_tolerance
    )
    checkpoint = executor.last_checkpoint
    errors = [item for item in outcomes if isinstance(item, TrialError)]
    payloads = [item for item in outcomes if not isinstance(item, TrialError)]
    run = ShardRun(
        payloads=payloads,
        errors=errors,
        workers=executor.workers,
        resumed_shards=checkpoint.loaded if checkpoint is not None else 0,
        quarantined=(
            [checkpoint.quarantined]
            if checkpoint is not None and checkpoint.quarantined else []
        ),
    )
    if failure_manifest:
        status = (
            "complete" if not errors
            else ("partial" if allow_partial else "failed")
        )
        write_manifest(failure_manifest, build_manifest(
            config, errors,
            status=status,
            quarantined=run.quarantined,
            checkpoint_write_error=(
                checkpoint.write_error if checkpoint is not None else None
            ),
            elapsed_s=time.perf_counter() - started,
            workers=executor.workers,
            resumed_shards=run.resumed_shards,
        ))
        run.manifest_path = failure_manifest
    if errors and not allow_partial:
        raise CampaignError(errors, manifest_path=run.manifest_path)
    return run


#: Manifest format version; bump on breaking schema changes.
MANIFEST_VERSION = 1

#: Self-describing schema tag embedded in every manifest.
MANIFEST_SCHEMA = "repro.campaign.failure-manifest/v1"

#: Top-level keys every valid manifest must carry.
_REQUIRED_KEYS = (
    "version", "schema", "status", "campaign", "coverage", "shards",
    "quarantined_checkpoints", "checkpoint_write_error",
)

#: Keys of every per-shard failure record.
_SHARD_KEYS = (
    "shard", "sessions", "kind", "attempts", "error", "traceback",
    "history",
)

#: Valid terminal statuses of a supervised campaign.
STATUSES = ("complete", "partial", "failed")


def shard_coverage(
    config: ShardPlan, errors: Sequence[TrialError]
) -> Dict[str, int]:
    """Completed, failed and deadline-skipped shards; sessions covered."""
    skipped = sum(error.kind == "deadline" for error in errors)
    missing = sum(len(config.shard_range(error.trial)) for error in errors)
    return {
        "completed_shards": config.shard_count - len(errors),
        "failed_shards": len(errors) - skipped,
        "skipped_shards": skipped,
        "sessions_total": config.sessions,
        "sessions_covered": config.sessions - missing,
    }


def shard_error_record(
    config: ShardPlan, error: TrialError
) -> Dict[str, Any]:
    """One manifest entry for a failed/skipped shard."""
    span = config.shard_range(error.trial)
    return {
        "shard": error.trial,
        "sessions": [span.start, span.stop],
        "kind": error.kind,
        "attempts": error.attempts,
        "error": error.error,
        "traceback": error.traceback,
        "history": [dict(entry) for entry in error.history],
    }


def build_manifest(
    config: ShardPlan,
    errors: Sequence[TrialError],
    *,
    status: str,
    quarantined: Sequence[str] = (),
    checkpoint_write_error: Optional[str] = None,
    elapsed_s: Optional[float] = None,
    workers: int = 1,
    resumed_shards: int = 0,
) -> Dict[str, Any]:
    """Assemble the failure-manifest payload for one campaign run."""
    if status not in STATUSES:
        raise ValueError(f"unknown manifest status {status!r}")
    return {
        "version": MANIFEST_VERSION,
        "schema": MANIFEST_SCHEMA,
        "status": status,
        "campaign": {
            "config_digest": config.digest(),
            "sessions": config.sessions,
            "shard_size": config.shard_size,
            "shards": config.shard_count,
            "seed": config.seed,
            "mode": getattr(config, "mode", config.kind),
        },
        "coverage": shard_coverage(config, errors),
        "shards": [
            shard_error_record(config, error)
            for error in sorted(errors, key=lambda e: e.trial)
        ],
        "quarantined_checkpoints": list(quarantined),
        "checkpoint_write_error": checkpoint_write_error,
        "execution": {
            "workers": workers,
            "resumed_shards": resumed_shards,
            "elapsed_s": (
                round(elapsed_s, 3) if elapsed_s is not None else None
            ),
        },
    }


def write_manifest(path: str, manifest: Dict[str, Any]) -> None:
    """Write a manifest (validated first, temp-file + atomic rename)."""
    validate_manifest(manifest)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    temp_path = path + ".tmp"
    with open(temp_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(temp_path, path)


def validate_manifest(payload: Any) -> None:
    """Schema-check a manifest; raises ``ValueError`` naming the defect.

    Used by the chaos harness and the smoke scripts to assert that
    every degraded run leaves a *well-formed* record behind, not just
    any JSON.
    """
    if not isinstance(payload, dict):
        raise ValueError("manifest must be a JSON object")
    missing = [key for key in _REQUIRED_KEYS if key not in payload]
    if missing:
        raise ValueError(f"manifest missing keys: {missing}")
    if payload["version"] != MANIFEST_VERSION:
        raise ValueError(
            f"unsupported manifest version {payload['version']!r}"
        )
    if payload["schema"] != MANIFEST_SCHEMA:
        raise ValueError(f"unexpected manifest schema {payload['schema']!r}")
    if payload["status"] not in STATUSES:
        raise ValueError(f"invalid manifest status {payload['status']!r}")
    coverage = payload["coverage"]
    for key in ("completed_shards", "failed_shards", "skipped_shards",
                "sessions_total", "sessions_covered"):
        if not isinstance(coverage.get(key), int):
            raise ValueError(f"coverage.{key} must be an integer")
    accounted = (
        coverage["completed_shards"] + coverage["failed_shards"]
        + coverage["skipped_shards"]
    )
    if accounted != payload["campaign"]["shards"]:
        raise ValueError(
            f"coverage does not account for every shard "
            f"({accounted} != {payload['campaign']['shards']})"
        )
    if not isinstance(payload["shards"], list):
        raise ValueError("manifest shards must be a list")
    for record in payload["shards"]:
        missing = [key for key in _SHARD_KEYS if key not in record]
        if missing:
            raise ValueError(
                f"shard record {record.get('shard')!r} missing {missing}"
            )
        if record["kind"] not in ERROR_KINDS:
            raise ValueError(
                f"shard {record['shard']!r} has unknown kind "
                f"{record['kind']!r}"
            )
    degraded = bool(payload["shards"])
    if payload["status"] == "complete" and degraded:
        raise ValueError("status 'complete' with failed shard records")
    if payload["status"] != "complete" and not degraded:
        raise ValueError(f"status {payload['status']!r} with no shard records")


def render_shard_errors(
    config: ShardPlan, errors: Sequence[TrialError]
) -> str:
    """The concise per-shard error table the CLI prints to stderr."""
    rows: List[List[str]] = []
    for error in sorted(errors, key=lambda e: e.trial):
        span = config.shard_range(error.trial)
        message = error.error
        if len(message) > 48:
            message = message[:45] + "..."
        rows.append([
            str(error.trial),
            f"{span.start}-{span.stop - 1}",
            error.kind,
            str(error.attempts),
            message,
        ])
    return format_table(
        ["shard", "sessions", "kind", "attempts", "error"], rows,
        title=f"Campaign shard failures ({len(errors)})",
    )
