"""Frontier-at-scale: the inference study on the shared sharded-job runner.

``repro infer`` evaluates the accuracy/overhead frontier over many
zipf page-population sessions.  It runs on the shared sharded-job
runner (:func:`repro.campaign.supervisor.run_sharded`), like
``repro campaign``: picklable shard tasks on the trial executor,
integer summary folds that merge exactly at any split,
config-digest-sealed shard checkpoints with quarantine of corrupt
files, and deterministic same-seed retries — so a SIGKILLed run
resumes to a bit-identical frontier (the ``infer-smoke`` CI job pins
that end to end).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.campaign.supervisor import ShardPlan, run_sharded
from repro.experiments.executor import heartbeat
from repro.infer.classifiers import classifier_names
from repro.infer.dataset import StudyDesign, evaluate_session
from repro.infer.defenses import defense_level, defense_level_names
from repro.infer.summary import FORMAT, InferSummary


@dataclass(frozen=True)
class InferCampaignConfig(ShardPlan):
    """Parameters of one at-scale frontier run.

    Attributes:
        sessions: page-population sessions evaluated.
        shard_size: sessions per shard (the checkpoint/retry unit).
        seed: master seed of the study design.
        reps: attacker training fetches per object.
        max_objects: classes per page.
        levels / classifiers: the swept axes (names).
    """

    sessions: int = 2_000
    shard_size: int = 250
    seed: int = 2020
    reps: int = 2
    max_objects: int = 6
    levels: tuple = defense_level_names()
    classifiers: tuple = classifier_names()

    kind = "infer"

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in self.levels:
            defense_level(name)

    def design(self) -> StudyDesign:
        return StudyDesign(
            seed=self.seed,
            reps=self.reps,
            max_objects=self.max_objects,
            levels=tuple(self.levels),
            classifiers=tuple(self.classifiers),
        )


@dataclass(frozen=True)
class InferShardTask:
    """Picklable worker task: fold one shard's sessions to summary JSON."""

    config: InferCampaignConfig

    def __call__(self, shard: int) -> Dict[str, Any]:
        design = self.config.design()
        summary = InferSummary(design.levels, design.classifiers)
        heartbeat()
        for session in self.config.shard_range(shard):
            summary.fold(evaluate_session(session, design))
            heartbeat()
        return summary.to_json()


@dataclass
class InferCampaignResult:
    """Merged frontier plus run metadata."""

    config: InferCampaignConfig
    summary: InferSummary
    shards: int
    workers: int
    resumed_shards: int = 0
    #: Checkpoint files quarantined on resume (``.corrupt`` sidecars).
    quarantined: List[str] = field(default_factory=list)

    def to_json(self) -> Dict[str, Any]:
        # Worker count and resume history are deliberately excluded:
        # the JSON must be bit-identical however the run was executed.
        return {
            "format": FORMAT,
            "config_digest": self.config.digest(),
            "sessions": self.config.sessions,
            "shards": self.shards,
            "summary": self.summary.to_json(),
            "summary_digest": self.summary.digest(),
        }

    def render(self) -> str:
        from repro.experiments.infer_study import InferStudyResult

        table = InferStudyResult(
            design=self.config.design(), summary=self.summary
        ).render()
        # Resume/worker history stays off stdout (stderr in the CLI):
        # the rendered frontier must diff clean across kill/resume.
        return (
            table
            + f"\nshards={self.shards} digest={self.summary.digest()[:12]}"
        )


def run_infer_campaign(
    config: InferCampaignConfig,
    workers: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    retries: int = 1,
) -> InferCampaignResult:
    """Run (or resume) the frontier at scale and merge its shards.

    Raises:
        CampaignError: when a shard exhausted its retries.
    """
    run = run_sharded(
        config, InferShardTask(config),
        workers=workers, checkpoint_dir=checkpoint_dir, retries=retries,
    )
    design = config.design()
    summary = InferSummary(design.levels, design.classifiers)
    # Payloads come in shard order: the left fold below is the
    # canonical merge order at any worker count.
    for payload in run.payloads:
        summary.merge(InferSummary.from_json(payload))
    return InferCampaignResult(
        config=config,
        summary=summary,
        shards=config.shard_count,
        workers=run.workers,
        resumed_shards=run.resumed_shards,
        quarantined=run.quarantined,
    )
