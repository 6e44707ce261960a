"""The four workloads: seeded inputs, operations and expected outputs.

An :class:`Operation` is one call into the program's public API that
the benchmark times: one attacked page load (a *session*) on the
``attack-*`` workloads, one whole sharded run (a *job* of many
sessions) on ``campaign-sealed`` and ``infer-frontier``.  Every
operation carries the digest its output must have.

Why each workload exists, and which layers it exercises, is written
down in ``layerbench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.campaign import engine
from repro.experiments import harness
from repro.experiments.hotpath import reference_config
from repro.infer import campaign as infer_campaign
from repro.infer.dataset import evaluate_session
from repro.web.workload import PopulationWorkload, VolunteerWorkload

from layerbench import WORKLOADS

GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN_FORMAT = "layerbench-golden/1"

#: The attack inputs: round *r* is volunteer trial *r* of
#: ``VolunteerWorkload(seed=POOL_SEED)`` and session *r* of
#: ``PopulationWorkload(seed=POOL_SEED)``.  Every run covers the same
#: fixed rounds, whole, as often as its time allows; ``--seed`` only
#: sets the order within each pass.  The four population pages have 5,
#: 18, 51 and 86 objects, one from each quarter of the 4-96 range.
POOL_SEED = 2020
ROUNDS = (1, 4, 15, 9)
#: The untimed warm-up round; it is not in ``ROUNDS``, so it warms no
#: timed input.
WARMUP_ROUND = 0
ATTACK_KINDS = ("table1", "fig6", "population")

#: Sharded jobs.  The shard sizes are the CLI defaults.
WORKERS = 2
CAMPAIGN_SHARD_SIZE = 2000
CAMPAIGN_SHARDS = 16
INFER_SHARD_SIZE = 250
INFER_SHARDS = 2
#: Design seeds of the infer jobs; ``--seed`` picks one.
INFER_SEEDS = tuple(range(2020, 2028))

#: Jobs in one traced pass of a sharded workload.
TRACE_JOBS = 1


def output_digest(output: Any) -> str:
    """Digest of one session's output: a ``TrialSummary`` (its dataclass
    repr) or an ``evaluate_page_full`` outcome dict."""
    if isinstance(output, dict):
        text = json.dumps(output, sort_keys=True)
    else:
        text = repr(output)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def clear_program_settings() -> None:
    """Drop every ``REPRO_*`` environment variable, so the environment
    cannot pick another transport, backend or worker count than the
    workload names.  Spawned workers inherit the cleared environment."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]


def pool_identity() -> Dict[str, Any]:
    return {"seed": POOL_SEED, "rounds": list(ROUNDS),
            "kinds": list(ATTACK_KINDS)}


def load_golden() -> Dict[str, Any]:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    if golden.get("format") != GOLDEN_FORMAT:
        raise ValueError(f"{GOLDEN_PATH}: not a {GOLDEN_FORMAT} file")
    if golden.get("pool") != pool_identity():
        raise ValueError(f"{GOLDEN_PATH} was recorded for another input "
                         "pool; rerun layerbench/make_golden.py")
    return golden


@dataclass
class Operation:
    """One timed call and the digest its output must have."""

    label: str
    sessions: int
    run: Callable[[], Any]
    digest: Callable[[Any], str]
    expected: Optional[str]
    cleanup: Callable[[], None] = lambda: None
    #: Names the input: operations with one key run the same input.
    #: Empty means the label does.
    key: str = ""


class AttackWorkload:
    """Closed loop, one in-process client: attacked page loads.

    Each round runs a Table I slice, a Fig. 6 slice and one
    zipf-population session, in that order, over one transport.
    """

    workers = 0

    def __init__(self, transport: str, seed: int,
                 golden: Optional[Dict[str, Any]]) -> None:
        self.transport = transport
        self.rng = random.Random(seed)
        self.population = PopulationWorkload(seed=POOL_SEED)
        self.volunteers = VolunteerWorkload(seed=POOL_SEED)
        self.model = engine.AnalyticModel()
        self.configs = {
            kind: replace(reference_config(kind), transport=transport)
            for kind in ("table1", "fig6")
        }
        self.expected: Optional[List[List[str]]] = (
            golden["attack"][transport] if golden is not None else None
        )

    def operation(self, round_index: int, kind: str) -> Operation:
        if kind == "population":
            def run():
                spec = self.population.page_spec(round_index)
                return engine.evaluate_page_full(
                    spec, self.population.session_rng(round_index),
                    self.model, transport=self.transport,
                )
        else:
            def run():
                return harness.summarize_trial(
                    round_index, self.volunteers, self.configs[kind]
                )
        # The warm-up round has no recorded digest; it is never checked.
        row = (self.expected or {}).get(str(round_index))
        expected = row[ATTACK_KINDS.index(kind)] if row else None
        return Operation(f"{kind}#{round_index}", 1, run, output_digest,
                         expected)

    def round(self, round_index: int) -> List[Operation]:
        return [self.operation(round_index, kind) for kind in ATTACK_KINDS]

    def warmup(self) -> None:
        self.operation(WARMUP_ROUND, "table1").run()

    def timed_cycles(self) -> Iterator[List[List[Operation]]]:
        """Passes over every round, each in a seeded order: a run that
        ends on a pass boundary has run the same inputs whatever its
        seed."""
        while True:
            order = list(ROUNDS)
            self.rng.shuffle(order)
            yield [self.round(round_index) for round_index in order]

    def traced_operations(self) -> List[Operation]:
        return [operation for round_index in ROUNDS
                for operation in self.round(round_index)]


class CampaignWorkload:
    """Closed loop of sealed analytic campaigns (``repro campaign
    --backend fast --workers 2 --checkpoint-dir D``)."""

    workers = WORKERS

    def __init__(self, seed: int, workdir: str) -> None:
        self.config = engine.CampaignConfig(
            sessions=CAMPAIGN_SHARDS * CAMPAIGN_SHARD_SIZE,
            shard_size=CAMPAIGN_SHARD_SIZE,
            seed=seed,
            mode="analytic",
        )
        self.workdir = workdir
        self.expected: Optional[str] = None
        self._jobs = 0

    def warmup(self) -> None:
        """The serial, checkpoint-free run of the same config: it warms
        the kernel and gives the digest every sealed job must match."""
        self.expected = engine.run_campaign(
            self.config, workers=1, backend="fast"
        ).digest()

    def job(self, shard_task_factory=None) -> Operation:
        self._jobs += 1
        directory = os.path.join(self.workdir, f"checkpoints-{self._jobs}")
        shard_task = (
            shard_task_factory(self.config) if shard_task_factory else None
        )

        def run():
            return engine.run_campaign(
                self.config, workers=WORKERS, backend="fast",
                checkpoint_dir=directory, shard_task=shard_task,
            )

        return Operation(
            f"campaign#{self._jobs}", self.config.sessions, run,
            lambda result: result.digest(), self.expected,
            cleanup=lambda: shutil.rmtree(directory, ignore_errors=True),
            key="campaign",
        )

    def timed_cycles(self) -> Iterator[List[List[Operation]]]:
        while True:
            yield [[self.job()]]

    def traced_operations(self, shard_task_factory=None) -> List[Operation]:
        return [self.job(shard_task_factory) for _ in range(TRACE_JOBS)]


class InferWorkload:
    """Closed loop of frontier sweeps (``repro infer --workers 2``)."""

    workers = WORKERS

    def __init__(self, seed: int, golden: Optional[Dict[str, Any]]) -> None:
        design_seed = INFER_SEEDS[seed % len(INFER_SEEDS)]
        self.config = infer_campaign.InferCampaignConfig(
            sessions=INFER_SHARDS * INFER_SHARD_SIZE,
            shard_size=INFER_SHARD_SIZE,
            seed=design_seed,
        )
        self.expected: Optional[str] = (
            golden["infer"][str(design_seed)] if golden is not None else None
        )
        self._jobs = 0

    def warmup(self) -> None:
        evaluate_session(0, self.config.design())

    def job(self) -> Operation:
        self._jobs += 1

        def run():
            return infer_campaign.run_infer_campaign(
                self.config, workers=WORKERS
            )

        return Operation(
            f"infer#{self._jobs}", self.config.sessions, run,
            lambda result: result.summary.digest(), self.expected,
            key="infer",
        )

    def timed_cycles(self) -> Iterator[List[List[Operation]]]:
        while True:
            yield [[self.job()]]

    def traced_operations(self) -> List[Operation]:
        return [self.job() for _ in range(TRACE_JOBS)]


def build(name: str, seed: int, workdir: str,
          golden: Optional[Dict[str, Any]] = None):
    if name == "attack-tcp":
        return AttackWorkload("tcp", seed, golden)
    if name == "attack-quic":
        return AttackWorkload("quic", seed, golden)
    if name == "campaign-sealed":
        return CampaignWorkload(seed, workdir)
    if name == "infer-frontier":
        return InferWorkload(seed, golden)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
