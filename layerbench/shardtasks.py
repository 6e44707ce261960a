"""Worker-side shard tasks of the traced passes.

Both run inside the program's spawned worker processes, so they must be
importable there (the parent's ``sys.path`` travels with ``spawn``) and
picklable.  Each computes its shard exactly as the program's own task
does, returns the same payload, and writes its timing and spans to one
JSON file in ``out_dir`` for the parent to collect.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.campaign.engine import CampaignConfig, ShardTask
from repro.infer.campaign import InferShardTask

from layerbench.tracer import (
    Patcher,
    Tracer,
    install_campaign_worker,
    install_infer_worker,
)


def _traced_call(out_dir: str, shard: int,
                 install: Callable[[Patcher, Tracer], None],
                 compute: Callable[[], Any]) -> Any:
    tracer = Tracer()
    tracer.session = shard
    with Patcher() as patcher:
        install(patcher, tracer)
        began = time.perf_counter_ns()
        result = compute()
        compute_ns = time.perf_counter_ns() - began
    record = {"shard": shard, "compute_ns": compute_ns,
              "spans": tracer.spans}
    path = os.path.join(out_dir, f"shard-{shard}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return result


@dataclass(frozen=True)
class TracedShardTask:
    """``run_campaign``'s ``shard_task`` seam: the default
    :class:`~repro.campaign.engine.ShardTask`, timed and spanned."""

    config: CampaignConfig
    backend: str
    out_dir: str

    def __call__(self, shard: int) -> Dict[str, Any]:
        task = ShardTask(self.config, backend=self.backend)
        return _traced_call(self.out_dir, shard, install_campaign_worker,
                            lambda: task(shard))


@dataclass(frozen=True)
class TracedInferShardTask(InferShardTask):
    """Stands in for ``InferShardTask`` during a traced infer pass."""

    out_dir: str = ""

    def __call__(self, shard: int) -> Dict[str, Any]:
        compute = super().__call__
        return _traced_call(self.out_dir, shard, install_infer_worker,
                            lambda: compute(shard))


def collect(out_dir: str) -> List[Dict[str, Any]]:
    """Read and delete the worker records of one pass, by shard."""
    records = []
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        with open(path, "r", encoding="utf-8") as handle:
            records.append(json.load(handle))
        os.unlink(path)
    records.sort(key=lambda record: record["shard"])
    return records
