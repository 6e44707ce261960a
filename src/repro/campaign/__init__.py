"""Million-session campaigns: sharded streaming attack studies.

The paper's study covers ≈500 volunteers; this package scales the same
question — how often does the §V attack succeed? — to synthetic
populations of 10⁵–10⁷ pages.  See :mod:`repro.campaign.engine` for the
shard → worker → trial hierarchy,
:mod:`repro.campaign.columnar` for the streaming columnar aggregation
that keeps peak memory independent of the session count, and
:mod:`repro.campaign.supervisor` for the sharded-job runner that the
campaign and the ``repro infer`` frontier share.

Run one from the CLI::

    python -m repro campaign --sessions 100000 --workers 8
"""

from repro.campaign.columnar import ColumnarSummary, merge_summaries
from repro.campaign.engine import (
    AnalyticModel,
    CampaignConfig,
    CampaignResult,
    ShardTask,
    run_campaign,
)
from repro.campaign.supervisor import (
    MANIFEST_SCHEMA,
    MANIFEST_VERSION,
    CampaignError,
    build_manifest,
    checkpoint_path,
    render_shard_errors,
    run_sharded,
    validate_manifest,
    write_manifest,
)

__all__ = [
    "AnalyticModel",
    "CampaignConfig",
    "CampaignError",
    "CampaignResult",
    "ColumnarSummary",
    "MANIFEST_SCHEMA",
    "MANIFEST_VERSION",
    "ShardTask",
    "build_manifest",
    "checkpoint_path",
    "merge_summaries",
    "render_shard_errors",
    "run_campaign",
    "run_sharded",
    "validate_manifest",
    "write_manifest",
]
