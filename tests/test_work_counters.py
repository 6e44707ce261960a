"""Exact work-counter pins for the two reference slices.

Wall clocks on 1–2 CPU hosts cannot gate a regression; these counters
can.  Each reference slice (``repro.experiments.hotpath``) is one
deterministic trial, so the number of simulator events, packets at the
middlebox, trace records, HTTP/2 frames and retransmitted segments it
produces is a fixed property of the code.  A change that alters any of
them changed the simulated behaviour, not just its speed.

The backend must not move any counter: ``--backend fast`` selects the
numpy campaign and inference kernels, never a different simulator path.
"""

from __future__ import annotations

import pytest

from repro import profiling
from repro.experiments.hotpath import KINDS, run_reference_trial

COUNTERS = (
    "sim.events",
    "net.packets",
    "trace.records",
    "h2.frames_sent",
    "tcp.retransmitted_segments",
)

#: (transport, slice) → counter values, in :data:`COUNTERS` order.
EXPECTED = {
    ("tcp", "table1"): (5318, 1584, 5252, 593, 1),
    ("tcp", "fig6"): (6872, 1955, 6949, 790, 103),
    ("quic", "table1"): (5342, 1594, 5292, 589, 24),
    ("quic", "fig6"): (9492, 3717, 10197, 589, 1371),
}


@pytest.mark.parametrize("backend", ["python", "fast"])
@pytest.mark.parametrize("transport", ["tcp", "quic"])
@pytest.mark.parametrize("kind", KINDS)
def test_reference_slice_work_counters(monkeypatch, kind, transport, backend):
    monkeypatch.setenv("REPRO_TRANSPORT", transport)
    monkeypatch.setenv("REPRO_BACKEND", backend)
    with profiling.profiled() as profiler:
        run_reference_trial(kind)
    observed = tuple(profiler.counters.get(name, 0) for name in COUNTERS)
    assert dict(zip(COUNTERS, observed)) == dict(
        zip(COUNTERS, EXPECTED[(transport, kind)])
    )
    assert profiler.counters["trials"] == 1
