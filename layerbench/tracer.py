"""In-memory spans around calls into the program's layers.

The benchmark never edits the program.  A :class:`Patcher` swaps a
public function or method for a wrapper that records a span (name,
start, end, parent span, session) in a :class:`Tracer`, and puts the
original back afterwards.  Patches are installed before the objects of
a session are built, so callbacks that the program binds at
construction time (``host.bind(port, self.handle_packet)``,
``connection.on_message = self._on_tcp_message``) bind the wrapper.

A span's name is ``"<metric>:<qualified name>"``; self times and call
counts are aggregated by the ``<metric>`` part.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

#: One span: [name, start_ns, end_ns, parent span index or -1, session].
Span = List[Any]


class Tracer:
    """Collects spans of one process; span ids are list indices."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.session = -1
        self._stack: List[int] = []

    def wrap(self, function: Callable, name: str) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span_id = len(spans)
            record = [name, clock(), 0, stack[-1] if stack else -1,
                      tracer.session]
            spans.append(record)
            stack.append(span_id)
            try:
                return function(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()

        return traced


class Patcher:
    """Replaces attributes of modules and classes; restores on exit."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner: Any, attr: str,
             wrapper: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` (defined on ``owner`` itself) by
        ``wrapper(original)``, keeping classmethods classmethods."""
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            value = type(raw)(wrapper(raw.__func__))
        else:
            value = wrapper(raw)
        self.set(owner, attr, value)

    def span(self, tracer: Tracer, metric: str, owner: Any,
             attrs: Iterable[str]) -> None:
        label = getattr(owner, "__qualname__", None) or owner.__name__
        for attr in attrs:
            name = f"{metric}:{label}.{attr}"
            self.wrap(owner, attr, lambda fn, name=name: tracer.wrap(fn, name))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def metric_of(name: str) -> str:
    return name.partition(":")[0]


def covered_length(start: int, end: int,
                   intervals: Sequence[Tuple[int, int]]) -> int:
    """Length of ``[start, end]`` covered by the union of intervals."""
    covered = 0
    cursor = start
    for low, high in sorted(intervals):
        low = max(low, cursor)
        high = min(high, end)
        if high > low:
            covered += high - low
            cursor = high
    return covered


def self_times(spans: Sequence[Span]) -> Dict[str, int]:
    """Self time per metric, in ns: each span's duration minus the part
    of it that its child spans cover."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    totals: Dict[str, int] = defaultdict(int)
    for index, (name, start, end, _parent, _session) in enumerate(spans):
        covered = covered_length(start, end, children.get(index, ()))
        totals[metric_of(name)] += (end - start) - covered
    return dict(totals)


def call_counts(spans: Sequence[Span]) -> Dict[str, int]:
    counts: Dict[str, int] = defaultdict(int)
    for span in spans:
        counts[metric_of(span[0])] += 1
    return dict(counts)


# ---------------------------------------------------------------------------
# What is spanned, layer by layer
# ---------------------------------------------------------------------------

#: Layers of the packet stack, in report order.
PACKET_LAYERS = ("harness", "web", "simkernel", "netsim", "tcp", "quic",
                 "tls", "h2", "hpack", "core")


def install_packet_stack(patcher: Patcher, tracer: Tracer) -> None:
    """Span every packet-stack layer boundary an attacked load crosses.

    Transport timer callbacks (retransmission, delayed ACK) are spanned
    with their transport, and ``Link._deliver`` with ``LinkEnd.deliver``
    (it is the delivery path when simulator batching is off), so their
    work is not billed to the simulator loop that calls them.  The TLS
    and H2 receive callbacks are spanned so that their cost is not
    billed to the transport that calls them.
    """
    from repro.campaign import engine
    from repro.core.estimator import SizeEstimator
    from repro.core.metrics import MultiplexingReport
    from repro.core.monitor import TrafficMonitor
    from repro.core.predictor import SizePredictor
    from repro.experiments import harness
    from repro.h2.connection import H2Connection
    from repro.hpack.codec import HpackDecoder, HpackEncoder
    from repro.netsim.link import Link, LinkEnd
    from repro.simkernel.simulator import Simulator
    from repro.tcp.connection import TCPConnection
    from repro.tls.session import TLSSession
    from repro.transport.quic import QuicConnection
    from repro.web import generator
    from repro.web.workload import PopulationWorkload, VolunteerWorkload

    h2_calls = [attr for attr in vars(H2Connection)
                if attr.startswith("send_")] + ["pump", "_on_record"]
    table = [
        ("harness", harness, ["summarize_trial"]),
        ("harness", engine, ["evaluate_page_full"]),
        ("web", VolunteerWorkload, ["session"]),
        ("web", PopulationWorkload, ["page_spec"]),
        ("web", generator, ["generate_site_from_spec"]),
        ("simkernel", Simulator, ["run_until"]),
        ("netsim", LinkEnd, ["send", "deliver"]),
        ("netsim", Link, ["_deliver"]),
        ("tcp", TCPConnection,
         ["handle_packet", "send_message", "_on_rto", "_send_ack_now"]),
        ("quic", QuicConnection,
         ["handle_packet", "send_message", "_on_pto", "_send_ack_now"]),
        ("tls", TLSSession, ["send_application", "_on_tcp_message"]),
        ("h2", H2Connection, sorted(h2_calls)),
        ("hpack", HpackEncoder, ["encode"]),
        ("hpack", HpackDecoder, ["decode"]),
        ("core", TrafficMonitor,
         ["__init__", "get_requests", "nth_get_time", "response_packets",
          "request_packets", "inter_get_gaps"]),
        ("core", SizeEstimator, ["estimate"]),
        ("core", SizePredictor,
         ["__init__", "expected_payload", "expected_for", "classify",
          "find_object", "predict_sequence",
          "predict_sequence_assignment"]),
        ("core", MultiplexingReport, ["from_layout"]),
        ("core", harness, ["summarize_result"]),
    ]
    for layer, owner, attrs in table:
        patcher.span(tracer, f"{layer}.self_ms", owner, attrs)


def install_campaign_worker(patcher: Patcher, tracer: Tracer) -> None:
    """Span the fast analytic kernel inside one campaign shard."""
    from repro.campaign.columnar import ColumnarSummary
    from repro.fastpath import analytic

    patcher.span(tracer, "fastpath.generate_ms", analytic, ["generate_pages"])
    patcher.span(tracer, "fastpath.evaluate_ms", analytic,
                 ["evaluate_shard_analytic"])
    patcher.span(tracer, "columnar.fold_ms", ColumnarSummary, ["fold_batch"])


def install_infer_worker(patcher: Patcher, tracer: Tracer) -> None:
    """Span the inference pipeline inside one infer shard."""
    from repro.infer import campaign, dataset
    from repro.infer.classifiers import Classifier
    from repro.infer.summary import InferSummary

    def session_root(function):
        traced = tracer.wrap(function, "infer.session:evaluate_session")

        def root(session, design):
            tracer.session = session
            return traced(session, design)

        return root

    patcher.wrap(campaign, "evaluate_session", session_root)
    patcher.span(tracer, "infer.observe_ms", dataset, ["observe"])
    patcher.span(tracer, "infer.features_ms", dataset,
                 ["extract_features_auto"])
    patcher.span(tracer, "infer.overhead_ms", dataset, ["level_overhead"])
    patcher.span(tracer, "infer.fold_ms", InferSummary, ["fold"])
    for model in Classifier.__subclasses__():
        patcher.span(tracer, "infer.fit_ms", model, ["fit"])
        patcher.span(tracer, "infer.predict_ms", model, ["predict"])


def write_spans(path: str, spans: Sequence[Span]) -> None:
    """Write spans as CSV: id,parent,session,name,start_ns,end_ns."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("id,parent,session,name,start_ns,end_ns\n")
        for index, (name, start, end, parent, session) in enumerate(spans):
            handle.write(f"{index},{parent},{session},{name},{start},{end}\n")
