"""Property-based tests for TCP reassembly and the stream layout."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcp.reassembly import ReassemblyBuffer
from repro.transport.stream import StreamLayout


class _Msg:
    def __init__(self, length):
        self.wire_length = length


segments_strategy = st.lists(
    st.tuples(st.integers(0, 500), st.integers(1, 80)).map(
        lambda pair: (pair[0], pair[0] + pair[1])
    ),
    min_size=1,
    max_size=40,
)


@given(segments_strategy)
@settings(max_examples=200)
def test_reassembly_rcv_nxt_is_monotone_and_correct(segments):
    """rcv_nxt only grows, and equals the contiguous prefix length."""
    buffer = ReassemblyBuffer()
    covered = set()
    previous = 0
    for start, end in segments:
        covered.update(range(start, end))
        rcv_nxt, _ = buffer.receive(start, end)
        assert rcv_nxt >= previous
        previous = rcv_nxt
    expected = 0
    while expected in covered:
        expected += 1
    assert buffer.rcv_nxt == expected


@given(segments_strategy)
@settings(max_examples=200)
def test_reassembly_buffered_ranges_disjoint_and_sorted(segments):
    buffer = ReassemblyBuffer()
    for start, end in segments:
        buffer.receive(start, end)
    ranges = buffer.out_of_order_ranges
    for (a_start, a_end), (b_start, b_end) in zip(ranges, ranges[1:]):
        assert a_end < b_start  # disjoint, strictly ordered
    for start, end in ranges:
        assert start > buffer.rcv_nxt or start <= buffer.rcv_nxt <= end is False
        assert end > start


@given(segments_strategy)
@settings(max_examples=200)
def test_reassembly_duplicate_replay_changes_nothing(segments):
    """Replaying the whole arrival sequence is a no-op."""
    buffer = ReassemblyBuffer()
    for start, end in segments:
        buffer.receive(start, end)
    state = (buffer.rcv_nxt, buffer.out_of_order_ranges)
    for start, end in segments:
        _, duplicate = buffer.receive(start, end)
        assert duplicate
    assert (buffer.rcv_nxt, buffer.out_of_order_ranges) == state


@given(st.lists(st.integers(1, 5000), min_size=1, max_size=50))
@settings(max_examples=200)
def test_layout_partitions_sequence_space(lengths):
    """Message spans tile [0, next_seq) without gaps or overlaps."""
    layout = StreamLayout()
    for length in lengths:
        layout.append(_Msg(length))
    spans = layout.spans_completed_by(layout.next_seq)
    assert len(spans) == len(lengths)
    cursor = 0
    for span, length in zip(spans, lengths):
        assert span.start == cursor
        assert span.length == length
        cursor = span.end
    assert cursor == layout.next_seq == sum(lengths)


@given(
    st.lists(st.integers(1, 2000), min_size=1, max_size=30),
    st.integers(0, 60000),
    st.integers(1, 3000),
)
@settings(max_examples=200)
def test_layout_queries_consistent(lengths, start, width):
    layout = StreamLayout()
    for length in lengths:
        layout.append(_Msg(length))
    end = start + width
    overlapping = layout.spans_overlapping(start, end)
    contained = layout.spans_contained(start, end)
    starting = layout.spans_starting_in(start, end)
    # Contained and starting spans are subsets of overlapping spans.
    assert set(id(s) for s in contained) <= set(id(s) for s in overlapping)
    assert set(id(s) for s in starting) <= set(id(s) for s in overlapping)
    for span in overlapping:
        assert span.start < end and span.end > start
    for span in contained:
        assert span.start >= start and span.end <= end
    for span in starting:
        assert start <= span.start < end
