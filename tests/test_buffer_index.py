"""The indexed PlaybackBuffer answers every query as the linear scan did.

``tests/reference_buffer.py`` keeps the scan implementation verbatim.
Random operation sequences run against both buffers; after each step
every query is asked at segment edges, at the covering bounds
(``start_s - 1e-9``, ``end_s - 1e-9``) and an ulp either side of them.
Segments are cut from a float-summed timeline and nudged by ulps or by
1e-9, so neighbours can overlap by an ulp (the scan fallback) or meet
exactly (the bisection path); a few are empty, reversed, NaN or moved
to another segment's start.  Appends of the next index and consumption of
the head play out steady playback.
"""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.media.track import StreamType
from repro.player.buffer import BufferedSegment, PlaybackBuffer
from tests.reference_buffer import PlaybackBuffer as ScanBuffer

DURATIONS = (2.0, 4.0, 1.0 / 3.0, 0.1, 2.002, 6.0)
SHIFTS = ("none", "ulp+", "ulp-", "2ulp+", "2ulp-", "eps+", "eps-")


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _shift(value: float, how: str) -> float:
    if how == "eps+":
        return value + 1e-9
    if how == "eps-":
        return value - 1e-9
    steps = {"none": 0, "ulp+": 1, "ulp-": -1, "2ulp+": 2, "2ulp-": -2}[how]
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


def _segment(timeline, index, level, start_shift, duration_shift, odd,
             other):
    starts, durations = timeline
    duration = _shift(durations[index], duration_shift)
    start = starts[index]
    if odd == "zero":
        duration = 0.0
    elif odd == "negative":
        duration = -duration
    elif odd == "misplaced":
        start = starts[other % len(starts)]
    elif odd == "nan-start":
        start = math.nan
    elif odd == "nan-duration":
        duration = math.nan
    return BufferedSegment(
        stream_type=StreamType.VIDEO,
        index=index,
        start_s=_shift(start, start_shift),
        duration_s=duration,
        level=level,
        declared_bitrate_bps=1e6 * (level + 1),
        size_bytes=1000 * (index + 1) + level,
    )


@st.composite
def scenarios(draw):
    durations = draw(st.lists(st.sampled_from(DURATIONS), min_size=1,
                              max_size=10))
    starts, position = [], 0.0
    for duration in durations:
        starts.append(position)
        position += duration
    timeline = (starts, durations)
    count = len(durations)
    # (level, start shift, duration shift, oddity, other index)
    variant = st.tuples(
        st.integers(0, 2),
        st.sampled_from(("none",) * 6 + SHIFTS[1:]),
        st.sampled_from(SHIFTS[:3]),
        st.sampled_from(("plain",) * 15 + ("zero", "negative", "misplaced",
                                           "nan-start", "nan-duration")),
        st.integers(0, count - 1),
    )
    segment = st.builds(
        lambda index, args: _segment(timeline, index, *args),
        st.integers(0, count - 1),
        variant,
    )
    probe_edge = st.tuples(st.integers(0, count - 1),
                           st.sampled_from(("start", "end")),
                           st.sampled_from(SHIFTS))
    operation = st.one_of(
        st.tuples(st.just("insert"), segment),
        st.tuples(st.just("insert"), segment),
        st.tuples(st.just("append"), variant),
        st.tuples(st.just("append"), variant),
        st.tuples(st.just("append"), variant),
        st.tuples(st.just("replace"), segment),
        st.tuples(st.just("discard"), st.integers(0, count)),
        st.tuples(st.just("clear")),
        st.tuples(st.just("consume"), probe_edge),
        st.tuples(st.just("consume"), probe_edge),
    )
    return (
        timeline,
        draw(st.booleans()),
        draw(st.lists(operation, min_size=1, max_size=16)),
    )


def _probes(segments) -> list[float]:
    probes = [0.0, 1e-9, math.nan, 1e9]
    for segment in segments:
        for edge in (segment.start_s, segment.end_s):
            for value in (edge, edge - 1e-9):
                probes.extend(_shift(value, how) for how in SHIFTS[:3])
            probes.append(edge + 1e-9)
    return probes


def _outcome(call):
    try:
        return ("ok", call())
    except Exception as exc:  # both buffers must fail the same way
        return ("raised", type(exc))


def _assert_same_segments(got, expected):
    assert len(got) == len(expected)
    assert all(a is b for a, b in zip(got, expected))


def _assert_same_floats(got, expected):
    if got[0] == "ok" and expected[0] == "ok" and isinstance(got[1], float):
        assert _bits(got[1]) == _bits(expected[1])
    else:
        assert got == expected


def _assert_queries_match(buffer: PlaybackBuffer, scan: ScanBuffer) -> None:
    _assert_same_segments(buffer.segments(), scan.segments())
    assert len(buffer) == len(scan)
    assert buffer.end_index() == scan.end_index()
    assert buffer.total_bytes() == scan.total_bytes()
    _assert_same_segments(buffer.discarded_segments, scan.discarded_segments)
    assert buffer.total_inserted_bytes == scan.total_inserted_bytes
    for index in scan._segments:
        last = index
        while last + 1 in scan:
            last += 1
        assert buffer.last_contiguous_index(index) == last
    for position in _probes(scan.segments()):
        assert buffer.segment_covering(position) is scan.segment_covering(
            position)
        assert buffer.has_content_at(position) == scan.has_content_at(position)
        assert buffer.contiguous_segment_count(position) == (
            scan.contiguous_segment_count(position))
        run = scan.contiguous_run_from(position)
        end = buffer.run_end_s(position)
        if run:
            assert _bits(end) == _bits(run[-1].end_s)
        else:
            assert end is None
        _assert_same_floats(_outcome(lambda: buffer.occupancy_s(position)),
                            _outcome(lambda: scan.occupancy_s(position)))


def _apply(buffer, operation, timeline):
    name = operation[0]
    if name == "insert":
        return _outcome(lambda: buffer.insert(operation[1]))
    if name == "replace":
        return _outcome(lambda: buffer.replace_single(operation[1]))
    if name == "discard":
        return _outcome(lambda: buffer.discard_tail_from(operation[1]))
    if name == "clear":
        return _outcome(buffer.clear)
    index, edge, how = operation[1]
    starts, durations = timeline
    value = starts[index] + (durations[index] if edge == "end" else 0.0)
    return _outcome(lambda: buffer.consume_until(_shift(value, how)))


@settings(max_examples=200, deadline=None)
@given(scenario=scenarios())
def test_indexed_buffer_matches_the_scan(scenario):
    timeline, allow_mid, operations = scenario
    buffer = PlaybackBuffer(allow_mid_replacement=allow_mid)
    scan = ScanBuffer(allow_mid_replacement=allow_mid)
    _assert_queries_match(buffer, scan)
    for operation in operations:
        if operation[0] == "append":  # the index after the highest one
            last = scan.end_index()
            index = 0 if last is None else last + 1
            if index >= len(timeline[0]):
                continue
            operation = ("insert", _segment(timeline, index, *operation[1]))
        got = _apply(buffer, operation, timeline)
        expected = _apply(scan, operation, timeline)
        if got[0] == "ok" and isinstance(got[1], list):
            _assert_same_segments(got[1], expected[1])
        elif got[0] == "ok" and isinstance(got[1], BufferedSegment):
            assert got[1] is expected[1]
        else:
            assert got == expected
        _assert_queries_match(buffer, scan)


def _plain(index, start_s, duration_s, level=0):
    return BufferedSegment(
        stream_type=StreamType.VIDEO, index=index, start_s=start_s,
        duration_s=duration_s, level=level, declared_bitrate_bps=1e6,
        size_bytes=100,
    )


def test_meeting_neighbours_take_the_bisection():
    buffer = PlaybackBuffer()
    for index in (2, 0, 1):
        buffer.insert(_plain(index, 4.0 * index, 4.0))
    assert buffer._index().separated
    assert buffer.segment_covering(4.0 - 1e-9).index == 1
    assert buffer.run_end_s(0.0) == 12.0
    assert buffer.contiguous_segment_count(5.0) == 2


@pytest.mark.parametrize("first", [0, 1])
def test_ulp_overlapping_neighbours_take_the_scan(first):
    # Segment 1 comes from a timeline whose sum landed one ulp short of
    # segment 0's end: around 4.0 both cover, and the scan answers with
    # whichever was inserted first.
    segments = [_plain(0, 0.0, 4.0),
                _plain(1, math.nextafter(4.0, 0.0), 4.0, level=1)]
    buffer, scan = PlaybackBuffer(), ScanBuffer()
    for segment in (segments[first], segments[1 - first]):
        buffer.insert(segment)
        scan.insert(segment)
    assert not buffer._index().separated
    position = math.nextafter(4.0 - 1e-9, 0.0)
    assert buffer.segment_covering(position) is segments[first]
    _assert_queries_match(buffer, scan)


def test_mutation_counter_dates_the_index():
    buffer = PlaybackBuffer()
    buffer.insert(_plain(0, 0.0, 4.0))
    assert buffer.occupancy_s(1.0) == 3.0
    before = buffer.mutations
    assert buffer.consume_until(1.0) == []
    assert buffer.mutations == before  # nothing released, nothing changed
    buffer.insert(_plain(1, 4.0, 4.0))
    assert buffer.mutations == before + 1
    assert buffer.occupancy_s(1.0) == 7.0


def test_reversed_segment_breaks_the_chain():
    # A reversed segment covers nothing, but a later one may start
    # before it; the index must then give up the bisection.
    segments = [_plain(4, 0.0, 4.0), _plain(5, 10.0, -4.0), _plain(6, 7.0, 2.0)]
    buffer, scan = PlaybackBuffer(), ScanBuffer()
    for segment in segments:
        buffer.insert(segment)
        scan.insert(segment)
        _assert_queries_match(buffer, scan)
    assert not buffer._index().separated
    assert buffer.segment_covering(8.0) is segments[2]
