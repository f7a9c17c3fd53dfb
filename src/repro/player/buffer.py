"""The client playback buffer.

Models the structure the paper digs into in section 4.1.2: ExoPlayer's
buffer is a double-ended queue — network appends at one end, the
renderer consumes at the other — so discarding a *single* segment in
the middle is unsupported, and segment replacement must discard the
whole tail.  :class:`PlaybackBuffer` therefore supports two mutation
modes:

* ``discard_tail_from(index)`` — always available (the deque operation);
* ``replace_single(segment)`` — only when constructed with
  ``allow_mid_replacement=True``, modelling the improved buffer library
  the paper advocates building.

Out-of-order arrival (parallel connections) is supported: segments may
be inserted at any future index; *occupancy* counts only the contiguous
run ahead of the playhead, because a hole stalls the renderer.

Queries run against a sorted index of the buffer (DESIGN.md section
4k), so the player's per-tick questions cost a bisection instead of a
walk over the buffer.  Every mutation bumps a counter.  Steady playback
keeps the index current in place (appending the next index, releasing
the played head); any other mutation leaves it to be rebuilt by the
first query after it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from repro.media.track import StreamType
from repro.util import check_non_negative, non_decreasing


@dataclass(frozen=True)
class BufferedSegment:
    """A downloaded segment sitting in the buffer."""

    stream_type: StreamType
    index: int
    start_s: float
    duration_s: float
    level: int
    declared_bitrate_bps: float
    size_bytes: int
    height: int | None = None

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


class MidReplacementUnsupported(RuntimeError):
    """Raised when single-segment replacement is attempted on a deque
    buffer (the ExoPlayer limitation, section 4.1.2)."""


class _BufferIndex:
    """The buffer at one mutation count, in index order.

    ``starts``/``ends`` hold each segment's covering bounds exactly as
    the coverage test computes them (``start_s - 1e-9`` and
    ``end_s - 1e-9``).  ``runs[i]`` is ``keys[i] - i``, constant exactly
    along a gap-free run of indexes, so the run holding position ``i``
    ends at ``bisect_right(runs, runs[i]) - 1``.  ``separated`` says the
    bounds never decrease along the index order, so at most one segment
    covers any position and bisection finds it; otherwise (intervals
    overlapping by an ulp, negative durations, NaN) coverage takes the
    insertion-order scan.  ``first_end`` is the earliest ``end_s``.

    :meth:`append` and :meth:`drop_head` update the index in place and
    leave it equal to a fresh build field for field, except that
    ``runs`` may carry a constant offset (run keys are only compared
    with each other).  Each returns a falsy value, having changed
    nothing, when it cannot show that equality cheaply.
    """

    __slots__ = (
        "mutations", "keys", "segments", "starts", "ends", "runs",
        "separated", "first_end",
    )

    def __init__(self, segments: dict[int, BufferedSegment], mutations: int):
        self.mutations = mutations
        self.keys = keys = sorted(segments)
        self.segments = ordered = [segments[key] for key in keys]
        segment_ends = [segment.end_s for segment in ordered]
        self.starts = [segment.start_s - 1e-9 for segment in ordered]
        self.ends = [end - 1e-9 for end in segment_ends]
        bounds = [0.0] * (2 * len(keys))
        bounds[::2] = self.starts
        bounds[1::2] = self.ends
        self.separated = non_decreasing(bounds)
        self.runs = [key - i for i, key in enumerate(keys)]
        self.first_end = min(segment_ends, default=math.inf)

    def run_tail(self, i: int) -> int:
        """Position of the last segment of the run holding position ``i``."""
        return bisect_right(self.runs, self.runs[i]) - 1

    def append(self, segment: BufferedSegment) -> bool:
        """Add ``segment`` when its index is above every indexed one.

        ``separated`` follows from the last bound alone: an unseparated
        index stays so (a decrease or a NaN sum persists), and a
        separated one stays so exactly when the new bounds continue the
        order, as long as the new end is not ``+inf`` (only then could
        the bound sum turn NaN); that case is left to a rebuild.
        ``first_end`` folds in the new end as ``min`` does.
        """
        keys = self.keys
        key = segment.index
        if keys and key <= keys[-1]:
            return False
        end = segment.end_s
        start = segment.start_s - 1e-9
        bound = end - 1e-9
        if self.separated:
            if bound == math.inf:
                return False
            self.separated = (not keys or self.ends[-1] <= start) and (
                start <= bound
            )
        if keys:
            self.runs.append(self.runs[-1] + key - keys[-1] - 1)
            self.first_end = min(self.first_end, end)
        else:
            self.runs.append(key)
            self.first_end = end
        keys.append(key)
        self.segments.append(segment)
        self.starts.append(start)
        self.ends.append(bound)
        return True

    def drop_head(self, limit: float) -> list[BufferedSegment] | None:
        """Remove and return the segments with ``end_s <= limit`` when
        they are a prefix of this index, which must be separated; None
        otherwise.

        Along separated bounds the covering ends never decrease, and a
        strictly larger covering end means a strictly larger ``end_s``.
        So when the first kept segment's covering end is below the
        next one's, every later segment ends after it, hence after
        ``limit``, and the earliest remaining ``end_s`` is its own.
        """
        segments = self.segments
        count = len(segments)
        head = 0
        while head < count and segments[head].end_s <= limit:
            head += 1
        ends = self.ends
        if head == 0 or (head + 1 < count and not ends[head] < ends[head + 1]):
            return None
        released = segments[:head]
        for column in (self.keys, segments, self.starts, ends, self.runs):
            del column[:head]
        self.first_end = segments[0].end_s if segments else math.inf
        return released


class PlaybackBuffer:
    """Buffered media for one stream (video or audio)."""

    def __init__(self, *, allow_mid_replacement: bool = False):
        self.allow_mid_replacement = allow_mid_replacement
        self._segments: dict[int, BufferedSegment] = {}
        self.discarded_segments: list[BufferedSegment] = []
        self.total_inserted_bytes = 0
        self.mutations = 0
        self._built = _BufferIndex(self._segments, 0)
        # (mutations, position, answer) of the last run_end_s query.
        self._run_end_memo: tuple = (-1, None, None)

    def _index(self) -> _BufferIndex:
        if self._built.mutations != self.mutations:
            self._built = _BufferIndex(self._segments, self.mutations)
        return self._built

    def _cover(self, position_s: float) -> tuple[_BufferIndex, int]:
        """The index and the position in it of the segment covering
        ``position_s`` (-1 when none does)."""
        index = self._index()
        if index.separated:
            i = bisect_right(index.starts, position_s) - 1
            if i >= 0 and position_s < index.ends[i]:
                return index, i
            return index, -1
        for segment in self._segments.values():
            if segment.start_s - 1e-9 <= position_s < segment.end_s - 1e-9:
                return index, bisect_left(index.keys, segment.index)
        return index, -1

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._segments)

    def __contains__(self, index: int) -> bool:
        return index in self._segments

    def get(self, index: int) -> BufferedSegment | None:
        return self._segments.get(index)

    def segments(self) -> list[BufferedSegment]:
        """All buffered segments in index order."""
        return list(self._index().segments)

    def segment_covering(self, position_s: float) -> BufferedSegment | None:
        index, i = self._cover(position_s)
        return index.segments[i] if i >= 0 else None

    def cover_end(self, position_s: float) -> float:
        """Where the segment covering ``position_s`` stops covering: its
        covering end (``end_s - 1e-9``) on a separated index.

        On a separated index that segment covers every position from
        ``position_s`` up to the returned bound, until the buffer
        mutates.  ``-inf`` when nothing covers ``position_s`` or the
        index is not separated: every position then needs its own
        :meth:`segment_covering`.
        """
        index, i = self._cover(position_s)
        return index.ends[i] if i >= 0 and index.separated else -math.inf

    def run_end_s(self, position_s: float) -> float | None:
        """Where the content playable without a gap from ``position_s``
        ends, or None when no segment covers ``position_s``.

        The player asks this several times per tick at one position;
        the last answer is kept until the position or the buffer moves.
        """
        mutations, position, answer = self._run_end_memo
        if mutations == self.mutations and position == position_s:
            return answer
        index, i = self._cover(position_s)
        answer = None if i < 0 else index.segments[index.run_tail(i)].end_s
        self._run_end_memo = (self.mutations, position_s, answer)
        return answer

    def occupancy_s(self, position_s: float) -> float:
        """Seconds of contiguously playable content ahead of the playhead."""
        check_non_negative("position_s", position_s)
        end = self.run_end_s(position_s)
        if end is None:
            return 0.0
        return end - position_s

    def contiguous_segment_count(self, position_s: float) -> int:
        index, i = self._cover(position_s)
        if i < 0:
            return 0
        return index.run_tail(i) - i + 1

    def last_contiguous_index(self, index: int) -> int:
        """Highest index of the gap-free run of buffered indexes that
        holds the buffered index ``index``."""
        built = self._index()
        return built.keys[built.run_tail(bisect_left(built.keys, index))]

    def has_content_at(self, position_s: float) -> bool:
        return self.segment_covering(position_s) is not None

    def end_index(self) -> int | None:
        """Highest buffered index (including beyond any hole)."""
        if not self._segments:
            return None
        return max(self._segments)

    def total_bytes(self) -> int:
        return sum(segment.size_bytes for segment in self._segments.values())

    # -- mutation ------------------------------------------------------------

    def insert(self, segment: BufferedSegment) -> None:
        """Insert a newly downloaded segment (out-of-order allowed)."""
        if segment.index in self._segments:
            raise ValueError(
                f"segment {segment.index} already buffered; use replace_single"
            )
        index = self._built
        current = index.mutations == self.mutations
        self._segments[segment.index] = segment
        self.total_inserted_bytes += segment.size_bytes
        self.mutations += 1
        if current and index.append(segment):
            index.mutations = self.mutations

    def replace_single(self, segment: BufferedSegment) -> BufferedSegment:
        """Swap one mid-buffer segment for a fresh download.

        Requires ``allow_mid_replacement``; returns the discarded one.
        """
        if not self.allow_mid_replacement:
            raise MidReplacementUnsupported(
                "this buffer is a double-ended queue; only tail discard is "
                "supported (see section 4.1.2 of the paper)"
            )
        old = self._segments.get(segment.index)
        if old is None:
            raise ValueError(f"no buffered segment {segment.index} to replace")
        self._segments[segment.index] = segment
        self.discarded_segments.append(old)
        self.total_inserted_bytes += segment.size_bytes
        self.mutations += 1
        return old

    def discard_tail_from(self, index: int) -> list[BufferedSegment]:
        """Discard ``index`` and everything after it (deque tail drop)."""
        dropped = [
            self._segments.pop(i) for i in sorted(self._segments) if i >= index
        ]
        self.discarded_segments.extend(dropped)
        self.mutations += 1
        return dropped

    def clear(self) -> list[BufferedSegment]:
        """Drop everything (seek outside the buffered range)."""
        dropped = [self._segments.pop(i) for i in sorted(self._segments)]
        self.discarded_segments.extend(dropped)
        self.mutations += 1
        return dropped

    def consume_until(self, position_s: float) -> list[BufferedSegment]:
        """Release fully played segments (renderer side of the deque)."""
        index = self._index()
        if index.separated:
            limit = position_s + 1e-9
            if not index.first_end <= limit:
                return []  # no segment ends by position_s
            finished = index.drop_head(limit)
            if finished is not None:
                for segment in finished:
                    del self._segments[segment.index]
                self.mutations += 1
                index.mutations = self.mutations
                return finished
        finished = [
            segment
            for segment in self._segments.values()
            if segment.end_s <= position_s + 1e-9
        ]
        for segment in finished:
            del self._segments[segment.index]
        if finished:
            self.mutations += 1
        return sorted(finished, key=lambda segment: segment.index)
