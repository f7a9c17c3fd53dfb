"""The linear-scan playback buffer, kept as a test oracle.

This is :class:`repro.player.buffer.PlaybackBuffer` as it stood before
its lookups were indexed: every query walks the buffered segments.  The
indexed buffer must answer every query exactly as this one does
(``tests/test_buffer_index.py``).
"""

from __future__ import annotations

from repro.player.buffer import BufferedSegment, MidReplacementUnsupported
from repro.util import check_non_negative


class PlaybackBuffer:
    """Buffered media for one stream (video or audio)."""

    def __init__(self, *, allow_mid_replacement: bool = False):
        self.allow_mid_replacement = allow_mid_replacement
        self._segments: dict[int, BufferedSegment] = {}
        self.discarded_segments: list[BufferedSegment] = []
        self.total_inserted_bytes = 0

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._segments)

    def __contains__(self, index: int) -> bool:
        return index in self._segments

    def get(self, index: int) -> BufferedSegment | None:
        return self._segments.get(index)

    def segments(self) -> list[BufferedSegment]:
        """All buffered segments in index order."""
        return [self._segments[i] for i in sorted(self._segments)]

    def segment_covering(self, position_s: float) -> BufferedSegment | None:
        for segment in self._segments.values():
            if segment.start_s - 1e-9 <= position_s < segment.end_s - 1e-9:
                return segment
        return None

    def contiguous_run_from(self, position_s: float) -> list[BufferedSegment]:
        """Segments playable without a gap starting at ``position_s``."""
        first = self.segment_covering(position_s)
        if first is None:
            return []
        run = [first]
        index = first.index + 1
        while index in self._segments:
            run.append(self._segments[index])
            index += 1
        return run

    def occupancy_s(self, position_s: float) -> float:
        """Seconds of contiguously playable content ahead of the playhead."""
        check_non_negative("position_s", position_s)
        run = self.contiguous_run_from(position_s)
        if not run:
            return 0.0
        return run[-1].end_s - position_s

    def contiguous_segment_count(self, position_s: float) -> int:
        return len(self.contiguous_run_from(position_s))

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
        self._segments[segment.index] = segment
        self.total_inserted_bytes += segment.size_bytes

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
        return old

    def discard_tail_from(self, index: int) -> list[BufferedSegment]:
        """Discard ``index`` and everything after it (deque tail drop)."""
        dropped = [
            self._segments.pop(i) for i in sorted(self._segments) if i >= index
        ]
        self.discarded_segments.extend(dropped)
        return dropped

    def clear(self) -> list[BufferedSegment]:
        """Drop everything (seek outside the buffered range)."""
        dropped = [self._segments.pop(i) for i in sorted(self._segments)]
        self.discarded_segments.extend(dropped)
        return dropped

    def consume_until(self, position_s: float) -> list[BufferedSegment]:
        """Release fully played segments (renderer side of the deque)."""
        finished = [
            segment
            for segment in self._segments.values()
            if segment.end_s <= position_s + 1e-9
        ]
        for segment in finished:
            del self._segments[segment.index]
        return sorted(finished, key=lambda segment: segment.index)
