"""The HAS player engine.

One engine, configured by :class:`~repro.player.config.PlayerConfig`,
reproduces all twelve studied services plus the ExoPlayer variants.
Per simulation tick the player:

1. advances playback (position moves only through contiguously
   buffered content; with separate audio, *both* streams must cover the
   playhead — the D1 lesson of Figure 6);
2. emits the 1 Hz seekbar updates the UI monitor observes;
3. applies download control (pause above / resume below thresholds);
4. lets the replacement policy discard or replace buffered segments;
5. fills free scheduler slots with metadata or segment fetches, asking
   the ABR algorithm for the track of each forward video segment.

The player only ever acts on parsed manifest data fetched over the
simulated network — never on ground-truth media objects — so black-box
experiments that tamper with manifests affect it exactly as they would
a real client.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from typing import Optional

from repro.manifest import (
    ClientManifest,
    ClientSegmentInfo,
    ClientTrackInfo,
    ManifestCipher,
    ManifestError,
    parse_any_manifest,
    parse_media_playlist,
    parse_sidx,
    segments_from_sidx,
)
from repro.media.track import StreamType
from repro.net.clock import Clock
from repro.net.network import Network
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, AbrDecision, RebufferSpan, RetryEvent, Tracer
from repro.player.abr import AbrContext
from repro.player.buffer import BufferedSegment, PlaybackBuffer
from repro.player.config import PlayerConfig, SchedulerStrategy
from repro.player.events import (
    DownloadFailed,
    EventLog,
    PlaybackStarted,
    ProgressSample,
    SegmentCompleted,
    SegmentDiscarded,
    SegmentPlayStarted,
    SegmentSkipped,
    SessionEnded,
    StallEnded,
    StallStarted,
)
from repro.player.replacement import (
    DiscardTail,
    ReplaceSingle,
    ReplacementContext,
)
from repro.player.scheduler import (
    FetchJob,
    JobKind,
    JobResult,
    PartitionedParallelScheduler,
    Scheduler,
    SingleConnectionScheduler,
    SplitScheduler,
    SyncedAvScheduler,
)
from repro.util import DeterministicRng, derive_seed, non_decreasing

_EPS = 1e-9


class PlayerState(enum.Enum):
    INIT = "init"
    BUFFERING = "buffering"
    PLAYING = "playing"
    REBUFFERING = "rebuffering"
    ENDED = "ended"


def _build_scheduler(config: PlayerConfig, network: Network) -> Scheduler:
    if config.strategy is SchedulerStrategy.SINGLE:
        return SingleConnectionScheduler(
            network, persistent=config.persistent_connections
        )
    if config.strategy is SchedulerStrategy.SYNCED_AV:
        return SyncedAvScheduler(
            network, config.connections, persistent=config.persistent_connections
        )
    if config.strategy is SchedulerStrategy.PARTITIONED_PARALLEL:
        return PartitionedParallelScheduler(
            network,
            config.video_connections,
            config.audio_connections,
            persistent=config.persistent_connections,
        )
    if config.strategy is SchedulerStrategy.SPLIT:
        return SplitScheduler(
            network, config.connections, persistent=config.persistent_connections
        )
    raise ValueError(f"unknown strategy {config.strategy}")


class Player:
    """A complete HAS client session."""

    def __init__(
        self,
        clock: Clock,
        network: Network,
        config: PlayerConfig,
        manifest_url: str,
        *,
        cipher: Optional[ManifestCipher] = None,
        tracer: Tracer = NULL_TRACER,
    ):
        self.clock = clock
        self.network = network
        self.config = config
        self.manifest_url = manifest_url
        self.cipher = cipher
        self.tracer = tracer

        self.scheduler = _build_scheduler(config, network)
        self.scheduler.tracer = tracer
        self.abr = config.abr_factory()
        self.estimator = config.estimator_factory()
        self.replacement = config.replacement_factory()

        self.state = PlayerState.INIT
        self.manifest: ClientManifest | None = None
        self.events = EventLog()
        self.ui_samples: list[ProgressSample] = []

        self.buffers: dict[StreamType, PlaybackBuffer] = {
            StreamType.VIDEO: PlaybackBuffer(
                allow_mid_replacement=config.allow_mid_replacement
            ),
            StreamType.AUDIO: PlaybackBuffer(
                allow_mid_replacement=config.allow_mid_replacement
            ),
        }
        self._pending: dict[StreamType, set[int]] = {
            StreamType.VIDEO: set(),
            StreamType.AUDIO: set(),
        }
        self._paused: dict[StreamType, bool] = {
            StreamType.VIDEO: False,
            StreamType.AUDIO: False,
        }
        self._blocked_until: dict[StreamType, float] = {
            StreamType.VIDEO: 0.0,
            StreamType.AUDIO: 0.0,
        }
        self._loading_tracks: set[tuple[StreamType, int]] = set()
        self._stale_jobs: set[int] = set()
        self._replacement_inflight = False
        # Resilience state (repro.player.resilience policies).
        self._retry_policy = config.effective_retry_policy
        self._degradation = config.degradation
        self._attempts: dict[tuple, int] = {}
        self._forced_levels: dict[tuple[StreamType, int], int] = {}
        self._skipped: dict[StreamType, set[int]] = {
            StreamType.VIDEO: set(),
            StreamType.AUDIO: set(),
        }
        self._dead_tracks: set[tuple[StreamType, int]] = set()
        self._retry_rng = (
            DeterministicRng(
                derive_seed(self._retry_policy.jitter_seed, config.name)
            )
            if self._retry_policy.jitter_fraction > 0.0
            else None
        )
        self._manifest_requested = False
        self._last_selected_level: int | None = None
        self._forward_video_completed = 0
        self._current_play_index: int | None = None
        self._play_pos = 0.0
        self._stall_started_at: float | None = None
        self._next_ui_at = 0.0
        self._content_end: float | None = None
        self._ever_started = False
        # The next tick this player takes, on the clock's count: None
        # until its first advance, behind the clock's while the event
        # loop leaves it out of ticks (catch_up).
        self._tick: int | None = None
        # id(timeline) -> (timeline, its end_s - _EPS list, or None when
        # those ends decrease somewhere); holding the timeline keeps its
        # id from being reused.  See _index_covering.
        self._timeline_ends: dict[
            int, tuple[list[ClientSegmentInfo], list[float] | None]
        ] = {}

    # -- public inspection --------------------------------------------------

    @property
    def position_s(self) -> float:
        return self._play_pos

    def buffer_s(self, stream_type: StreamType = StreamType.VIDEO) -> float:
        return self.buffers[stream_type].occupancy_s(self._play_pos)

    @property
    def min_buffer_s(self) -> float:
        return min(self.buffer_s(stream) for stream in self._streams())

    @property
    def playing(self) -> bool:
        return self.state is PlayerState.PLAYING

    @property
    def ended(self) -> bool:
        return self.state is PlayerState.ENDED

    # -- user interaction ---------------------------------------------------

    def seek(self, position_s: float) -> None:
        """Move the seekbar to ``position_s`` (section 2.4's user action).

        A seek inside the contiguously buffered range keeps the buffer
        and continues playing; anything else flushes both buffers,
        abandons in-flight segment downloads (their bytes become waste)
        and rebuffers from the new position using the startup logic —
        which is also how the player recovers from stalls.
        """
        if self.state in (PlayerState.INIT, PlayerState.ENDED):
            raise RuntimeError(f"cannot seek while {self.state.value}")
        if position_s < 0:
            raise ValueError(f"seek position must be >= 0, got {position_s}")
        if self._content_end is not None:
            position_s = min(position_s, self._content_end - 1e-3)
        within = all(
            self.buffers[stream].segment_covering(position_s) is not None
            for stream in self._streams()
        )
        from repro.player.events import SeekPerformed

        self.events.emit(
            SeekPerformed(
                at=self.clock.now,
                from_position_s=self._play_pos,
                to_position_s=position_s,
                within_buffer=within,
            )
        )
        self._play_pos = position_s
        self._current_play_index = None
        if within:
            for stream in self._streams():
                self.buffers[stream].consume_until(position_s)
            self._note_play_index(position_s, self.clock.now)
            return
        for stream in self._streams():
            dropped = self.buffers[stream].clear()
            for segment in dropped:
                self.events.emit(
                    SegmentDiscarded(
                        at=self.clock.now,
                        stream_type=stream,
                        index=segment.index,
                        level=segment.level,
                        size_bytes=segment.size_bytes,
                    )
                )
            self._pending[stream].clear()
        for job in (
            self.scheduler.inflight_jobs(StreamType.VIDEO)
            + self.scheduler.inflight_jobs(StreamType.AUDIO)
        ):
            if job.kind is JobKind.SEGMENT:
                self._stale_jobs.add(id(job))
        self._replacement_inflight = False
        # Rebuffer with the startup logic, without counting a stall: the
        # player knows this gap is user-initiated.
        self._end_stall()
        self.state = PlayerState.BUFFERING

    # -- main loop ------------------------------------------------------------

    def advance(self, dt: float) -> None:
        """One simulation tick (call after the network moved its bytes).

        A player left behind the clock first replays the ticks it sat
        out (:meth:`catch_up`); its first advance starts it on the
        clock's current tick.
        """
        self.catch_up()
        self._tick = self.clock.ticks + 1
        if self.state is not PlayerState.ENDED:
            self._advance_playback(dt)
        self._emit_ui_samples()
        if self.state is not PlayerState.ENDED:
            self._advance_fetching()

    def catch_up(self) -> None:
        """Replay, as no-op ticks, the ticks the clock took without us.

        The event loop runs a full :meth:`advance` only for the clients
        a dispatch touches, and leaves every other one behind the clock,
        inside the no-op window its own wake certified (DESIGN.md §4l).
        Whatever reads the player's state catches it up first: its
        :meth:`advance`, its two job-completion handlers, and the loop
        before it reads a signature, retires the client or builds the
        results.  One :meth:`apply_noop_ticks` call replays every tick
        missed; a player not yet advanced has none.
        """
        if self._tick is not None:
            behind = self.clock.ticks - self._tick
            if behind > 0:
                self.apply_noop_ticks(behind, self.clock.dt)

    # -- no-op margin contracts (the event engine's windows) ------------------

    def idle_noop_ticks(self, dt: float, max_ticks: int) -> int:
        """How many upcoming ticks are provably no-ops for this player.

        Callers must already have established that nothing is in flight
        (``scheduler.busy`` is False and every connection is idle).  The
        returned count is the largest window in which per-tick
        ``advance`` calls would only move the playhead, emit UI samples
        and start the next buffered video segment
        (``SegmentPlayStarted``, replayed by :meth:`apply_noop_ticks`):
        no state transition, no pause/resume flip, no ABR output change
        (via the algorithm's ``buffer_wake_thresholds`` contract), no
        replacement action (via the policy's ``wake_time`` contract),
        no retry-block expiry and no new fetch.  Segment boundaries do
        not end the window: the render limit keeps the playhead inside
        one contiguous buffered run, so the forward index, and with it
        every fetch decision, is the same on both sides of a boundary.
        Unknown ABR or replacement implementations make the window
        empty, never wrong.
        """
        if self.state is PlayerState.ENDED:
            return max_ticks
        if self.state is not PlayerState.PLAYING:
            return 0
        if self.manifest is None or self._replacement_inflight or self._stale_jobs:
            return 0
        if self._pending_skip_jump():
            return 0  # the playhead jump must run serially this tick
        pos = self._play_pos
        margins: list[float] = []  # seconds until a tick may stop being a no-op

        margins.append(self._render_limit() - pos)
        video_cover = self.buffers[StreamType.VIDEO].segment_covering(pos)
        if video_cover is None:
            return 0
        if video_cover.index != self._current_play_index:
            # A SegmentPlayStarted emission is due this very tick (e.g.
            # right after a rebuffer exit, which flips to PLAYING without
            # noting the play index); run it serially.
            return 0

        for stream in self._streams():
            occupancy = self.buffer_s(stream)
            if self._paused[stream]:
                margins.append(occupancy - self.config.resume_threshold_s)
            elif occupancy >= self.config.pause_threshold_s - 1e-6:
                return 0  # pause flag about to flip; run it serially
            if not self._fetch_gate_margins(stream, occupancy, margins):
                return 0
        return self._ticks_within(margins, dt, max_ticks)

    def _fetch_gate_margins(
        self,
        stream: StreamType,
        occupancy: float,
        margins: list[float],
        *,
        draining: bool = True,
    ) -> bool:
        """Margins before ``_next_job(stream)`` could return a job.

        Appends to ``margins`` the times (from now) at which the serial
        ``_next_job`` might stop returning None, assuming only playback
        progresses (position advances, buffers drain, nothing completes).
        Returns False when a job might be produced this very tick — the
        caller must then fall back to serial execution.

        ``draining=False`` (stalled-state callers) declares that the
        playhead holds still in the window, so occupancy is frozen and
        the ABR's drain-to-threshold wakes can never fire: those margins
        are skipped entirely instead of clamping the window.  The
        clock-driven gates (backoff expiry, replacement ``wake_time``)
        apply either way.
        """
        now = self.clock.now
        if now < self._blocked_until[stream]:
            # _next_job returns None before any deeper logic runs.
            margins.append(self._blocked_until[stream] - now)
            return True
        assert self.manifest is not None
        tracks = self.manifest.tracks(stream)
        if not tracks:
            return True
        if stream is StreamType.VIDEO:
            thresholds = getattr(self.abr, "buffer_wake_thresholds", None)
            if thresholds is None:
                return False
            if draining:
                for threshold in thresholds():
                    if threshold is not None and occupancy > threshold:
                        margins.append(occupancy - threshold)
            level = self._usable_level(stream, self._choose_video_level())
            if self.config.prefetch_all_indexes and any(
                track.segments is None
                and (stream, other_level) not in self._dead_tracks
                for other_level, track in enumerate(tracks)
            ):
                return False
        else:
            level = self._usable_level(stream, 0)
        if tracks[level].segments is None:
            return False  # the serial path would issue a metadata fetch
        if stream is StreamType.VIDEO and not self._replacement_inflight:
            wake = getattr(self.replacement, "wake_time", None)
            if wake is None:
                return False
            wake_at = wake(
                ReplacementContext(
                    now=now,
                    buffer=self.buffers[StreamType.VIDEO],
                    play_position_s=self._play_pos,
                    buffer_s=occupancy,
                    selected_level=level,
                    last_fetched_level=self._last_selected_level,
                )
            )
            if wake_at <= now:
                return False
            margins.append(wake_at - now)
        if not self._paused[stream] and self._next_forward_index(stream) is not None:
            return False  # the serial path would fetch this tick
        return True

    @staticmethod
    def _ticks_within(margins: list[float], dt: float, max_ticks: int) -> int:
        ticks = max_ticks
        for margin in margins:
            if margin == math.inf:
                continue
            ticks = min(ticks, int((margin - 1e-6) / dt))
        return max(ticks, 0)

    def _timeout_margins(self, margins: list[float]) -> bool:
        """Margins until an in-flight job hits its request timeout.

        Returns False when a timeout abort is due this very tick (the
        caller must run it serially).  With no timeout configured this
        is a no-op, so un-faulted runs pay nothing.
        """
        timeout = self._retry_policy.request_timeout_s
        if timeout is None:
            return True
        now = self.clock.now
        for stream in (StreamType.VIDEO, StreamType.AUDIO):
            for job in self.scheduler.inflight_jobs(stream):
                if job.submitted_at is None:
                    continue
                margin = job.submitted_at + timeout - now
                if margin <= 1e-9:
                    return False
                margins.append(margin)
        return True

    def _pending_skip_jump(self) -> bool:
        """True when ``_advance_past_skipped`` would move the playhead."""
        if not (
            self._skipped[StreamType.VIDEO] or self._skipped[StreamType.AUDIO]
        ):
            return False
        if self.manifest is None or self.state in (
            PlayerState.INIT, PlayerState.ENDED
        ):
            return False
        for stream in self._streams():
            skipped = self._skipped[stream]
            if not skipped:
                continue
            if self.buffers[stream].segment_covering(self._play_pos) is not None:
                continue
            timeline = self._segment_timeline(stream)
            if timeline is None:
                continue
            if self._play_pos >= timeline[-1].end_s - _EPS:
                continue
            if self._index_covering(timeline, self._play_pos) in skipped:
                return True
        return False

    def pause_state(self) -> tuple[bool, bool]:
        """(video, audio) pause-flag snapshot.

        A stable public read of the throttling flags so engines can
        detect a flip across a tick without reaching into ``_paused``.
        """
        return (
            self._paused[StreamType.VIDEO],
            self._paused[StreamType.AUDIO],
        )

    def stalled_noop_ticks(self, dt: float, max_ticks: int) -> int:
        """No-op-window vetting while the player is *not* PLAYING.

        The stalled-state sibling of :meth:`idle_noop_ticks`, with the
        same caller guarantees (``scheduler.busy`` is False and every
        connection is idle) but covering BUFFERING / REBUFFERING waits
        and retry-backoff windows.  With nothing in flight and the
        playhead holding still, buffer occupancy is frozen — so
        readiness checks (``_startup_ready`` / ``_rebuffer_ready``) and
        pause flags cannot flip later in the window if they do not flip
        now, and the only time-driven wakes left are the fetch gates
        (backoff expiry, ABR and replacement wake contracts).  The
        tick-loop engine never calls this; it exists for the event
        engine, which batches stalled stretches the serial loop walks
        tick by tick.
        """
        if self.state is PlayerState.ENDED:
            return max_ticks  # advance() only emits UI samples
        if self.state is PlayerState.PLAYING:
            return 0  # wrong vetting path; idle_noop_ticks owns PLAYING
        if self.state is PlayerState.INIT:
            if self.manifest is not None or self._manifest_requested:
                return 0  # transition / response handling due this tick
            # Pre-request (or between retry attempts): the only serial
            # effect before the backoff expires is the 1 Hz UI sample.
            margin = self._blocked_until[StreamType.VIDEO] - self.clock.now
            if margin <= 1e-9:
                return 0  # the manifest (re-)request fires this tick
            return self._ticks_within([margin], dt, max_ticks)
        if self.manifest is None or self._replacement_inflight or self._stale_jobs:
            return 0
        if self._pending_skip_jump():
            return 0  # the playhead jump must run serially this tick
        if self.state is PlayerState.BUFFERING:
            # Readiness is a pure function of buffers and position, both
            # frozen in the window: if it does not hold now, it cannot
            # start holding until a download completes (serial by
            # definition under the caller's no-transfers guarantee).
            if self._startup_ready():
                return 0
        elif self._rebuffer_ready():  # REBUFFERING
            return 0
        margins: list[float] = []
        for stream in self._streams():
            occupancy = self.buffer_s(stream)
            if self._paused[stream]:
                if occupancy <= self.config.resume_threshold_s:
                    return 0  # resume flip fires this tick
                # Frozen occupancy: the flip cannot occur in-window.
            elif occupancy >= self.config.pause_threshold_s - 1e-6:
                return 0  # pause flag about to flip; run it serially
            if not self._fetch_gate_margins(
                stream, occupancy, margins, draining=False
            ):
                return 0
        return self._ticks_within(margins, dt, max_ticks)

    def transfer_noop_ticks(self, dt: float, max_ticks: int) -> int:
        """How many ticks are player no-ops while downloads are in flight.

        The download-phase sibling of :meth:`idle_noop_ticks`: the caller
        guarantees at least one transfer is in flight and that no
        transfer completes inside the replayed ticks (a window ends on
        its completing tick, which the event loop dispatches).  Under
        that premise buffers never gain content, so the only per-tick
        player effects are the playhead (when PLAYING), the segment
        starts it crosses and the 1 Hz UI samples, all replayed by
        :meth:`apply_noop_ticks`; this returns the largest tick count
        for which that provably holds — no state transition, no
        pause/resume flip, no scheduler submission — or 0 when the
        current tick might do more.
        """
        if self.state is PlayerState.ENDED:
            return max_ticks  # advance() only emits UI samples
        if self.state is PlayerState.INIT:
            # The in-flight transfer is the manifest fetch: playback
            # waits for it, and _advance_fetching re-requests nothing
            # — but a request timeout may still abort it mid-window.
            if self.manifest is not None or not self._manifest_requested:
                return 0
            margins: list[float] = []
            if not self._timeout_margins(margins):
                return 0
            return self._ticks_within(margins, dt, max_ticks)
        if self.manifest is None:
            return 0
        if self._pending_skip_jump():
            return 0  # the playhead jump must run serially this tick
        pos = self._play_pos
        margins = []
        if not self._timeout_margins(margins):
            return 0
        playing = self.state is PlayerState.PLAYING
        if playing:
            margins.append(self._render_limit() - pos)
            video_cover = self.buffers[StreamType.VIDEO].segment_covering(pos)
            if video_cover is None:
                return 0
            if video_cover.index != self._current_play_index:
                return 0  # SegmentPlayStarted due this tick; run serially
        elif self.state is PlayerState.BUFFERING:
            # Readiness depends only on buffer contents (static in the
            # window) — if it holds now the transition runs this tick.
            if self._startup_ready():
                return 0
        else:  # REBUFFERING
            if self._rebuffer_ready():
                return 0
        for stream in self._streams():
            occupancy = self.buffer_s(stream)
            if self._paused[stream]:
                if playing:
                    margins.append(occupancy - self.config.resume_threshold_s)
                elif occupancy <= self.config.resume_threshold_s:
                    return 0  # resume flip fires this tick
            elif occupancy >= self.config.pause_threshold_s - 1e-6:
                return 0  # pause flag about to flip; run it serially
            if self.scheduler.slots_for(stream) <= 0:
                # _next_job is unreachable; with no completions in the
                # window the slot count cannot grow, so it stays so.
                continue
            if not self._fetch_gate_margins(stream, occupancy, margins):
                return 0
        return self._ticks_within(margins, dt, max_ticks)

    def apply_noop_ticks(self, count: int, dt: float) -> None:
        """Replay this player's next ``count`` ticks as no-ops, in one call.

        They are the ticks it sat out behind the clock (:meth:`catch_up`)
        or, when the caller ticks the clock afterwards, the next ones.
        Bit-identical to ``count`` serial ``advance`` calls within a
        window vetted by :meth:`idle_noop_ticks` or
        :meth:`transfer_noop_ticks`: when PLAYING the position
        accumulates by repeated ``+= dt`` (otherwise it holds still,
        exactly as ``_advance_playback`` would), the tick whose advanced
        position leaves the covering video segment emits
        ``SegmentPlayStarted`` at its start time, and each tick's UI
        samples are emitted against that tick's pre-advance clock value,
        exactly as the per-tick path would.  The start times are read
        from the clock's timeline (``dt`` is the clock's step).  Played
        segments are released once, at the end: a released segment
        never covers a later position, so the coverage answers do not
        depend on when.
        """
        if count <= 0:
            return
        clock = self.clock
        first = clock.ticks if self._tick is None else self._tick
        self._tick = first + count
        pos = self._play_pos
        next_ui = self._next_ui_at
        samples = self.ui_samples
        advancing = self.state is PlayerState.PLAYING
        if advancing:
            video = self.buffers[StreamType.VIDEO]
            cover_end = video.cover_end(pos)
        for t in clock.starts(count, first):
            if advancing:
                pos += dt
                if pos >= cover_end:
                    self._note_play_index(pos, t)
                    cover_end = video.cover_end(pos)
            while t + _EPS >= next_ui:
                samples.append(ProgressSample(at=next_ui, position_s=pos))
                next_ui += 1.0
        self._next_ui_at = next_ui
        if advancing:
            self._play_pos = pos
            for stream in self._streams():
                self.buffers[stream].consume_until(pos)

    # -- playback -------------------------------------------------------------

    def _streams(self) -> list[StreamType]:
        if self.manifest is not None and self.manifest.has_separate_audio:
            return [StreamType.VIDEO, StreamType.AUDIO]
        return [StreamType.VIDEO]

    def _render_limit(self) -> float:
        """How far playback may advance through contiguous content."""
        limit = math.inf
        for stream in self._streams():
            end = self.buffers[stream].run_end_s(self._play_pos)
            limit = min(limit, self._play_pos if end is None else end)
        if self._content_end is not None:
            limit = min(limit, self._content_end)
        return limit

    def _advance_playback(self, dt: float) -> None:
        now = self.clock.now
        if self.state is PlayerState.INIT:
            if self.manifest is not None:
                self.state = PlayerState.BUFFERING
            return
        self._advance_past_skipped()
        if self.state is PlayerState.BUFFERING:
            if self._startup_ready():
                if not self._ever_started:
                    self.events.emit(PlaybackStarted(at=now))
                    self._ever_started = True
                self.state = PlayerState.PLAYING
                self._note_play_index(self._play_pos, now)
            return
        if self.state is PlayerState.REBUFFERING:
            if self._rebuffer_ready():
                self._end_stall()
                self.state = PlayerState.PLAYING
            return
        # PLAYING
        limit = self._render_limit()
        advance = min(dt, limit - self._play_pos)
        if advance <= _EPS:
            if (
                self._content_end is not None
                and self._play_pos >= self._content_end - 1e-6
            ):
                self._end_session("content finished")
                return
            self.state = PlayerState.REBUFFERING
            self._stall_started_at = now
            self.events.emit(StallStarted(at=now, position_s=self._play_pos))
            return
        self._play_pos += advance
        self._note_play_index(self._play_pos, now)
        for stream in self._streams():
            self.buffers[stream].consume_until(self._play_pos)
        if (
            self._content_end is not None
            and self._play_pos >= self._content_end - 1e-6
        ):
            self._end_session("content finished")

    def _advance_past_skipped(self) -> None:
        """Jump the playhead over permanently-failed (skipped) segments.

        Runs only when a skipped segment sits exactly at the playhead
        with no buffered content covering it; the jump lands at the
        segment's end so playback (or buffering) resumes from the next
        fetchable segment.
        """
        if not (
            self._skipped[StreamType.VIDEO] or self._skipped[StreamType.AUDIO]
        ):
            return
        if self.manifest is None:
            return
        moved = False
        progress = True
        while progress:
            progress = False
            for stream in self._streams():
                skipped = self._skipped[stream]
                if not skipped:
                    continue
                if (
                    self.buffers[stream].segment_covering(self._play_pos)
                    is not None
                ):
                    continue
                timeline = self._segment_timeline(stream)
                if timeline is None:
                    continue
                if self._play_pos >= timeline[-1].end_s - _EPS:
                    continue
                index = self._index_covering(timeline, self._play_pos)
                if index not in skipped:
                    continue
                segment = next(s for s in timeline if s.index == index)
                if segment.end_s <= self._play_pos + _EPS:
                    continue
                self.events.emit(
                    SegmentSkipped(
                        at=self.clock.now,
                        stream_type=stream,
                        index=index,
                        from_position_s=self._play_pos,
                        to_position_s=segment.end_s,
                    )
                )
                self._play_pos = segment.end_s
                moved = progress = True
        if moved:
            for stream in self._streams():
                self.buffers[stream].consume_until(self._play_pos)
            if self.state is PlayerState.PLAYING:
                self._note_play_index(self._play_pos, self.clock.now)

    def _note_play_index(self, position_s: float, at: float) -> None:
        """Emit ``SegmentPlayStarted`` at ``at`` when the video segment
        covering ``position_s`` is not the one playing."""
        segment = self.buffers[StreamType.VIDEO].segment_covering(position_s)
        if segment is None or segment.index == self._current_play_index:
            return
        self._current_play_index = segment.index
        self.events.emit(
            SegmentPlayStarted(
                at=at,
                index=segment.index,
                level=segment.level,
                declared_bitrate_bps=segment.declared_bitrate_bps,
                height=segment.height,
            )
        )

    def _remaining_content_s(self) -> float:
        if self._content_end is None:
            return math.inf
        return max(self._content_end - self._play_pos, 0.0)

    def _startup_ready(self) -> bool:
        needed = min(self.config.startup_buffer_s, self._remaining_content_s())
        if self.min_buffer_s + _EPS < needed:
            return False
        video = self.buffers[StreamType.VIDEO]
        have = video.contiguous_segment_count(self._play_pos)
        if have < self.config.startup_min_segments and not self._stream_complete(
            StreamType.VIDEO
        ):
            return False
        return have > 0

    def _rebuffer_ready(self) -> bool:
        needed = min(
            self.config.effective_rebuffer_resume_s, self._remaining_content_s()
        )
        if self._remaining_content_s() <= _EPS:
            return True
        return (
            self.min_buffer_s + _EPS >= needed
            and self.buffers[StreamType.VIDEO].contiguous_segment_count(
                self._play_pos
            )
            > 0
        )

    def _end_stall(self) -> None:
        """Close an open stall: emit the event and the trace span.

        The single exit path for all three stall terminations (rebuffer
        resume, seek flush, session end); every caller runs on a serial
        tick, so the span boundaries are exact in batched runs.
        """
        if self._stall_started_at is None:
            return
        now = self.clock.now
        self.events.emit(
            StallEnded(
                at=now,
                position_s=self._play_pos,
                duration_s=now - self._stall_started_at,
            )
        )
        if self.tracer.enabled:
            self.tracer.emit(
                RebufferSpan(
                    at=now,
                    start_s=self._stall_started_at,
                    end_s=now,
                    position_s=self._play_pos,
                )
            )
        self._stall_started_at = None

    def _end_session(self, reason: str) -> None:
        self._end_stall()
        self.state = PlayerState.ENDED
        self.events.emit(
            SessionEnded(at=self.clock.now, position_s=self._play_pos, reason=reason)
        )

    def _emit_ui_samples(self) -> None:
        # The seekbar is updated via ProgressBar.setProgress at 1 Hz
        # regardless of player state (section 2.4).
        while self.clock.now + _EPS >= self._next_ui_at:
            self.ui_samples.append(
                ProgressSample(at=self._next_ui_at, position_s=self._play_pos)
            )
            self._next_ui_at += 1.0

    # -- fetching ---------------------------------------------------------------

    def _advance_fetching(self) -> None:
        self._abort_overdue_jobs()
        if self.state is PlayerState.ENDED:
            return  # an aborted download just exhausted the retry budget
        if self.manifest is None:
            if (
                not self._manifest_requested
                and self.clock.now >= self._blocked_until[StreamType.VIDEO]
                and self.scheduler.slots_for(StreamType.VIDEO)
            ):
                self._request_manifest()
            return
        self._update_pause_flags()
        progress = True
        while progress:
            progress = False
            # Offer capacity to the stream with less buffered content
            # first; on shared-capacity schedulers this is what keeps
            # audio and video in sync (the section 3.2 best practice,
            # and D3's one-segment-at-a-time behaviour).
            streams = sorted(self._streams(), key=self.buffer_s)
            for stream in streams:
                if self.scheduler.slots_for(stream) <= 0:
                    continue
                job = self._next_job(stream)
                if job is not None:
                    self.scheduler.submit(job)
                    progress = True

    def _abort_overdue_jobs(self) -> None:
        """Abort in-flight jobs that exceeded the per-request timeout.

        The scheduler abort completes the job synchronously as a
        failure, so the regular retry path takes over immediately.
        """
        timeout = self._retry_policy.request_timeout_s
        if timeout is None:
            return
        now = self.clock.now
        for stream in (StreamType.VIDEO, StreamType.AUDIO):
            for job in self.scheduler.inflight_jobs(stream):
                if job.submitted_at is None:
                    continue
                if now - job.submitted_at + 1e-9 >= timeout:
                    self.scheduler.abort_job(job)

    def _update_pause_flags(self) -> None:
        for stream in self._streams():
            occupancy = self.buffer_s(stream)
            if not self._paused[stream] and occupancy >= self.config.pause_threshold_s:
                self._paused[stream] = True
            elif self._paused[stream] and occupancy <= self.config.resume_threshold_s:
                self._paused[stream] = False

    def _request_manifest(self) -> None:
        self._manifest_requested = True
        self.scheduler.submit(
            FetchJob(
                kind=JobKind.MANIFEST,
                stream_type=StreamType.VIDEO,
                url=self.manifest_url,
                on_complete=self._on_metadata_complete,
            )
        )

    # -- job construction -------------------------------------------------------

    def _next_job(self, stream: StreamType) -> FetchJob | None:
        now = self.clock.now
        if now < self._blocked_until[stream]:
            return None
        assert self.manifest is not None
        tracks = self.manifest.tracks(stream)
        if not tracks:
            return None
        level = 0 if stream is StreamType.AUDIO else self._choose_video_level()
        level = self._usable_level(stream, level)
        track = tracks[level]
        if track.segments is None:
            return self._metadata_job_for(stream, level, track)
        if stream is StreamType.VIDEO and self.config.prefetch_all_indexes:
            for other_level, other in enumerate(tracks):
                if other.segments is None and (
                    (stream, other_level) not in self._dead_tracks
                ):
                    return self._metadata_job_for(stream, other_level, other)
        if stream is StreamType.VIDEO:
            replacement_job = self._consider_replacement(level)
            if replacement_job is not None:
                return replacement_job
        if self._paused[stream]:
            return None
        index = self._next_forward_index(stream)
        if index is None:
            return None
        if stream is StreamType.VIDEO:
            forced = self._forced_levels.get((stream, index))
            if (
                forced is not None
                and forced < level
                and tracks[forced].segments is not None
            ):
                level = forced
            if self.tracer.enabled:
                # This is the only site that commits an ABR output to a
                # fetch, and it runs exclusively on serial ticks — the
                # event engine's margin contracts call
                # _choose_video_level but never _next_job — so the
                # emitted decisions are identical across engines.
                self.tracer.emit(
                    AbrDecision(
                        at=now,
                        index=index,
                        level=level,
                        previous_level=self._last_selected_level,
                        buffer_s=self.buffer_s(StreamType.VIDEO),
                        estimate_bps=(
                            self.estimator.estimate_bps()
                            if self.estimator.sample_count() > 0
                            else None
                        ),
                    )
                )
            self._last_selected_level = level
        segment = tracks[level].segments[index]
        self._pending[stream].add(index)
        return FetchJob(
            kind=JobKind.SEGMENT,
            stream_type=stream,
            url=segment.url,
            byte_range=segment.byte_range,
            index=index,
            level=level,
            on_complete=self._on_segment_complete,
        )

    def _usable_level(self, stream: StreamType, level: int) -> int:
        """Steer selection away from dead tracks (stale-track tolerance).

        A track is dead when its playlist/index fetch exhausted the
        retry budget under ``tolerate_stale_tracks``; tracks whose
        timeline is already parsed stay usable forever.  Prefers the
        nearest lower level, then the nearest higher one.
        """
        if not self._dead_tracks or (stream, level) not in self._dead_tracks:
            return level
        assert self.manifest is not None
        tracks = self.manifest.tracks(stream)
        if tracks[level].segments is not None:
            return level
        for candidate in range(level - 1, -1, -1):
            if (stream, candidate) not in self._dead_tracks or (
                tracks[candidate].segments is not None
            ):
                return candidate
        for candidate in range(level + 1, len(tracks)):
            if (stream, candidate) not in self._dead_tracks or (
                tracks[candidate].segments is not None
            ):
                return candidate
        return level

    def _metadata_job_for(
        self, stream: StreamType, level: int, track: ClientTrackInfo
    ) -> FetchJob | None:
        if (stream, level) in self._loading_tracks:
            return None
        if (stream, level) in self._dead_tracks:
            return None
        if track.media_playlist_url is not None:
            kind, url, byte_range = (
                JobKind.MEDIA_PLAYLIST, track.media_playlist_url, None
            )
        elif track.index_url is not None:
            kind, url, byte_range = (
                JobKind.INDEX, track.index_url, track.index_byte_range
            )
        else:
            return None  # nothing can make segments appear
        self._loading_tracks.add((stream, level))
        return FetchJob(
            kind=kind,
            stream_type=stream,
            url=url,
            byte_range=byte_range,
            level=level,
            on_complete=self._on_metadata_complete,
        )

    def _choose_video_level(self) -> int:
        assert self.manifest is not None
        tracks = self.manifest.video_tracks
        if (
            self._forward_video_completed < self.config.abr_warmup_segments
            or self.estimator.sample_count() == 0
        ):
            return self._startup_level()
        next_index = self._next_forward_index(StreamType.VIDEO)
        ctx = AbrContext(
            now=self.clock.now,
            tracks=tracks,
            buffer_s=self.buffer_s(StreamType.VIDEO),
            estimate_bps=self.estimator.estimate_bps(),
            last_level=self._last_selected_level,
            next_index=next_index if next_index is not None else 0,
        )
        level = self.abr.select_level(ctx)
        return min(max(level, 0), len(tracks) - 1)

    def _startup_level(self) -> int:
        assert self.manifest is not None
        tracks = self.manifest.video_tracks
        target = self.config.startup_track_bitrate_bps
        if target is None:
            return 0
        best = min(
            range(len(tracks)),
            key=lambda i: abs(tracks[i].declared_bitrate_bps - target),
        )
        return best

    def _consider_replacement(self, selected_level: int) -> FetchJob | None:
        if self._replacement_inflight:
            return None
        buffer = self.buffers[StreamType.VIDEO]
        ctx = ReplacementContext(
            now=self.clock.now,
            buffer=buffer,
            play_position_s=self._play_pos,
            buffer_s=self.buffer_s(StreamType.VIDEO),
            selected_level=selected_level,
            last_fetched_level=self._last_selected_level,
        )
        action = self.replacement.consider(ctx)
        if action is None:
            return None
        if isinstance(action, DiscardTail):
            self._execute_discard_tail(action.from_index)
            return None  # forward fetching refills from the discard point
        assert isinstance(action, ReplaceSingle)
        assert self.manifest is not None
        track = self.manifest.video_tracks[action.level]
        if track.segments is None:
            return self._metadata_job_for(StreamType.VIDEO, action.level, track)
        segment = track.segments[action.index]
        self._replacement_inflight = True
        return FetchJob(
            kind=JobKind.SEGMENT,
            stream_type=StreamType.VIDEO,
            url=segment.url,
            byte_range=segment.byte_range,
            index=action.index,
            level=action.level,
            is_replacement=True,
            on_complete=self._on_segment_complete,
        )

    def _execute_discard_tail(self, from_index: int) -> None:
        dropped = self.buffers[StreamType.VIDEO].discard_tail_from(from_index)
        for segment in dropped:
            self.events.emit(
                SegmentDiscarded(
                    at=self.clock.now,
                    stream_type=StreamType.VIDEO,
                    index=segment.index,
                    level=segment.level,
                    size_bytes=segment.size_bytes,
                )
            )
        for job in self.scheduler.inflight_jobs(StreamType.VIDEO):
            if (
                job.kind is JobKind.SEGMENT
                and not job.is_replacement
                and job.index is not None
                and job.index >= from_index
            ):
                self._stale_jobs.add(id(job))
                self._pending[StreamType.VIDEO].discard(job.index)

    def _segment_timeline(self, stream: StreamType) -> list[ClientSegmentInfo] | None:
        assert self.manifest is not None
        for track in self.manifest.tracks(stream):
            if track.segments is not None:
                return track.segments
        return None

    def _index_covering(self, timeline: list[ClientSegmentInfo], pos: float) -> int:
        """Index of the first segment ending after ``pos`` (the last
        segment when none does).

        Bisects the timeline's ``end_s - _EPS`` list, built once per
        timeline object (timelines are replaced, never edited); a
        timeline whose ends ever decrease takes the scan.
        """
        entry = self._timeline_ends.get(id(timeline))
        if entry is None:
            ends = [segment.end_s - _EPS for segment in timeline]
            entry = (timeline, ends if non_decreasing(ends) else None)
            self._timeline_ends[id(timeline)] = entry
        ends = entry[1]
        if ends is not None:
            return timeline[min(bisect_right(ends, pos), len(ends) - 1)].index
        for segment in timeline:
            if pos < segment.end_s - _EPS:
                return segment.index
        return timeline[-1].index

    def _next_forward_index(self, stream: StreamType) -> int | None:
        timeline = self._segment_timeline(stream)
        if timeline is None:
            return None
        buffer = self.buffers[stream]
        pending = self._pending[stream]
        skipped = self._skipped[stream]
        index = self._index_covering(timeline, self._play_pos)
        while True:
            if index in buffer:
                index = buffer.last_contiguous_index(index) + 1
            elif index in pending or index in skipped:
                index += 1
            else:
                break
        if index > timeline[-1].index:
            return None
        return index

    def _stream_complete(self, stream: StreamType) -> bool:
        return (
            self.manifest is not None
            and self._segment_timeline(stream) is not None
            and self._next_forward_index(stream) is None
            and not self._pending[stream]
        )

    # -- completion handlers -------------------------------------------------

    def _on_metadata_complete(self, job: FetchJob, result: JobResult) -> None:
        self.catch_up()
        if job.kind is JobKind.MANIFEST:
            if not result.success or result.text is None:
                self._manifest_requested = False
                self._handle_metadata_failure(job)
                return
            self._attempts.pop(("manifest",), None)
            text = result.text
            if self.cipher is not None and ManifestCipher.is_encrypted(text):
                text = self.cipher.decrypt(text)
            self.manifest = parse_any_manifest(text, self.manifest_url)
            return
        assert job.level is not None
        key = (job.stream_type, job.level)
        self._loading_tracks.discard(key)
        if not result.success:
            self._handle_metadata_failure(job)
            return
        assert self.manifest is not None
        track = self.manifest.tracks(job.stream_type)[job.level]
        try:
            if job.kind is JobKind.MEDIA_PLAYLIST and result.text is not None:
                track.segments = parse_media_playlist(result.text, job.url)
            elif job.kind is JobKind.INDEX and result.data is not None:
                track.segments = segments_from_sidx(track, parse_sidx(result.data))
        except ManifestError:
            self._handle_metadata_failure(job)
            return
        self._attempts.pop((job.kind.value, job.stream_type, job.level), None)
        self._maybe_set_content_end()

    def _maybe_set_content_end(self) -> None:
        if self._content_end is not None:
            return
        timeline = self._segment_timeline(StreamType.VIDEO)
        if timeline is not None:
            self._content_end = timeline[-1].end_s

    def _on_segment_complete(self, job: FetchJob, result: JobResult) -> None:
        self.catch_up()
        now = self.clock.now
        stream = job.stream_type
        assert job.index is not None and job.level is not None
        if job.is_replacement:
            self._replacement_inflight = False
        else:
            self._pending[stream].discard(job.index)
        if id(job) in self._stale_jobs:
            self._stale_jobs.discard(id(job))
            self._emit_wasted(job, result.size_bytes)
            return
        if not result.success:
            self._handle_segment_failure(job)
            return
        self._attempts.pop(("segment", stream, job.index), None)
        self._forced_levels.pop((stream, job.index), None)
        if stream is StreamType.VIDEO:
            add_interval = getattr(self.estimator, "add_interval", None)
            if add_interval is not None:
                add_interval(result.size_bytes, result.started_at, result.completed_at)
            else:
                self.estimator.add_sample(result.size_bytes, result.transfer_duration_s)
        assert self.manifest is not None
        track = self.manifest.tracks(stream)[job.level]
        assert track.segments is not None
        info = track.segments[job.index]
        segment = BufferedSegment(
            stream_type=stream,
            index=job.index,
            start_s=info.start_s,
            duration_s=info.duration_s,
            level=job.level,
            declared_bitrate_bps=track.declared_bitrate_bps,
            size_bytes=result.size_bytes,
            height=track.height,
        )
        buffer = self.buffers[stream]
        if job.is_replacement:
            old = buffer.get(job.index)
            if old is None or old.start_s <= self._play_pos + 1e-6:
                self._emit_wasted(job, result.size_bytes)
                return
            dropped = buffer.replace_single(segment)
            self.events.emit(
                SegmentDiscarded(
                    at=now,
                    stream_type=stream,
                    index=dropped.index,
                    level=dropped.level,
                    size_bytes=dropped.size_bytes,
                )
            )
        else:
            if job.index in buffer:
                self._emit_wasted(job, result.size_bytes)
                return
            buffer.insert(segment)
            if stream is StreamType.VIDEO:
                self._forward_video_completed += 1
        self._maybe_set_content_end()
        self.events.emit(
            SegmentCompleted(
                at=now,
                stream_type=stream,
                index=job.index,
                level=job.level,
                declared_bitrate_bps=track.declared_bitrate_bps,
                size_bytes=result.size_bytes,
                download_duration_s=result.duration_s,
                is_replacement=job.is_replacement,
            )
        )

    # -- failure handling ------------------------------------------------------

    def _note_failure(self, key: tuple) -> int:
        attempts = self._attempts.get(key, 0) + 1
        self._attempts[key] = attempts
        return attempts

    def _block_stream(self, stream: StreamType, attempts: int) -> None:
        delay = self._retry_policy.delay_s(attempts, self._retry_rng)
        self._blocked_until[stream] = self.clock.now + delay

    def _emit_download_failed(
        self, job: FetchJob, attempts: int, gave_up: bool
    ) -> None:
        self.events.emit(
            DownloadFailed(
                at=self.clock.now,
                stream_type=job.stream_type,
                kind=job.kind.value,
                url=job.url,
                index=job.index,
                level=job.level,
                attempts=attempts,
                gave_up=gave_up,
            )
        )
        if self.tracer.enabled:
            # The single funnel for every failure path (metadata,
            # segment, replacement), already on a serial tick.  The
            # retry delay is NOT recomputed here: delay_s consumes the
            # jitter RNG stream, and tracing must not perturb behaviour.
            self.tracer.emit(
                RetryEvent(
                    at=self.clock.now,
                    job=job.kind.value,
                    stream=job.stream_type.value,
                    index=job.index,
                    level=job.level,
                    attempts=attempts,
                    gave_up=gave_up,
                )
            )

    def _handle_metadata_failure(self, job: FetchJob) -> None:
        """A manifest/playlist/index fetch failed (or failed to parse)."""
        stream = job.stream_type
        if job.kind is JobKind.MANIFEST:
            key: tuple = ("manifest",)
        else:
            key = (job.kind.value, stream, job.level)
        attempts = self._note_failure(key)
        gave_up = self._retry_policy.exhausted(attempts)
        self._emit_download_failed(job, attempts, gave_up)
        if not gave_up:
            self._block_stream(stream, attempts)
            return
        if job.kind is JobKind.MANIFEST:
            self._end_session("manifest unavailable")
            return
        if self._degradation.tolerate_stale_tracks and job.level is not None:
            self._dead_tracks.add((stream, job.level))
            self._attempts.pop(key, None)
            if self._any_usable_track(stream):
                return  # keep playing from the surviving tracks
        self._end_session("metadata unavailable")

    def _any_usable_track(self, stream: StreamType) -> bool:
        assert self.manifest is not None
        return any(
            track.segments is not None
            or (stream, level) not in self._dead_tracks
            for level, track in enumerate(self.manifest.tracks(stream))
        )

    def _handle_segment_failure(self, job: FetchJob) -> None:
        stream = job.stream_type
        assert job.index is not None
        if job.is_replacement:
            # A failed replacement never threatens the session: the
            # original segment is still buffered.  Back off and let the
            # policy reconsider; the attempt budget does not apply.
            attempts = self._note_failure(("replace", stream, job.index))
            self._emit_download_failed(job, attempts, gave_up=False)
            self._block_stream(stream, attempts)
            return
        attempts = self._note_failure(("segment", stream, job.index))
        gave_up = self._retry_policy.exhausted(attempts)
        self._emit_download_failed(job, attempts, gave_up)
        if not gave_up:
            if (
                self._degradation.downswitch_on_failure
                and stream is StreamType.VIDEO
                and job.level is not None
                and job.level > 0
            ):
                current = self._forced_levels.get((stream, job.index), job.level)
                self._forced_levels[(stream, job.index)] = max(
                    0, min(current, job.level) - 1
                )
            self._block_stream(stream, attempts)
            return
        if self._degradation.skip_failed_segments:
            self._skipped[stream].add(job.index)
            self._attempts.pop(("segment", stream, job.index), None)
            self._forced_levels.pop((stream, job.index), None)
            return  # no block: move straight on to the next segment
        self._end_session("download failed")

    def _emit_wasted(self, job: FetchJob, size_bytes: int) -> None:
        self.events.emit(
            SegmentDiscarded(
                at=self.clock.now,
                stream_type=job.stream_type,
                index=job.index or 0,
                level=job.level or 0,
                size_bytes=size_bytes,
            )
        )

    # -- metrics ---------------------------------------------------------------

    def metrics_into(self, metrics: MetricsRegistry) -> None:
        """Distill the session's event log into the metrics registry.

        One pass over the events at session end; every value is a pure
        function of the run's inputs (the sweep-aggregation contract).
        """
        stall_hist = metrics.histogram("player.stall_duration_s")
        download_hist = metrics.histogram("player.download_duration_s")
        last_play_level: int | None = None
        for event in self.events.events:
            if isinstance(event, SegmentCompleted):
                stream = event.stream_type.value
                metrics.counter(
                    "player.segments_completed", stream=stream
                ).inc()
                metrics.counter(
                    "player.bytes_downloaded", stream=stream
                ).inc(event.size_bytes)
                download_hist.observe(event.download_duration_s)
                if event.is_replacement:
                    metrics.counter("player.replacements_completed").inc()
            elif isinstance(event, StallEnded):
                metrics.counter("player.stalls").inc()
                metrics.counter("player.stall_seconds").inc(event.duration_s)
                stall_hist.observe(event.duration_s)
            elif isinstance(event, DownloadFailed):
                metrics.counter(
                    "player.download_failures", kind=event.kind
                ).inc()
                if event.gave_up:
                    metrics.counter("player.downloads_given_up").inc()
            elif isinstance(event, SegmentDiscarded):
                metrics.counter("player.segments_discarded").inc()
                metrics.counter("player.wasted_bytes").inc(event.size_bytes)
            elif isinstance(event, SegmentSkipped):
                metrics.counter("player.segments_skipped").inc()
            elif isinstance(event, SegmentPlayStarted):
                if (
                    last_play_level is not None
                    and event.level != last_play_level
                ):
                    metrics.counter("player.track_switches").inc()
                last_play_level = event.level
        startup = self.events.startup_delay_s()
        if startup is not None:
            metrics.histogram("player.startup_delay_s").observe(startup)
        metrics.gauge("player.final_position_s").set(self._play_pos)
        metrics.counter("player.jobs_completed").inc(
            self.scheduler.completed_jobs
        )
