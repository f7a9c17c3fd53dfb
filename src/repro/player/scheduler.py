"""Connection scheduling: how players map downloads onto TCP connections.

Section 3.2 of the paper shows this is a real design axis with QoE
consequences:

* HLS services use a **single connection**, persistent (H1/H4/H6) or
  re-established per request (H2/H3/H5 — paying handshake + slow start
  every segment).
* D1 uses **many parallel connections, one segment each**, with video
  and audio pools progressing independently — which is what lets their
  download progress drift apart and stall playback (Figure 6).
* D3 downloads **one segment at a time split into sub-ranges** across
  its connections.
* The remaining DASH/SmoothStreaming services pair one video and one
  audio download at a time over persistent connections.

Schedulers expose free capacity per stream type; the player decides
*what* to fetch, schedulers decide *how* it travels.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.media.track import StreamType
from repro.net.http import HttpMethod, HttpRequest, HttpResponse
from repro.net.network import Network
from repro.net.tcp import TcpConnection
from repro.obs.trace import NULL_TRACER, DownloadSpan


class JobKind(enum.Enum):
    MANIFEST = "manifest"
    MEDIA_PLAYLIST = "media_playlist"
    INDEX = "index"  # DASH sidx fetch
    SEGMENT = "segment"


@dataclass
class JobResult:
    success: bool
    size_bytes: int
    started_at: float
    completed_at: float
    first_byte_at: float | None = None
    text: Optional[str] = None
    data: Optional[bytes] = None

    @property
    def duration_s(self) -> float:
        return max(self.completed_at - self.started_at, 1e-9)

    @property
    def transfer_duration_s(self) -> float:
        """Payload transfer time (first byte to completion).

        Throughput estimators use this rather than the full request
        lifetime so that request latency does not make small segments
        look disproportionally slow.
        """
        start = self.first_byte_at if self.first_byte_at is not None else self.started_at
        return max(self.completed_at - start, 1e-9)


@dataclass(eq=False)
class FetchJob:
    """One download, carried as one or more parts.  Compared by
    identity: two jobs of equal fields are still two jobs in flight."""

    kind: JobKind
    stream_type: StreamType
    url: str
    on_complete: Callable[["FetchJob", JobResult], None]
    byte_range: tuple[int, int] | None = None
    index: int | None = None
    level: int | None = None
    is_replacement: bool = False
    # When the job's first request hit the network (for timeouts).
    submitted_at: float | None = None
    # internal aggregation state for split transfers
    _parts_pending: int = field(default=0, repr=False)
    _responses: list = field(default_factory=list, repr=False)
    # (connection, transfer) per issued part, for client-side aborts
    _transfers: list = field(default_factory=list, repr=False)

    def describe(self) -> str:
        suffix = f"#{self.index}@L{self.level}" if self.index is not None else ""
        return f"{self.kind.value}:{self.stream_type.value}{suffix}"


class Scheduler:
    """Base class: connection bookkeeping and job completion plumbing.

    A job is in flight from ``_register``, just before its first part
    goes on the wire, until its last part's callback runs
    ``_complete``; a part leaves the wire only by completing or being
    aborted, and either fires its callback in the same network step.
    So between network steps every job in flight has a part on the
    wire, which the event loop relies on (DESIGN.md §4q).

    Every subclass owes the batching contract behind
    ``Player.transfer_noop_ticks``: ``slots_for`` changes only when a
    job is submitted or a part completes, never from the mere passage
    of time.  The built-in schedulers derive their slots from in-flight
    counts and free connections, so they hold it.
    """

    # Observability: the player installs its tracer here so completed
    # jobs emit download spans.  Class-level default keeps construction
    # signatures unchanged and the disabled path to one attribute read.
    tracer = NULL_TRACER

    def __init__(self, network: Network, *, persistent: bool = True):
        self.network = network
        self.persistent = persistent
        self._inflight: dict[StreamType, list[FetchJob]] = {
            StreamType.VIDEO: [],
            StreamType.AUDIO: [],
        }
        self.completed_jobs = 0
        # Wire-level completions: every part (byte-range request) that
        # finished or aborted, including those of still-pending split
        # jobs.  The event engine classifies dispatches with it.
        self.completed_parts = 0

    # -- capacity interface --------------------------------------------------

    def slots_for(self, stream_type: StreamType) -> int:
        raise NotImplementedError

    def submit(self, job: FetchJob) -> None:
        raise NotImplementedError

    def connections(self) -> list[TcpConnection]:
        """Every connection this scheduler owns (fleet retirement uses
        this to abort and drop a departing client's flows)."""
        raise NotImplementedError

    # -- shared helpers --------------------------------------------------------

    def inflight(self, stream_type: StreamType | None = None) -> int:
        if stream_type is None:
            inflight = self._inflight
            return (len(inflight[StreamType.VIDEO])
                    + len(inflight[StreamType.AUDIO]))
        return len(self._inflight[stream_type])

    def inflight_jobs(self, stream_type: StreamType) -> list[FetchJob]:
        return list(self._inflight[stream_type])

    @property
    def busy(self) -> bool:
        return self.inflight() > 0

    def _free_connections(self, pool: list[TcpConnection]) -> list[TcpConnection]:
        return [connection for connection in pool if connection.available]

    def _issue(
        self, connection: TcpConnection, job: FetchJob,
        byte_range: tuple[int, int] | None,
    ) -> None:
        request = HttpRequest(
            url=job.url, method=HttpMethod.GET, byte_range=byte_range
        )
        job._parts_pending += 1

        def finish(response: HttpResponse) -> None:
            job._responses.append(response)
            job._parts_pending -= 1
            self.completed_parts += 1
            # A truncated response ends with the server closing the
            # connection; an abort already closed it client-side.  A
            # non-persistent scheduler closes after every response.
            should_close = (
                not self.persistent or response.truncated
            ) and connection.transfer is None
            if should_close and not response.aborted:
                connection.close()
            if job._parts_pending == 0:
                self._complete(job)

        transfer = self.network.request(connection, request, finish)
        job._transfers.append((connection, transfer))

    def abort_job(self, job: FetchJob) -> None:
        """Abort the job's in-flight transfers (client-side timeout).

        Completion callbacks fire synchronously with aborted responses,
        so by the time this returns the job has completed as a failure.
        """
        for connection, transfer in list(job._transfers):
            if connection.transfer is transfer:
                self.network.abort_transfer(connection)

    def _register(self, job: FetchJob) -> None:
        job.submitted_at = self.network.clock.now
        self._inflight[job.stream_type].append(job)

    def _complete(self, job: FetchJob) -> None:
        self._inflight[job.stream_type].remove(job)
        self.completed_jobs += 1
        responses: list[HttpResponse] = job._responses
        result = JobResult(
            success=all(response.is_success for response in responses),
            size_bytes=sum(response.size_bytes for response in responses),
            started_at=min(response.started_at for response in responses),
            completed_at=max(response.completed_at for response in responses),
            first_byte_at=min(response.first_byte_at for response in responses),
            text=next(
                (response.text for response in responses if response.text), None
            ),
            data=b"".join(
                response.data for response in responses if response.data
            ) or None,
        )
        if self.tracer.enabled:
            # Completions only ever fire on dispatched ticks (a batched
            # window ends on its completing tick, which the event loop
            # dispatches), so these span boundaries are exact in
            # batched runs too.
            self.tracer.emit(
                DownloadSpan(
                    at=self.network.clock.now,
                    job=job.kind.value,
                    stream=job.stream_type.value,
                    index=job.index,
                    level=job.level,
                    start_s=result.started_at,
                    end_s=result.completed_at,
                    size_bytes=result.size_bytes,
                    success=result.success,
                )
            )
        job.on_complete(job, result)


class SingleConnectionScheduler(Scheduler):
    """One connection for everything (all studied HLS services)."""

    def __init__(self, network: Network, *, persistent: bool = True):
        super().__init__(network, persistent=persistent)
        self._connection = network.new_connection("single")

    def connections(self) -> list[TcpConnection]:
        return [self._connection]

    def slots_for(self, stream_type: StreamType) -> int:
        return 0 if self.busy else 1

    def submit(self, job: FetchJob) -> None:
        if self.busy:
            raise RuntimeError("single connection is busy")
        self._register(job)
        self._issue(self._connection, job, job.byte_range)


class SyncedAvScheduler(Scheduler):
    """At most one in-flight download per stream over a shared pool."""

    def __init__(self, network: Network, connections: int = 2, *,
                 persistent: bool = True):
        if connections < 1:
            raise ValueError("need at least one connection")
        super().__init__(network, persistent=persistent)
        self._pool = [network.new_connection("av") for _ in range(connections)]

    def connections(self) -> list[TcpConnection]:
        return list(self._pool)

    def slots_for(self, stream_type: StreamType) -> int:
        if self.inflight(stream_type) >= 1:
            return 0
        return 1 if self._free_connections(self._pool) else 0

    def submit(self, job: FetchJob) -> None:
        free = self._free_connections(self._pool)
        if not free or self.inflight(job.stream_type) >= 1:
            raise RuntimeError(f"no slot for {job.describe()}")
        self._register(job)
        self._issue(free[0], job, job.byte_range)


class PartitionedParallelScheduler(Scheduler):
    """Static per-stream pools, multiple segments in parallel (D1).

    Video jobs fan out over the video pool (each connection fetching a
    different segment); audio lives on its own, smaller pool.  Nothing
    coordinates the two download progresses — the design flaw behind
    Figure 6.
    """

    def __init__(
        self,
        network: Network,
        video_connections: int = 5,
        audio_connections: int = 1,
        *,
        persistent: bool = True,
    ):
        if video_connections < 1 or audio_connections < 1:
            raise ValueError("each pool needs at least one connection")
        super().__init__(network, persistent=persistent)
        self._pools = {
            StreamType.VIDEO: [
                network.new_connection("vid") for _ in range(video_connections)
            ],
            StreamType.AUDIO: [
                network.new_connection("aud") for _ in range(audio_connections)
            ],
        }

    def connections(self) -> list[TcpConnection]:
        return list(self._pools[StreamType.VIDEO]) + list(
            self._pools[StreamType.AUDIO]
        )

    def slots_for(self, stream_type: StreamType) -> int:
        return len(self._free_connections(self._pools[stream_type]))

    def submit(self, job: FetchJob) -> None:
        free = self._free_connections(self._pools[job.stream_type])
        if not free:
            raise RuntimeError(f"no slot for {job.describe()}")
        self._register(job)
        self._issue(free[0], job, job.byte_range)


class SplitScheduler(Scheduler):
    """One segment at a time, split into sub-ranges across the pool (D3).

    Only byte-range-addressed segments can be split; whole-resource
    requests fall back to a single connection.  The split is by equal
    bytes, so all parts finish together only when per-connection rates
    match — the caveat the paper raises.
    """

    def __init__(self, network: Network, connections: int = 3, *,
                 persistent: bool = True):
        if connections < 1:
            raise ValueError("need at least one connection")
        super().__init__(network, persistent=persistent)
        self._pool = [network.new_connection("split") for _ in range(connections)]

    def connections(self) -> list[TcpConnection]:
        return list(self._pool)

    def slots_for(self, stream_type: StreamType) -> int:
        return 0 if self.busy else 1

    def submit(self, job: FetchJob) -> None:
        if self.busy:
            raise RuntimeError("split scheduler is busy")
        self._register(job)
        if job.kind is not JobKind.SEGMENT or job.byte_range is None:
            self._issue(self._pool[0], job, job.byte_range)
            return
        start, end = job.byte_range
        total = end - start + 1
        parts = min(len(self._pool), total)
        base = total // parts
        offset = start
        for part in range(parts):
            length = base + (1 if part < total % parts else 0)
            self._issue(
                self._pool[part], job, (offset, offset + length - 1)
            )
            offset += length
