"""Connection scheduler tests (section 3.2 behaviours)."""

import pytest

from repro.media.track import StreamType
from repro.net.clock import Clock
from repro.net.http import HttpRequest, HttpResponse, HttpStatus, ResponsePlan
from repro.net.network import Network
from repro.net.schedule import ConstantSchedule
from repro.player.scheduler import (
    FetchJob,
    JobKind,
    PartitionedParallelScheduler,
    SingleConnectionScheduler,
    SplitScheduler,
    SyncedAvScheduler,
)
from repro.util import mbps


class _FixedServer:
    """Serves 40 KB for anything."""

    def handle(self, request):
        if request.byte_range is not None:
            return ResponsePlan.ok_opaque(request.range_length, partial=True)
        return ResponsePlan.ok_opaque(40_000)


def make_network():
    clock = Clock(dt=0.1)
    network = Network(clock, _FixedServer(), ConstantSchedule(mbps(8)))
    return clock, network


def run_until(clock, network, predicate, max_s=30.0):
    while clock.now < max_s:
        network.advance(clock.dt)
        clock.tick()
        if predicate():
            return True
    return False


def job(stream=StreamType.VIDEO, on_complete=None, index=0, *, kind=JobKind.SEGMENT,
        byte_range=None):
    results = []
    return FetchJob(
        kind=kind, stream_type=stream, url=f"http://x/{stream.value}/{index}",
        on_complete=on_complete or (lambda j, r: results.append(r)),
        index=index, level=0, byte_range=byte_range,
    )


class TestSingleConnection:
    def test_one_at_a_time(self):
        clock, network = make_network()
        scheduler = SingleConnectionScheduler(network)
        assert scheduler.slots_for(StreamType.VIDEO) == 1
        done = []
        scheduler.submit(job(on_complete=lambda j, r: done.append(r)))
        assert scheduler.slots_for(StreamType.VIDEO) == 0
        with pytest.raises(RuntimeError):
            scheduler.submit(job(index=1))
        assert run_until(clock, network, lambda: done)
        assert scheduler.slots_for(StreamType.VIDEO) == 1
        assert done[0].success

    def test_persistent_reuses_connection(self):
        clock, network = make_network()
        scheduler = SingleConnectionScheduler(network, persistent=True)
        for i in range(3):
            done = []
            scheduler.submit(job(index=i, on_complete=lambda j, r: done.append(r)))
            assert run_until(clock, network, lambda: done)
        assert network.connections[0].connects == 1

    def test_non_persistent_reconnects_every_request(self):
        clock, network = make_network()
        scheduler = SingleConnectionScheduler(network, persistent=False)
        for i in range(3):
            done = []
            scheduler.submit(job(index=i, on_complete=lambda j, r: done.append(r)))
            assert run_until(clock, network, lambda: done)
        assert network.connections[0].connects == 3

    def test_non_persistent_is_slower(self):
        def total_time(persistent):
            clock, network = make_network()
            scheduler = SingleConnectionScheduler(network, persistent=persistent)
            for i in range(6):
                done = []
                scheduler.submit(job(index=i,
                                     on_complete=lambda j, r: done.append(r)))
                run_until(clock, network, lambda: done)
            return clock.now

        assert total_time(persistent=False) > total_time(persistent=True)


class TestSyncedAv:
    def test_one_slot_per_stream(self):
        clock, network = make_network()
        scheduler = SyncedAvScheduler(network, connections=2)
        scheduler.submit(job(StreamType.VIDEO))
        assert scheduler.slots_for(StreamType.VIDEO) == 0
        assert scheduler.slots_for(StreamType.AUDIO) == 1
        scheduler.submit(job(StreamType.AUDIO))
        assert scheduler.slots_for(StreamType.AUDIO) == 0

    def test_completion_frees_slot(self):
        clock, network = make_network()
        scheduler = SyncedAvScheduler(network, connections=2)
        done = []
        scheduler.submit(job(StreamType.VIDEO,
                             on_complete=lambda j, r: done.append(r)))
        assert run_until(clock, network, lambda: done)
        assert scheduler.slots_for(StreamType.VIDEO) == 1


class TestPartitioned:
    def test_parallel_video_segments(self):
        clock, network = make_network()
        scheduler = PartitionedParallelScheduler(network, 5, 1)
        assert scheduler.slots_for(StreamType.VIDEO) == 5
        for i in range(5):
            scheduler.submit(job(StreamType.VIDEO, index=i))
        assert scheduler.slots_for(StreamType.VIDEO) == 0
        assert scheduler.slots_for(StreamType.AUDIO) == 1
        assert scheduler.inflight(StreamType.VIDEO) == 5

    def test_pools_are_isolated(self):
        clock, network = make_network()
        scheduler = PartitionedParallelScheduler(network, 2, 1)
        scheduler.submit(job(StreamType.AUDIO))
        assert scheduler.slots_for(StreamType.AUDIO) == 0
        assert scheduler.slots_for(StreamType.VIDEO) == 2

    def test_pool_validation(self):
        clock, network = make_network()
        with pytest.raises(ValueError):
            PartitionedParallelScheduler(network, 0, 1)


class TestSplit:
    def test_segment_split_across_connections(self):
        clock, network = make_network()
        scheduler = SplitScheduler(network, connections=3)
        done = []
        scheduler.submit(job(byte_range=(0, 299_999),
                             on_complete=lambda j, r: done.append(r)))
        busy = [c for c in network.connections if c.busy]
        assert len(busy) == 3
        assert run_until(clock, network, lambda: done)
        result = done[0]
        assert result.success
        assert result.size_bytes == 300_000

    def test_one_job_at_a_time(self):
        clock, network = make_network()
        scheduler = SplitScheduler(network, connections=3)
        scheduler.submit(job(byte_range=(0, 1000)))
        assert scheduler.slots_for(StreamType.VIDEO) == 0
        with pytest.raises(RuntimeError):
            scheduler.submit(job(index=1, byte_range=(0, 1000)))

    def test_whole_resource_falls_back_to_single(self):
        clock, network = make_network()
        scheduler = SplitScheduler(network, connections=3)
        done = []
        scheduler.submit(job(on_complete=lambda j, r: done.append(r)))
        busy = [c for c in network.connections if c.busy]
        assert len(busy) == 1
        assert run_until(clock, network, lambda: done)

    def test_split_completes_only_when_all_parts_done(self):
        clock, network = make_network()
        scheduler = SplitScheduler(network, connections=3)
        done = []
        scheduler.submit(job(byte_range=(0, 599_999),
                             on_complete=lambda j, r: done.append(r)))
        network.advance(clock.dt)
        clock.tick()
        assert not done  # parts still moving
        assert run_until(clock, network, lambda: done)
        # timings aggregate over the whole fan-out
        assert done[0].completed_at > done[0].started_at

    def test_metadata_job_single_connection(self):
        clock, network = make_network()
        scheduler = SplitScheduler(network, connections=3)
        done = []
        scheduler.submit(job(kind=JobKind.MANIFEST,
                             on_complete=lambda j, r: done.append(r)))
        busy = [c for c in network.connections if c.busy]
        assert len(busy) == 1


class TestJobIdentity:
    def test_completing_a_job_leaves_its_equal_twin_in_flight(self):
        """Jobs are identities: completing the second of two
        field-equal jobs in flight retires that one, not the first
        equal one in the stream's list."""
        clock, network = make_network()
        scheduler = PartitionedParallelScheduler(network, 2, 1)
        finished = []

        def record(job, result):
            finished.append(job)

        response = HttpResponse(
            request=HttpRequest(url="http://x/video/0"),
            status=HttpStatus.OK, size_bytes=40_000,
            connection_id="vid-1:1", started_at=0.0, first_byte_at=0.1,
            completed_at=0.2,
        )
        first, second = job(on_complete=record), job(on_complete=record)
        for twin in (first, second):
            twin._responses.append(response)
            scheduler._inflight[StreamType.VIDEO].append(twin)
        assert vars(first) == vars(second)
        scheduler._complete(second)
        assert len(finished) == 1 and finished[0] is second
        in_flight = scheduler.inflight_jobs(StreamType.VIDEO)
        assert len(in_flight) == 1 and in_flight[0] is first
