"""Sweep-fabric layer 1: the persistent worker pool.

The pool changes *where* runs execute, never what they produce: cold
pool, warm pool, re-created pool and in-process execution must all
compare ``==``.  The pool must also survive worker-side task
exceptions and be safely re-creatable after ``close()``.

Also covers the single-flight guarantee of the asset-encode cache
(:mod:`repro.media.cache`): concurrent sessions in one process never
duplicate an expensive encode.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.parallel import RunSpec, catalogue_key, parallel_map, sweep_grid
from repro.core.pool import (
    WorkerPool,
    active_worker_pool,
    close_worker_pool,
    worker_pool,
)
from repro.core.run import execute
from repro.media.cache import AssetCache, asset_cache
from repro.obs.metrics import process_registry
from repro.services import get_service

DURATION_S = 25.0


@pytest.fixture(autouse=True)
def _fresh_pool():
    """Each test starts and ends without a live process-wide pool."""
    close_worker_pool()
    yield
    close_worker_pool()


def _grid(services=("H1", "S1"), profiles=(2, 9)):
    return sweep_grid(services, profiles, duration_s=DURATION_S)


def _square(x):
    return x * x


def _boom(x):
    raise RuntimeError(f"worker task failed on {x}")


def _suicide(x):
    os.kill(os.getpid(), signal.SIGKILL)


def _encode_delta(args):
    """Worker-side: encode a catalogue, report how many misses it cost."""
    service, duration_s, content_seed = args
    cache = asset_cache()
    before = cache.misses
    get_service(service).encode_asset(duration_s, content_seed)
    return cache.misses - before


# ---------------------------------------------------------------------------
# Pool lifecycle
# ---------------------------------------------------------------------------


def test_worker_pool_is_reused_across_calls():
    first = worker_pool(2)
    assert worker_pool(2) is first
    assert active_worker_pool() is first
    assert first.map(_square, [1, 2, 3]) == [1, 4, 9]
    assert first.map(_square, [4]) == [16]
    assert first.map_calls == 2
    assert first.tasks_dispatched == 4


def test_worker_pool_recreated_on_count_change_and_close():
    first = worker_pool(2)
    second = worker_pool(3)
    assert second is not first
    assert first.closed  # superseded pools are shut down
    close_worker_pool()
    assert second.closed
    assert active_worker_pool() is None
    third = worker_pool(3)
    assert third is not second
    assert third.map(_square, [5]) == [25]


def test_closed_pool_refuses_map_and_close_is_idempotent():
    pool = WorkerPool(1)
    pool.close()
    pool.close()
    with pytest.raises(RuntimeError, match="closed"):
        pool.map(_square, [1])


def test_pool_survives_worker_side_exception():
    pool = worker_pool(2)
    with pytest.raises(RuntimeError, match="worker task failed"):
        pool.map(_boom, [1, 2])
    assert not pool.closed
    # The same pool object keeps serving maps and full sweeps.
    assert pool.map(_square, [3]) == [9]
    outcomes = execute(_grid(services=("H1",), profiles=(2,)) * 2, workers=2)
    assert outcomes[0] == outcomes[1]
    assert worker_pool(2) is pool


def test_pool_spawn_counter_lands_in_process_registry():
    before = process_registry().counter("pool.spawns").value
    worker_pool(2)
    worker_pool(2)  # reused: no new spawn
    assert process_registry().counter("pool.spawns").value == before + 1


def test_warm_keys_pre_encode_catalogues_in_workers():
    # A catalogue key nothing else in the suite uses, so neither the
    # parent (via fork inheritance) nor a previous task warmed it.
    warm = ("H1", 23.0, 7707)
    pool = WorkerPool(1, warm_keys=(warm,))
    try:
        # The initializer already paid the encode: the task sees a hit.
        assert pool.map(_encode_delta, [warm]) == [0]
        # An un-warmed catalogue still costs that worker one encode.
        assert pool.map(_encode_delta, [("H1", 23.0, 7708)]) == [1]
    finally:
        pool.close()


# ---------------------------------------------------------------------------
# Future-per-task submit, failure accounting, respawn
# ---------------------------------------------------------------------------


class _BrokenAtSubmitExecutor:
    """Stub executor whose every dispatch reports a dead pool."""

    def map(self, fn, items, chunksize=1):
        raise BrokenProcessPool("stub: pool is dead")

    def submit(self, fn, item):
        raise BrokenProcessPool("stub: pool is dead")

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_submit_returns_future_and_counts_dispatch():
    pool = worker_pool(1)
    before = process_registry().counter("pool.tasks_dispatched").value
    future = pool.submit(_square, 7)
    assert future.result(timeout=30) == 49
    assert pool.tasks_dispatched == 1
    assert process_registry().counter("pool.tasks_dispatched").value == (
        before + 1
    )
    pool.close()
    with pytest.raises(RuntimeError, match="closed"):
        pool.submit(_square, 1)


def test_submit_delivers_task_exception_on_future_pool_stays_alive():
    pool = worker_pool(1)
    future = pool.submit(_boom, 3)
    with pytest.raises(RuntimeError, match="worker task failed"):
        future.result(timeout=30)
    assert not pool.closed
    assert pool.submit(_square, 3).result(timeout=30) == 9


def test_note_task_failure_counts_in_process_registry():
    pool = worker_pool(1)
    before = process_registry().counter("pool.tasks_failed").value
    pool.note_task_failure()
    pool.note_task_failure()
    assert pool.tasks_failed == 2
    assert process_registry().counter("pool.tasks_failed").value == before + 2


def test_map_that_dies_at_submission_reports_zero_dispatches():
    # The counter-skew fix: tasks are counted only once actually handed
    # to the executor, so a map that breaks at submit time must not
    # report the full batch as dispatched.
    pool = WorkerPool(1)
    pool._executor.shutdown(wait=True, cancel_futures=True)
    pool._executor = _BrokenAtSubmitExecutor()
    with pytest.raises(BrokenProcessPool):
        pool.map(_square, [1, 2, 3])
    assert pool.tasks_dispatched == 0
    assert pool.map_calls == 1
    assert pool.closed  # a broken pool is discarded


def test_respawn_revives_pool_after_worker_death():
    pool = worker_pool(1)
    before = process_registry().counter("pool.respawns").value
    future = pool.submit(_suicide, 0)
    with pytest.raises(BrokenProcessPool):
        future.result(timeout=30)
    # The executor is broken, but the pool object survives respawn.
    pool.respawn()
    assert not pool.closed
    assert pool.respawns == 1
    assert process_registry().counter("pool.respawns").value == before + 1
    assert pool.submit(_square, 6).result(timeout=30) == 36
    assert active_worker_pool() is pool  # same process-wide identity
    pool.close()
    with pytest.raises(RuntimeError, match="closed"):
        pool.respawn()


# ---------------------------------------------------------------------------
# Warm-pool determinism
# ---------------------------------------------------------------------------


def test_repeated_execute_on_warm_pool_is_deterministic():
    specs = _grid()
    serial = execute(specs, workers=0)
    cold = execute(specs, workers=2)  # pool spawns here
    pool = active_worker_pool()
    warm = execute(specs, workers=2)  # same pool, warmed workers
    assert active_worker_pool() is pool
    assert cold == serial
    assert warm == serial


def test_interleaved_services_on_warm_pool_match_serial():
    # Alternating services defeat naive chunk locality on purpose: the
    # scheduler must still return spec-ordered, ==-equal outcomes.
    specs = [
        RunSpec(
            service=service,
            profile_id=profile_id,
            duration_s=DURATION_S,
        )
        for profile_id in (2, 9)
        for service in ("H1", "S1", "H1", "D2")
    ]
    serial = execute(specs, workers=0)
    parallel = execute(specs, workers=2)
    assert parallel == serial
    assert [o.record.service_name for o in parallel] == [
        spec.service for spec in specs
    ]


def test_execute_after_close_recreates_pool_with_same_outcomes():
    specs = _grid(services=("S1",), profiles=(2, 5))
    first = execute(specs, workers=2)
    close_worker_pool()
    second = execute(specs, workers=2)  # fresh pool
    assert first == second


def test_parallel_map_reuse_pool_flag():
    assert parallel_map(_square, [1, 2, 3], workers=2) == [1, 4, 9]
    pool = active_worker_pool()
    assert pool is not None
    assert parallel_map(_square, [4, 5], workers=2, reuse_pool=False) == [16, 25]
    assert active_worker_pool() is pool  # one-shot path left it alone


# ---------------------------------------------------------------------------
# Locality-aware chunk planning
# ---------------------------------------------------------------------------


def test_catalogue_key_groups_by_encode_inputs():
    a = RunSpec(service="H1", profile_id=2, duration_s=DURATION_S)
    b = RunSpec(service="H1", profile_id=9, duration_s=DURATION_S)
    assert catalogue_key(a) == catalogue_key(b)  # profiles share a catalogue
    c = RunSpec(service="H1", profile_id=2, duration_s=DURATION_S, repetition=1)
    assert catalogue_key(a) != catalogue_key(c)  # seed differs per repetition
    d = RunSpec(service="S1", profile_id=2, duration_s=DURATION_S)
    assert catalogue_key(a) != catalogue_key(d)
    e = RunSpec(
        service="H1",
        profile_id=2,
        duration_s=10.0,
        content_duration_s=DURATION_S,
    )
    assert catalogue_key(a) == catalogue_key(e)  # content duration resolves


def test_plan_chunks_keeps_catalogues_together():
    from repro.core.run import _plan_chunks

    specs = sweep_grid(["H1", "S1", "D2"], range(1, 8), duration_s=DURATION_S)
    chunks = _plan_chunks(specs, workers=2, chunksize=None)
    # Every chunk is catalogue-pure and the cover is an exact partition.
    seen = []
    for chunk in chunks:
        keys = {catalogue_key(specs[i]) for i in chunk}
        assert len(keys) == 1
        seen.extend(chunk)
    assert sorted(seen) == list(range(len(specs)))
    # Small groups stay whole: one chunk per catalogue here.
    assert len(chunks) == 3


def test_plan_chunks_explicit_chunksize_is_flat():
    from repro.core.run import _plan_chunks

    specs = sweep_grid(["H1", "S1"], range(1, 4), duration_s=DURATION_S)
    chunks = _plan_chunks(specs, workers=2, chunksize=4)
    assert chunks == [[0, 1, 2, 3], [4, 5]]
    with pytest.raises(ValueError, match="chunksize"):
        _plan_chunks(specs, workers=2, chunksize=0)


def test_execute_records_worker_encode_gauges():
    specs = _grid()
    execute(specs, workers=2)
    snapshot = process_registry().snapshot()
    rows = [
        (labels, value)
        for name, labels, value in snapshot.gauges
        if name == "pool.worker.asset_encodes"
    ]
    assert rows  # at least one worker reported
    # Two catalogues in the grid: no worker encoded more than both.
    assert all(value <= 2 for _, value in rows)


# ---------------------------------------------------------------------------
# Asset cache single-flight
# ---------------------------------------------------------------------------


def test_single_flight_deduplicates_concurrent_encodes():
    cache = AssetCache()
    encodes = []
    release = threading.Event()

    def slow_encode():
        encodes.append(threading.get_ident())
        release.wait(timeout=5.0)
        return "asset"

    results = []

    def worker():
        results.append(cache.get_or_encode("key", slow_encode))

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for thread in threads:
        thread.start()
    while cache.single_flight_waits < 3:  # all followers parked
        time.sleep(0.001)
    release.set()
    for thread in threads:
        thread.join(timeout=5.0)
    assert len(encodes) == 1  # exactly one thread encoded
    assert results == ["asset"] * 4
    assert cache.misses == 1
    assert cache.hits == 3
    assert cache.single_flight_waits == 3


def test_single_flight_recovers_from_leader_failure():
    cache = AssetCache()
    first_started = threading.Event()
    fail_first = threading.Event()
    calls = []

    def flaky_encode():
        calls.append(None)
        if len(calls) == 1:
            first_started.set()
            fail_first.wait(timeout=5.0)
            raise RuntimeError("encode failed")
        return "recovered"

    errors = []

    def leader():
        try:
            cache.get_or_encode("key", flaky_encode)
        except RuntimeError as exc:
            errors.append(exc)

    leader_thread = threading.Thread(target=leader)
    leader_thread.start()
    first_started.wait(timeout=5.0)
    follower_result = []
    follower = threading.Thread(
        target=lambda: follower_result.append(
            cache.get_or_encode("key", flaky_encode)
        )
    )
    follower.start()
    while cache.single_flight_waits < 1:
        time.sleep(0.001)
    fail_first.set()
    leader_thread.join(timeout=5.0)
    follower.join(timeout=5.0)
    assert len(errors) == 1  # the leader saw its encode fail
    assert follower_result == ["recovered"]  # the follower took over
    assert len(calls) == 2


def test_asset_cache_counts_evictions_and_publishes_gauges():
    cache = AssetCache(capacity=2)
    cache.get_or_encode("a", lambda: "A")
    cache.get_or_encode("b", lambda: "B")
    cache.get_or_encode("c", lambda: "C")  # evicts a
    assert cache.evictions == 1
    assert len(cache) == 2
    # The process-wide cache mirrors its counters into the registry.
    asset_cache().get_or_encode(("gauge-probe",), lambda: "X")
    snapshot = process_registry().snapshot()
    assert snapshot.value("asset_cache.entries") >= 1
    assert snapshot.value("asset_cache.misses") >= 1
