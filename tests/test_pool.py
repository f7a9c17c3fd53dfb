"""Sweep-fabric layer 1: local workers, reused across sweeps.

Local workers change *where* runs execute, never what they produce:
cold workers, warm workers, re-created workers and in-process
execution must all compare ``==``.  The workers must also survive
leases that raise, be respawned after a death, and be safely
re-creatable after ``close_worker_pool()``.

Also covers the single-flight guarantee of the asset-encode cache
(:mod:`repro.media.cache`): concurrent sessions in one process never
duplicate an expensive encode.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.core.parallel import RunSpec, catalogue_key, sweep_grid
from repro.core.pool import (
    LocalPool,
    active_worker_pool,
    close_worker_pool,
    local_pool,
)
from repro.core.run import execute
from repro.core.supervisor import (
    FailedOutcome,
    SweepPolicy,
    SweepSupervisor,
    _lease_task,
)
from repro.media.cache import AssetCache, asset_cache, clear_asset_cache
from repro.obs.metrics import process_registry

DURATION_S = 25.0


@pytest.fixture(autouse=True)
def _fresh_pool():
    """Each test starts and ends without live local workers."""
    close_worker_pool()
    yield
    close_worker_pool()


def _grid(services=("H1", "S1"), profiles=(2, 9)):
    return sweep_grid(services, profiles, duration_s=DURATION_S)


def _pids(pool):
    return [lane.pid for lane in pool.lanes]


def _counter(name):
    return process_registry().counter(name).value


def _gauges(name, pids):
    """A process-registry gauge's values for the given worker pids."""
    wanted = {(("pid", str(pid)),) for pid in pids}
    return {
        labels: value
        for gauge, labels, value in process_registry().snapshot().gauges
        if gauge == name and labels in wanted
    }


def _fail_on_profile_5(spec):
    """Raise on one spec, run the rest: a lease failure inside a worker."""
    if spec.profile_id == 5:
        raise RuntimeError(f"worker task failed on {spec.profile_id}")
    return _lease_task(spec)


def _report_pid(spec):
    return (("ran in", os.getpid()), os.getpid(), 0, 0)


# ---------------------------------------------------------------------------
# Worker lifecycle
# ---------------------------------------------------------------------------


def test_worker_pool_is_reused_across_calls():
    specs = _grid()
    first = execute(specs, workers=2)
    pool = active_worker_pool()
    pids = _pids(pool)
    spawns = _counter("pool.spawns")
    assert execute(specs, workers=2) == first
    assert active_worker_pool() is pool
    assert _pids(pool) == pids  # the same processes served both sweeps
    assert _counter("pool.spawns") == spawns


def test_worker_pool_recreated_on_count_change_and_close():
    specs = _grid(services=("S1",))
    first = execute(specs, workers=2)
    two = active_worker_pool()
    assert execute(specs, workers=3) == first
    three = active_worker_pool()
    assert three is not two
    assert two.closed  # superseded pools are shut down
    close_worker_pool()
    assert three.closed
    assert active_worker_pool() is None
    assert execute(specs, workers=3) == first
    assert active_worker_pool() not in (two, three)


def test_closed_pool_refuses_map_and_close_is_idempotent():
    # A closed pool's workers are gone, closing twice is harmless, and
    # the process-wide accessor never hands a closed pool out again.
    pool = local_pool(1)
    lane = pool.lanes[0]
    pool.close()
    pool.close()
    assert pool.closed
    assert not pool.alive(lane)
    fresh = local_pool(1)
    assert fresh is not pool
    assert fresh.lanes[0].pid != lane.pid
    with pytest.raises(ValueError, match="workers"):
        LocalPool(0)


def test_pool_survives_worker_side_exception():
    # A raising lease comes back typed from the worker that ran it, and
    # that worker stays up: the same processes serve the next sweep.
    specs = _grid(services=("H1",), profiles=(1, 5, 9))
    oracle = execute(specs, workers=0)
    sup = SweepSupervisor(
        2, policy=SweepPolicy(quarantine=True), task=_fail_on_profile_5
    )
    outcomes = sup.run(specs)
    assert isinstance(outcomes[1], FailedOutcome)
    assert outcomes[1].kind == "error"
    assert "worker task failed on 5" in outcomes[1].message
    assert [outcomes[0], outcomes[2]] == [oracle[0], oracle[2]]
    pool = active_worker_pool()
    pids = _pids(pool)
    respawns = _counter("pool.respawns")
    assert sup.run(specs) == outcomes
    assert active_worker_pool() is pool
    assert _pids(pool) == pids
    assert _counter("pool.respawns") == respawns
    # Without quarantine the worker's own exception reaches the caller.
    with pytest.raises(RuntimeError, match="worker task failed on 5"):
        SweepSupervisor(2, task=_fail_on_profile_5).run(specs)


def test_pool_spawn_counter_lands_in_process_registry():
    before = _counter("pool.spawns")
    execute(_grid(), workers=2)
    assert _counter("pool.spawns") == before + 2  # one per worker
    execute(_grid(), workers=2)  # reused: no new spawn
    assert _counter("pool.spawns") == before + 2


def test_forked_workers_inherit_the_parents_catalogues():
    # A catalogue key nothing else in the suite uses, encoded in the
    # parent before the worker is forked: the worker finds it warm.
    clear_asset_cache()
    warm = [RunSpec(service="H1", profile_id=p, duration_s=23.0,
                    content_seed=7707) for p in (2, 9)]
    cold = [RunSpec(service="H1", profile_id=p, duration_s=23.0,
                    content_seed=7708) for p in (2, 9)]
    warm[0].build()
    outcomes = execute(warm + cold, workers=1)
    assert outcomes == execute(warm + cold, workers=0)
    (pid,) = _pids(active_worker_pool())
    # Only the un-warmed catalogue cost the worker an encode.
    assert list(_gauges("pool.worker.asset_encodes", [pid]).values()) == [1]


def test_injected_task_reaches_the_local_workers():
    specs = _grid()
    outcomes = SweepSupervisor(2, task=_report_pid).run(specs)
    pids = set(_pids(active_worker_pool()))
    ran_in = {outcome[1] for outcome in outcomes}
    assert ran_in <= pids
    assert os.getpid() not in ran_in


# ---------------------------------------------------------------------------
# Failure accounting and respawn
# ---------------------------------------------------------------------------


def test_leases_sent_to_local_workers_count_as_dispatched():
    specs = _grid()
    before = _counter("pool.tasks_dispatched")
    execute(specs, workers=2)
    assert _counter("pool.tasks_dispatched") == before + len(specs)
    execute(specs, workers=0)  # in process: nothing is dispatched
    assert _counter("pool.tasks_dispatched") == before + len(specs)


def test_note_task_failure_counts_in_process_registry():
    before = _counter("pool.tasks_failed")
    sup = SweepSupervisor(
        2, policy=SweepPolicy(quarantine=True), task=_fail_on_profile_5
    )
    sup.run(_grid(services=("H1",), profiles=(1, 5, 9)))
    assert _counter("pool.tasks_failed") == before + 1
    assert sup.stats.quarantined == 1


def test_respawn_revives_pool_after_worker_death():
    specs = _grid()
    first = execute(specs, workers=2)
    pool = active_worker_pool()
    victim = pool.lanes[0].pid
    before = _counter("pool.respawns")
    os.kill(victim, signal.SIGKILL)
    # The next sweep finds the worker dead and respawns it in place.
    assert execute(specs, workers=2) == first
    assert active_worker_pool() is pool  # same process-wide identity
    assert _counter("pool.respawns") == before + 1
    assert victim not in _pids(pool)
    assert all(pool.alive(lane) for lane in pool.lanes)


def test_local_workers_ship_the_entries_the_cache_stores(
    tmp_path, monkeypatch
):
    # Workers encode each outcome's cache entry; the parent stores the
    # bytes as they arrive and pickles nothing itself.
    from repro.core.outcome_cache import OutcomeCache

    specs = _grid()
    oracle = execute(specs, workers=0)
    execute(_grid(services=("D2",)), workers=2)  # workers spawn here
    original = OutcomeCache.encode_entry
    encodes: list = []

    def counting_encode_entry(self, spec, outcome, *, key):
        encodes.append(spec)
        return original(self, spec, outcome, key=key)

    monkeypatch.setattr(OutcomeCache, "encode_entry", counting_encode_entry)
    before = _counter("outcome_cache.puts")
    cache = OutcomeCache(tmp_path)
    assert execute(specs, workers=2, cache=cache) == oracle
    assert encodes == []
    assert _counter("outcome_cache.puts") == before + len(specs)
    assert execute(specs, workers=2, cache=cache) == oracle
    assert cache.hits == len(specs)


# ---------------------------------------------------------------------------
# Warm-pool determinism
# ---------------------------------------------------------------------------


def test_repeated_execute_on_warm_pool_is_deterministic():
    specs = _grid()
    serial = execute(specs, workers=0)
    cold = execute(specs, workers=2)  # workers spawn here
    pool = active_worker_pool()
    warm = execute(specs, workers=2)  # same workers, already warm
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
    second = execute(specs, workers=2)  # fresh workers
    assert first == second


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
    chunks = _plan_chunks(specs, workers=2)
    # Every chunk is catalogue-pure and the cover is an exact partition.
    seen = []
    for chunk in chunks:
        keys = {catalogue_key(specs[i]) for i in chunk}
        assert len(keys) == 1
        seen.extend(chunk)
    assert sorted(seen) == list(range(len(specs)))
    # Small groups stay whole: one chunk per catalogue here.
    assert len(chunks) == 3


def test_execute_records_worker_encode_gauges():
    specs = _grid()
    execute(specs, workers=2)
    # The registry keeps the rows of workers reaped by earlier sweeps
    # (process history), so read only this pool's workers.
    encodes = _gauges(
        "pool.worker.asset_encodes", _pids(active_worker_pool())
    )
    assert encodes  # at least one worker reported
    # Two catalogues in the grid: no worker encoded more than both.
    assert all(value <= 2 for value in encodes.values())


def test_cold_pass_encodes_each_catalogue_once():
    # Shards are catalogue-pure and a worker runs a whole shard, so a
    # cold pass over 4 catalogues encodes each in exactly one worker.
    clear_asset_cache()
    specs = sweep_grid(["H1", "S1", "D2", "H4"], [1, 3, 5, 7], duration_s=10.0)
    execute(specs, workers=2)
    encodes = _gauges(
        "pool.worker.asset_encodes", _pids(active_worker_pool())
    )
    assert sum(encodes.values()) == 4


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
