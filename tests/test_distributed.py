"""Sweep-fabric layer 4: the distributed coordinator/worker fabric.

Same contract as every fabric layer below it, one level up:
distribution changes *where* a lease executes — which host, over which
transport, after how many worker deaths — never what it produces.  So
every test here ends in the same assertion the supervisor tests end in:
the outcomes compare ``==`` to a clean ``workers=0`` in-process run.

Chaos mechanics differ from the supervisor tests: workers here are
in-process threads serving real loopback sockets (or spool
directories), so an injected task can sever the worker's active
channel to simulate a SIGKILL'd daemon without killing the test
process.  Subprocess workers are exercised by the CI smoke script
(``.github/scripts/distributed_smoke.py``), not here.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.distributed import (
    HandshakeRejected,
    SweepCoordinator,
    SweepWorker,
    TransportError,
    parse_host,
)
from repro.core.outcome_cache import lease_key
from repro.core.parallel import RunSpec
from repro.core.pool import close_worker_pool
from repro.core.run import execute
from repro.core.supervisor import (
    FailedOutcome,
    SweepJournal,
    SweepPolicy,
    _lease_task,
)

DURATION_S = 10.0


@pytest.fixture(autouse=True)
def _fresh_pool():
    close_worker_pool()
    yield
    close_worker_pool()


def _specs(profiles=(1, 5, 9)):
    return [
        RunSpec(
            service="H1",
            profile_id=profile_id,
            duration_s=DURATION_S,
        )
        for profile_id in profiles
    ]


_BASELINE: dict = {}


def _baseline(profiles=(1, 5, 9)):
    """The clean workers=0 oracle for a profile tuple, computed once."""
    if profiles not in _BASELINE:
        _BASELINE[profiles] = execute(_specs(profiles), workers=0)
    return _BASELINE[profiles]


# ---------------------------------------------------------------------------
# In-thread worker harness
# ---------------------------------------------------------------------------


class _LiveWorker:
    """A SweepWorker serving a real loopback socket from a thread."""

    def __init__(self, **kwargs):
        self.worker = SweepWorker(0, **kwargs)
        ready = threading.Event()
        self.thread = threading.Thread(
            target=self.worker.serve_socket,
            kwargs={"ready": ready},
            daemon=True,
        )
        self.thread.start()
        assert ready.wait(5.0), "worker never bound its socket"
        host, port = self.worker.address
        self.host = f"{host}:{port}"

    def stop(self):
        self.worker.stop()
        self.thread.join(5.0)


@pytest.fixture
def live_workers():
    started: list[_LiveWorker] = []

    def factory(count=1, **kwargs):
        fresh = [_LiveWorker(**kwargs) for _ in range(count)]
        started.extend(fresh)
        return fresh

    yield factory
    for worker in started:
        worker.stop()


# Chaos tasks run in the worker's serve thread (workers=0 shards execute
# in process), so plain module globals coordinate them.
_CHAOS: dict = {}


def _sever_channel_task(args):
    """Close the serving worker's channel on its first lease, once —
    the in-thread stand-in for a daemon SIGKILL'd mid-shard.  (Shard
    placement is racy, so the trigger is "first lease this worker
    runs", not a specific spec.)"""
    if not _CHAOS.get("tripped"):
        _CHAOS["tripped"] = True
        _CHAOS["victim"].active_channel.close()
    return _lease_task(args)


def _poison_task(args):
    """Fail deterministically on the poison spec."""
    spec, _ = args
    if spec.profile_id == 9:
        raise RuntimeError("poison spec")
    return _lease_task(args)


# ---------------------------------------------------------------------------
# Host specs and handshake
# ---------------------------------------------------------------------------


def test_parse_host_forms(tmp_path):
    assert parse_host("127.0.0.1:4800") == ("socket", ("127.0.0.1", 4800))
    kind, path = parse_host(f"spool:{tmp_path}")
    assert kind == "spool" and str(path) == str(tmp_path)
    for bad in ("localhost", "host:port", "spool:", ":4800"):
        with pytest.raises(ValueError):
            parse_host(bad)


def test_foreign_code_fingerprint_is_rejected(live_workers):
    (foreign,) = live_workers(1, fingerprint="f" * 16)
    coordinator = SweepCoordinator([foreign.host], connect_timeout_s=5.0)
    with pytest.raises(HandshakeRejected, match="fingerprint"):
        coordinator._handshake(foreign.host)
    # Through run(): the reject counts as unreachable, the sweep still
    # completes via the local fallback, identically.
    outcomes = coordinator.run(_specs())
    assert outcomes == _baseline()
    assert coordinator.stats.hosts_unreachable == 1
    assert coordinator.stats.local_fallback_leases == 3


# ---------------------------------------------------------------------------
# Transport equality: the distributed run IS the serial run
# ---------------------------------------------------------------------------


def test_two_socket_workers_match_serial(live_workers, tmp_path):
    workers = live_workers(2)
    journal = SweepJournal(tmp_path)
    coordinator = SweepCoordinator(
        [w.host for w in workers], journal=journal
    )
    outcomes = coordinator.run(_specs())
    assert outcomes == _baseline()
    assert coordinator.stats.leases_completed == 3
    assert coordinator.stats.worker_deaths == 0
    # Every lease landed in the journal with its executing host label.
    lines = [
        json.loads(line)
        for line in (tmp_path / "journal.jsonl").read_text().splitlines()
    ]
    assert {entry["spec_sha"] for entry in lines} == {
        lease_key(spec) for spec in _specs()
    }
    assert all(entry["host"] for entry in lines)
    # And the journal's outcome store replays them without the fleet.
    resumed = SweepCoordinator(
        [w.host for w in workers], journal=SweepJournal(tmp_path)
    )
    assert resumed.run(_specs()) == _baseline()
    assert resumed.stats.leases_sent == 0


def test_spool_worker_matches_serial(tmp_path):
    spool = tmp_path / "spool"
    worker = SweepWorker(0, label="spool-1")
    thread = threading.Thread(
        target=worker.serve_spool, args=(spool,), daemon=True
    )
    thread.start()
    try:
        coordinator = SweepCoordinator([f"spool:{spool}"])
        assert coordinator.run(_specs()) == _baseline()
        assert coordinator.stats.leases_completed == 3
    finally:
        worker.stop()
        thread.join(5.0)


def test_execute_hosts_matches_serial_and_fills_cache(
    live_workers, tmp_path
):
    (worker,) = live_workers(1)
    outcomes = execute(
        _specs(), hosts=[worker.host], cache=tmp_path / "cache"
    )
    assert outcomes == _baseline()
    # The putback ran: a second execute() is pure cache, no dispatch.
    cached = execute(
        _specs(), hosts=["127.0.0.1:1"], cache=tmp_path / "cache"
    )
    assert cached == _baseline()


def test_execute_refuses_keep_results_with_hosts():
    with pytest.raises(ValueError, match="keep_results"):
        execute(_specs(profiles=(5,)), hosts=["127.0.0.1:1"],
                keep_results=True)


# ---------------------------------------------------------------------------
# Failure semantics
# ---------------------------------------------------------------------------


def test_dead_worker_leases_redispatch_to_survivor(live_workers, tmp_path):
    _CHAOS.clear()
    victim = live_workers(1, task=_sever_channel_task)[0]
    _CHAOS["victim"] = victim.worker
    survivor = live_workers(1)[0]
    journal = SweepJournal(tmp_path)
    coordinator = SweepCoordinator(
        [victim.host, survivor.host], journal=journal, io_timeout_s=30.0
    )
    outcomes = coordinator.run(_specs())
    assert outcomes == _baseline()
    assert _CHAOS["tripped"], "the chaos task never saw the poison spec"
    assert coordinator.stats.worker_deaths == 1
    assert coordinator.stats.redispatched_leases >= 1
    assert coordinator.stats.local_fallback_leases == 0
    # The journal holds every lease exactly once despite the death.
    assert set(SweepJournal(tmp_path).entries()) == {
        lease_key(spec) for spec in _specs()
    }


def test_all_workers_unreachable_degrades_to_local(tmp_path):
    journal = SweepJournal(tmp_path)
    coordinator = SweepCoordinator(
        ["127.0.0.1:1", "127.0.0.1:2"],
        journal=journal,
        connect_timeout_s=0.5,
    )
    outcomes = coordinator.run(_specs())
    assert outcomes == _baseline()
    assert coordinator.stats.hosts_unreachable == 2
    assert coordinator.stats.local_fallback_leases == 3
    # The fallback journals too: a later distributed attempt resumes.
    resumed = SweepCoordinator(
        ["127.0.0.1:1"], journal=SweepJournal(tmp_path),
        connect_timeout_s=0.5,
    )
    assert resumed.run(_specs()) == _baseline()
    assert resumed.stats.local_fallback_leases == 0


def test_remote_quarantine_comes_back_typed(live_workers, tmp_path):
    (worker,) = live_workers(
        1, task=_poison_task, label="poison-host"
    )
    journal = SweepJournal(tmp_path)
    coordinator = SweepCoordinator(
        [worker.host],
        policy=SweepPolicy(max_attempts=2, quarantine=True),
        journal=journal,
    )
    outcomes = coordinator.run(_specs())
    clean = [o for o in outcomes if not isinstance(o, FailedOutcome)]
    failed = [o for o in outcomes if isinstance(o, FailedOutcome)]
    assert clean == [
        o for o in _baseline() if o.spec.profile_id != 9
    ]
    assert len(failed) == 1
    assert failed[0].attempts == 2
    entry = SweepJournal(tmp_path).completed(lease_key(failed[0].spec))
    assert entry["status"] == "quarantined"
    assert entry["host"] == "poison-host"


def test_remote_failure_without_quarantine_raises(live_workers):
    (worker,) = live_workers(1, task=_poison_task)
    coordinator = SweepCoordinator([worker.host])
    with pytest.raises(RuntimeError, match="poison spec"):
        coordinator.run(_specs())


def test_oversized_frame_is_a_transport_error():
    import socket as socket_module
    import struct

    from repro.core.distributed import MAX_FRAME_BYTES, SocketChannel

    left, right = socket_module.socketpair()
    try:
        left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(TransportError, match="oversized"):
            SocketChannel(right).recv(timeout=5.0)
    finally:
        left.close()
        right.close()
