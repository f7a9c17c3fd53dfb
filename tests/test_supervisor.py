"""Sweep-fabric layer 3: the crash-safe sweep supervisor.

The supervisor's contract is the repo's determinism contract with
failure injected: supervision changes *where and whether* a lease
executes — retries, pool respawns, serial degradation, journal resume
— never what it produces.  So every chaos test here ends in the same
assertion: the survivors compare ``==`` to a clean ``workers=0`` run.

Chaos mechanics: the host uses the ``fork`` start method, so worker
processes inherit the parent's environment at spawn.  Injected tasks
(module-level, hence picklable) read a marker directory from the
environment to coordinate "kill yourself exactly once" / "hang on this
spec" behaviour across the process boundary.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.outcome_cache import OutcomeCache, code_fingerprint, lease_key
from repro.core.parallel import RunSpec
from repro.core.pool import close_worker_pool
from repro.core.run import aggregate_metrics, execute
from repro.core.supervisor import (
    FailedOutcome,
    SweepJournal,
    SweepPolicy,
    SweepSupervisor,
    _lease_task,
    resolve_sweep_journal,
    sweep_key,
)
from repro.obs.metrics import EMPTY_SNAPSHOT
from tests.support import check_cache_and_journal

DURATION_S = 10.0
_ENV_DIR = "REPRO_SUP_TEST_DIR"
_ENV_PARENT = "REPRO_SUP_TEST_PARENT"


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
# Injected chaos tasks (module level: they must pickle across fork)
# ---------------------------------------------------------------------------


def _logged_lease_task(spec):
    """The real lease task, with an append-only call log so tests can
    bound how much work a recovery actually re-ran."""
    base = os.environ[_ENV_DIR]
    with open(os.path.join(base, "calls.log"), "a") as handle:
        handle.write(f"{spec.service_name}:{spec.profile_id}\n")
    return _lease_task(spec)


def _kill_once_task(spec):
    """SIGKILL this worker the first time the poison spec arrives."""
    base = os.environ[_ENV_DIR]
    with open(os.path.join(base, "calls.log"), "a") as handle:
        handle.write(f"{spec.service_name}:{spec.profile_id}\n")
    marker = os.path.join(base, "killed")
    if spec.profile_id == 9 and not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return _lease_task(spec)


def _hang_task(spec):
    """Hang forever on the poison spec (until the supervisor's respawn
    terminates this worker); run everything else normally."""
    if spec.profile_id == 9:
        time.sleep(600)
    return _lease_task(spec)


def _die_in_workers_task(spec):
    """Kill every worker immediately; succeed only in the parent — the
    degradation path's happy ending."""
    if os.getpid() != int(os.environ[_ENV_PARENT]):
        os.kill(os.getpid(), signal.SIGKILL)
    return (("serial-ok", spec.profile_id), os.getpid(), 0, 0)


# ---------------------------------------------------------------------------
# Policy and FailedOutcome basics
# ---------------------------------------------------------------------------


def test_sweep_policy_validates():
    with pytest.raises(ValueError, match="max_attempts"):
        SweepPolicy(max_attempts=0)
    with pytest.raises(ValueError, match="timeout_s"):
        SweepPolicy(timeout_s=0.0)
    assert SweepPolicy().max_attempts == 1  # legacy semantics by default


def test_failed_outcome_ducktypes_where_outcomes_ride():
    failed = FailedOutcome(
        spec=_specs()[0], kind="error", attempts=3, message="boom"
    )
    assert failed.record is None
    assert failed.result is None
    assert failed.trace == ()
    # aggregate_metrics over a mixed sweep must not care.
    merged = aggregate_metrics([failed, failed])
    assert merged == EMPTY_SNAPSHOT


def test_backoff_is_seeded_and_capped():
    sup = SweepSupervisor(
        0, policy=SweepPolicy(backoff_base_s=0.1, backoff_cap_s=0.5)
    )
    from repro.core.supervisor import _Lease

    lease = _Lease(index=0, spec=_specs()[0], key="abc", attempts=1)
    first = sup._backoff_delay(lease)
    assert first == sup._backoff_delay(lease)  # deterministic per attempt
    lease.attempts = 9
    assert sup._backoff_delay(lease) <= 0.5  # capped despite 2**8 growth


# ---------------------------------------------------------------------------
# Retry / quarantine, with injected in-process tasks
# ---------------------------------------------------------------------------


def test_flaky_lease_retries_then_succeeds():
    attempts = []

    def flaky(spec):
        attempts.append(spec.profile_id)
        if len(attempts) < 3:
            raise RuntimeError("transient")
        return (("ok", spec.profile_id), os.getpid(), 0, 0)

    sup = SweepSupervisor(
        0,
        policy=SweepPolicy(max_attempts=3, backoff_base_s=0.0),
        task=flaky,
    )
    outcomes = sup.run(_specs(profiles=(5,)))
    assert outcomes == [("ok", 5)]
    assert sup.stats.retries == 2
    assert sup.stats.quarantined == 0


def test_poison_lease_quarantines_without_sinking_the_sweep():
    def poisoned(spec):
        if spec.profile_id == 5:
            raise RuntimeError("always broken")
        return (("ok", spec.profile_id), os.getpid(), 0, 0)

    sup = SweepSupervisor(
        0,
        policy=SweepPolicy(
            max_attempts=2, backoff_base_s=0.0, quarantine=True
        ),
        task=poisoned,
    )
    outcomes = sup.run(_specs())
    assert outcomes[0] == ("ok", 1)
    assert outcomes[2] == ("ok", 9)
    failed = outcomes[1]
    assert isinstance(failed, FailedOutcome)
    assert failed.kind == "error"
    assert failed.attempts == 2
    assert "always broken" in failed.message
    assert sup.stats.quarantined == 1
    assert sup.stats.retries == 1


def test_exhausted_lease_raises_when_quarantine_is_off():
    def broken(args):
        raise RuntimeError("always broken")

    sup = SweepSupervisor(
        0, policy=SweepPolicy(max_attempts=2, backoff_base_s=0.0), task=broken
    )
    with pytest.raises(RuntimeError, match="always broken"):
        sup.run(_specs(profiles=(5,)))
    assert sup.stats.retries == 1


# ---------------------------------------------------------------------------
# The journal
# ---------------------------------------------------------------------------


def test_journal_records_survive_reload(tmp_path):
    journal = SweepJournal(tmp_path)
    journal.record("a" * 64, "done", attempt=1, duration_s=0.5)
    journal.record("b" * 64, "failed", attempt=1, duration_s=0.1)
    reloaded = SweepJournal(tmp_path)
    assert len(reloaded) == 2
    assert reloaded.completed("a" * 64)["status"] == "done"
    assert reloaded.completed("b" * 64) is None  # failed is not terminal


def test_journal_tolerates_torn_tail_line(tmp_path):
    journal = SweepJournal(tmp_path)
    journal.record("a" * 64, "done", attempt=1, duration_s=0.5)
    with open(journal.path, "a") as handle:
        handle.write('{"spec_sha": "tor')  # killed mid-append
    reloaded = SweepJournal(tmp_path)
    assert len(reloaded) == 1
    assert reloaded.completed("a" * 64) is not None


def test_resolve_sweep_journal_forms(tmp_path):
    assert resolve_sweep_journal(None) is None
    assert resolve_sweep_journal(False) is None
    journal = SweepJournal(tmp_path / "j")
    assert resolve_sweep_journal(journal) is journal
    from_path = resolve_sweep_journal(tmp_path / "k")
    assert isinstance(from_path, SweepJournal)
    key = sweep_key(_specs())
    assert key == sweep_key(_specs())  # stable sweep identity
    assert key != sweep_key(_specs(profiles=(1, 5)))


def test_journalled_sweep_resumes_skipping_done_leases(tmp_path):
    specs = _specs()
    first = execute(specs, workers=0, journal=tmp_path)
    assert first == _baseline()
    lines = [
        json.loads(line)
        for line in (tmp_path / "journal.jsonl").read_text().splitlines()
    ]
    assert [entry["status"] for entry in lines] == ["done"] * 3
    assert {entry["spec_sha"] for entry in lines} == {
        lease_key(spec) for spec in specs
    }
    # Resume: everything skips, outcomes still == the oracle.
    sup = SweepSupervisor(0, journal=SweepJournal(tmp_path))
    second = sup.run(specs)
    assert second == _baseline()
    assert sup.stats.resumed_skips == 3


def test_stale_quarantine_entries_rerun_under_new_code(tmp_path):
    spec = _specs(profiles=(5,))[0]
    key = lease_key(spec)
    journal = SweepJournal(tmp_path)
    entry = {
        "spec_sha": key, "status": "quarantined", "attempt": 3,
        "duration": 0.0, "kind": "error", "code": "0" * 16,
    }
    with open(journal.path, "a") as handle:
        handle.write(json.dumps(entry) + "\n")
    # Old-code quarantine: re-run (the fix may have cured the spec).
    sup = SweepSupervisor(0, journal=SweepJournal(tmp_path))
    assert sup.run([spec]) == _baseline(profiles=(5,))
    assert sup.stats.resumed_skips == 0
    # Same-code quarantine: honoured as a typed failure.
    entry["code"] = code_fingerprint()
    with open(journal.path, "a") as handle:
        handle.write(json.dumps(entry) + "\n")
    sup = SweepSupervisor(0, journal=SweepJournal(tmp_path))
    restored = sup.run([spec])
    assert isinstance(restored[0], FailedOutcome)
    assert sup.stats.resumed_skips == 1


def test_journalled_pool_sweep_matches_serial_and_resumes(tmp_path):
    specs = _specs()
    first = execute(specs, workers=2, journal=tmp_path)
    assert first == _baseline()
    second = execute(specs, workers=2, journal=tmp_path)
    assert second == _baseline()
    # Three leases, three journal lines: the resume re-ran nothing.
    lines = (tmp_path / "journal.jsonl").read_text().splitlines()
    assert len(lines) == 3


@pytest.mark.parametrize("workers", [0, 2], ids=["serial", "pool"])
def test_cache_and_journal_write_each_payload_once(tmp_path, workers):
    check_cache_and_journal(tmp_path, _specs(), workers=workers)


def test_journal_with_a_cache_resumes_from_that_cache(tmp_path):
    specs = _specs()
    cache = OutcomeCache(tmp_path / "cache")
    execute(specs, workers=0, cache=cache, journal=tmp_path / "j")
    sup = SweepSupervisor(0, journal=SweepJournal(tmp_path / "j", cache=cache))
    assert sup.run(specs) == _baseline()
    assert sup.stats.resumed_skips == 3
    # Without the cache a done line finds no payload, so its lease re-runs.
    bare = SweepSupervisor(0, journal=SweepJournal(tmp_path / "j"))
    assert bare.run(specs) == _baseline()
    assert bare.stats.resumed_skips == 0


def test_sweep_key_takes_precomputed_lease_keys():
    specs = _specs()
    keys = [lease_key(spec) for spec in specs]
    assert sweep_key(specs, keys) == sweep_key(specs)


def _count_lease_keys(monkeypatch) -> list:
    """Count lease_key calls wherever the fabric looks it up."""
    import repro.core.outcome_cache
    import repro.core.run
    import repro.core.supervisor

    original = repro.core.outcome_cache.lease_key
    calls: list = []

    def counting_lease_key(spec):
        calls.append(spec)
        return original(spec)

    for module in (
        repro.core.outcome_cache, repro.core.run, repro.core.supervisor
    ):
        if getattr(module, "lease_key", None) is original:
            monkeypatch.setattr(module, "lease_key", counting_lease_key)
    return calls


def test_only_what_needs_a_key_is_keyed(monkeypatch, tmp_path):
    profiles = (1, 5, 9, 11)
    baseline = _baseline(profiles)
    calls = _count_lease_keys(monkeypatch)
    # No cache, journal, policy or host: nothing reads a key.
    assert execute(_specs(profiles), workers=2) == baseline
    assert SweepSupervisor(0).run(_specs(profiles)) == baseline
    assert calls == []
    # A journal to consult keys each spec once.
    sup = SweepSupervisor(0, journal=SweepJournal(tmp_path))
    assert sup.run(_specs(profiles)) == baseline
    assert len(calls) == len(profiles)


def test_keep_results_refuses_supervision(tmp_path):
    with pytest.raises(ValueError, match="keep_results"):
        execute(
            _specs(profiles=(5,)), workers=0, keep_results=True,
            journal=tmp_path,
        )
    with pytest.raises(ValueError, match="keep_results"):
        execute(
            _specs(profiles=(5,)), workers=0, keep_results=True,
            policy=SweepPolicy(max_attempts=2),
        )


# ---------------------------------------------------------------------------
# Chaos: worker death, hangs, degradation
# ---------------------------------------------------------------------------


def test_sigkilled_worker_loses_no_results(tmp_path, monkeypatch):
    """The acceptance scenario: a worker dies mid-sweep, the supervisor
    salvages every delivered result, re-runs only in-flight leases, and
    the final outcomes == the serial oracle."""
    monkeypatch.setenv(_ENV_DIR, str(tmp_path))
    profiles = (1, 2, 5, 7, 9, 11)
    specs = _specs(profiles=profiles)
    sup = SweepSupervisor(2, task=_kill_once_task)
    outcomes = sup.run(specs)
    assert (tmp_path / "killed").exists()  # the kill really happened
    assert outcomes == _baseline(profiles=profiles)
    assert sup.stats.pool_respawns >= 1
    assert sup.stats.serial_degradations == 0
    # Only in-flight leases re-ran: with 2 workers at most 2 leases were
    # in flight at the kill, so the call log is bounded accordingly.
    calls = (tmp_path / "calls.log").read_text().splitlines()
    assert len(specs) < len(calls) <= len(specs) + 2


def test_hung_lease_times_out_and_innocents_survive(monkeypatch, tmp_path):
    monkeypatch.setenv(_ENV_DIR, str(tmp_path))
    profiles = (1, 5, 9, 11)
    specs = _specs(profiles=profiles)
    sup = SweepSupervisor(
        2,
        policy=SweepPolicy(timeout_s=3.0, quarantine=True),
        task=_hang_task,
    )
    outcomes = sup.run(specs)
    baseline = _baseline(profiles=profiles)
    failed = outcomes[2]
    assert isinstance(failed, FailedOutcome)
    assert failed.kind == "timeout"
    assert [outcomes[0], outcomes[1], outcomes[3]] == [
        baseline[0], baseline[1], baseline[3]
    ]
    assert sup.stats.timeouts == 1
    assert sup.stats.quarantined == 1
    assert sup.stats.pool_respawns >= 1


def test_repeated_pool_deaths_degrade_to_serial(monkeypatch):
    monkeypatch.setenv(_ENV_PARENT, str(os.getpid()))
    specs = _specs(profiles=(1, 5, 9, 11))
    sup = SweepSupervisor(
        2,
        policy=SweepPolicy(max_pool_respawns=1),
        task=_die_in_workers_task,
    )
    outcomes = sup.run(specs)
    # The parent finished the sweep in-process, in spec order.
    assert outcomes == [("serial-ok", p) for p in (1, 5, 9, 11)]
    assert sup.stats.serial_degradations == 1
    assert sup.stats.pool_respawns == 1  # one respawn, then degradation


# ---------------------------------------------------------------------------
# Property: resume from any kill point replays to the same sweep
# ---------------------------------------------------------------------------


_JOURNAL_SEED: dict = {}


def _seed_journal(tmp_path_factory):
    """A fully journalled 3-spec sweep to truncate from, built once."""
    if "root" not in _JOURNAL_SEED:
        root = tmp_path_factory.mktemp("journal-seed")
        outcomes = execute(_specs(), workers=0, journal=root)
        assert outcomes == _baseline()
        _JOURNAL_SEED["root"] = root
    return _JOURNAL_SEED["root"]


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(keep=st.integers(min_value=0, max_value=3), torn=st.booleans())
def test_resume_from_any_kill_point_is_identical(
    tmp_path_factory, keep, torn
):
    """Kill a journalled sweep after any number of completed leases —
    with or without a torn half-written line — and the resumed sweep
    always reproduces the oracle, skipping exactly the journalled part."""
    seed = _seed_journal(tmp_path_factory)
    work = tmp_path_factory.mktemp("journal-resume")
    shutil.copytree(seed / "outcomes", work / "outcomes")
    lines = (seed / "journal.jsonl").read_text().splitlines()
    truncated = "".join(line + "\n" for line in lines[:keep])
    if torn:
        truncated += '{"spec_sha": "half-writ'  # the kill's torn tail
    (work / "journal.jsonl").write_text(truncated)

    sup = SweepSupervisor(0, journal=SweepJournal(work))
    outcomes = sup.run(_specs())
    assert outcomes == _baseline()
    assert sup.stats.resumed_skips == keep
    # The journal healed: every lease is terminal again.
    healed = SweepJournal(work)
    assert all(
        healed.completed(lease_key(spec)) is not None for spec in _specs()
    )


# ---------------------------------------------------------------------------
# Journal concurrency, group commit, and corrupted-line accounting
# ---------------------------------------------------------------------------


def _status_key(entry):
    return (entry["status"], entry["attempt"])


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    schedule=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1),  # which writer
            st.integers(min_value=0, max_value=4),  # which lease key
            st.sampled_from(["done", "quarantined"]),
        ),
        min_size=1,
        max_size=24,
    ),
    batched_writer=st.integers(min_value=0, max_value=2),
)
def test_interleaved_journals_load_as_union_last_writer_wins(
    tmp_path_factory, schedule, batched_writer
):
    """Two journal instances on one directory — the coordinator's
    shard-merge scenario — interleave at line granularity: a reload
    sees the union of both writers' records, last writer winning per
    lease key.  Holds with either writer (or neither) in group-commit
    mode: batching defers the fsync, not the append."""
    root = tmp_path_factory.mktemp("interleave")
    writers = [SweepJournal(root), SweepJournal(root)]
    if batched_writer < 2:
        writers[batched_writer].flush_every = 8
    expected: dict = {}
    for attempt, (writer, key_index, status) in enumerate(schedule, start=1):
        key = f"{key_index:064d}"
        writers[writer].record(
            key, status, attempt=attempt, duration_s=0.0
        )
        expected[key] = (status, attempt)
    for journal in writers:
        journal.close()
    reloaded = SweepJournal(root)
    assert reloaded.skipped_lines == 0
    loaded = {
        key: _status_key(entry)
        for key, entry in reloaded.entries().items()
    }
    assert loaded == expected


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    records=st.integers(min_value=1, max_value=20),
    torn_bytes=st.integers(min_value=1, max_value=30),
)
def test_batched_journal_survives_torn_tail_kill(
    tmp_path_factory, records, torn_bytes
):
    """Group-commit mode keeps the torn-tail guarantee: append N
    records without closing (the kill), glue a half-written line on the
    end, and a reload recovers every whole line and drops the tear."""
    root = tmp_path_factory.mktemp("batched-torn")
    journal = SweepJournal(root, flush_every=64)
    for index in range(records):
        journal.record(
            f"{index:064d}", "done", attempt=1, duration_s=0.0
        )
    # No close(): the writer is "killed" with the batch unsynced.  The
    # bytes are already appended (fsync is durability-against-power-
    # loss, not visibility), so a reader recovers all whole lines.
    partial = json.dumps(
        {"spec_sha": "x" * 64, "status": "done", "attempt": 1}
    )[:torn_bytes]
    with open(journal.path, "ab") as handle:
        handle.write(partial.encode())
    reloaded = SweepJournal(root)
    assert len(reloaded) == records
    assert reloaded.skipped_lines == 0
    journal.close()


def test_journal_counts_and_reports_skipped_lines(tmp_path, caplog):
    import logging

    journal = SweepJournal(tmp_path)
    journal.record("a" * 64, "done", attempt=1, duration_s=0.1)
    with open(journal.path, "a") as handle:
        handle.write("not json at all\n")
        handle.write('{"valid_json": "but no spec_sha"}\n')
        handle.write(json.dumps(
            {"spec_sha": "b" * 64, "status": "done", "attempt": 1,
             "duration": 0.1, "code": code_fingerprint()}
        ) + "\n")
    from repro.obs.metrics import process_registry

    before = process_registry().counter(
        "sweep.journal_skipped_lines"
    ).value
    with caplog.at_level(logging.WARNING, logger="repro.sweep"):
        reloaded = SweepJournal(tmp_path)
    assert reloaded.skipped_lines == 2
    assert len(reloaded) == 2  # both good lines survived the garbage
    after = process_registry().counter(
        "sweep.journal_skipped_lines"
    ).value
    assert after - before == 2
    assert any(
        "skipped 2 undecodable line(s)" in record.message
        and "line 2" in record.message
        for record in caplog.records
    )


def test_batched_mode_validates_and_restores(tmp_path):
    with pytest.raises(ValueError, match="flush_every"):
        SweepJournal(tmp_path / "bad", flush_every=0)
    journal = SweepJournal(tmp_path)
    assert journal.flush_every == 1
    with journal.batched(16) as same:
        assert same is journal
        assert journal.flush_every == 16
        journal.record("c" * 64, "done", attempt=1, duration_s=0.0)
    assert journal.flush_every == 1
    assert journal._handle is None  # handle released on exit
    assert SweepJournal(tmp_path).completed("c" * 64) is not None
