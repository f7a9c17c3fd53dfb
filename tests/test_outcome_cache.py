"""Sweep-fabric layer 2: the content-addressed outcome cache.

The cache leans entirely on the determinism contract — an outcome is a
pure function of its canonicalized spec and the code fingerprint — so
these tests attack exactly that: canonicalization must collapse
spellings of the same run, the fingerprint must fence off entries from
other code versions, disk corruption must read as a miss, and a hit
must compare ``==`` to a fresh computation for every one of the 12
services.
"""

from __future__ import annotations

import pickle

import pytest

import repro.net.traces
from repro.analysis.faults import ErrorBurst, FaultSpec, SeededErrors
from repro.cli import main
from repro.core.fleet import FleetSpec
from repro.core.outcome_cache import (
    OutcomeCache,
    UncacheableSpec,
    canonical_spec,
    code_fingerprint,
    lease_key,
    resolve_outcome_cache,
    spec_key,
)
from repro.core.parallel import RunSpec, sweep_grid
from repro.core.run import execute, run_one
from repro.net.schedule import StepSchedule, TraceSchedule
from repro.net.traces import TRACE_SEED, generate_trace
from repro.obs import TraceConfig
from repro.obs.metrics import process_registry
from repro.services import ALL_SERVICE_NAMES
from repro.util import mbps

DURATION_S = 25.0


def _spec(**kwargs):
    defaults = dict(service="H1", profile_id=9, duration_s=DURATION_S)
    defaults.update(kwargs)
    return RunSpec(**defaults)


# ---------------------------------------------------------------------------
# Canonicalization and addressing
# ---------------------------------------------------------------------------


def test_spec_key_is_stable_and_hex():
    key = spec_key(_spec())
    assert key == spec_key(_spec())
    assert len(key) == 64
    int(key, 16)  # hex digest


def test_default_values_spelled_out_hash_identically():
    implicit = _spec()
    explicit = _spec(
        content_seed=implicit.resolved_content_seed,
        content_duration_s=DURATION_S,
        engine="event",
        schedule=implicit.resolved_schedule(),
    )
    assert spec_key(implicit) == spec_key(explicit)


def test_trace_and_profile_spellings_hash_identically():
    by_profile = _spec()
    by_trace = _spec(trace=by_profile.resolved_trace())
    by_schedule = _spec(schedule=by_profile.resolved_schedule())
    assert spec_key(by_profile) == spec_key(by_trace) == spec_key(by_schedule)


def test_outcome_relevant_fields_split_the_key_space():
    base = _spec()
    assert spec_key(base) != spec_key(_spec(profile_id=2))
    assert spec_key(base) != spec_key(_spec(repetition=1))
    assert spec_key(base) != spec_key(_spec(duration_s=DURATION_S + 5))
    # Engines differ in tick stats, which outcomes compare.
    assert spec_key(base) != spec_key(_spec(engine="tick"))
    assert spec_key(base) != spec_key(
        _spec(config_overrides=(("startup_buffer_s", 4.0),))
    )


def test_canonical_spec_resolves_lazy_defaults():
    resolved = canonical_spec(_spec())
    assert resolved.content_seed == _spec().resolved_content_seed
    assert resolved.content_duration_s == DURATION_S
    assert resolved.trace is None
    assert resolved.schedule is not None


def test_file_backed_trace_sink_is_uncacheable(tmp_path):
    spec = _spec(tracing=TraceConfig(sink="jsonl", path="/tmp/t.jsonl"))
    with pytest.raises(UncacheableSpec):
        spec_key(spec)
    cache = OutcomeCache(tmp_path)
    assert cache.get(spec) is None  # a miss, not a crash
    assert cache.put(spec, run_one(_spec(), keep_result=False)) is False


# Keys pinned as the code computed them before the trace memo and the
# one-key-per-lease refactor: neither may move a key.  Each entry is
# (spec, spec_key == lease_key).
PINNED_KEYS = {
    "profile-20s": (
        RunSpec(service="H1", profile_id=9, duration_s=20.0),
        "7440e896c2edf25be4cdc0597cc9ade2e27d73dd901df5f0e564a1fd16dfe94a",
    ),
    "profile-120s": (
        RunSpec(service="H1", profile_id=9, duration_s=120.0),
        "d4f0202a55792463ac12fd38d4c6a292e0f459dcf672c5998f5d873eb82009b0",
    ),
    # The explicit-trace twin of profile-20s collides with it on purpose.
    "trace-20s": (
        RunSpec(
            service="H1", profile_id=9, duration_s=20.0,
            trace=generate_trace(9, 20),
        ),
        "7440e896c2edf25be4cdc0597cc9ade2e27d73dd901df5f0e564a1fd16dfe94a",
    ),
    "step": (
        RunSpec(
            service="S1", duration_s=60.0,
            schedule=StepSchedule.single_step(mbps(5), mbps(0.8), 30.0),
        ),
        "4b275dc9abaeba7f96cd00bdaab8458bc44f151f0bea05967409cc6e6b4fb427",
    ),
    "faults": (
        RunSpec(
            service="D2", profile_id=5, duration_s=90.0,
            faults=FaultSpec(
                error_bursts=(ErrorBurst(20.0, 35.0),),
                seeded_errors=(SeededErrors(rate=0.08),),
                reset_times=(40.0,),
            ),
            config_overrides=(("startup_buffer_s", 4.0),),
        ),
        "8fc4cd2eea3fb3aab521e494d79b9a8075bfc797220615f34cca7d772458818c",
    ),
    "fleet": (
        FleetSpec(
            services=("H1", "S1"), clients=4, duration_s=60.0,
            profile_id=7, churn_seed=3,
        ),
        "7ac5a54ee0a6a1c83559474a24bd3ae7376a6413e3ba547b980eb02c2ed0d0f3",
    ),
    "ring-sink": (
        RunSpec(
            service="H4", profile_id=3, duration_s=30.0,
            tracing=TraceConfig(sink="ring", capacity=512),
        ),
        "e041d9c718502be55c346c235747e60bd10b1b9c23003307261b3f02c361325e",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_KEYS))
def test_pinned_keys_do_not_move(name):
    spec, key = PINNED_KEYS[name]
    assert spec_key(spec) == key
    assert lease_key(spec) == key


def test_pinned_file_sink_lease_key_does_not_move():
    spec = RunSpec(
        service="H1", profile_id=9, duration_s=20.0,
        tracing=TraceConfig(sink="jsonl", path="lease-trace.jsonl"),
    )
    assert lease_key(spec) == (
        "6e14dc7027bcb75c11a90df0be1ed1467951ff75c4215f56d903b77b37334990"
    )


def test_keys_and_builds_share_one_generated_trace(monkeypatch):
    """A profile's trace is generated once per process, not once per
    key: the memo serves the cache key, the lease key and the build."""
    calls = []
    original = repro.net.traces.generate_trace

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(repro.net.traces, "generate_trace", counted)
    memo = repro.net.traces
    memo.profile_trace.cache_clear()
    memo.profile_schedule.cache_clear()
    spec = _spec(duration_s=21.0, trace_seed=TRACE_SEED + 1)
    spec_key(spec)
    lease_key(spec)
    spec.build()
    assert spec.resolved_trace() is spec.resolved_trace()
    assert calls == [(9, 21, TRACE_SEED + 1)]
    assert memo.profile_schedule(9, 21, TRACE_SEED + 1) is (
        spec.resolved_schedule()
    )


def test_explicit_trace_lease_builds_one_schedule(tmp_path, monkeypatch):
    """One cold lease of an explicit-trace spec builds one
    ``TraceSchedule``: its cache key and its build share it, and the
    spec's pickle does not grow."""
    trace = generate_trace(9, 22, TRACE_SEED + 2)
    built = []
    post_init = TraceSchedule.__post_init__

    def counted(self):
        if self.samples_bps == trace.samples_bps:
            built.append(self)
        post_init(self)

    monkeypatch.setattr(TraceSchedule, "__post_init__", counted)
    spec = _spec(duration_s=22.0, trace=trace)
    size = len(pickle.dumps(spec))
    cache = OutcomeCache(tmp_path)
    execute([spec], workers=0, cache=cache)
    assert cache.misses == 1
    assert len(built) == 1
    assert len(pickle.dumps(spec)) == size


def test_code_fingerprint_is_cached_and_short():
    assert code_fingerprint() == code_fingerprint()
    assert len(code_fingerprint()) == 16


# ---------------------------------------------------------------------------
# Hit/miss behaviour
# ---------------------------------------------------------------------------


def test_cached_outcome_equals_fresh_outcome(tmp_path):
    cache = OutcomeCache(tmp_path)
    spec = _spec()
    fresh = run_one(spec, keep_result=False)
    assert cache.get(spec) is None
    assert cache.put(spec, fresh) is True
    hit = cache.get(spec)
    assert hit == fresh
    assert hit.result is None  # live graphs never ride the cache
    assert (cache.hits, cache.misses) == (1, 1)


def test_execute_second_pass_is_all_hits_all_services(tmp_path):
    cache = OutcomeCache(tmp_path)
    specs = sweep_grid(ALL_SERVICE_NAMES, [9], duration_s=DURATION_S)
    fresh = execute(specs, workers=0)
    first = execute(specs, workers=0, cache=cache)
    assert cache.hits == 0 and cache.misses == len(specs)
    second = execute(specs, workers=0, cache=cache)
    assert cache.hits == len(specs)
    assert first == fresh
    assert second == fresh  # cached outcomes == computed, all 12 services


def test_cache_composes_with_worker_pool(tmp_path):
    from repro.core.pool import close_worker_pool

    cache = OutcomeCache(tmp_path)
    specs = sweep_grid(["H1", "S1"], [2, 9], duration_s=DURATION_S)
    try:
        first = execute(specs, workers=2, cache=cache)
        second = execute(specs, workers=2, cache=cache)
    finally:
        close_worker_pool()
    assert cache.hits == len(specs)
    assert first == second == execute(specs, workers=0)


def test_partial_cache_mixes_hits_and_fresh_runs(tmp_path):
    cache = OutcomeCache(tmp_path)
    warm_spec = _spec(service="S1")
    execute([warm_spec], workers=0, cache=cache)
    specs = [_spec(), warm_spec, _spec(profile_id=2)]
    outcomes = execute(specs, workers=0, cache=cache)
    assert cache.hits == 1  # only the pre-warmed spec
    assert outcomes == execute(specs, workers=0)


def test_keep_results_refuses_cache(tmp_path):
    with pytest.raises(ValueError, match="keep_results"):
        execute([_spec()], workers=0, keep_results=True, cache=tmp_path)


def test_counters_reach_process_registry(tmp_path):
    registry = process_registry()
    hits_before = registry.counter("outcome_cache.hits").value
    misses_before = registry.counter("outcome_cache.misses").value
    cache = OutcomeCache(tmp_path)
    spec = _spec()
    execute([spec], workers=0, cache=cache)
    execute([spec], workers=0, cache=cache)
    assert registry.counter("outcome_cache.hits").value == hits_before + 1
    assert registry.counter("outcome_cache.misses").value == misses_before + 1


# ---------------------------------------------------------------------------
# Invalidation
# ---------------------------------------------------------------------------


def test_fingerprint_bump_invalidates_entries(tmp_path):
    old = OutcomeCache(tmp_path, fingerprint="oldcode000000000")
    spec = _spec()
    outcome = run_one(spec, keep_result=False)
    old.put(spec, outcome)
    assert old.get(spec) == outcome
    new = OutcomeCache(tmp_path, fingerprint="newcode000000000")
    assert new.get(spec) is None  # other-fingerprint entries invisible
    stats = new.stats()
    assert stats.entries == 0
    assert stats.stale_entries == 1


def test_corrupted_and_truncated_entries_are_misses(tmp_path):
    cache = OutcomeCache(tmp_path)
    spec = _spec()
    outcome = run_one(spec, keep_result=False)
    cache.put(spec, outcome)
    path = cache._entry_path(spec_key(spec))

    path.write_bytes(path.read_bytes()[:20])  # truncated pickle
    assert cache.get(spec) is None
    assert not path.exists()  # unreadable entry dropped
    assert cache.invalidations == 1

    cache.put(spec, outcome)
    path.write_bytes(b"not a pickle at all")
    assert cache.get(spec) is None
    assert cache.invalidations == 2

    # An entry whose payload disagrees with its address is invalid too.
    cache.put(spec, outcome)
    entry = pickle.loads(path.read_bytes())
    entry["key"] = "0" * 64
    path.write_bytes(pickle.dumps(entry))
    assert cache.get(spec) is None
    assert cache.invalidations == 3

    # After all that abuse a clean round-trip still works.
    cache.put(spec, outcome)
    assert cache.get(spec) == outcome


def test_corrupt_unlinks_count_in_process_registry(tmp_path):
    registry = process_registry()
    before = registry.counter("cache.corrupt_unlinks").value
    cache = OutcomeCache(tmp_path)
    spec = _spec()
    outcome = run_one(spec, keep_result=False)
    cache.put(spec, outcome)
    path = cache._entry_path(spec_key(spec))
    path.write_bytes(b"junk")
    assert cache.get(spec) is None  # corrupt read unlinks the entry
    assert registry.counter("cache.corrupt_unlinks").value == before + 1
    (tmp_path / cache.fingerprint / "feedface.pkl").write_bytes(b"junk")
    cache.verify()  # verify unlinks corrupt entries too
    assert registry.counter("cache.corrupt_unlinks").value == before + 2


def test_lease_key_tolerates_side_effecting_sinks(tmp_path):
    from repro.core.outcome_cache import lease_key

    plain = _spec()
    assert lease_key(plain) == spec_key(plain)
    sink = _spec(tracing=TraceConfig(sink="jsonl", path="/tmp/t.jsonl"))
    with pytest.raises(UncacheableSpec):
        spec_key(sink)  # the shared cache still refuses side effects
    key = lease_key(sink)  # ...but the journal can address the lease
    assert key is not None and len(key) == 64
    # Explicit keys let the journal store round-trip such outcomes.
    cache = OutcomeCache(tmp_path)
    outcome = run_one(plain, keep_result=False)
    assert cache.put(plain, outcome, key=key) is True
    assert cache.get(plain, key=key) == outcome


def test_verify_counts_and_removes_corrupt_entries(tmp_path):
    cache = OutcomeCache(tmp_path)
    execute(
        [_spec(), _spec(profile_id=2)], workers=0, cache=cache
    )
    (tmp_path / cache.fingerprint / "deadbeef.pkl").write_bytes(b"junk")
    stale_dir = tmp_path / "stalefingerprint"
    stale_dir.mkdir()
    (stale_dir / "old.pkl").write_bytes(b"junk")
    report = cache.verify()
    assert (report.ok, report.corrupt, report.stale) == (2, 1, 1)
    assert not report.clean
    assert cache.verify() == type(report)(ok=2, corrupt=0, stale=1)
    assert cache.clear() == 3  # 2 live + 1 stale
    assert cache.stats().entries == 0


# ---------------------------------------------------------------------------
# resolve + CLI
# ---------------------------------------------------------------------------


def test_resolve_outcome_cache_forms(tmp_path):
    assert resolve_outcome_cache(None) is None
    assert resolve_outcome_cache(False) is None
    from_path = resolve_outcome_cache(tmp_path)
    assert isinstance(from_path, OutcomeCache)
    assert from_path.root == tmp_path
    existing = OutcomeCache(tmp_path)
    assert resolve_outcome_cache(existing) is existing
    assert isinstance(resolve_outcome_cache(True), OutcomeCache)


def test_cli_cache_stats_clear_verify(tmp_path, capsys):
    cache_dir = str(tmp_path / "cli-cache")
    code = main([
        "compare", "H1", "--profiles", "9", "--duration", "25",
        "--cache-dir", cache_dir,
    ])
    assert code == 0
    capsys.readouterr()

    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "entries          : 1" in out

    assert main(["cache", "verify", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "ok      : 1" in out

    assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "removed 1" in out


def test_cli_cache_verify_exits_nonzero_on_corruption(tmp_path, capsys):
    cache_dir = tmp_path / "cli-cache"
    cache = OutcomeCache(cache_dir)
    cache.put(_spec(), run_one(_spec(), keep_result=False))
    (cache_dir / cache.fingerprint / "deadbeef.pkl").write_bytes(b"junk")
    assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 1
    out = capsys.readouterr().out
    assert "corrupt : 1" in out
    # The corrupt entry was removed; a re-verify is clean again.
    assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 0


def test_cli_compare_cache_hits_on_second_run(tmp_path, capsys):
    cache_dir = str(tmp_path / "cli-cache")
    argv = [
        "compare", "H1", "--profiles", "9", "--duration", "25",
        "--cache-dir", cache_dir,
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second  # cached sweep renders the identical table
