"""Content-addressed outcome cache: memoised RunOutcomes on disk.

The repo's determinism contract says a run's comparable outcome —
record, tick stats, metrics snapshot, trace — is a *pure function* of
its :class:`~repro.core.parallel.RunSpec`.  This module takes that
contract at its word: a sweep that was computed once never needs
computing again.  CI re-runs of the 12x14 grid, benchmark baselines and
iterative black-box probing all hit the cache instead of the simulator.

Addressing is by content, never by name:

* **spec key** — a SHA-256 over the *canonicalized* spec: every field
  that can influence the outcome, resolved to its effective value
  (``content_seed=None`` hashes like its resolved seed, a profile id
  hashes like the schedule it generates) and serialized with sorted
  field names, so field order and spelled-out defaults
  cannot split the key space;
* **code fingerprint** — a SHA-256 over every source file of the
  ``repro`` package plus :data:`SCHEMA_VERSION`.  Any code change moves
  the fingerprint, which silently invalidates every cached entry: a
  stale entry can describe what an *older* simulator produced, never be
  mistaken for current output.

Robustness: a corrupted, truncated or unreadable entry is a *miss*
(counted as an invalidation and unlinked), never a crash — the cache
may be shared by concurrent processes and killed mid-write, so entries
are written atomically (temp file + ``os.replace``) and verified on
read.

Hit/miss/invalidation counters land in the process-level metrics
registry (:func:`repro.obs.metrics.process_registry`); per-run
registries stay pure functions of their specs.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from repro.obs.metrics import process_registry

if TYPE_CHECKING:  # circular at runtime: run.py imports this module
    from repro.core.parallel import RunSpec
    from repro.core.run import RunOutcome

#: Bump to invalidate every cached outcome when the *meaning* of an
#: entry changes without a source change (e.g. a field reinterpreted).
SCHEMA_VERSION = 2

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


class UncacheableSpec(ValueError):
    """The spec holds a value the canonicalizer cannot fingerprint
    (e.g. a hand-rolled schedule object that is not a dataclass), or a
    side-effecting trace sink a cache hit could not reproduce."""


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro-vod/outcomes``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override).expanduser()
    base = os.environ.get("XDG_CACHE_HOME", "~/.cache")
    return Path(base).expanduser() / "repro-vod" / "outcomes"


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------


def _canonical_token(obj) -> object:
    """A JSON-free canonical form: stable across field order, process
    and platform.  Only data that participates in ``==`` is included
    (``compare=False`` dataclass fields are execution detail)."""
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return obj
    if isinstance(obj, float):
        return ("f", repr(obj))  # repr is shortest-roundtrip, stable
    if isinstance(obj, enum.Enum):
        return ("enum", type(obj).__qualname__, obj.name)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = sorted(
            (f.name for f in dataclasses.fields(obj) if f.compare)
        )
        return (
            "dc",
            type(obj).__qualname__,
            tuple(
                (name, _canonical_token(getattr(obj, name)))
                for name in fields
            ),
        )
    if isinstance(obj, (tuple, list)):
        return ("seq", tuple(_canonical_token(item) for item in obj))
    if isinstance(obj, dict):
        return (
            "map",
            tuple(
                sorted(
                    (_canonical_token(k), _canonical_token(v))
                    for k, v in obj.items()
                )
            ),
        )
    raise UncacheableSpec(
        f"cannot canonicalize {type(obj).__qualname__} value {obj!r}"
    )


def canonical_spec(spec: "RunSpec", *, check_sinks: bool = True) -> "RunSpec":
    """Resolve every lazily-defaulted field to its effective value.

    Two specs that *execute identically* must canonicalize identically:
    the seed default, the (profile, trace) -> schedule resolution chain
    and the content-duration fallback are all collapsed here.

    ``check_sinks=False`` skips the file-backed-trace-sink refusal:
    the sweep journal (:mod:`repro.core.supervisor`) uses it because a
    journaled completion means the run — side effects included —
    already happened, so replaying it skips nothing.

    Spec kinds that know how to canonicalize themselves (FleetSpec)
    provide ``canonicalized()``; RunSpec keeps its resolution chain
    here because the lazy-default semantics predate that hook.
    """
    canonicalize = getattr(spec, "canonicalized", None)
    if canonicalize is not None:
        return canonicalize()
    if check_sinks and spec.tracing is not None and spec.tracing.sink != "ring":
        raise UncacheableSpec(
            "file-backed trace sinks are side effects a cache hit would "
            "skip; run with sink='ring' or disable the outcome cache"
        )
    return replace(
        spec,
        content_seed=spec.resolved_content_seed,
        content_duration_s=spec.content_duration_s or spec.duration_s,
        schedule=spec.resolved_schedule(),
        trace=None,
        trace_duration_s=None,
        trace_seed=0,
    )


def _digest_spec(spec: "RunSpec", *, check_sinks: bool) -> str:
    """Shared SHA-256 helper behind :func:`spec_key` and :func:`lease_key`."""
    token = _canonical_token(canonical_spec(spec, check_sinks=check_sinks))
    digest = hashlib.sha256()
    digest.update(repr(token).encode("utf-8"))
    return digest.hexdigest()


def spec_key(spec: "RunSpec") -> str:
    """The content address of a spec's outcome (hex SHA-256).

    Raises :class:`UncacheableSpec` when the spec cannot be
    fingerprinted; callers treat those as cache bypasses.
    """
    return _digest_spec(spec, check_sinks=True)


def lease_key(spec: "RunSpec") -> Optional[str]:
    """The idempotent lease identity of a spec for the sweep supervisor.

    The same canonical SHA-256 as :func:`spec_key`, except that specs
    with file-backed trace sinks *are* leasable — a journal replays
    completed work, it never skips side effects that did not happen.
    Specs whose values cannot be canonicalized at all return ``None``
    and are simply never leased or journaled (always re-run).
    """
    try:
        return _digest_spec(spec, check_sinks=False)
    except UncacheableSpec:
        return None


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of every ``repro`` source file plus the schema version.

    Computed once per process; ``code_fingerprint.cache_clear()``
    recomputes (tests monkeypatch around this instead).
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    digest.update(f"schema={SCHEMA_VERSION}".encode())
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time cache accounting (process counters + disk scan)."""

    cache_dir: str
    code_fingerprint: str
    hits: int
    misses: int
    invalidations: int
    entries: int  # readable entries under the current fingerprint
    stale_entries: int  # entries under superseded fingerprints
    bytes: int  # total on-disk size, current + stale


@dataclass(frozen=True)
class VerifyReport:
    """What :meth:`OutcomeCache.verify` found on disk."""

    ok: int
    corrupt: int
    stale: int

    @property
    def clean(self) -> bool:
        return self.corrupt == 0


class OutcomeCache:
    """Disk-backed, content-addressed store of comparable outcomes.

    Entries live under ``root/<code_fingerprint>/<spec_key>.pkl`` and
    hold only the *comparable* payload (record, tick stats, metrics,
    trace) — never the live session graph — so a hit reconstructs a
    :class:`~repro.core.run.RunOutcome` that compares ``==`` to a
    freshly computed one for the same spec.
    """

    def __init__(
        self,
        root: Union[str, Path, None] = None,
        *,
        fingerprint: Optional[str] = None,
    ):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.fingerprint = fingerprint or code_fingerprint()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._registry = process_registry()

    # -- addressing --------------------------------------------------------

    def _entry_path(self, key: str) -> Path:
        return self.root / self.fingerprint / f"{key}.pkl"

    # -- entry framing -----------------------------------------------------
    #
    # The serialized entry is itself the content-addressed payload unit:
    # what put() writes to disk, encode_entry() hands to the distributed
    # worker for the wire, and put_bytes() stores verbatim on the
    # coordinator side — one framing, validated identically everywhere.

    def encode_entry(
        self,
        spec: "RunSpec",
        outcome: "RunOutcome",
        *,
        key: str,
    ) -> bytes:
        """Serialize an outcome's comparable payload as entry bytes.

        The exact bytes :meth:`put` would write under ``key``: the
        distributed worker ships these over its transport and the
        coordinator stores them with :meth:`put_bytes` without a
        re-pickle round trip.
        """
        from repro.core.fleet import FleetOutcome

        entry = {
            "schema": SCHEMA_VERSION,
            "code": self.fingerprint,
            "key": key,
        }
        if isinstance(outcome, FleetOutcome):
            entry["fleet"] = replace(outcome, results=None)
        else:
            entry.update(
                record=outcome.record,
                tick_stats=outcome.tick_stats,
                metrics=outcome.metrics,
                trace=outcome.trace,
            )
        return pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)

    def decode_bytes(
        self, raw: bytes, spec: "RunSpec", *, key: str
    ) -> "RunOutcome":
        """Rebuild the outcome entry bytes stand for (checked).

        Raises on any mismatch — wrong schema, foreign code
        fingerprint, address drift, truncated pickle — so a transport
        can treat a bad payload as a failed lease instead of silently
        accepting a wrong result.
        """
        return self._decode_entry(pickle.loads(raw), spec, key)

    def _decode_entry(self, entry: dict, spec: "RunSpec", key: str):
        from repro.core.run import RunOutcome

        if (
            entry["schema"] != SCHEMA_VERSION
            or entry["code"] != self.fingerprint
            or entry["key"] != key
        ):
            raise ValueError("entry does not match its address")
        if "fleet" in entry:
            # A FleetOutcome is picklable once its live results are
            # stripped; rebind the caller's spec so lazily-defaulted
            # fields compare the way they were asked for.
            return replace(entry["fleet"], spec=spec)
        return RunOutcome(
            spec=spec,
            record=entry["record"],
            tick_stats=entry["tick_stats"],
            metrics=entry["metrics"],
            trace=entry["trace"],
        )

    def _publish(self, key: str, data: bytes) -> None:
        """Atomically write entry bytes: readers never see a partial."""
        path = self._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._registry.counter("outcome_cache.puts").inc()

    # -- read / write ------------------------------------------------------

    def get(
        self, spec: "RunSpec", *, key: Optional[str] = None
    ) -> Optional["RunOutcome"]:
        """The memoised outcome for ``spec``, or ``None`` on miss.

        Corrupt or mismatched entries are unlinked (counted as
        invalidations and ``cache.corrupt_unlinks``); an uncacheable
        spec is a plain miss.  ``key`` substitutes a precomputed
        address (the sweep journal passes :func:`lease_key` so even
        side-effecting specs round-trip).
        """
        if key is None:
            try:
                key = spec_key(spec)
            except UncacheableSpec:
                self._miss()
                return None
        path = self._entry_path(key)
        try:
            with open(path, "rb") as handle:
                entry = pickle.load(handle)
            outcome = self._decode_entry(entry, spec, key)
        except FileNotFoundError:
            self._miss()
            return None
        except Exception:
            # Truncated pickle, foreign bytes, schema drift: a miss,
            # and the unreadable entry is dropped so it cannot keep
            # costing a failed load on every lookup.
            self.invalidations += 1
            self._registry.counter("outcome_cache.invalidations").inc()
            self._registry.counter("cache.corrupt_unlinks").inc()
            path.unlink(missing_ok=True)
            self._miss()
            return None
        self.hits += 1
        self._registry.counter("outcome_cache.hits").inc()
        return outcome

    def put(
        self,
        spec: "RunSpec",
        outcome: "RunOutcome",
        *,
        key: Optional[str] = None,
    ) -> bool:
        """Store an outcome's comparable payload; False if uncacheable."""
        if key is None:
            try:
                key = spec_key(spec)
            except UncacheableSpec:
                return False
        self._publish(key, self.encode_entry(spec, outcome, key=key))
        return True

    def put_bytes(self, key: str, data: bytes) -> None:
        """Store pre-encoded entry bytes verbatim under their address.

        The caller vouches for ``data`` (normally by having run it
        through :meth:`decode_bytes` first); the read path re-validates
        on every :meth:`get` regardless.
        """
        self._publish(key, data)

    def _miss(self) -> None:
        self.misses += 1
        self._registry.counter("outcome_cache.misses").inc()

    # -- maintenance -------------------------------------------------------

    def _scan(self):
        for path in self.root.glob("*/*.pkl"):
            yield path, path.parent.name == self.fingerprint

    def stats(self) -> CacheStats:
        entries = stale = size = 0
        for path, current in self._scan():
            size += path.stat().st_size
            if current:
                entries += 1
            else:
                stale += 1
        self._registry.gauge("outcome_cache.entries").set(entries)
        self._registry.gauge("outcome_cache.bytes").set(size)
        return CacheStats(
            cache_dir=str(self.root),
            code_fingerprint=self.fingerprint,
            hits=self.hits,
            misses=self.misses,
            invalidations=self.invalidations,
            entries=entries,
            stale_entries=stale,
            bytes=size,
        )

    def clear(self) -> int:
        """Delete every entry (all fingerprints); returns entries removed."""
        removed = 0
        for path, _ in list(self._scan()):
            path.unlink(missing_ok=True)
            removed += 1
        for child in self.root.glob("*"):
            if child.is_dir():
                try:
                    child.rmdir()
                except OSError:
                    pass  # non-entry files present; leave the dir
        return removed

    def verify(self) -> VerifyReport:
        """Load-check every entry; corrupt ones are unlinked.

        Stale entries (superseded fingerprints) are counted but kept —
        they are harmless (never read) and ``clear`` removes them.
        """
        ok = corrupt = stale = 0
        for path, current in list(self._scan()):
            if not current:
                stale += 1
                continue
            try:
                with open(path, "rb") as handle:
                    entry = pickle.load(handle)
                if (
                    entry["schema"] != SCHEMA_VERSION
                    or entry["code"] != self.fingerprint
                    or entry["key"] != path.stem
                ):
                    raise ValueError("entry does not match its address")
                ok += 1
            except Exception:
                corrupt += 1
                self.invalidations += 1
                self._registry.counter("outcome_cache.invalidations").inc()
                self._registry.counter("cache.corrupt_unlinks").inc()
                path.unlink(missing_ok=True)
        return VerifyReport(ok=ok, corrupt=corrupt, stale=stale)


#: What ``cache=`` accepts across the run API: disabled, "the default
#: directory", an explicit directory, or a live cache object.
CacheSpec = Union[None, bool, str, Path, OutcomeCache]


def resolve_outcome_cache(cache: CacheSpec) -> Optional[OutcomeCache]:
    """Normalize a ``cache=`` argument to an :class:`OutcomeCache`."""
    if cache is None or cache is False:
        return None
    if cache is True:
        return OutcomeCache()
    if isinstance(cache, OutcomeCache):
        return cache
    return OutcomeCache(cache)
