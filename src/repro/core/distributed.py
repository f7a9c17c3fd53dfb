"""Distributed sweep fabric: coordinator/worker sharding across hosts.

PR 8 made sweeps crash-safe on one machine: idempotent leases keyed by
the canonical RunSpec SHA-256, a fsync'd :class:`SweepJournal`, and a
supervisor that retries, quarantines and resumes.  This module is the
multi-host half the ROADMAP asked for — the same leases, sharded:

* :class:`SweepCoordinator` partitions a sweep's leases into
  **locality-aware shards** (catalogue-pure, through the same
  ``_plan_chunks`` logic ``execute`` uses for pool workers, so each
  worker *host* encodes each catalogue at most once) and dispatches
  them to workers over a pluggable transport;
* :class:`SweepWorker` is the per-host daemon (``repro worker``).  It
  runs each shard through the existing
  :class:`~repro.core.supervisor.SweepSupervisor` — per-spec timeouts,
  seeded-backoff retries, poison quarantine and pool respawn all apply
  *per host* — and streams terminal lease entries plus
  content-addressed outcome payloads back as they complete;
* the coordinator merges the stream into one
  :class:`~repro.core.supervisor.SweepJournal` (group-commit batched),
  so a killed coordinator *or* worker resumes from the union of
  everything any host finished.

Transports:

* ``HOST:PORT`` — a length-prefixed JSON socket protocol (payloads ride
  as base64 pickle fields).  The worker listens with
  ``repro worker --listen HOST:PORT``.
* ``spool:PATH`` — a shared-filesystem spool for cluster setups without
  open ports: both sides exchange the same JSON messages as atomically
  renamed, sequence-numbered files under ``PATH/c2w`` and ``PATH/w2c``.
  The worker watches with ``repro worker --spool PATH``.

Failure semantics: a dead or unreachable worker (connection refused,
EOF after a SIGKILL, transport silence past ``io_timeout_s``) gets its
unfinished shard leases re-dispatched to the survivors — the lease key
makes re-runs idempotent, so at-least-once dispatch is safe.  A
coordinator with zero reachable workers degrades to the local
supervisor path (slow beats dead, again).  The handshake pins the code
fingerprint: a worker running different simulator code refuses the
session rather than contribute outcomes the fingerprint says are
incomparable.

Determinism contract, extended one level up: distribution changes
*where* a lease executes — never what it produces.  ``workers=0``
serial remains the invariant gate: a sweep fanned over N hosts, with a
worker killed mid-flight and its leases re-dispatched, compares ``==``
to the in-process run.

Security note: transports carry pickled specs and outcomes and perform
no authentication.  Bind workers to loopback or trusted networks only.
"""

from __future__ import annotations

import base64
import json
import logging
import os
import pickle
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

from repro.core.outcome_cache import OutcomeCache, code_fingerprint
from repro.core.supervisor import (
    LeaseResult,
    SweepJournal,
    SweepPolicy,
    SweepSupervisor,
    _Lease,
    _lease_task,
    resume_leases,
)
from repro.obs.metrics import process_registry

if TYPE_CHECKING:  # circular at runtime: run.py dispatches to this module
    from repro.core.parallel import RunSpec

log = logging.getLogger("repro.dispatch")

#: Bump when the message schema changes incompatibly; the handshake
#: refuses a version mismatch before any work is exchanged.  Version 2:
#: a shard carries its leases' keys beside its specs.
PROTOCOL_VERSION = 2

#: Upper bound on one frame/file; anything larger is a protocol error
#: (a lease payload is a compact comparable outcome, not a session graph).
MAX_FRAME_BYTES = 256 * 1024 * 1024


class TransportError(RuntimeError):
    """The conversation with one worker broke (dead host, bad frame)."""


class HandshakeRejected(TransportError):
    """The worker refused the session (code/protocol mismatch)."""


# ---------------------------------------------------------------------------
# Payload packing: pickled objects ride JSON messages as base64 fields.
# ---------------------------------------------------------------------------


def _pack(obj) -> str:
    return base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def _unpack(data: str):
    return pickle.loads(base64.b64decode(data.encode("ascii")))


def _pack_raw(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


def _unpack_raw(data: str) -> bytes:
    return base64.b64decode(data.encode("ascii"))


# ---------------------------------------------------------------------------
# Channels: one message-passing contract, two transports.
# ---------------------------------------------------------------------------


class SocketChannel:
    """Length-prefixed JSON frames over one TCP connection.

    Frame = 4-byte big-endian payload length + UTF-8 JSON object.
    ``recv`` returns ``None`` on timeout and raises
    :class:`TransportError` on EOF or a malformed frame — the
    coordinator treats both as a dead worker.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._lock = threading.Lock()

    def send(self, msg: dict) -> None:
        data = json.dumps(msg, sort_keys=True).encode("utf-8")
        frame = struct.pack(">I", len(data)) + data
        with self._lock:
            try:
                self._sock.sendall(frame)
            except OSError as exc:
                raise TransportError(f"send failed: {exc}") from exc

    def _recv_exact(self, count: int, deadline: Optional[float]) -> bytes:
        chunks = []
        remaining = count
        while remaining:
            if deadline is not None:
                self._sock.settimeout(max(0.001, deadline - time.monotonic()))
            else:
                self._sock.settimeout(None)
            try:
                chunk = self._sock.recv(min(remaining, 1 << 20))
            except socket.timeout as exc:
                raise TimeoutError("recv timed out") from exc
            except OSError as exc:
                raise TransportError(f"recv failed: {exc}") from exc
            if not chunk:
                raise TransportError("connection closed by peer")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv(self, timeout: Optional[float] = None) -> Optional[dict]:
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        try:
            header = self._recv_exact(4, deadline)
        except TimeoutError:
            return None
        (length,) = struct.unpack(">I", header)
        if length > MAX_FRAME_BYTES:
            raise TransportError(f"oversized frame ({length} bytes)")
        # Mid-frame timeouts are protocol errors, not quiet idleness:
        # half a frame can never be resynchronized.
        try:
            data = self._recv_exact(length, deadline)
        except TimeoutError as exc:
            raise TransportError("peer stalled mid-frame") from exc
        try:
            return json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TransportError(f"malformed frame: {exc}") from exc

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class SpoolChannel:
    """The same messages as sequence-numbered files on a shared mount.

    A spool directory holds two one-way lanes, ``c2w`` (coordinator to
    worker) and ``w2c`` (back).  Each send atomically publishes
    ``<seq>.json`` (temp file + ``os.replace``); each recv consumes the
    lowest-numbered file in its inbox and deletes it.  One coordinator
    per spool at a time — session tokens in every message let a worker
    discard leftovers from a previous, dead coordinator.
    """

    POLL_S = 0.05

    def __init__(self, root: Union[str, Path], *, side: str):
        if side not in ("coordinator", "worker"):
            raise ValueError(f"side must be coordinator|worker, got {side!r}")
        self.root = Path(root)
        outbox, inbox = ("c2w", "w2c") if side == "coordinator" else ("w2c", "c2w")
        self._outbox = self.root / outbox
        self._inbox = self.root / inbox
        self._outbox.mkdir(parents=True, exist_ok=True)
        self._inbox.mkdir(parents=True, exist_ok=True)
        self._seq = 1 + max(
            (int(p.stem) for p in self._outbox.glob("*.json")
             if p.stem.isdigit()),
            default=0,
        )
        self._lock = threading.Lock()

    def purge(self) -> None:
        """Drop every pending message in both lanes (session start)."""
        for lane in (self._outbox, self._inbox):
            for path in lane.glob("*.json"):
                path.unlink(missing_ok=True)

    def send(self, msg: dict) -> None:
        data = json.dumps(msg, sort_keys=True).encode("utf-8")
        with self._lock:
            path = self._outbox / f"{self._seq:09d}.json"
            self._seq += 1
        tmp = path.with_suffix(".tmp")
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except OSError as exc:
            raise TransportError(f"spool send failed: {exc}") from exc

    def _next_file(self) -> Optional[Path]:
        try:
            pending = [
                p for p in self._inbox.glob("*.json") if p.stem.isdigit()
            ]
        except OSError as exc:
            raise TransportError(f"spool scan failed: {exc}") from exc
        if not pending:
            return None
        return min(pending, key=lambda p: int(p.stem))

    def recv(self, timeout: Optional[float] = None) -> Optional[dict]:
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while True:
            path = self._next_file()
            if path is not None:
                try:
                    data = path.read_bytes()
                    path.unlink(missing_ok=True)
                except OSError as exc:
                    raise TransportError(f"spool recv failed: {exc}") from exc
                if len(data) > MAX_FRAME_BYTES:
                    raise TransportError("oversized spool message")
                try:
                    return json.loads(data.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise TransportError(f"malformed message: {exc}") from exc
            if deadline is not None and time.monotonic() >= deadline:
                return None
            time.sleep(self.POLL_S)

    def close(self) -> None:
        pass  # nothing held open; files persist for the daemon


#: ``hosts=`` entries: ``"HOST:PORT"`` (socket) or ``"spool:PATH"``.
HostSpec = str


def parse_host(host: HostSpec) -> tuple[str, object]:
    """Split a host spec into ``("socket", (addr, port))`` or
    ``("spool", Path)``."""
    if host.startswith("spool:"):
        path = host[len("spool:"):]
        if not path:
            raise ValueError(f"empty spool path in host spec {host!r}")
        return ("spool", Path(path))
    addr, sep, port = host.rpartition(":")
    if not sep or not addr or not port.isdigit():
        raise ValueError(
            f"host spec {host!r} is neither HOST:PORT nor spool:PATH"
        )
    return ("socket", (addr, int(port)))


def _connect(host: HostSpec, *, timeout: float) -> object:
    kind, target = parse_host(host)
    if kind == "socket":
        addr, port = target
        try:
            sock = socket.create_connection((addr, port), timeout=timeout)
        except OSError as exc:
            raise TransportError(f"cannot connect to {host}: {exc}") from exc
        sock.settimeout(None)
        return SocketChannel(sock)
    channel = SpoolChannel(target, side="coordinator")
    channel.purge()
    return channel


# ---------------------------------------------------------------------------
# The worker daemon
# ---------------------------------------------------------------------------


class SweepWorker:
    """One host's shard executor: supervise locally, stream back.

    ``workers`` is the size of this host's pool (0 = run leases in
    process, serially — the supervisor's oracle path).  ``task`` is
    injectable exactly like the supervisor's, so chaos tests can wrap
    lease execution without touching the transport.
    """

    def __init__(
        self,
        workers: int = 0,
        *,
        label: Optional[str] = None,
        task: Callable = _lease_task,
        fingerprint: Optional[str] = None,
    ):
        self.workers = workers
        self.label = label or f"{socket.gethostname()}:{os.getpid()}"
        self.task = task
        self.fingerprint = fingerprint or code_fingerprint()
        self.address: Optional[tuple[str, int]] = None  # set by serve_socket
        self.shards_run = 0
        self.leases_run = 0
        #: The channel currently being served (chaos tests sever it to
        #: simulate a worker death without killing the process).
        self.active_channel = None
        self._stop = threading.Event()
        self._codec = OutcomeCache(
            Path(os.devnull), fingerprint=self.fingerprint
        )  # encode-only: never touches its root

    def stop(self) -> None:
        """Ask a serving loop to exit at its next poll."""
        self._stop.set()

    # -- session handling --------------------------------------------------

    def _welcome_or_reject(self, channel, msg: dict) -> Optional[str]:
        """Answer a hello; the session token on success, None on reject."""
        if (
            msg.get("version") != PROTOCOL_VERSION
            or not isinstance(msg.get("session"), str)
        ):
            channel.send({
                "t": "reject",
                "reason": (
                    f"protocol {msg.get('version')} != {PROTOCOL_VERSION}"
                ),
            })
            return None
        if msg.get("code") != self.fingerprint:
            # Different simulator source: outcomes would carry a foreign
            # fingerprint and silently fail every cache/journal check.
            channel.send({
                "t": "reject",
                "session": msg["session"],
                "reason": (
                    f"code fingerprint {msg.get('code')} != "
                    f"{self.fingerprint}"
                ),
            })
            return None
        channel.send({
            "t": "welcome",
            "session": msg["session"],
            "version": PROTOCOL_VERSION,
            "code": self.fingerprint,
            "label": self.label,
            "pid": os.getpid(),
            "workers": self.workers,
        })
        return msg["session"]

    def _run_shard(self, channel, session: str, msg: dict) -> None:
        """Execute one shard under local supervision, streaming leases.

        The shard's lease keys come from the coordinator, which already
        computed them; the worker never keys a spec itself.
        """
        specs = _unpack(msg["specs"])
        keys = msg.get("keys")
        policy = _unpack(msg["policy"]) if msg.get("policy") else None
        shard_id = msg["id"]

        def stream(result: LeaseResult) -> None:
            payload: dict = {
                "t": "lease",
                "session": session,
                "shard": shard_id,
                "index": result.index,
                "key": result.key,
                "status": result.status,
                "attempts": result.attempts,
                "duration": result.duration_s,
                "pid": os.getpid(),
            }
            if result.kind:
                payload["kind"] = result.kind
            if result.message:
                payload["message"] = result.message
            outcome = result.outcome
            spec = specs[result.index]
            if result.status == "done" and result.key is not None:
                try:
                    payload["entry"] = _pack_raw(
                        self._codec.encode_entry(
                            spec, outcome, key=result.key
                        )
                    )
                except Exception:
                    # Injected test payloads (bare tuples) and other
                    # non-outcome objects fall back to plain pickle.
                    payload["pickle"] = _pack(outcome)
            else:
                payload["pickle"] = _pack(outcome)
            channel.send(payload)
            self.leases_run += 1

        supervisor = SweepSupervisor(
            self.workers,
            policy=policy,
            journal=None,  # the coordinator owns the journal
            task=self.task,
            on_terminal=stream,
        )
        order = None
        if self.workers > 0 and len(specs) > 1:
            from repro.core.run import _plan_chunks

            chunks = _plan_chunks(specs, self.workers)
            order = [i for chunk in chunks for i in chunk]
        try:
            if not isinstance(keys, list) or len(keys) != len(specs):
                raise ValueError(
                    f"shard keys do not match its {len(specs)} spec(s)"
                )
            supervisor.run(specs, order=order, keys=keys)
        except Exception as exc:  # noqa: BLE001 - forwarded to coordinator
            log.error("worker %s: shard %s failed: %s",
                      self.label, shard_id, exc)
            channel.send({
                "t": "shard_failed",
                "session": session,
                "id": shard_id,
                "error": f"{type(exc).__name__}: {exc}",
            })
            return
        self.shards_run += 1
        channel.send({
            "t": "shard_done",
            "session": session,
            "id": shard_id,
            "stats": vars(supervisor.stats),
        })

    def handle_channel(self, channel) -> bool:
        """Serve one coordinator conversation; False = shutdown asked."""
        session: Optional[str] = None
        self.active_channel = channel
        while not self._stop.is_set():
            try:
                msg = channel.recv(timeout=1.0)
            except TransportError:
                return True  # coordinator went away; serve the next one
            if msg is None:
                continue
            kind = msg.get("t")
            if kind == "hello":
                session = self._welcome_or_reject(channel, msg)
                if session is None:
                    return True
                continue
            if session is None or msg.get("session") != session:
                continue  # stale message from a previous coordinator
            if kind == "shard":
                self._run_shard(channel, session, msg)
            elif kind == "ping":
                channel.send({"t": "pong", "session": session})
            elif kind == "bye":
                return True
            elif kind == "shutdown":
                return False
        return True

    # -- serving loops -----------------------------------------------------

    def serve_socket(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        ready: Optional[threading.Event] = None,
    ) -> None:
        """Accept coordinator connections until shutdown or stop().

        ``port=0`` binds an ephemeral port; the bound address is
        published on ``self.address`` (and the CLI prints it) before
        ``ready`` is set.
        """
        server = socket.create_server((host, port), reuse_port=False)
        server.settimeout(0.2)
        self.address = server.getsockname()[:2]
        if ready is not None:
            ready.set()
        try:
            while not self._stop.is_set():
                try:
                    conn, _ = server.accept()
                except socket.timeout:
                    continue
                conn.settimeout(None)
                channel = SocketChannel(conn)
                try:
                    keep_serving = self.handle_channel(channel)
                except TransportError:
                    # A send failed mid-shard (connection severed): this
                    # conversation is over, the daemon is not.
                    keep_serving = True
                finally:
                    channel.close()
                if not keep_serving:
                    return
        finally:
            server.close()

    def serve_spool(self, root: Union[str, Path]) -> None:
        """Watch a spool directory until shutdown or stop()."""
        channel = SpoolChannel(root, side="worker")
        while not self._stop.is_set():
            try:
                if not self.handle_channel(channel):
                    return
            except TransportError:
                continue


# ---------------------------------------------------------------------------
# The coordinator
# ---------------------------------------------------------------------------


@dataclass
class DispatchStats:
    """What distribution did during one sweep (mirrored to ``dispatch.*``)."""

    shards: int = 0
    leases_sent: int = 0
    leases_completed: int = 0
    worker_deaths: int = 0
    redispatched_leases: int = 0
    hosts_unreachable: int = 0
    local_fallback_leases: int = 0


@dataclass
class _Shard:
    id: int
    leases: list[_Lease] = field(default_factory=list)


class _Remote:
    """One connected worker host, as the coordinator sees it."""

    def __init__(self, host: HostSpec, channel, welcome: dict):
        self.host = host
        self.channel = channel
        self.label = welcome.get("label", host)
        self.pid = welcome.get("pid")
        self.workers = welcome.get("workers", 0)


class SweepCoordinator:
    """Shard a sweep's leases over worker hosts and merge the streams.

    The multi-host mirror of :class:`~repro.core.supervisor.SweepSupervisor`
    one level up: hosts play the role of pool workers, shards the role
    of chunks, and the journal is the merge point.  ``policy`` travels
    to every worker (supervision is per-host); ``journal`` stays here
    (one writer, group-commit batched).  ``local_workers`` sets the
    pool size of the degraded local path taken when no host is
    reachable or survivors die mid-sweep.
    """

    def __init__(
        self,
        hosts: Sequence[HostSpec],
        *,
        policy: Optional[SweepPolicy] = None,
        journal: Optional[SweepJournal] = None,
        local_workers: int = 0,
        connect_timeout_s: float = 5.0,
        io_timeout_s: float = 600.0,
        journal_flush_every: int = 64,
        task: Callable = _lease_task,
    ):
        if not hosts:
            raise ValueError("hosts must name at least one worker")
        self.hosts = list(hosts)
        self.policy = policy
        self.journal = journal
        self.local_workers = local_workers
        self.connect_timeout_s = connect_timeout_s
        self.io_timeout_s = io_timeout_s
        self.journal_flush_every = journal_flush_every
        self.task = task
        self.stats = DispatchStats()
        self.remotes: list[_Remote] = []
        self._session = base64.b16encode(os.urandom(8)).decode("ascii")
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._queue: deque[_Shard] = deque()
        self._inflight = 0  # shards currently owned by a worker thread
        self._next_shard_id = 0
        self._failure: Optional[str] = None
        self._codec = OutcomeCache(Path(os.devnull))  # decode when no journal

    # -- bookkeeping -------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        setattr(self.stats, name, getattr(self.stats, name) + amount)
        process_registry().counter(f"dispatch.{name}").inc(amount)

    # -- connection phase --------------------------------------------------

    def _handshake(self, host: HostSpec) -> _Remote:
        channel = _connect(host, timeout=self.connect_timeout_s)
        try:
            channel.send({
                "t": "hello",
                "version": PROTOCOL_VERSION,
                "session": self._session,
                "code": code_fingerprint(),
            })
            reply = channel.recv(timeout=self.connect_timeout_s)
        except TransportError:
            channel.close()
            raise
        if reply is None:
            channel.close()
            raise TransportError(f"{host}: no handshake reply")
        if reply.get("t") == "reject":
            channel.close()
            raise HandshakeRejected(
                f"{host}: {reply.get('reason', 'rejected')}"
            )
        if (
            reply.get("t") != "welcome"
            or reply.get("session") != self._session
        ):
            channel.close()
            raise TransportError(f"{host}: bad handshake reply {reply}")
        return _Remote(host, channel, reply)

    def _connect_all(self) -> None:
        for host in self.hosts:
            try:
                remote = self._handshake(host)
            except (TransportError, ValueError, OSError) as exc:
                self._count("hosts_unreachable")
                log.warning("dispatch: %s unreachable: %s", host, exc)
                continue
            self.remotes.append(remote)
            log.info(
                "dispatch: connected %s (label=%s, %d pool worker(s))",
                host, remote.label, remote.workers,
            )

    # -- shard planning ----------------------------------------------------

    def _plan_shards(self, leases: Sequence[_Lease]) -> None:
        from repro.core.run import _plan_chunks

        specs = [lease.spec for lease in leases]
        chunks = _plan_chunks(specs, max(1, len(self.remotes)))
        with self._lock:
            for chunk in chunks:
                self._enqueue_shard([leases[i] for i in chunk])

    def _enqueue_shard(self, leases: list[_Lease]) -> None:
        """Queue a shard (caller holds the lock for re-dispatch paths)."""
        if not leases:
            return
        shard = _Shard(id=self._next_shard_id, leases=leases)
        self._next_shard_id += 1
        self._queue.append(shard)
        self._count("shards")
        self._work.notify_all()

    # -- per-lease merge ---------------------------------------------------

    def _merge_lease(
        self, remote: _Remote, msg: dict, shard: _Shard, outcomes: list
    ) -> Optional[int]:
        """Fold one streamed lease into outcomes + journal; its local
        shard index on success, None for an unusable payload."""
        from repro.core.pool import record_worker_utilization

        position = msg.get("index")
        if not isinstance(position, int) or not 0 <= position < len(shard.leases):
            return None
        lease = shard.leases[position]
        status = msg.get("status")
        duration = float(msg.get("duration", 0.0))
        raw: Optional[bytes] = None
        store = (
            self.journal.payload_store(lease.spec)
            if self.journal is not None else self._codec
        )
        try:
            if "entry" in msg:
                raw = _unpack_raw(msg["entry"])
                outcome = store.decode_bytes(raw, lease.spec, key=lease.key)
            else:
                outcome = _unpack(msg["pickle"])
        except Exception as exc:  # noqa: BLE001 - treat as a lost lease
            log.warning(
                "dispatch: undecodable lease payload from %s (%s); "
                "the lease will re-run", remote.label, exc,
            )
            return None
        with self._lock:
            outcomes[lease.index] = outcome
            self._count("leases_completed")
            record_worker_utilization(
                msg.get("pid", -1), duration, host=remote.label
            )
            if self.journal is not None and lease.key is not None:
                if status == "done":
                    if raw is not None:
                        store.put_bytes(lease.key, raw)
                    self.journal.record(
                        lease.key, "done",
                        attempt=int(msg.get("attempts", 1)),
                        duration_s=duration,
                        host=remote.label,
                        pid=msg.get("pid"),
                    )
                else:
                    self.journal.record(
                        lease.key, "quarantined",
                        attempt=int(msg.get("attempts", 1)),
                        duration_s=duration,
                        kind=msg.get("kind"),
                        message=msg.get("message"),
                        host=remote.label,
                        pid=msg.get("pid"),
                    )
        return position

    # -- the per-worker pump -----------------------------------------------

    def _serve_remote(self, remote: _Remote, outcomes: list):
        while True:
            with self._work:
                # An empty queue is not the end while a peer still owns
                # a shard: its death would requeue leftovers for us.
                while (
                    not self._queue
                    and self._inflight
                    and self._failure is None
                ):
                    self._work.wait(0.2)
                if self._failure is not None or not self._queue:
                    break
                shard = self._queue.popleft()
                self._inflight += 1
            alive = self._pump_shard(remote, shard, outcomes)
            with self._work:
                self._inflight -= 1
                self._work.notify_all()
            if not alive:
                return  # channel already closed by _pump_shard
        try:
            remote.channel.send({"t": "bye", "session": self._session})
        except TransportError:
            pass
        remote.channel.close()

    def _pump_shard(
        self, remote: _Remote, shard: _Shard, outcomes: list
    ) -> bool:
        """Run one shard on one remote; False = the remote is gone."""
        pending = set(range(len(shard.leases)))
        try:
            remote.channel.send({
                "t": "shard",
                "session": self._session,
                "id": shard.id,
                "specs": _pack([lease.spec for lease in shard.leases]),
                "keys": [lease.key for lease in shard.leases],
                "policy": _pack(self.policy) if self.policy else None,
            })
            self._count("leases_sent", len(shard.leases))
            while pending:
                msg = remote.channel.recv(timeout=self.io_timeout_s)
                if msg is None:
                    raise TransportError(
                        f"{remote.label}: silent past "
                        f"{self.io_timeout_s:.0f} s"
                    )
                if msg.get("session") != self._session:
                    continue
                kind = msg.get("t")
                if kind == "lease" and msg.get("shard") == shard.id:
                    position = self._merge_lease(
                        remote, msg, shard, outcomes
                    )
                    if position is not None:
                        pending.discard(position)
                elif kind == "shard_done" and msg.get("id") == shard.id:
                    break
                elif kind == "shard_failed" and msg.get("id") == shard.id:
                    with self._work:
                        self._failure = (
                            f"{remote.label}: {msg.get('error')}"
                        )
                        self._work.notify_all()
                    remote.channel.close()
                    return False
        except TransportError as exc:
            # The worker died (or the transport did — same remedy):
            # put its unfinished leases back for the survivors.
            self._count("worker_deaths")
            leftovers = [shard.leases[i] for i in sorted(pending)]
            with self._work:
                self._enqueue_shard(leftovers)
            self._count("redispatched_leases", len(leftovers))
            log.warning(
                "dispatch: lost %s mid-shard (%s); re-dispatching "
                "%d unfinished lease(s)",
                remote.label, exc, len(leftovers),
            )
            remote.channel.close()
            return False
        if pending:
            # shard_done with leases unaccounted for: a worker bug, but
            # the idempotent remedy is the same re-dispatch.
            leftovers = [shard.leases[i] for i in sorted(pending)]
            with self._work:
                self._enqueue_shard(leftovers)
            self._count("redispatched_leases", len(leftovers))
        return True

    # -- entry point -------------------------------------------------------

    def run(
        self,
        specs: Sequence["RunSpec"],
        *,
        keys: Optional[Sequence[Optional[str]]] = None,
    ) -> list:
        """Execute every spec across the hosts; outcomes in spec order.

        ``keys`` are the specs' lease keys when the caller has computed
        them already.
        """
        outcomes: list = [None] * len(specs)
        pending = resume_leases(specs, keys, self.journal, outcomes)
        if not pending:
            return outcomes

        self._connect_all()
        if self.remotes and self.journal is not None:
            with self.journal.batched(self.journal_flush_every):
                self._dispatch(pending, outcomes)
        elif self.remotes:
            self._dispatch(pending, outcomes)
        if self._failure is not None:
            raise RuntimeError(f"distributed sweep failed: {self._failure}")

        remaining = [
            lease for lease in pending if outcomes[lease.index] is None
        ]
        if remaining:
            # Zero reachable workers, or the survivors died too: the
            # local supervisor path finishes what the fleet could not.
            self._count("local_fallback_leases", len(remaining))
            if self.remotes or self.stats.hosts_unreachable:
                log.warning(
                    "dispatch: finishing %d lease(s) locally "
                    "(workers=%d)", len(remaining), self.local_workers,
                )
            supervisor = SweepSupervisor(
                self.local_workers,
                policy=self.policy,
                journal=self.journal,
                task=self.task,
            )
            local = supervisor.run(
                [lease.spec for lease in remaining],
                keys=[lease.key for lease in remaining],
            )
            for lease, outcome in zip(remaining, local):
                outcomes[lease.index] = outcome
        return outcomes

    def _dispatch(
        self, pending: list[_Lease], outcomes: list
    ) -> None:
        self._plan_shards(pending)
        threads = [
            threading.Thread(
                target=self._serve_remote,
                args=(remote, outcomes),
                name=f"dispatch-{remote.label}",
                daemon=True,
            )
            for remote in self.remotes
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

