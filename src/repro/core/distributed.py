"""The sweep fabric's wire: channels, the handshake and the worker.

The sweep loop (:class:`~repro.core.supervisor.SweepCoordinator`, also
importable from here) talks to every worker the same way, whether it is
a forked local worker (:mod:`repro.core.pool`) or a ``repro worker``
daemon on another host:

* the sender says hello with the protocol version, a session token and
  the code fingerprint; a worker running different simulator code
  refuses the session rather than contribute outcomes the fingerprint
  says are incomparable;
* a ``shard`` message carries catalogue-pure leases (pickled specs and
  the lease keys the sender computed) and the policy's timeout;
* :class:`SweepWorker` runs each lease once and streams back ``lease``
  messages, ``done`` with the outcome's cache-entry bytes (a plain
  pickle for a lease without a key) or ``failed`` with a typed kind,
  then ``shard_done``.  Retries, quarantine, timeouts and
  re-dispatch are the loop's business, not the worker's.

Transports:

* ``HOST:PORT`` — a length-prefixed JSON socket protocol (payloads ride
  as base64 pickle fields).  The worker listens with
  ``repro worker --listen HOST:PORT``; a local worker speaks the same
  frames over one end of a ``socket.socketpair()``.
* ``spool:PATH`` — a shared-filesystem spool for cluster setups without
  open ports: both sides exchange the same JSON messages as atomically
  renamed, sequence-numbered files under ``PATH/c2w`` and ``PATH/w2c``.
  The worker watches with ``repro worker --spool PATH``.

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
from pathlib import Path
from typing import Callable, Optional, Union

from repro.core.outcome_cache import OutcomeCache, code_fingerprint
from repro.core.supervisor import (
    LeaseResult,
    SweepCoordinator,
    SweepPolicy,
    _lease_task,
)

log = logging.getLogger("repro.dispatch")

#: Bump when the message schema changes incompatibly; the handshake
#: refuses a version mismatch before any work is exchanged.  Version 2:
#: a shard carries its leases' keys beside its specs.  Version 3: a
#: worker runs each lease once and reports ``done`` or ``failed``; the
#: shard carries the timeout instead of the whole policy, and a lease
#: without a key may travel as a plain pickle.
PROTOCOL_VERSION = 3

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
    """Length-prefixed JSON frames over one stream socket: a TCP
    connection to a daemon, or a local worker's socket pair.

    Frame = 4-byte big-endian payload length + UTF-8 JSON object.
    ``recv`` returns ``None`` on timeout and raises
    :class:`TransportError` on EOF or a malformed frame — the
    coordinator treats both as a dead worker.
    """

    def __init__(self, sock: socket.socket):
        if sock.family != socket.AF_UNIX:
            # Each send is one whole frame, and the loop waits for a
            # shard's last frame: Nagle would hold it back until the
            # peer's delayed ACK of the one before (~40 ms on Linux).
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
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

    def fileno(self) -> int:
        return self._sock.fileno()

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


def handshake(channel, session: str, *, timeout: float, host: str) -> dict:
    """Say hello on a fresh channel; the worker's welcome.

    Raises :class:`HandshakeRejected` when the worker refuses (protocol
    or code fingerprint mismatch) and :class:`TransportError` on any
    other failure, closing the channel first.
    """
    try:
        channel.send({
            "t": "hello",
            "version": PROTOCOL_VERSION,
            "session": session,
            "code": code_fingerprint(),
        })
        reply = channel.recv(timeout=timeout)
    except TransportError:
        channel.close()
        raise
    if reply is None:
        channel.close()
        raise TransportError(f"{host}: no handshake reply")
    if reply.get("t") == "reject":
        channel.close()
        raise HandshakeRejected(f"{host}: {reply.get('reason', 'rejected')}")
    if reply.get("t") != "welcome" or reply.get("session") != session:
        channel.close()
        raise TransportError(f"{host}: bad handshake reply {reply}")
    return reply


# ---------------------------------------------------------------------------
# The worker
# ---------------------------------------------------------------------------


def _failed(kind: str, exc: BaseException) -> dict:
    """A failed lease's fields: its kind, its message and, when it
    pickles, the exception itself."""
    fields = {
        "status": "failed",
        "kind": kind,
        "message": f"{type(exc).__name__}: {exc}",
    }
    try:
        fields["error"] = _pack(exc)
    except Exception:  # noqa: BLE001 - the message still travels
        pass
    return fields


class SweepWorker:
    """One host's lease runner: run each lease once, stream the result.

    The sweep loop that sent a shard decides what a failure means; the
    worker only reports it.  ``workers`` > 0 runs each shard through
    that same loop over as many forked local workers, with a
    one-attempt policy that carries the sender's timeout (it quarantines
    instead of raising, so every failure is streamed back typed); 0 runs
    the leases here, in shard order.  ``task`` is injectable exactly
    like the loop's, so chaos tests can wrap lease execution without
    touching the transport.
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

    def _done(self, spec, key: Optional[str], outcome) -> dict:
        """A done lease's payload: its cache-entry bytes when it has a
        key, else a plain pickle."""
        if key is not None:
            try:
                return {"entry": _pack_raw(
                    self._codec.encode_entry(spec, outcome, key=key)
                )}
            except Exception:  # noqa: BLE001 - not an outcome (test payloads)
                pass
        return {"pickle": _pack(outcome)}

    def _run_here(self, specs, keys, send) -> None:
        for index, (spec, key) in enumerate(zip(specs, keys)):
            started = time.monotonic()
            try:
                outcome, pid, misses, hits = self.task(spec)
            except Exception as exc:  # noqa: BLE001 - the sender decides
                send(index, _failed("error", exc))
                continue
            send(index, {
                "status": "done",
                "duration": time.monotonic() - started,
                "pid": pid,
                "misses": misses,
                "hits": hits,
                **self._done(spec, key, outcome),
            })

    def _run_on_local_workers(self, specs, keys, timeout_s, send) -> None:
        def stream(result: LeaseResult) -> None:
            if result.status != "done":
                send(result.index, {
                    "status": "failed",
                    "kind": result.kind,
                    "message": result.message,
                })
                return
            spec = specs[result.index]
            payload = (
                {"entry": _pack_raw(result.entry)}
                if result.entry is not None
                else self._done(spec, result.key, result.outcome)
            )
            send(result.index, {
                "status": "done",
                "duration": result.duration_s,
                "pid": result.pid,
                **payload,
            })

        SweepCoordinator(
            policy=SweepPolicy(
                timeout_s=timeout_s, quarantine=True, lease_death_limit=1
            ),
            local_workers=self.workers,
            task=self.task,
            on_terminal=stream,
        ).run(specs, keys=keys)

    def _run_shard(self, channel, session: str, msg: dict) -> None:
        """Run one shard, streaming each lease's result as it lands.

        The shard's lease keys come from the sender, which already
        computed them; the worker never keys a spec itself.
        """
        specs = _unpack(msg["specs"])
        keys = msg.get("keys")
        shard_id = msg["id"]

        def send(index: int, fields: dict) -> None:
            channel.send({
                "t": "lease",
                "session": session,
                "shard": shard_id,
                "index": index,
                **fields,
            })
            self.leases_run += 1

        try:
            if not isinstance(keys, list) or len(keys) != len(specs):
                raise ValueError(
                    f"shard keys do not match its {len(specs)} spec(s)"
                )
            if self.workers > 0:
                self._run_on_local_workers(
                    specs, keys, msg.get("timeout_s"), send
                )
            else:
                self._run_here(specs, keys, send)
        except Exception as exc:  # noqa: BLE001 - forwarded to the sender
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
        channel.send({"t": "shard_done", "session": session, "id": shard_id})

    def handle_channel(self, channel) -> None:
        """Serve one sender's conversation until it hangs up."""
        session: Optional[str] = None
        self.active_channel = channel
        while not self._stop.is_set():
            try:
                msg = channel.recv(timeout=1.0)
            except TransportError:
                return  # the sender went away; serve the next one
            if msg is None:
                continue
            kind = msg.get("t")
            if kind == "hello":
                session = self._welcome_or_reject(channel, msg)
                if session is None:
                    return
                continue
            if session is None or msg.get("session") != session:
                continue  # stale message from a previous sender
            if kind == "shard":
                self._run_shard(channel, session, msg)
            elif kind == "bye":
                return

    # -- serving loops -----------------------------------------------------

    def serve_socket(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        ready: Optional[threading.Event] = None,
    ) -> None:
        """Accept coordinator connections until stop().

        ``port=0`` binds an ephemeral port; the bound address is
        published on ``self.address`` before ``ready`` is set.
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
                    self.handle_channel(channel)
                except TransportError:
                    # A send failed mid-shard (connection severed): this
                    # conversation is over, the daemon is not.
                    pass
                finally:
                    channel.close()
        finally:
            server.close()

    def serve_spool(self, root: Union[str, Path]) -> None:
        """Watch a spool directory until stop()."""
        channel = SpoolChannel(root, side="worker")
        while not self._stop.is_set():
            try:
                self.handle_channel(channel)
            except TransportError:
                continue


# ---------------------------------------------------------------------------
# The sweep loop's view of a worker
# ---------------------------------------------------------------------------


class Lane:
    """One worker as the sweep loop sees it: a daemon (``remote``) or a
    forked local worker, its identity from the welcome, and the shard it
    is running."""

    def __init__(self, channel, welcome: dict, session: str, *, remote: bool):
        self.channel = channel
        self.session = session
        self.remote = remote
        self.polled = isinstance(channel, SpoolChannel)  # no socket
        self.label = welcome.get("label")
        self.pid = welcome.get("pid")
        self.workers = welcome.get("workers", 0)
        self.shard = None  # the shard in flight, if any
        self.open: set[int] = set()  # its positions with no result yet
        self.next = 0  # the position a local worker is running
        self.started = 0.0  # when that lease started
        self.heard = 0.0  # when the lane last spoke

    def fileno(self) -> int:
        return self.channel.fileno()

    def start(self, shard, now: float) -> None:
        self.shard = shard
        self.open = set(range(len(shard.leases)))
        self.next = 0
        self.started = self.heard = now

    def current(self):
        """The lease a local worker is running (it runs a shard in
        order), or None."""
        if self.shard is None or self.next not in self.open:
            return None
        return self.shard.leases[self.next]

    def unfinished(self) -> list:
        """Take the shard off the lane; the leases it did not report."""
        shard, self.shard = self.shard, None
        if shard is None:
            return []
        return [shard.leases[i] for i in sorted(self.open)]

    def send_shard(self, shard_id: int, specs, keys, timeout_s) -> None:
        self.channel.send({
            "t": "shard",
            "session": self.session,
            "id": shard_id,
            "specs": _pack(specs),
            "keys": keys,
            "timeout_s": timeout_s,
        })

    def recv(self, timeout: float) -> Optional[dict]:
        """This session's next message, or None; a spool lane polls once."""
        msg = self.channel.recv(timeout=0.0 if self.polled else timeout)
        if msg is None or msg.get("session") != self.session:
            return None
        return msg

    def close(self, *, bye: bool = False) -> None:
        if bye:
            try:
                self.channel.send({"t": "bye", "session": self.session})
            except TransportError:
                pass
        self.channel.close()


def lease_payload(msg: dict, spec, key: Optional[str], store: OutcomeCache):
    """A done lease's ``(outcome, entry bytes or None)``.

    Entry bytes are checked by ``store`` (schema, code fingerprint,
    address) and raise when they do not match, so a bad payload is a
    lost lease, never a wrong result.
    """
    if "entry" in msg:
        raw = _unpack_raw(msg["entry"])
        return store.decode_bytes(raw, spec, key=key), raw
    return _unpack(msg["pickle"]), None


def lease_error(msg: dict) -> BaseException:
    """The exception a failed lease reported, rebuilt where it pickled."""
    if "error" in msg:
        try:
            exc = _unpack(msg["error"])
        except Exception:  # noqa: BLE001 - fall back to the message
            exc = None
        if isinstance(exc, BaseException):
            return exc
    return RuntimeError(msg.get("message") or "lease failed")
