"""Outside-in layer tracing: wrap public callables, restore them after.

Each :class:`Layer` names callables of one ``repro`` module.  While a
:class:`LayerTracer` is installed, every one of them runs through a
wrapper that pushes a frame on the tracer's stack, times the call and,
when it returns, charges the elapsed time to the (layer, parent layer)
pair.  A layer's self time is its own time minus the time of the
wrapped calls made inside it, so the self times of one operation add
up to its wall time.  A call into the layer already on top of the stack
(``EventQueue.pop_due`` calling ``pop``) is not a new frame.  Each
thread has its own stack: the distributed coordinator serves every
host from a thread of its own, whose calls overlap the operation's.

Functions are patched under every module-level name they are looked up
through (``repro.core.session.compute_qoe`` as well as
``repro.analysis.qoe.compute_qoe``), methods on the class that defines
them.  Nothing inside ``repro`` changes; :meth:`LayerTracer.active`
restores every original object in a ``finally``.

Calls are aggregated in memory.  Each operation also gets one span, and
the layers marked with a ``phase`` add one top-level span each (build,
run, finish) carrying the operation's id.  Nothing is written until the
caller asks for :meth:`LayerTracer.to_json` at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional


def _advance_many_ticks(args, result) -> int:
    return result[0]


def _flow_count(args, result) -> int:
    return len(args[1])


def _noop_ticks(args, result) -> int:
    return args[1]


def _entry_bytes(args, result) -> int:
    return len(result)


def _hit(args, result) -> int:
    return result is not None


def _sent_bytes(args, result) -> int:
    return len(json.dumps(args[1], sort_keys=True))


def _received_bytes(args, result) -> int:
    return len(json.dumps(result, sort_keys=True)) if result else 0


@dataclass(frozen=True)
class Layer:
    """One timed layer: its metric prefix and the callables it owns.

    ``targets`` are ``"module:Class.method"`` or ``"module:function"``.
    ``units`` counts work per call from ``(args, result)`` and is
    reported as ``<name>.<unit_name>``.  ``phase`` marks the layers
    whose top-level calls are an operation's build/run/finish span.
    """

    name: str
    targets: tuple[str, ...]
    unit_name: Optional[str] = None
    units: Optional[Callable] = None
    phase: Optional[str] = None


LAYERS: tuple[Layer, ...] = (
    # core.parallel / core.run: spec materialisation and outcome records
    Layer("spec.build", ("repro.core.parallel:RunSpec.build",), phase="build"),
    Layer("net.traces", ("repro.net.traces:generate_trace",)),
    Layer("record", ("repro.core.parallel:record_from_result",),
          phase="finish"),
    # media: the per-process asset-encode cache
    Layer("media.encode", ("repro.media.cache:AssetCache.get_or_encode",)),
    # core.events: the event loop and its queue
    Layer("engine", ("repro.core.events:EventDrivenSession.run",),
          phase="run"),
    Layer("events.queue", tuple(
        f"repro.core.events:EventQueue.{method}"
        for method in ("push", "pop", "pop_due", "cancel", "peek")
    )),
    # core.multi: the shared-link event loop
    Layer("multi", ("repro.core.multi:EventDrivenMultiSession.run",),
          phase="run"),
    # net: link, TCP control, radio
    Layer("net.advance", ("repro.net.network:Network.advance",)),
    Layer("net.advance_many", ("repro.net.network:Network.advance_many",),
          "ticks", _advance_many_ticks),
    Layer("net.water_fill", ("repro.net.link:allocate",),
          "flows", _flow_count),
    Layer("net.horizon",
          ("repro.net.tcp:TcpConnection.slow_start_horizon_ticks",)),
    Layer("rrc.observe", ("repro.net.rrc:RrcMachine.observe",)),
    # player: per-tick advance, batched no-op replay, margin contracts
    Layer("player.advance", ("repro.player.player:Player.advance",)),
    Layer("player.noop", ("repro.player.player:Player.apply_noop_ticks",),
          "ticks", _noop_ticks),
    Layer("player.margins", tuple(
        f"repro.player.player:Player.{method}"
        for method in (
            "transfer_noop_ticks", "idle_noop_ticks", "stalled_noop_ticks"
        )
    )),
    # server / analysis.proxy / analysis.faults: the HTTP handler chain
    Layer("http.origin", ("repro.server.origin:OriginServer.handle",)),
    Layer("http.proxy", ("repro.analysis.proxy:Proxy.handle",)),
    Layer("http.faults",
          ("repro.analysis.faults:FaultInjectingHandler.handle",)),
    # analysis: the methodology run at session end
    Layer("analysis.traffic",
          ("repro.analysis.traffic:TrafficAnalyzer.observe_flows",)),
    Layer("analysis.qoe", ("repro.analysis.qoe:compute_qoe",)),
    # core.fleet
    Layer("fleet.build", ("repro.core.fleet:FleetSession.__init__",),
          phase="build"),
    Layer("fleet.summary", ("repro.core.fleet:summarize_population",),
          phase="finish"),
    # core.outcome_cache
    Layer("cache.get", ("repro.core.outcome_cache:OutcomeCache.get",),
          "hits", _hit),
    Layer("cache.put", ("repro.core.outcome_cache:OutcomeCache.put",)),
    Layer("cache.pickle",
          ("repro.core.outcome_cache:OutcomeCache.encode_entry",),
          "bytes", _entry_bytes),
    Layer("cache.key", (
        "repro.core.outcome_cache:spec_key",
        "repro.core.outcome_cache:lease_key",
    )),
    # core.supervisor: the resumable journal
    Layer("journal.record", ("repro.core.supervisor:SweepJournal.record",)),
    Layer("journal.flush", ("repro.core.supervisor:SweepJournal.flush",)),
    # core.distributed: the coordinator's socket protocol
    Layer("dist.send", ("repro.core.distributed:SocketChannel.send",),
          "bytes", _sent_bytes),
    Layer("dist.recv", ("repro.core.distributed:SocketChannel.recv",),
          "bytes", _received_bytes),
)

#: The frame every operation's top-level calls are charged under.
OP = "op"
#: The root frame of a helper thread that calls in during an operation
#: (the distributed coordinator serves each host from its own thread).
THREAD = "thread"


class LayerTracer:
    """Wraps the callables of ``layers`` while :meth:`active`."""

    def __init__(self, layers: tuple[Layer, ...] = LAYERS):
        self.layers = layers
        #: (layer, parent) -> [calls, total_s, self_s, units]
        self.stats: dict[tuple[str, str], list] = {}
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op_id: Optional[int] = None
        self._origin = perf_counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _targets(self, target: str) -> list[tuple[object, str, object]]:
        """Every (owner, attribute, original) a target is reached by."""
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            return [(owner, attr, owner.__dict__[attr])]
        original = getattr(module, attr)
        return [
            (loaded, attr, original)
            for name, loaded in list(sys.modules.items())
            if name.split(".", 1)[0] in ("repro", "bench")
            and getattr(loaded, "__dict__", {}).get(attr) is original
        ]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for layer in self.layers:
                for target in layer.targets:
                    for owner, attr, original in self._targets(target):
                        wrapped = self.wrap(layer, original)
                        self._patches.append((owner, attr, original))
                        setattr(owner, attr, wrapped)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        """This thread's frame stack.  A helper thread that first calls
        in while an operation runs starts from its own root frame, so
        its layers are timed apart from the operation's thread."""
        local = self._local
        try:
            return local.stack
        except AttributeError:
            if self._op_id is None:
                return []  # not kept: a later operation may reach it
            local.stack = [[THREAD, 0.0]]
            return local.stack

    @contextmanager
    def op(self, op_id: int, label: str):
        """Charge everything this thread calls inside to ``op_id``."""
        frame = [OP, 0.0]
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        stack = self._local.stack
        stack.append(frame)
        self._op_id = op_id
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            self._op_id = None
            row = self.stats.setdefault((OP, ""), [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += elapsed
            row[2] += elapsed - frame[1]
            self.spans.append({
                "op": op_id, "name": label, "layer": OP,
                "start": start - self._origin,
                "end": start + elapsed - self._origin,
            })

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        thread_stack = self._stack
        stats = self.stats
        lock = self._lock
        spans = self.spans
        name = layer.name
        units = layer.units
        phase = layer.phase
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stack = thread_stack()
            if not stack or stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                with lock:
                    row = stats.get((name, parent[0]))
                    if row is None:
                        row = stats[(name, parent[0])] = [0, 0.0, 0.0, 0]
                    row[0] += 1
                    row[1] += elapsed
                    row[2] += elapsed - frame[1]
                if phase is not None and parent[0] == OP:
                    spans.append({
                        "op": tracer._op_id, "name": phase, "layer": name,
                        "start": start - tracer._origin,
                        "end": start + elapsed - tracer._origin,
                    })
            if units is not None:
                count = units(args, result)
                with lock:
                    row[3] += count
            return result

        return wrapped

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """Per layer, summed over parents: [calls, total_s, self_s, units]."""
        totals: dict[str, list] = {}
        for (name, _), row in self.stats.items():
            total = totals.setdefault(name, [0, 0.0, 0.0, 0])
            for index, value in enumerate(row):
                total[index] += value
        return totals

    def wrapped_calls(self) -> int:
        return sum(row[0] for (name, _), row in self.stats.items()
                   if name != OP)

    def to_json(self) -> dict:
        return {
            "layers": [
                {"layer": name, "parent": parent, "calls": row[0],
                 "total_s": row[1], "self_s": row[2], "units": row[3]}
                for (name, parent), row in sorted(self.stats.items())
            ],
            "spans": self.spans,
        }


def calibrate_wrapper_ns(calls: int = 100_000, repeats: int = 5) -> float:
    """Median extra cost of one wrapped call, in nanoseconds.

    Times a no-op function called directly and through a tracer
    wrapper inside an operation frame, the same path every traced call
    takes.
    """
    tracer = LayerTracer(())

    def noop():
        return None

    wrapped = tracer.wrap(Layer("calibration", ()), noop)
    samples = []
    with tracer.op(-1, "calibration"):
        for _ in range(repeats):
            start = perf_counter()
            for _ in range(calls):
                noop()
            direct = perf_counter() - start
            start = perf_counter()
            for _ in range(calls):
                wrapped()
            samples.append((perf_counter() - start - direct) / calls * 1e9)
    samples.sort()
    return samples[len(samples) // 2]
