"""Fault injection at the proxy (robustness testing).

The paper rejects requests deterministically for the startup probe;
this module generalises the idea into a composable, deterministic
fault plane.  Origin-side models live here (error bursts, seeded
errors, response truncation); transport-side models (dead air, latency
spikes, connection resets) live in :mod:`repro.net.faults`.  A
:class:`FaultSpec` bundles both sides into one frozen, picklable value
that rides inside a ``RunSpec``, so a faulted run is exactly
reproducible in-process, across worker processes, and on both
engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.clock import Clock
from repro.net.faults import (
    DeadAirWindow,
    LatencySpikeWindow,
    TransportFaultPlane,
)
from repro.net.http import ContentKind, HttpRequest, HttpStatus, ResponsePlan
from repro.util import DeterministicRng, check_non_negative, check_probability


class FlakyOriginHandler:
    """Wrap a request handler, failing a seeded fraction of media requests.

    Manifests, playlists and sidx fetches always succeed (a player that
    cannot even bootstrap tells us nothing); only media responses are
    turned into errors.
    """

    def __init__(self, origin, *, error_rate: float = 0.1, seed: int = 13,
                 status: HttpStatus = HttpStatus.NOT_FOUND):
        check_probability("error_rate", error_rate)
        self.origin = origin
        self.error_rate = error_rate
        self.status = status
        self.injected_errors = 0
        self._rng = DeterministicRng(seed)

    def handle(self, request: HttpRequest) -> ResponsePlan:
        plan = self.origin.handle(request)
        is_media = plan.is_success and plan.content is ContentKind.MEDIA
        if is_media and self._rng.random() < self.error_rate:
            self.injected_errors += 1
            return ResponsePlan.error(self.status)
        return plan


# ---------------------------------------------------------------------------
# Origin-side fault models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorBurst:
    """Requests for ``kinds`` in ``[start_s, end_s)`` get ``status``.

    An empty ``kinds`` tuple means every request kind; a burst limited
    to ``(ContentKind.MANIFEST,)`` models a manifest-refresh
    unavailability window.
    """

    start_s: float
    end_s: float
    status: HttpStatus = HttpStatus.SERVICE_UNAVAILABLE
    kinds: tuple[ContentKind, ...] = (ContentKind.MEDIA,)

    def __post_init__(self) -> None:
        check_non_negative("start_s", self.start_s)
        if self.end_s <= self.start_s:
            raise ValueError(f"empty error burst [{self.start_s}, {self.end_s})")

    def applies_to(self, kind: ContentKind) -> bool:
        return not self.kinds or kind in self.kinds


@dataclass(frozen=True)
class SeededErrors:
    """A seeded fraction of requests for ``kinds`` get ``status``."""

    rate: float
    seed: int = 13
    status: HttpStatus = HttpStatus.INTERNAL_SERVER_ERROR
    kinds: tuple[ContentKind, ...] = (ContentKind.MEDIA,)

    def __post_init__(self) -> None:
        check_probability("rate", self.rate)

    def applies_to(self, kind: ContentKind) -> bool:
        return not self.kinds or kind in self.kinds


@dataclass(frozen=True)
class SeededTruncation:
    """A seeded fraction of media responses stop short, then close.

    The truncated plan keeps its 2xx status (the server sent good
    headers, then died) but carries only a fraction of the body; the
    client must detect the short read and treat it as a failure.
    """

    rate: float
    seed: int = 29
    min_fraction: float = 0.1
    max_fraction: float = 0.9

    def __post_init__(self) -> None:
        check_probability("rate", self.rate)
        check_probability("min_fraction", self.min_fraction)
        check_probability("max_fraction", self.max_fraction)
        if self.max_fraction < self.min_fraction:
            raise ValueError("max_fraction < min_fraction")


# ---------------------------------------------------------------------------
# Combined fault specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    """Everything that can go wrong in one run, as one frozen value."""

    error_bursts: tuple[ErrorBurst, ...] = ()
    seeded_errors: tuple[SeededErrors, ...] = ()
    truncation: Optional[SeededTruncation] = None
    dead_air: tuple[DeadAirWindow, ...] = ()
    latency_spikes: tuple[LatencySpikeWindow, ...] = ()
    reset_times: tuple[float, ...] = ()

    @property
    def has_origin_faults(self) -> bool:
        return bool(self.error_bursts or self.seeded_errors or self.truncation)

    @property
    def has_transport_faults(self) -> bool:
        return bool(self.dead_air or self.latency_spikes or self.reset_times)

    def transport_plane(self) -> Optional[TransportFaultPlane]:
        """Fresh mutable transport plane for one network (or None)."""
        if not self.has_transport_faults:
            return None
        return TransportFaultPlane(
            dead_air=self.dead_air,
            latency_spikes=self.latency_spikes,
            reset_times=self.reset_times,
        )


class FaultInjectingHandler:
    """Apply a :class:`FaultSpec`'s origin-side faults around a handler.

    Sits between the measurement proxy and the origin (the proxy must
    keep seeing what actually went over the wire).  Fault decisions are
    clock-driven (bursts) or drawn from per-model seeded streams, so
    the injected sequence depends only on the request sequence — which
    is identical between tick and event runs because requests are only
    issued on serially-executed ticks.
    """

    def __init__(self, origin, clock: Clock, spec: FaultSpec):
        self.origin = origin
        self.clock = clock
        self.spec = spec
        self.injected_errors = 0
        self.truncated_responses = 0
        self._error_rngs = [
            DeterministicRng(seeded.seed) for seeded in spec.seeded_errors
        ]
        self._truncation_rng = (
            DeterministicRng(spec.truncation.seed)
            if spec.truncation is not None
            else None
        )

    def handle(self, request: HttpRequest) -> ResponsePlan:
        plan = self.origin.handle(request)
        if not plan.is_success:
            return plan
        now = self.clock.now
        for burst in self.spec.error_bursts:
            if burst.start_s <= now < burst.end_s and burst.applies_to(plan.content):
                self.injected_errors += 1
                return ResponsePlan.error(burst.status)
        for rng, seeded in zip(self._error_rngs, self.spec.seeded_errors):
            if seeded.applies_to(plan.content) and rng.random() < seeded.rate:
                self.injected_errors += 1
                return ResponsePlan.error(seeded.status)
        truncation = self.spec.truncation
        if (
            truncation is not None
            and plan.content is ContentKind.MEDIA
            and self._truncation_rng.random() < truncation.rate
        ):
            span = truncation.max_fraction - truncation.min_fraction
            fraction = truncation.min_fraction + span * self._truncation_rng.random()
            self.truncated_responses += 1
            return ResponsePlan(
                status=plan.status,
                size_bytes=max(1, int(plan.size_bytes * fraction)),
                content=plan.content,
                truncated=True,
            )
        return plan
