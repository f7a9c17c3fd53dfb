"""The assembled observability plane handed to a Session.

One :class:`Observability` bundles the two parts of the plane — trace
spine and metrics registry — so instrumented layers take a single
object instead of two keyword arguments.  The default instance is
fully disabled (null tracer, throwaway registry) and costs one
attribute read per guarded emission site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, TraceConfig, Tracer


@dataclass
class Observability:
    """What a single run records about itself."""

    tracer: Tracer = NULL_TRACER
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @classmethod
    def create(
        cls,
        tracing: Optional[Union[bool, TraceConfig]] = None,
        *,
        service: str = "",
        profile_id: int = 0,
        repetition: int = 0,
    ) -> "Observability":
        """Resolve a picklable tracing description into a live plane.

        ``tracing`` may be ``None``/``False`` (disabled), ``True``
        (unbounded ring buffer), or a :class:`TraceConfig`.
        """
        if tracing is True:
            tracer: Tracer = TraceConfig().create()
        elif isinstance(tracing, TraceConfig):
            tracer = tracing.create(
                service=service, profile_id=profile_id, repetition=repetition
            )
        else:
            tracer = NULL_TRACER
        return cls(tracer=tracer)
