"""Batched multi-accelerator serving (simulated, virtual-clock).

One engine, :class:`EventDrivenSimulator`: a priority-queue event loop
over :class:`ServiceProfile` timing records (:mod:`repro.serve.fleet`)
that pushes millions of simulated requests through in seconds, with
continuous batching, SLO classes, admission control and autoscaling.
It is pinned float-for-float to a test-local reference that takes the
literal full-scan argmin for every admission
(``tests/test_serve_events.py``).

Load comes from :mod:`repro.serve.loadgen` traces (Poisson, uniform,
diurnal, burst). See ``docs/serving.md``.
"""

from .events import BatchPolicy, EventDrivenSimulator, SLOClass
from .fleet import ServiceProfile
from .loadgen import poisson_trace

__all__ = [
    "BatchPolicy",
    "EventDrivenSimulator",
    "SLOClass",
    "ServiceProfile",
    "poisson_trace",
]
