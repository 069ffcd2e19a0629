"""Batched multi-accelerator serving (simulated, virtual-clock).

One engine, :class:`EventDrivenSimulator`: a priority-queue event loop
over :class:`ServiceProfile` timing records (:mod:`repro.serve.fleet`)
that pushes millions of simulated requests through in seconds, with
continuous batching, SLO classes, admission control and autoscaling.
In windows mode it is pinned float-for-float to the offline oracle
:func:`form_batches` + :func:`dispatch_batches`.

Load comes from :mod:`repro.serve.loadgen` traces (Poisson, uniform,
diurnal, burst). See ``docs/serving.md``.
"""

from .batcher import BatchPolicy
from .events import EventDrivenSimulator, SLOClass
from .fleet import ServiceProfile
from .loadgen import poisson_trace

__all__ = [
    "BatchPolicy",
    "EventDrivenSimulator",
    "SLOClass",
    "ServiceProfile",
    "poisson_trace",
]
