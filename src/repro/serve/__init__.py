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

from .batcher import (
    Batch,
    BatchPolicy,
    Dispatch,
    ServeRequest,
    dispatch_batches,
    form_batches,
)
from .events import (
    DEFAULT_SLO,
    EventBatch,
    EventDrivenSimulator,
    EventOutcome,
    EventReport,
    SLOClass,
)
from .fleet import (
    AutoscalePolicy,
    Fleet,
    Instance,
    ScaleEvent,
    ServiceProfile,
)
from .loadgen import (
    LoadTrace,
    TRACE_KINDS,
    burst_trace,
    diurnal_trace,
    make_trace,
    poisson_trace,
    uniform_trace,
)
from .stats import Rejection, ServeStats

__all__ = [
    "AutoscalePolicy",
    "Batch",
    "BatchPolicy",
    "DEFAULT_SLO",
    "Dispatch",
    "EventBatch",
    "EventDrivenSimulator",
    "EventOutcome",
    "EventReport",
    "Fleet",
    "Instance",
    "LoadTrace",
    "Rejection",
    "SLOClass",
    "ScaleEvent",
    "ServeRequest",
    "ServeStats",
    "ServiceProfile",
    "TRACE_KINDS",
    "burst_trace",
    "diurnal_trace",
    "dispatch_batches",
    "form_batches",
    "make_trace",
    "poisson_trace",
    "uniform_trace",
]
