"""Batched multi-accelerator serving (simulated, virtual-clock).

Two engines share one timing model:

- :class:`ServingSimulator` — the reference implementation: offline
  batch formation (:func:`form_batches`) over real deployed pipelines,
  with full numerics on every request.
- :class:`EventDrivenSimulator` — the fleet-scale engine: a
  priority-queue event loop over :class:`ServiceProfile` timing records
  (:mod:`repro.serve.fleet`) that pushes millions of simulated requests
  through in seconds, with continuous batching, SLO classes, admission
  control and autoscaling. Differentially pinned against the reference.

Load comes from :mod:`repro.serve.loadgen` traces (Poisson, diurnal,
burst). See ``docs/serving.md``.
"""

from .batcher import (
    Batch,
    BatchPolicy,
    ServeRequest,
    form_batches,
    make_requests,
    poisson_arrivals,
    uniform_arrivals,
)
from .cache import CacheStats, DeploymentCache, LRUCache, deployment_key
from .events import (
    DEFAULT_SLO,
    EventBatch,
    EventDrivenSimulator,
    EventOutcome,
    EventReport,
    EventRequest,
    SLOClass,
)
from .fleet import (
    AutoscalePolicy,
    Fleet,
    Instance,
    PipelinedProfile,
    ScaleEvent,
    ServiceProfile,
)
from .mixed import (
    FleetGroup,
    MixedFleetReport,
    simulate_mixed_fleet,
    trace_requests,
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
from .simulator import (
    BatchTrace,
    ServeReport,
    ServingSimulator,
    build_worker_pool,
)
from .stats import Rejection, ServeResponse, ServeStats

__all__ = [
    "AutoscalePolicy",
    "Batch",
    "BatchPolicy",
    "BatchTrace",
    "CacheStats",
    "DEFAULT_SLO",
    "DeploymentCache",
    "EventBatch",
    "EventDrivenSimulator",
    "EventOutcome",
    "EventReport",
    "EventRequest",
    "Fleet",
    "FleetGroup",
    "Instance",
    "LRUCache",
    "LoadTrace",
    "MixedFleetReport",
    "PipelinedProfile",
    "Rejection",
    "SLOClass",
    "ScaleEvent",
    "ServeReport",
    "ServeRequest",
    "ServeResponse",
    "ServeStats",
    "ServiceProfile",
    "ServingSimulator",
    "TRACE_KINDS",
    "build_worker_pool",
    "burst_trace",
    "deployment_key",
    "diurnal_trace",
    "form_batches",
    "make_requests",
    "make_trace",
    "poisson_arrivals",
    "poisson_trace",
    "simulate_mixed_fleet",
    "trace_requests",
    "uniform_arrivals",
    "uniform_trace",
]

