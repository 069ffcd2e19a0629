"""Dynamic batcher and earliest-free dispatch: the serving timing oracle.

The batcher implements the standard serving trade-off between latency and
occupancy: requests accumulate in an open batch until either the batch
reaches ``max_batch`` images (close immediately — the accelerator's
``S_ec`` feature-buffer lanes are full) or the *oldest* queued request has
waited ``max_wait_s`` (close on deadline so tail latency stays bounded).
Batch formation is a pure function of the arrival sequence and the policy,
which is what makes the invariants directly testable:

- no batch ever exceeds ``max_batch`` requests,
- no request waits in the queue past ``max_wait_s`` before dispatch,
- every request appears in exactly one batch, in arrival order.

:func:`dispatch_batches` then runs the sealed batches on the earliest-free
of N instances under a :class:`repro.serve.fleet.ServiceProfile`. The two
functions together are the offline oracle the event-driven engine
(:mod:`repro.serve.events`) is pinned to in windows mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Tuple

if TYPE_CHECKING:
    from .fleet import ServiceProfile


@dataclass(frozen=True)
class BatchPolicy:
    """Dynamic-batching knobs: size cap and queueing-delay cap."""

    max_batch: int = 8
    max_wait_s: float = 0.005

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s cannot be negative")


@dataclass(frozen=True)
class ServeRequest:
    """One inference request: its id and (virtual) arrival time."""

    request_id: int
    arrival_s: float

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ValueError("arrival time cannot be negative")


@dataclass(frozen=True)
class Batch:
    """A closed batch: the requests plus the virtual time it was sealed."""

    requests: Tuple[ServeRequest, ...]
    close_s: float

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("a batch cannot be empty")

    @property
    def size(self) -> int:
        return len(self.requests)


def form_batches(
    requests: Sequence[ServeRequest], policy: BatchPolicy
) -> List[Batch]:
    """Group requests into dispatch batches under a batching policy.

    A batch closes the instant its ``max_batch``-th request arrives, or at
    ``first_arrival + max_wait_s`` when the next request would arrive too
    late (including the trailing partial batch once arrivals stop).
    """
    ordered = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
    batches: List[Batch] = []
    open_batch: List[ServeRequest] = []
    for request in ordered:
        if open_batch:
            deadline = open_batch[0].arrival_s + policy.max_wait_s
            if request.arrival_s > deadline:
                batches.append(Batch(tuple(open_batch), close_s=deadline))
                open_batch = []
        open_batch.append(request)
        if len(open_batch) >= policy.max_batch:
            batches.append(Batch(tuple(open_batch), close_s=request.arrival_s))
            open_batch = []
    if open_batch:
        batches.append(
            Batch(
                tuple(open_batch),
                close_s=open_batch[0].arrival_s + policy.max_wait_s,
            )
        )
    return batches


@dataclass(frozen=True)
class Dispatch:
    """Where and when one sealed batch ran."""

    batch: Batch
    worker_id: int
    start_s: float
    finish_s: float


def dispatch_batches(
    batches: Sequence[Batch], profile: "ServiceProfile", instances: int
) -> List[Dispatch]:
    """Run sealed batches, in close order, on the earliest-free instance.

    Ties go to the lowest instance id; a batch starts when it has closed
    and its instance is free, and holds the instance for
    ``profile.batch_seconds(size)``. The list index is the batch id.
    """
    if instances < 1:
        raise ValueError("need at least one instance")
    available = [0.0] * instances
    dispatched: List[Dispatch] = []
    for batch in sorted(batches, key=lambda b: b.close_s):
        worker_id = min(range(instances), key=lambda i: (available[i], i))
        start_s = max(batch.close_s, available[worker_id])
        finish_s = start_s + profile.batch_seconds(batch.size)
        available[worker_id] = finish_s
        dispatched.append(Dispatch(batch, worker_id, start_s, finish_s))
    return dispatched
