"""Cycle-accurate tandem-pipeline simulation over finite FIFOs.

The sharded deployment is a deterministic tandem line: stages (shards
and links) with fixed service times, finite FIFO queues between them,
and blocking-after-service back-pressure — a stage holds its finished
token until the downstream queue has space, stalling itself. For such a
line the classic result holds exactly:

- image ``k`` leaves the pipeline at ``fill + k * bottleneck``, where
  ``fill`` is the sum of all service times and ``bottleneck`` the
  maximum — *independent of queue depth* (any depth >= 1);
- steady-state throughput is therefore ``1 / bottleneck``.

:func:`simulate_pipeline` computes the exact event times by recurrence
and *replays* every push/pop against real :class:`repro.hw.fifo.Fifo`
instances, so occupancy bounds, stall counts and overflow checks come
from the same FIFO model the CU datapath uses (paper Figure 2-b). Tests
pin the simulated departure times against the analytic formulas float
for float; the partition search (:mod:`repro.dse.partition`) leans on
the closed forms, with this simulator as its differential oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..hw.fifo import Fifo
from .plan import ShardPlan

__all__ = [
    "PipelineSimReport",
    "analytic_bottleneck_s",
    "simulate_pipeline",
    "simulate_shard_plan",
]


def analytic_bottleneck_s(service_times: Sequence[float]) -> float:
    """Steady-state output interval of the deterministic tandem line."""
    if not service_times:
        raise ValueError("need at least one stage")
    return max(service_times)


@dataclass(frozen=True)
class PipelineSimReport:
    """Outcome of one finite-FIFO pipeline simulation."""

    service_times: Tuple[float, ...]
    queue_depth: int
    #: Sink arrival time of every image, in order.
    finish_s: np.ndarray
    #: First image's latency (measured; equals the analytic fill).
    fill_latency_s: float
    #: Measured steady-state output interval (last two departures).
    steady_interval_s: float
    #: The replayed inter-stage FIFOs with their counters; ``fifos[i]``
    #: feeds stage ``i`` (``fifos[0]`` is the source queue).
    fifos: Tuple[Fifo, ...]

    @property
    def throughput_ips(self) -> float:
        return 1.0 / self.steady_interval_s

    @property
    def total_push_stalls(self) -> int:
        """Back-pressure events: pushes that had to wait for space."""
        return sum(f.push_stalls for f in self.fifos)

    @property
    def max_occupancy(self) -> Tuple[int, ...]:
        return tuple(f.max_occupancy for f in self.fifos)


def simulate_pipeline(
    service_times: Sequence[float],
    images: int,
    queue_depth: int = 2,
) -> PipelineSimReport:
    """Push ``images`` tokens through the tandem line, FIFOs replayed.

    The source holds an infinite backlog ready at t=0 and pushes into
    stage 0's FIFO whenever it has space; every stage pops its input
    FIFO, serves for its fixed time, then pushes downstream — blocking
    (and counting a stall on the FIFO it is pushing into) while the
    downstream queue is full. The last stage drains into an infinite
    sink.
    """
    times = [float(t) for t in service_times]
    if not times:
        raise ValueError("need at least one stage")
    if any(t <= 0 for t in times):
        raise ValueError(f"service times must be positive, got {times}")
    if images < 1:
        raise ValueError("need at least one image")
    if queue_depth < 1:
        raise ValueError("queue depth must be >= 1")

    n_stages = len(times)
    # Event-time recurrence (blocking-after-service):
    #   push[i][k]  token k lands in stage i's input FIFO
    #   pop[i][k]   stage i pops token k and starts service
    # A stage's server frees when its previous token *departed* (was
    # pushed downstream), and a push waits for the downstream pop that
    # frees a slot (token k-depth entering service).
    push = [[0.0] * images for _ in range(n_stages)]
    pop = [[0.0] * images for _ in range(n_stages)]
    finish = [[0.0] * images for _ in range(n_stages)]
    #: The time each push *could* have happened had the queue had space
    #: (upstream finish, or 0 for the source) — a later actual push time
    #: means the pusher stalled on a full FIFO.
    ready = [[0.0] * images for _ in range(n_stages)]

    for k in range(images):
        ready[0][k] = 0.0
        push[0][k] = (
            max(0.0, pop[0][k - queue_depth]) if k >= queue_depth else 0.0
        )
        for i in range(n_stages):
            server_free = 0.0
            if k > 0:
                # Blocking-after-service: interior stages free when the
                # previous token left for the next FIFO; the last stage
                # drains into the sink as soon as it finishes.
                server_free = (
                    push[i + 1][k - 1] if i < n_stages - 1 else finish[i][k - 1]
                )
            pop[i][k] = max(push[i][k], server_free)
            finish[i][k] = pop[i][k] + times[i]
            if i < n_stages - 1:
                ready[i + 1][k] = finish[i][k]
                blocked_until = (
                    pop[i + 1][k - queue_depth] if k >= queue_depth else 0.0
                )
                push[i + 1][k] = max(finish[i][k], blocked_until)

    # Replay the exact event sequence against real FIFO models. Ties are
    # broken per FIFO in token order — push(k) at 2k, pop(k) at 2k+1 —
    # so an equal-time pop of token k follows its own push, while the
    # pop of token k-depth (index 2k-2*depth+1 < 2k) still lands before
    # the blocked push it unblocks. Stall probes never share a timestamp
    # with a same-FIFO push or pop, so they sort last harmlessly.
    fifos = tuple(Fifo(depth=queue_depth) for _ in range(n_stages))
    events: List[Tuple[float, int, int, int, int]] = []
    for i in range(n_stages):
        for k in range(images):
            events.append((push[i][k], i, 2 * k, 1, k))
            events.append((pop[i][k], i, 2 * k + 1, 0, k))
            if push[i][k] > ready[i][k]:
                # The push attempt at ready time found the FIFO full.
                events.append((ready[i][k], i, 2 * images + k, 2, k))
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    for _, i, _, kind, k in events:
        if kind == 0:
            tag, _ = fifos[i].pop()
            assert tag == k, f"FIFO {i} out of order: popped {tag}, expected {k}"
        elif kind == 1:
            fifos[i].push(k, i)  # raises FifoOverflow if the model is wrong
        else:
            stalled = not fifos[i].try_push(k, i)
            assert stalled, f"FIFO {i} had space at a computed stall time"

    finish_s = np.array(finish[-1], dtype=np.float64)
    steady = (
        float(finish_s[-1] - finish_s[-2])
        if images > 1
        else analytic_bottleneck_s(times)
    )
    return PipelineSimReport(
        service_times=tuple(times),
        queue_depth=queue_depth,
        finish_s=finish_s,
        fill_latency_s=float(finish_s[0]),
        steady_interval_s=steady,
        fifos=fifos,
    )


def simulate_shard_plan(
    plan: ShardPlan, images: int, queue_depth: int = 2
) -> PipelineSimReport:
    """Simulate a planned shard pipeline (shards and links as stages)."""
    return simulate_pipeline(plan.service_times, images, queue_depth=queue_depth)
