"""Serving telemetry: per-request latency, queue depth, stream runs, GOP/s.

All times are virtual (simulated) seconds. The arithmetic is deliberately
elementary — sorted-order percentiles, event-walk queue depths — so the
test suite can pin every figure against hand-computed values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:
    from .events import EventOutcome


@dataclass(frozen=True)
class Rejection:
    """One request turned away by admission control, with the reason."""

    request_id: int
    slo: str
    arrival_s: float
    reason: str


class ServeStats:
    """Aggregate statistics over the :class:`EventOutcome` records of one run."""

    def __init__(
        self,
        responses: Sequence["EventOutcome"],
        dense_ops_per_image: int,
        busy_seconds: Mapping[int, float],
        rejections: Sequence[Rejection] = (),
    ) -> None:
        if not responses:
            raise ValueError("stats need at least one response")
        if dense_ops_per_image < 0:
            raise ValueError("dense ops cannot be negative")
        self.responses: Tuple["EventOutcome", ...] = tuple(
            sorted(responses, key=lambda r: r.request_id)
        )
        self.dense_ops_per_image = dense_ops_per_image
        self.rejections: Tuple[Rejection, ...] = tuple(rejections)
        #: instance id -> virtual seconds of scheduled service, as the
        #: engine kept it (lanes overlap, so no record holds it).
        self.busy_seconds = busy_seconds

    # ---- request counts ------------------------------------------------

    @property
    def count(self) -> int:
        return len(self.responses)

    def _run_histogram(self) -> Dict[int, int]:
        """size -> number of stream runs of that size.

        A record's ``batch_id`` and ``batch_size`` name its stream run: an
        instance's stretch of back-to-back lane admissions, which can hold
        any number of requests.
        """
        sizes = {r.batch_id: r.batch_size for r in self.responses}
        histogram: Dict[int, int] = {}
        for size in sizes.values():
            histogram[size] = histogram.get(size, 0) + 1
        return dict(sorted(histogram.items()))

    # ---- admission -----------------------------------------------------

    @property
    def rejected_count(self) -> int:
        return len(self.rejections)

    @property
    def offered_count(self) -> int:
        """Served plus rejected — the load the clients actually offered."""
        return self.count + self.rejected_count

    @property
    def rejection_rate(self) -> float:
        return self.rejected_count / self.offered_count

    def rejections_by_reason(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for rejection in self.rejections:
            counts[rejection.reason] = counts.get(rejection.reason, 0) + 1
        return dict(sorted(counts.items()))

    def rejections_by_class(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for rejection in self.rejections:
            counts[rejection.slo] = counts.get(rejection.slo, 0) + 1
        return dict(sorted(counts.items()))

    # ---- SLO classes ---------------------------------------------------

    def slo_classes(self) -> List[str]:
        """Distinct SLO class names present, sorted."""
        return sorted({r.slo for r in self.responses})

    # ---- latency -------------------------------------------------------

    def latencies_s(self, slo: Optional[str] = None) -> List[float]:
        """Per-request latencies; ``slo`` filters to one class."""
        if slo is None:
            return [r.latency_s for r in self.responses]
        latencies = [r.latency_s for r in self.responses if r.slo == slo]
        if not latencies:
            raise ValueError(f"no responses in SLO class {slo!r}")
        return latencies

    @property
    def mean_latency_s(self) -> float:
        return float(np.mean(self.latencies_s()))

    @property
    def max_latency_s(self) -> float:
        return float(max(self.latencies_s()))

    def latency_percentile_s(
        self, percentile: float, slo: Optional[str] = None
    ) -> float:
        """Nearest-rank latency percentile (0 < percentile <= 100)."""
        if not 0 < percentile <= 100:
            raise ValueError("percentile must be in (0, 100]")
        ordered = sorted(self.latencies_s(slo))
        rank = int(np.ceil(percentile / 100 * len(ordered))) - 1
        return ordered[max(rank, 0)]

    @property
    def p50_latency_s(self) -> float:
        return self.latency_percentile_s(50)

    @property
    def p95_latency_s(self) -> float:
        return self.latency_percentile_s(95)

    @property
    def p99_latency_s(self) -> float:
        return self.latency_percentile_s(99)

    @property
    def p999_latency_s(self) -> float:
        return self.latency_percentile_s(99.9)

    @property
    def mean_queue_wait_s(self) -> float:
        return float(np.mean([r.queue_wait_s for r in self.responses]))

    # ---- queue depth ---------------------------------------------------

    def queue_depth_timeline(self) -> List[Tuple[float, int]]:
        """(time, depth) steps of the number of queued-but-unstarted requests.

        Depth rises at each arrival and falls when the request is admitted
        into a lane; simultaneous events collapse into one step.
        """
        events: Dict[float, int] = {}
        for response in self.responses:
            events[response.arrival_s] = events.get(response.arrival_s, 0) + 1
            events[response.start_s] = events.get(response.start_s, 0) - 1
        depth = 0
        timeline: List[Tuple[float, int]] = []
        for time in sorted(events):
            depth += events[time]
            timeline.append((time, depth))
        return timeline

    @property
    def max_queue_depth(self) -> int:
        return max(depth for _, depth in self.queue_depth_timeline())

    # ---- throughput ----------------------------------------------------

    @property
    def makespan_s(self) -> float:
        """First arrival to last completion, in virtual seconds."""
        start = min(r.arrival_s for r in self.responses)
        finish = max(r.finish_s for r in self.responses)
        return finish - start

    @property
    def requests_per_second(self) -> float:
        return self.count / self.makespan_s

    @property
    def aggregate_gops(self) -> float:
        """Dense-op throughput of the whole pool over the run (paper basis)."""
        return self.count * self.dense_ops_per_image / self.makespan_s / 1e9

    def worker_busy_s(self) -> Dict[int, float]:
        """worker id -> virtual seconds busy, for each worker that served."""
        served = {r.worker_id for r in self.responses}
        return {w: self.busy_seconds[w] for w in sorted(served)}

    def worker_utilization(self) -> Dict[int, float]:
        """worker id -> busy fraction of the makespan."""
        span = self.makespan_s
        if span <= 0:
            return {w: 0.0 for w in self.worker_busy_s()}
        return {w: busy / span for w, busy in self.worker_busy_s().items()}

    # ---- reporting -----------------------------------------------------

    def render(self) -> str:
        """Human-readable summary block for the CLI."""
        runs = self._run_histogram()
        histogram = ", ".join(f"{size}x{count}" for size, count in runs.items())
        utilization = "  ".join(
            f"w{worker}: {fraction:.0%}"
            for worker, fraction in self.worker_utilization().items()
        )
        lines = [
            f"requests:        {self.count} in {sum(runs.values())} stream runs "
            f"(sizes {histogram})",
            f"makespan:        {self.makespan_s * 1e3:.3f} ms virtual",
            f"latency:         mean {self.mean_latency_s * 1e3:.3f} ms   "
            f"p50 {self.p50_latency_s * 1e3:.3f} ms   "
            f"p95 {self.p95_latency_s * 1e3:.3f} ms   "
            f"max {self.max_latency_s * 1e3:.3f} ms",
            f"queue:           mean wait {self.mean_queue_wait_s * 1e3:.3f} ms   "
            f"max depth {self.max_queue_depth}",
            f"throughput:      {self.requests_per_second:.1f} img/s   "
            f"{self.aggregate_gops:.1f} GOP/s aggregate",
            f"worker busy:     {utilization}",
        ]
        if self.rejections:
            reasons = ", ".join(
                f"{reason}: {count}"
                for reason, count in self.rejections_by_reason().items()
            )
            by_class = ", ".join(
                f"{slo}: {count}"
                for slo, count in self.rejections_by_class().items()
            )
            lines.append(
                f"rejected:        {self.rejected_count} of "
                f"{self.offered_count} offered "
                f"({self.rejection_rate:.1%}; {reasons}; by class {by_class})"
            )
        return "\n".join(lines)
