"""Semi-synchronous task scheduler and layer-level event simulation.

The task scheduling unit (paper Figure 2-a) watches the CU status flags and
launches a new task on any idle CU. A *task* is one kernel group on one
prefetch window (Figure 3); each CU has its own loop counter, so tasks of
different lengths — the irregular-sparsity imbalance that breaks lockstep
MAC arrays — simply finish when they finish. CUs only synchronize when the
feature-map buffers swap to a new prefetch window, hence "semi-synchronous".

The simulation is event-driven at task granularity: per window, tasks are
assigned greedily to the earliest-free CU; window t+1's prefetch overlaps
window t's compute through the double-buffered FT-Buffer; a barrier closes
every window. Per-CU busy cycles, lane-level work and memory stalls are
tracked so the experiments can report CU utilization the way the paper does
(87% for VGG16, 81% for AlexNet against [2]'s 64.5%).

Two implementations produce *identical* results:

- :func:`simulate_layer_reference` — the per-task event loop: one
  :class:`~repro.hw.cu.ConvTask` object and one scalar
  :func:`~repro.hw.cu.task_cycles` call per (window, kernel-group) pair.
- :func:`simulate_layer` — the vectorized fast path. A task costs its
  group's largest engine figure times the window's vector steps, plus a
  constant, so the group maxima in LPT dispatch order are a
  :class:`DispatchTable` that each workload builds once per ``(N_knl, N,
  policy)``; the table keeps each ``(steps, n_cu)``-scaled cost tuple
  once built (:meth:`DispatchTable.costs`). The cached
  :class:`~repro.hw.tiling.WindowPlan` of each ``(spec, d_f, S_ec)``
  holds the windows as runs of equal size, so a call rebuilds neither
  the window list nor a cost list. The CUs are a heap of ints
  ``free * n_cu + cu``: its top is the earliest-free CU, ties to the
  lowest index, which is exactly the reference heap's (free_at, cu)
  order, and adding ``cost * n_cu`` keeps the CU, so a task that need
  not wait for its window's release is one ``heapreplace``. The DDR
  transfer is the same for every window, so it is costed once per layer.
  A traced call runs the reference, which records the same events.

Both paths group kernels through :func:`kernel_order`. The balanced order
(descending nonzeros, stable) does not depend on ``N_knl``, so each
:class:`~repro.hw.workload.LayerWorkload` computes it once, on first use,
and every configuration the DSE or the simulator visits reuses it.

The reference is the single oracle of the fast path: differential tests in
``tests/test_hw_fastsim.py`` pin cycle-exact equality of every
:class:`LayerSimResult` field and of the recorded trace events.
"""

from __future__ import annotations

import heapq
from heapq import heapreplace
from dataclasses import dataclass, field
from operator import sub
from typing import Dict, List, Optional, Tuple

import numpy as np

from .config import AcceleratorConfig
from .cu import PIPELINE_FILL_CYCLES, TASK_LAUNCH_CYCLES, ConvTask, task_cycles
from .memory import ExternalMemory
from .tiling import WindowPlan, plan_windows
from .trace import TraceRecorder
from .workload import LayerWorkload

#: Cycles charged for the barrier at every feature-buffer swap.
SYNC_CYCLES = 32

#: Kernel-grouping policies.
POLICY_NATURAL = "natural"
POLICY_BALANCED = "balanced"
_POLICIES = (POLICY_NATURAL, POLICY_BALANCED)


@dataclass(frozen=True)
class LayerSimResult:
    """Simulation outcome of one layer."""

    layer: str
    #: Total cycles including memory stalls and barriers.
    cycles: int
    #: Cycles spent purely on CU compute (sum of window makespans).
    compute_cycles: int
    #: Cycles the CUs sat waiting for prefetches.
    memory_stall_cycles: int
    #: Per-CU busy cycles.
    cu_busy_cycles: Tuple[int, ...]
    accumulate_ops: int
    multiply_ops: int
    tasks: int
    windows: int
    #: Images the simulated pass covered (S_ec for batched FC layers).
    images: int
    #: Feature+weight bytes moved from/to DDR during the pass.
    memory_bytes: int
    #: Engine-level busy/capacity within tasks (workload-imbalance view).
    engine_busy_cycles: int
    engine_capacity_cycles: int

    @property
    def cycles_per_image(self) -> float:
        return self.cycles / self.images

    @property
    def cu_utilization(self) -> float:
        """Mean fraction of compute time the CUs were busy."""
        if self.compute_cycles == 0:
            return 0.0
        return float(np.mean(self.cu_busy_cycles)) / self.compute_cycles

    @property
    def engine_utilization(self) -> float:
        """Within-task engine busy fraction (intra-CU imbalance)."""
        if self.engine_capacity_cycles == 0:
            return 0.0
        return self.engine_busy_cycles / self.engine_capacity_cycles


def kernel_order(
    workload: LayerWorkload, policy: str = POLICY_NATURAL
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(kernel indices, nonzeros, distinct) in the policy's grouping order.

    ``natural`` follows encoding order (what streaming the WT-Buffer gives
    for free); ``balanced`` sorts kernels by nonzero count first so each
    group's engines carry similar loads — an ablation knob for the paper's
    imbalance discussion. The balanced order is computed once per workload
    (:attr:`LayerWorkload.balanced_order`) and shared by every ``N_knl``.
    """
    if policy not in _POLICIES:
        raise ValueError(f"unknown grouping policy {policy!r}")
    if policy == POLICY_BALANCED:
        return workload.balanced_order
    return np.arange(workload.nonzeros.size), workload.nonzeros, workload.distinct


def make_kernel_groups(
    workload: LayerWorkload, config: AcceleratorConfig, policy: str = POLICY_NATURAL
) -> List[np.ndarray]:
    """Partition the layer's kernels into CU-sized groups of
    :func:`kernel_order`."""
    order = kernel_order(workload, policy)[0]
    return [
        order[start : start + config.n_knl]
        for start in range(0, order.size, config.n_knl)
    ]


def build_tasks(
    workload: LayerWorkload,
    plan: WindowPlan,
    config: AcceleratorConfig,
    policy: str = POLICY_NATURAL,
) -> List[ConvTask]:
    """All (window, kernel-group) tasks of a layer, in window-major order."""
    groups = make_kernel_groups(workload, config, policy)
    spec = workload.spec
    tasks = []
    for window_index in range(plan.windows):
        row_tile, col_tile = divmod(window_index, plan.g_c)
        rows = min(plan.window_rows, spec.out_rows - row_tile * plan.window_rows)
        cols = min(plan.window_cols, spec.out_cols - col_tile * plan.window_cols)
        pixels = rows * cols
        for group_index, group in enumerate(groups):
            tasks.append(
                ConvTask(
                    layer=spec.name,
                    window_index=window_index,
                    group_index=group_index,
                    nonzeros=tuple(int(n) for n in workload.nonzeros[group]),
                    distinct=tuple(int(d) for d in workload.distinct[group]),
                    window_pixels=pixels,
                )
            )
    return tasks


def simulate_layer_reference(
    workload: LayerWorkload,
    config: AcceleratorConfig,
    memory: ExternalMemory,
    policy: str = POLICY_BALANCED,
    trace: Optional[TraceRecorder] = None,
) -> LayerSimResult:
    """Event-driven simulation of one layer on the accelerator.

    The FT-Buffer is double-buffered (ping-pong): while the CUs work on
    window *w*, window *w+1* prefetches into the other half. Tasks of two
    consecutive windows can therefore be in flight together; the only
    synchronization point — the paper's "infrequent" one — is that window
    *w+2* cannot start prefetching until every task of window *w* has
    released its buffer half.

    This is the reference implementation the vectorized
    :func:`simulate_layer` is differentially tested against.
    """
    plan = plan_windows(workload.spec, config)
    tasks = build_tasks(workload, plan, config, policy)
    costs = [task_cycles(task, config) for task in tasks]
    groups = len(make_kernel_groups(workload, config, policy))

    # Per-window transfer: input window for every image lane of the batch,
    # the (batch-amortized) encoded weight stream, and the output store.
    weight_bytes_per_window = workload.encoded_bytes / plan.windows / config.s_ec
    window_bytes = int(
        plan.window_input_bytes * plan.batch_images
        + weight_bytes_per_window
        + plan.window_output_bytes * plan.batch_images
    )

    cu_free = [(0, cu) for cu in range(config.n_cu)]
    heapq.heapify(cu_free)
    cu_busy = [0] * config.n_cu
    stall_cycles = 0
    channel_free = 0  # when the DDR channel finishes its previous burst
    memory_bytes = 0
    engine_busy = 0
    engine_capacity = 0
    window_finish = [0] * plan.windows
    clock = 0

    for window_index in range(plan.windows):
        # Prefetch may start once the channel is free and the buffer half
        # (used two windows ago) has been released by its last task.
        buffer_free = window_finish[window_index - 2] if window_index >= 2 else 0
        transfer = memory.record(window_bytes)
        memory_bytes += window_bytes
        prefetch_done = max(channel_free, buffer_free) + transfer
        channel_free = prefetch_done
        release = prefetch_done + SYNC_CYCLES
        window_start = window_index * groups
        window_items = list(
            zip(tasks[window_start : window_start + groups],
                costs[window_start : window_start + groups])
        )
        window_costs = [cost for _, cost in window_items]
        finish_all = 0
        # LPT: dispatch the longest remaining task to the first idle CU.
        for task, cost in sorted(window_items, key=lambda item: -item[1].cycles):
            free_at, cu = heapq.heappop(cu_free)
            start = max(free_at, release)
            stall_cycles += start - free_at
            done = start + cost.cycles
            cu_busy[cu] += cost.cycles
            finish_all = max(finish_all, done)
            heapq.heappush(cu_free, (done, cu))
            engine_busy += cost.engine_busy_cycles
            engine_capacity += cost.engine_cycle_capacity
            if trace is not None:
                trace.record(
                    layer=task.layer,
                    window_index=task.window_index,
                    group_index=task.group_index,
                    cu=cu,
                    start=start,
                    end=done,
                )
        window_finish[window_index] = finish_all
        clock = max(clock, finish_all)

    compute_cycles = max(clock, 1)
    return LayerSimResult(
        layer=workload.spec.name,
        cycles=clock,
        compute_cycles=compute_cycles,
        memory_stall_cycles=min(stall_cycles // max(config.n_cu, 1), clock),
        cu_busy_cycles=tuple(cu_busy),
        accumulate_ops=workload.accumulate_ops * plan.batch_images,
        multiply_ops=workload.multiply_ops * plan.batch_images,
        tasks=len(tasks),
        windows=plan.windows,
        images=plan.batch_images,
        memory_bytes=memory_bytes,
        engine_busy_cycles=engine_busy,
        engine_capacity_cycles=engine_capacity,
    )


@dataclass(frozen=True)
class DispatchTable:
    """The part of a layer's LPT dispatch list that the window does not set.

    A task costs ``group_max * ceil(pixels / S_ec)`` cycles plus the launch
    and pipeline-fill constants of :func:`~repro.hw.cu.task_cycles`, where
    ``group_max`` is the largest engine figure ``max(nonzeros, distinct *
    N)`` of the task's kernel group. The LPT order (descending cycles,
    stable ties) is therefore the order of the group maxima, whatever the
    window. Nothing here depends on ``n_cu``, ``s_ec``, ``d_f`` or the
    clock, so each :class:`~repro.hw.workload.LayerWorkload` keeps one
    table per ``(N_knl, N, policy)`` (:func:`dispatch_table`).
    """

    #: Group maxima in LPT dispatch order (descending, stable ties).
    group_max: np.ndarray
    #: Sum of every kernel's engine figure: a window's engine busy cycles
    #: per vector step.
    engine_total: int
    #: ``N_knl`` times the sum of the group maxima: a window's engine
    #: capacity per vector step.
    capacity_total: int
    #: Task cost tuples by ``(steps, scale)``, filled by :meth:`costs`.
    scaled_costs: Dict[Tuple[int, int], Tuple[int, ...]] = field(
        default_factory=dict, compare=False, repr=False
    )

    def costs(self, steps: int, scale: int = 1) -> Tuple[int, ...]:
        """Task cycles in LPT order for a window of ``steps`` vector steps,
        times ``scale``; built on first use per ``(steps, scale)``.

        ``scale=1`` gives plain task cycles, as
        :func:`~repro.hw.cu.task_cycles` reports them;
        :func:`simulate_layer` passes ``scale=n_cu`` so a cost adds
        straight onto its heap keys.
        """
        key = (steps, scale)
        costs = self.scaled_costs.get(key)
        if costs is None:
            if steps < 1:
                raise ValueError("window must cover at least one output pixel")
            constant = (TASK_LAUNCH_CYCLES + PIPELINE_FILL_CYCLES) * scale
            costs = tuple((self.group_max * (steps * scale) + constant).tolist())
            self.scaled_costs[key] = costs
        return costs


def dispatch_table(
    workload: LayerWorkload, n_knl: int, n_share: int, policy: str = POLICY_NATURAL
) -> DispatchTable:
    """The layer's :class:`DispatchTable`, built on first use per
    ``(n_knl, n_share, policy)`` and kept on the workload."""
    key = (n_knl, n_share, policy)
    table = workload.dispatch_tables.get(key)
    if table is None:
        _, nonzeros, distinct = kernel_order(workload, policy)
        engine = np.maximum(nonzeros, distinct * n_share)
        group_max = np.maximum.reduceat(engine, np.arange(0, engine.size, n_knl))
        ordered = group_max[np.argsort(-group_max, kind="stable")]
        ordered.setflags(write=False)
        table = DispatchTable(
            group_max=ordered,
            engine_total=int(engine.sum()),
            capacity_total=n_knl * int(group_max.sum()),
        )
        workload.dispatch_tables[key] = table
    return table


def simulate_layer(
    workload: LayerWorkload,
    config: AcceleratorConfig,
    memory: ExternalMemory,
    policy: str = POLICY_BALANCED,
    trace: Optional[TraceRecorder] = None,
) -> LayerSimResult:
    """Vectorized layer simulation; cycle-exact vs the reference.

    The windows come as runs of equal size from the cached plan
    (:attr:`WindowPlan.window_runs`), and each run's costs come pre-sorted
    and scaled by ``n_cu`` from :meth:`DispatchTable.costs`. Each CU is
    one heap entry ``free * n_cu + cu``. A CU waits for the window's
    release exactly when ``heap[0] < release * n_cu``; those (at most
    ``n_cu``) tasks book their idle cycles and start at the release, and
    every other task is one ``heapreplace``. Busy cycles are the decoded
    free times minus the idle cycles. A ``trace`` recorder runs the
    reference, which records the events.
    """
    if trace is not None:
        return simulate_layer_reference(workload, config, memory, policy, trace)
    plan = plan_windows(workload.spec, config)
    table = dispatch_table(workload, config.n_knl, config.n_share, policy)
    n_cu, s_ec = config.n_cu, config.s_ec

    weight_bytes_per_window = workload.encoded_bytes / plan.windows / s_ec
    window_bytes = int(
        plan.window_input_bytes * plan.batch_images
        + weight_bytes_per_window
        + plan.window_output_bytes * plan.batch_images
    )
    transfer = memory.record(window_bytes, plan.windows)

    heap = list(range(n_cu))  # every CU free at cycle 0: already a heap
    idle = [0] * n_cu
    channel_free = 0
    # Finish times of the previous two windows: window w+2's prefetch
    # waits for window w to release its buffer half.
    before_last = last = 0
    total_steps = 0

    for pixels, count in plan.window_runs:
        steps = -(-pixels // s_ec)
        total_steps += steps * count
        costs = table.costs(steps, n_cu)
        for _ in range(count):
            # The prefetch starts at max(channel free, window w-2's finish).
            if before_last > channel_free:
                channel_free = before_last
            channel_free += transfer
            release = channel_free + SYNC_CYCLES
            release_key = release * n_cu
            tasks = iter(costs)
            # Waiting CUs start in (free, cu) order; moving them all to the
            # release when the window opens would break ties by index alone.
            for cost in tasks:
                top = heap[0]
                if top >= release_key:
                    heapreplace(heap, top + cost)
                    break
                free, cu = divmod(top, n_cu)
                idle[cu] += release - free
                heapreplace(heap, release_key + cu + cost)
            for cost in tasks:
                heapreplace(heap, heap[0] + cost)
            # max(heap) exceeds this window's own finish only through a CU
            # the window left alone, so by at most an earlier window's
            # finish. The DDR channel has waited for every earlier finish
            # before window w+2 prefetches, so that prefetch starts at the
            # same time.
            before_last, last = last, max(heap) // n_cu

    free = [0] * n_cu
    for key in heap:
        free[key % n_cu] = key // n_cu
    clock = max(free)
    # The frozen __init__ looks object.__setattr__ up per field; one
    # __dict__.update would give each result a dict (~0.5 MB RSS a round).
    result = object.__new__(LayerSimResult)
    put = object.__setattr__
    put(result, "layer", workload.spec.name)
    put(result, "cycles", clock)
    put(result, "compute_cycles", max(clock, 1))
    put(result, "memory_stall_cycles", min(sum(idle) // max(n_cu, 1), clock))
    put(result, "cu_busy_cycles", tuple(map(sub, free, idle)))
    put(result, "accumulate_ops", workload.accumulate_ops * plan.batch_images)
    put(result, "multiply_ops", workload.multiply_ops * plan.batch_images)
    put(result, "tasks", plan.windows * len(table.group_max))
    put(result, "windows", plan.windows)
    put(result, "images", plan.batch_images)
    put(result, "memory_bytes", window_bytes * plan.windows)
    put(result, "engine_busy_cycles", table.engine_total * total_steps)
    put(result, "engine_capacity_cycles", table.capacity_total * total_steps)
    return result
