"""Prefetch-window planning (paper Figure 3).

The fetch/store unit streams the input feature map through the FT-Buffer in
*prefetch windows*. A window covers ``w_r x w_c`` output pixels across all
input channels — the accumulate stage needs every channel of a kernel
before a partial sum is final, so Equation (2) never tiles the reduction
axis. The whole layer is processed after ``G_r x G_c`` prefetches, the
quantity the paper's bandwidth model is written in.

Capacity model: the FT-Buffer stores ``d_f`` vector entries of ``8 * S_ec``
bits, i.e. ``d_f * S_ec`` feature bytes per CU. For convolution layers the
``S_ec`` lanes vectorize the window's (row-major linearized) output pixels
of one image; for FC layers — which have a single output pixel — the lanes
carry a batch of ``S_ec`` images instead, which is why the paper's weight
bandwidth model assumes "a minimum batch size of S_ec".

The planner maximizes the window under the capacity: full-width row stripes
when they fit, otherwise column tiles (whose halo overlap then shows up as
extra memory traffic, exactly the effect the prefetch-window model
captures).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import groupby
from typing import Tuple

from ..core.specs import LayerSpec
from ..telemetry.caches import CacheStats, register_cache
from .config import AcceleratorConfig


@dataclass(frozen=True)
class WindowPlan:
    """Tiling decision for one layer on one configuration."""

    layer: str
    #: Output pixels covered per window (rows x cols); FC layers use 1x1.
    window_rows: int
    window_cols: int
    #: Prefetch grid: the layer completes after g_r * g_c windows.
    g_r: int
    g_c: int
    #: Output extent of the layer; the last row band and column tile are
    #: clipped to it.
    out_rows: int
    out_cols: int
    #: Input feature bytes loaded per window per image (includes halo).
    window_input_bytes: int
    #: Output feature bytes stored per window per image.
    window_output_bytes: int
    #: Images processed together (1 for conv, S_ec for FC).
    batch_images: int = 1

    def __post_init__(self) -> None:
        if min(self.window_rows, self.window_cols, self.g_r, self.g_c) < 1:
            raise ValueError(f"{self.layer}: window plan must be positive")

    @property
    def windows(self) -> int:
        return self.g_r * self.g_c

    @cached_property
    def window_runs(self) -> Tuple[Tuple[int, int], ...]:
        """Output pixels of each window in window-major order, as runs
        ``((pixels, count), ...)`` of equal adjacent windows.

        Every window is full-size except the last row band and the last
        column tile, so the grid is the outer product of two edge-clipped
        extents. Plans are cached per ``(spec, d_f, s_ec)``, so each grid
        is walked once.
        """
        rows = [self.window_rows] * (self.g_r - 1)
        rows.append(self.out_rows - (self.g_r - 1) * self.window_rows)
        cols = [self.window_cols] * (self.g_c - 1)
        cols.append(self.out_cols - (self.g_c - 1) * self.window_cols)
        pixels = groupby(r * c for r in rows for c in cols)
        return tuple((size, sum(1 for _ in run)) for size, run in pixels)

    @property
    def input_bytes_per_image(self) -> int:
        """Feature traffic per image for the whole layer (halo included)."""
        return self.windows * self.window_input_bytes

    @property
    def output_bytes_per_image(self) -> int:
        return self.windows * self.window_output_bytes


def input_extent(out_extent: int, kernel: int, stride: int) -> int:
    """Input pixels needed to produce ``out_extent`` outputs along one axis."""
    return (out_extent - 1) * stride + kernel


def plan_windows(spec: LayerSpec, config: AcceleratorConfig) -> WindowPlan:
    """Choose the largest prefetch window that fits the FT-Buffer.

    The plan depends only on the layer spec and the (d_f, s_ec) geometry of
    the configuration, so identical (spec, d_f, s_ec) triples share one
    cached :class:`WindowPlan` (frozen, safe to alias) — the quantized
    performance model, the bandwidth report and the compiled DSE grid stop
    re-planning identical layers across design points.
    """
    return plan_layer_windows(spec, config.d_f, config.s_ec)


@lru_cache(maxsize=4096)
def plan_layer_windows(spec: LayerSpec, d_f: int, s_ec: int) -> WindowPlan:
    """LRU-cached window planner keyed on (spec, d_f, s_ec).

    ``plan_windows`` delegates here; callers that vary only the buffer
    geometry (the DSE sweeps) can call this directly without building a
    full :class:`AcceleratorConfig`.
    """
    capacity = d_f * s_ec  # feature bytes per CU
    if spec.is_fc:
        # The whole input vector is one window; batch lanes give parallelism.
        if spec.input_size > capacity:
            raise ValueError(
                f"{spec.name}: FC input of {spec.input_size} bytes exceeds the "
                f"FT-Buffer capacity of {capacity}; deepen d_f"
            )
        return WindowPlan(
            layer=spec.name,
            window_rows=1,
            window_cols=1,
            g_r=1,
            g_c=1,
            out_rows=1,
            out_cols=1,
            window_input_bytes=spec.input_size,
            window_output_bytes=spec.out_channels,
            batch_images=s_ec,
        )

    channels = spec.in_channels
    k, s = spec.kernel, spec.stride

    # Steady-state capacity model with line-buffered halo reuse: advancing a
    # row stripe by w_r output rows only brings w_r * S new input rows; the
    # K - S halo rows stay resident in a dedicated line buffer. The first
    # window of each band pays the full halo, amortized into the per-window
    # traffic below.
    def new_rows(rows_out: int) -> int:
        return rows_out * s

    def fits(rows_out: int, cols_out: int) -> bool:
        cols_in = input_extent(cols_out, k, s)
        return channels * new_rows(rows_out) * cols_in <= capacity

    def lane_efficiency(rows_out: int, cols_out: int) -> float:
        pixels = rows_out * cols_out
        steps = math.ceil(pixels / s_ec)
        return pixels / (steps * s_ec)

    if fits(1, spec.out_cols):
        # Full-width stripes: among feasible stripe heights, pick the one
        # whose pixel count best fills the S_ec vector lanes (ties favour
        # taller stripes — fewer windows, less control overhead). Every
        # multiple of S_ec / gcd(out_cols, S_ec) rows fills all lanes, so
        # the tallest multiple that fits wins; the heights are scanned only
        # when none fits (fewer than S_ec rows).
        w_c = spec.out_cols
        row_bytes = channels * new_rows(1) * input_extent(w_c, k, s)
        tallest = min(spec.out_rows, capacity // row_bytes)
        fill = s_ec // math.gcd(w_c, s_ec)
        if tallest >= fill:
            w_r = tallest - tallest % fill
        else:
            # Taller first: max keeps the first of equal efficiencies.
            heights = range(tallest, 0, -1)
            w_r = max(heights, key=lambda rows: lane_efficiency(rows, w_c))
    else:
        # Column tiling at one output row: the widest tile that fits, and
        # never below one column.
        w_r = 1
        w_c = max(1, (capacity // (channels * s) - k) // s + 1)
        if not fits(w_r, w_c):
            raise ValueError(
                f"{spec.name}: even a 1x1 output window exceeds the FT-Buffer "
                f"({channels * k * k} bytes needed, {capacity} available)"
            )
    g_r = math.ceil(spec.out_rows / w_r)
    g_c = math.ceil(spec.out_cols / w_c)
    cols_in = input_extent(w_c, k, s)
    steady_bytes = channels * new_rows(w_r) * cols_in
    # Full halo (K - S extra rows) is loaded once per row band; amortize it
    # over the band's g_c windows.
    halo_bytes = channels * max(k - s, 0) * cols_in
    return WindowPlan(
        layer=spec.name,
        window_rows=w_r,
        window_cols=w_c,
        g_r=g_r,
        g_c=g_c,
        out_rows=spec.out_rows,
        out_cols=spec.out_cols,
        window_input_bytes=steady_bytes + math.ceil(halo_bytes / g_c),
        window_output_bytes=spec.out_channels * w_r * w_c,
        batch_images=1,
    )


def _window_plan_stats() -> CacheStats:
    """Telemetry view of the window-plan LRU.

    ``functools.lru_cache`` does not expose an eviction counter, but
    ``cache_clear`` resets hits/misses along with the entries, so
    ``misses - currsize`` is exactly the number of evictions.
    """
    info = plan_layer_windows.cache_info()
    return CacheStats(
        hits=info.hits,
        misses=info.misses,
        evictions=info.misses - info.currsize,
        size=info.currsize,
        capacity=info.maxsize,
        name="hw.windows",
    )


register_cache("hw.windows", _window_plan_stats, clear=plan_layer_windows.cache_clear)
