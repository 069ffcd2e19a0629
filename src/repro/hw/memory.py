"""External (DDR) memory model.

The DE5-Net provides 12.8 GB/s of DDR3 bandwidth. The fetch/store unit
double-buffers prefetch windows, so memory transfers overlap compute; a
layer only becomes memory-bound when a window's transfer outlasts its
computation. The model charges a fixed per-burst latency plus a
bandwidth-proportional term and keeps running totals for the bandwidth
report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Fixed cycles charged per transfer burst (command + row activation).
BURST_LATENCY_CYCLES = 64


@dataclass
class ExternalMemory:
    """DDR interface shared by all CUs."""

    bandwidth_gbs: float
    freq_mhz: float
    total_bytes: int = 0
    total_transfer_cycles: int = 0
    transfers: int = 0
    _bytes_per_cycle: float = field(init=False)

    def __post_init__(self) -> None:
        if self.bandwidth_gbs <= 0 or self.freq_mhz <= 0:
            raise ValueError("bandwidth and frequency must be positive")
        self._bytes_per_cycle = (self.bandwidth_gbs * 1e9) / (self.freq_mhz * 1e6)

    def transfer_cycles(self, nbytes: int) -> int:
        """Cycles to move ``nbytes`` (without recording the transfer)."""
        if nbytes < 0:
            raise ValueError("transfer size cannot be negative")
        if nbytes == 0:
            return 0
        return BURST_LATENCY_CYCLES + int(round(nbytes / self._bytes_per_cycle))

    def record(self, nbytes: int, count: int = 1) -> int:
        """Account ``count`` transfers of ``nbytes`` each; return the
        duration of one in cycles."""
        cycles = self.transfer_cycles(nbytes)
        if nbytes > 0:
            self.total_bytes += nbytes * count
            self.total_transfer_cycles += cycles * count
            self.transfers += count
        return cycles
