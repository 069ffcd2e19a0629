"""Inter-shard transfer links.

When a model is cut into layer-pipeline shards (HPIPE-style, see
PAPERS.md), the activation tensor at every cut point has to cross a
board-to-board link — PCIe, a serial transceiver bridge, or host DRAM
staging. A :class:`LinkModel` is the timing abstraction for one such
link: a fixed per-transfer latency plus a bandwidth term over the
activation bytes. The partition search (:mod:`repro.dse.partition`)
prices the elements crossing each cut
(:meth:`repro.shard.plan.ModelPartition.cut_elements`) through this
model, so a cut in the middle of a wide feature pyramid is penalized the
way real deployments penalize it.

Activations in this system are 8-bit quantized codes, so the default
``bytes_per_element`` is 1 — the wider arrays the host stream uses are a
host-side convenience, not the wire format.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DEFAULT_LINK", "LinkModel", "LinkTransfer"]


@dataclass(frozen=True)
class LinkModel:
    """Timing model of one inter-shard link."""

    #: Sustained link bandwidth in GB/s (decimal, like ``FPGADevice``).
    bandwidth_gbs: float
    #: Fixed per-transfer latency (DMA descriptor setup, link round trip).
    latency_s: float = 0.0
    #: Wire bytes per activation element (8-bit codes by default).
    bytes_per_element: int = 1
    name: str = "link"

    def __post_init__(self) -> None:
        if self.bandwidth_gbs <= 0:
            raise ValueError(f"{self.name}: link bandwidth must be positive")
        if self.latency_s < 0:
            raise ValueError(f"{self.name}: link latency cannot be negative")
        if self.bytes_per_element < 1:
            raise ValueError(f"{self.name}: bytes per element must be >= 1")

    def transfer_bytes(self, elements: int) -> int:
        """Wire bytes of one activation transfer of ``elements`` codes."""
        if elements < 0:
            raise ValueError("cannot transfer a negative element count")
        return elements * self.bytes_per_element

    def transfer_seconds(self, elements: int) -> float:
        """Latency of moving ``elements`` activation codes across the link."""
        return self.latency_s + self.transfer_bytes(elements) / (
            self.bandwidth_gbs * 1e9
        )

    def transfer(self, elements: int) -> "LinkTransfer":
        """The fully priced transfer record for one cut point."""
        return LinkTransfer(
            elements=elements,
            wire_bytes=self.transfer_bytes(elements),
            seconds=self.transfer_seconds(elements),
            link=self,
        )


@dataclass(frozen=True)
class LinkTransfer:
    """One cut point's activation traffic, priced through its link."""

    elements: int
    wire_bytes: int
    seconds: float
    link: LinkModel


#: A conservative PCIe Gen3 x8-class default: what one mid-2010s FPGA
#: board realistically sustains for peer DMA, with a DMA-setup latency
#: floor. Partition searches accept any :class:`LinkModel` instead.
DEFAULT_LINK = LinkModel(bandwidth_gbs=6.0, latency_s=5e-6, name="pcie3x8")
