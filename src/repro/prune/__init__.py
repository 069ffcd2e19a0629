"""Magnitude pruning substrate (Deep Compression style)."""

from .schedules import deep_compression_schedule

__all__ = [
    "deep_compression_schedule",
]
