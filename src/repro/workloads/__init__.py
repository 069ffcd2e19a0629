"""Calibrated synthetic workloads and the paper's published targets."""

from .images import natural_image
from .synthetic import synthetic_model_workload

__all__ = [
    "natural_image",
    "synthetic_model_workload",
]
