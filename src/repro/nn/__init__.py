"""Inference-only numpy CNN substrate (layers, networks, model zoo)."""
