"""Reporting helpers: tables and paper-vs-measured comparisons."""
