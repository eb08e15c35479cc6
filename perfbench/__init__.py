"""Benchmark of the paper's pipeline; see README.md in this directory."""
