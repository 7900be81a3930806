"""Benchmark of the linext package; see README.md."""
