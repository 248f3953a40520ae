"""Benchmark harness for the GCatch/GFix pipeline; see README.md."""
