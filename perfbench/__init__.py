"""Benchmark for reconkit: workloads, oracles and tracing (see README.md)."""
