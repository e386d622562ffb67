"""Benchmark for rankcert: workloads, input generator, tracing and checks.

Entry point: ``python3 perfbench/run.py --help``.
"""
