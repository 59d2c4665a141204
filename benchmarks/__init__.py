"""Benchmark harness: one bench_*.py per table/figure of the paper."""
