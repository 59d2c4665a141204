"""Serving benchmark for FaiRank: drives ``fairank serve`` over HTTP.

Run ``python3 perfbench/run.py --help`` from the repository root.  The
metric names, workloads and bounds it reports are declared in the root
``BENCHMARK.json``; ``perfbench/README.md`` explains each of them.
"""
