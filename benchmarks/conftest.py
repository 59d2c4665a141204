"""Shared fixtures and helpers for the benchmark harness.

Every ``bench_*.py`` file regenerates one table or figure of the paper (the
E1–E12 experiment index of :mod:`repro.experiments.suite`) and times the
computation with pytest-benchmark.  Each benchmark prints the regenerated
table so that running

    pytest benchmarks/ --benchmark-only -s

produces both the timing report and the experiment outputs.
"""

from __future__ import annotations

import pytest

from repro.experiments.harness import ExperimentOutcome


def run_and_report(benchmark, experiment_id: str, **kwargs) -> ExperimentOutcome:
    """Benchmark one experiment runner and print its tables."""
    from repro.experiments.harness import run_experiment

    outcome = benchmark.pedantic(
        run_experiment, args=(experiment_id,), kwargs=kwargs, rounds=1, iterations=1
    )
    print()
    print(outcome.render())
    return outcome


@pytest.fixture(scope="session")
def medium_marketplace():
    """A medium simulated crowdsourcing marketplace shared by role benches."""
    from repro.experiments.workloads import crowdsourcing_marketplace

    return crowdsourcing_marketplace(size=300, seed=7)
