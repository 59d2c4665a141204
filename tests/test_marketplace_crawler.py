"""Tests for repro.marketplace.crawler (simulated platform crawls)."""

import pytest

from repro.errors import MarketplaceError
from repro.marketplace.crawler import (
    PLATFORM_PROFILES,
    MarketplaceCrawler,
    available_platforms,
)
from repro.scoring.rank import OpaqueScoringFunction


class TestProfiles:
    def test_four_platforms_available(self):
        platforms = available_platforms()
        assert set(platforms) == {
            "taskrabbit-sim", "fiverr-sim", "qapa-sim", "mistertemp-sim",
        }

    def test_profiles_have_jobs_and_gaps(self):
        for profile in PLATFORM_PROFILES.values():
            assert profile.job_templates
            assert profile.group_gaps
            schema = profile.schema()
            assert schema.protected_names
            assert schema.observed_names

    def test_job_templates_reference_declared_skills(self):
        for profile in PLATFORM_PROFILES.values():
            for _, weights, _ in profile.job_templates:
                assert set(weights) <= set(profile.skills)


class TestCrawler:
    def test_crawl_returns_marketplace_with_jobs(self, crawled_marketplace):
        assert len(crawled_marketplace.workers) == 120
        assert len(crawled_marketplace) == len(PLATFORM_PROFILES["taskrabbit-sim"].job_templates)

    def test_crawl_is_deterministic(self):
        first = MarketplaceCrawler(seed=5).crawl("fiverr-sim", workers=60)
        second = MarketplaceCrawler(seed=5).crawl("fiverr-sim", workers=60)
        assert first.workers.to_records() == second.workers.to_records()

    def test_unknown_platform_rejected(self):
        with pytest.raises(MarketplaceError):
            MarketplaceCrawler().crawl("linkedin-sim")

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(MarketplaceError):
            MarketplaceCrawler().crawl("qapa-sim", workers=0)

    def test_skills_in_unit_interval(self, crawled_marketplace):
        for skill in crawled_marketplace.workers.schema.observed_names:
            column = crawled_marketplace.workers.numeric_column(skill)
            assert column.min() >= 0.0 and column.max() <= 1.0

    def test_planted_gap_visible_in_data(self):
        marketplace = MarketplaceCrawler(seed=3).crawl("taskrabbit-sim", workers=800)
        workers = marketplace.workers
        black = workers.filter(lambda i: i["Ethnicity"] == "Black")
        white = workers.filter(lambda i: i["Ethnicity"] == "White")
        assert black.numeric_column("Rating").mean() < white.numeric_column("Rating").mean()

    def test_some_jobs_are_opaque(self, crawled_marketplace):
        opaque_jobs = [job for job in crawled_marketplace if not job.is_transparent]
        assert opaque_jobs
        assert all(isinstance(job.function, OpaqueScoringFunction) for job in opaque_jobs)

    def test_crawl_all(self):
        marketplaces = MarketplaceCrawler(seed=2).crawl_all(workers=40)
        assert {m.name for m in marketplaces} == set(available_platforms())
        assert all(len(m.workers) == 40 for m in marketplaces)


def test_crawl_is_deterministic_across_processes():
    """Seeding must not depend on the per-process salt of str hashes."""
    import os
    import subprocess
    import sys

    script = (
        "from repro.marketplace.crawler import MarketplaceCrawler\n"
        "from repro.service.fingerprint import fingerprint_dataset\n"
        "m = MarketplaceCrawler(seed=11).crawl('taskrabbit-sim', workers=50)\n"
        "print(fingerprint_dataset(m.workers))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    fingerprints = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.path.abspath(src))
        completed = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        fingerprints.add(completed.stdout.strip())
    assert len(fingerprints) == 1
