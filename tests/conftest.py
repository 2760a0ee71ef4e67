"""Test isolation: every test starts and ends with an empty jump-study cache.

``bench.jump_study`` keeps its seed-free pencils across calls; a test that
counts the set-up's calls or patches a function the set-up reads must see a
cold study whatever ran before it, and must leave nothing behind for the next.
"""

import pytest

from hoermander_kit import bench


@pytest.fixture(autouse=True)
def _cold_study_cache():
    bench._STUDY_CACHE.clear()
    yield
    bench._STUDY_CACHE.clear()
