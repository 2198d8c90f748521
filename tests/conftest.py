"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from gtlab import kernel


@pytest.fixture(autouse=True)
def _cold_theta_jets():
    """Every test starts and ends with no memoised log-theta jet, so no
    test reads a jet another computed, and a test that patches
    ``kernel.theta_partial`` to inject a defect cannot have it skipped by
    a warm entry, nor leave a defective one behind."""
    kernel.log_theta_partial.cache_clear()
    yield
    kernel.log_theta_partial.cache_clear()
