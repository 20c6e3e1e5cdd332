"""Fixtures shared by the test modules."""

import pytest

from sgraph import search


@pytest.fixture
def cheap_workers(monkeypatch):
    """Price a worker at one orbit minimum, so that a search with --jobs 2
    on two usable CPUs fans out however small it is.  Without this, the
    small searches these tests run stay in the calling process."""
    monkeypatch.setattr(search, "MINIMA_PER_WORKER", 1)
