"""Shared fixtures: session-wide caches of searches and classifications.

Most tests need the final chamber of some form; caching keeps the suite
inside its time budget without any test depending on another's order.
"""

import pytest

from vinberg.classify import classify_family, classify_form
from vinberg.forms import Form
from vinberg.search import run_search

_searches = {}
_reports = {}
_families = {}

# deepest rank worth sweeping per family: first failure plus one inherited
FAMILY_MAX_RANK = {5: 10, 7: 5, 11: 6, 13: 4, 17: 5, 19: 4, 23: 4}


@pytest.fixture(scope="session")
def search():
    """search(p, n) -> cached SearchResult under the default budget."""

    def get(p, n):
        if (p, n) not in _searches:
            _searches[(p, n)] = run_search(Form(p, n))
        return _searches[(p, n)]

    return get


@pytest.fixture(scope="session")
def report():
    """report(p, n) -> cached classification report."""

    def get(p, n):
        if (p, n) not in _reports:
            _reports[(p, n)] = classify_form(p, n)
        return _reports[(p, n)]

    return get


@pytest.fixture(scope="session")
def family():
    """family(p) -> cached classify_family run to FAMILY_MAX_RANK[p]."""

    def get(p):
        if p not in _families:
            _families[p] = classify_family(p, FAMILY_MAX_RANK[p])
        return _families[p]

    return get
