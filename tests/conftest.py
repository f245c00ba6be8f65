from functools import cache

import pytest
from hypothesis import HealthCheck, settings

from ecta import region_automaton
from ecta.automaton import get_example
from ecta.core import Alphabet

# derandomized and without an example database, so every run draws the
# same examples and a failure repeats wherever the suite runs
settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def ab():
    """The two-letter alphabet used throughout the suite."""
    return Alphabet(("a", "b"))


@pytest.fixture(scope="session")
def exists_build():
    """``exists_build(name, cmax, variant)``: the ``exists`` region
    abstraction of a built-in example, built once per session."""

    @cache
    def built(name: str, cmax: int, variant: str):
        return region_automaton.build(get_example(name), cmax, region_automaton.EXISTS, variant)

    return built
