"""Fixtures shared by the test modules."""

import pytest

from fltzlab import checks


@pytest.fixture(scope="session")
def two_sided_4():
    """The records of ``checks.two_sided(4)``, computed once per test run.

    Ranking the rep homs of the n = 4 generator family is the slowest
    computation in the suite; the acceptance criterion and the CLI's
    line layout both read these records.
    """
    return tuple(checks.two_sided(4))
