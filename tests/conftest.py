import pytest

from klmoments import evans
from klmoments.evans import MomentEngine
from klmoments.ffprime import primes_in_range
from klmoments.moments import power_sums_exact


@pytest.fixture(scope="session")
def sum_tables_200():
    """Restricted power-sum tables S_1..S_13 for every prime p <= 200."""
    return {p: power_sums_exact(p, 13) for p in primes_in_range(2, 200)}


@pytest.fixture()
def engine_200(sum_tables_200):
    engine = MomentEngine()
    for tab in sum_tables_200.values():
        engine.seed(tab)
    return engine


@pytest.fixture()
def two_cpus(monkeypatch):
    """Lets a jobs=2 sweep fork its 2 workers on a 1-CPU machine too."""
    monkeypatch.setattr(evans, "_usable_cpus", lambda: 2)
