import gc

import pytest

from zxcliff.normal_forms import cc1_table, cc2_family
from zxcliff.optimiser import Optimiser, OptimiserConfig
from zxcliff.ruleset import load_ruleset


@pytest.fixture(scope="session")
def ruleset():
    return load_ruleset()


@pytest.fixture(scope="session")
def rules_by_name(ruleset):
    return ruleset.by_name()


@pytest.fixture(scope="session")
def cc1():
    return cc1_table()


@pytest.fixture(scope="session")
def cc2(cc1):
    return cc2_family()


@pytest.fixture(scope="session")
def optimiser(ruleset):
    return Optimiser(rules=ruleset)


@pytest.fixture(scope="session")
def optimiser_nofallback(ruleset):
    return Optimiser(OptimiserConfig(semantic_fallback=False), rules=ruleset)


@pytest.fixture
def cyclic_garbage():
    """A function that runs ``work()`` with the cycle collector off and
    returns how many objects it left unreachable: the ones that only the
    collector, not reference counting, could free."""
    def count(work):
        gc.collect()
        gc.disable()
        try:
            work()
            return gc.collect()
        finally:
            gc.enable()
    return count
