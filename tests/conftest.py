import pytest

from conechase import kb
from conechase.derive import Runner, default_catalog, load_scripts


@pytest.fixture(scope="session")
def catalog():
    return default_catalog()


@pytest.fixture(scope="session")
def scripts():
    return load_scripts()


@pytest.fixture(scope="session")
def runner(catalog, scripts):
    # one shared runner so sub-derivation caches persist across tests
    return Runner(catalog, scripts)


@pytest.fixture()
def fresh_loads():
    """``load_catalog`` starts from a new registry, as in a fresh process:
    the registry the last load left for reuse is forgotten."""
    kb._registry.cache_clear()


@pytest.fixture()
def env():
    return {"r": 2, "m": 3, "sign": 1, "eps": 0, "x": 0, "y": 1}


@pytest.fixture()
def ctx(catalog, env):
    return catalog.rule_context(env)
