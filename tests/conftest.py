import pytest

from regbench.harness import OperatorSpec, build_operator


@pytest.fixture(scope="session", autouse=True)
def session_svd_cache(tmp_path_factory):
    """An SVD cache for fixtures wider than one test, so that not even
    they touch the user's cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield


@pytest.fixture(autouse=True)
def svd_cache(tmp_path, monkeypatch):
    """Each test starts from an empty SVD cache of its own; returns the
    directory that holds its entries."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache" / "regbench"


@pytest.fixture(scope="session")
def op50():
    return build_operator(OperatorSpec(kind="integration", n=50))
