import pytest

from sparsect import projector, sparse


def _clear_geometry_caches():
    for cached in (projector.normal_operator, sparse._impulse_spectrum,
                   sparse._step_bound):
        cached.cache_clear()


@pytest.fixture
def cold_caches():
    """Empty every per-geometry cache, so the test starts from cold solves;
    the fixture's value empties them again."""
    _clear_geometry_caches()
    return _clear_geometry_caches
