import pytest

from orbiquint import covergraphs


def _clear_covergraphs_memos():
    for memo in vars(covergraphs).values():
        if hasattr(memo, "cache_clear"):
            memo.cache_clear()


@pytest.fixture
def cold_memos():
    """Every covergraphs memo cleared before the test and again after it,
    so the test builds and renders cold and leaves no entry made under a
    patch behind; the test may call the fixture's value to clear again."""
    _clear_covergraphs_memos()
    yield _clear_covergraphs_memos
    _clear_covergraphs_memos()
