"""Fixtures shared by every test module."""

import pytest

from qvirasoro import relations


@pytest.fixture(autouse=True)
def fresh_point_data():
    """Each test starts and ends with an empty ``relations`` point store,
    so that a test which patches ``relations.PartitionBasis`` or a
    method of ``PartitionBasis`` (``factors``, ``weigh``) or a kernel of
    ``relations`` (``_blocks``) runs the patched code on its first check,
    not data that an earlier test left behind."""
    relations._POINT.clear()
    yield
    relations._POINT.clear()
