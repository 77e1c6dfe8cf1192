"""Fixtures shared by the test modules."""

import pytest

from adlv.datum import builtin_datum
from adlv.weyl import WeylGroup


@pytest.fixture(scope='session')
def e6_weyl():
    """W(E6), 51 840 elements: built once for the whole session."""
    return WeylGroup(builtin_datum('e6_adjoint'))
