import pytest

from chainbench import Bench


@pytest.fixture
def bench():
    return Bench()
