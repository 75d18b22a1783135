import sys
from pathlib import Path

import pytest

from chainbench import Bench

# the benchmark's modules (harness, workloads) render and pin artifacts in tests
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))


@pytest.fixture
def bench():
    return Bench()
