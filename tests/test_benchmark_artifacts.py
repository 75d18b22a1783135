"""The perfbench workloads' artifacts at seeds 7 and 4242, pinned byte for byte.

The benchmark itself only checks that the repeats of one run agree, so a
speed-up that changed an artifact would still pass it. These digests are
the ``artifact_sha256`` that ``perfbench/run.py --seed 7`` and ``--seed 4242``
print; a change that moves one must say why.
"""

import pytest

from capchain.netsim import run_scenario

from harness import artifact_sha256, render_artifacts
from workloads import WORKLOADS

SEED_7_SHA256 = {
    "hot_reads": "787fc86e1183e83cbb6d94c5e2f52ed5ce010737757c7f747ac78f4f0deec52f",
    "idle_sync": "5f067a1d092d2847717c3ce1bdae181d417ab6376893021165da160ca53fdeb1",
    "churn": "6dd6d55155ca68f7ee043d129b617d1ed9da75a7548e024eeca49964ddd5dc1e",
}

# the second seed CI's correctness gate runs
SEED_4242_SHA256 = {
    "hot_reads": "bea265178122a5797217b479b5df9b8559975974008dcab544a924d6cfcd49f9",
    "idle_sync": "b363dfd0bc8daa2d4b92df7d8cd0ae9c0d863a4596ce9cfd9af0681873fc6858",
    "churn": "409823fc94d232a710ced2eb8feb630f0a11d1bf86283f8404c40fa2ce4f6df6",
}


@pytest.mark.parametrize("workload", sorted(SEED_7_SHA256))
def test_seed_7_artifacts_are_unchanged(workload):
    simulation, result = run_scenario(WORKLOADS[workload](7))
    assert result.expectation_failures == []
    assert artifact_sha256(render_artifacts(simulation, result)) == SEED_7_SHA256[workload]


@pytest.mark.parametrize("workload", sorted(SEED_4242_SHA256))
def test_seed_4242_artifacts_are_unchanged(workload):
    simulation, result = run_scenario(WORKLOADS[workload](4242))
    assert result.expectation_failures == []
    assert artifact_sha256(render_artifacts(simulation, result)) == SEED_4242_SHA256[workload]
