"""Full-size scheme plans: every VGG16 layer stays on the ABM datapath.

The ABM GEMM is the only datapath that executes layers; these tests pin
that ``plan_model_schemes`` never asks for another one at the paper's
full-size VGG16 shapes on the Stratix-V GXA7 (Figure 1's claim).
"""

import pytest

from repro.dse.schemes import plan_model_schemes
from repro.hw.config import PAPER_CONFIG_VGG16
from repro.hw.device import get_device
from repro.workloads.synthetic import synthetic_model_workload


@pytest.fixture(scope="module")
def full_size_plan():
    workload = synthetic_model_workload("vgg16", seed=1)
    plan = plan_model_schemes(
        workload, PAPER_CONFIG_VGG16, device=get_device("Stratix-V GXA7")
    )
    return workload, plan


class TestSchemePlanner:
    def test_full_size_execution_plan_stays_abm(self, full_size_plan):
        # Every layer of the plan is assigned the ABM datapath, so the
        # plan is homogeneous and predicts no speedup over ABM.
        workload, plan = full_size_plan
        assert [d.layer for d in plan.decisions] == [
            layer.spec.name for layer in workload.layers
        ]
        assert all(d.scheme == "abm" for d in plan.decisions)
        assert not plan.heterogeneous
        assert plan.predicted_speedup == pytest.approx(1.0)

    def test_cycles_basis_is_homogeneous_abm(self, full_size_plan):
        # The ABM cycle roof beats every reduced-multiply scheme on every
        # layer of the paper configuration, not just in aggregate.
        _, plan = full_size_plan
        for decision in plan.decisions:
            assert decision.chosen_cycles == decision.abm_cycles
            assert decision.abm_cycles == min(decision.cycles.values()), (
                decision.layer
            )
