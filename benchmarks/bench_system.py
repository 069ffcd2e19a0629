"""Benchmark: pipelined CPU/FPGA system (paper Section 6.1).

Regenerates the paper's system-level claim that pipelined processing hides
the CPU layers (pooling, LRN, softmax) behind the FPGA's conv/FC time, and
reports the FPGA-only vs overall-system throughput split that Table 2's
footnote draws for [3] (663.5 vs 780.6 GOP/s).
"""

from repro.hw import PAPER_CONFIG_ALEXNET, PAPER_CONFIG_VGG16, STRATIX_V_GXA7
from repro.nn.models import get_architecture
from repro.system.pipeline import run_system
from repro.workloads import synthetic_model_workload


def test_bench_system_pipeline(benchmark, seed):
    def run_both():
        results = {}
        for model, config in (
            ("alexnet", PAPER_CONFIG_ALEXNET),
            ("vgg16", PAPER_CONFIG_VGG16),
        ):
            results[model] = run_system(
                get_architecture(model),
                synthetic_model_workload(model, seed=seed),
                config,
                STRATIX_V_GXA7,
            )
        return results

    results = benchmark(run_both)
    print()
    for model, outcome in results.items():
        print(
            f"  {model:<8} fpga {outcome.fpga_s * 1e3:6.2f} ms  "
            f"host {outcome.host_s * 1e3:6.2f} ms  "
            f"cpu hidden: {outcome.cpu_hidden}  "
            f"fpga {outcome.fpga_gops:6.1f} GOP/s  "
            f"system {outcome.system_gops:6.1f} GOP/s  "
            f"pipeline gain {outcome.pipeline_speedup:4.2f}x"
        )
    # The paper's claim: CPU time is hidden for both models.
    assert results["vgg16"].cpu_hidden
    assert results["alexnet"].cpu_hidden
    # When hidden, system throughput equals the FPGA-only figure.
    assert results["vgg16"].system_gops == results["vgg16"].fpga_gops
