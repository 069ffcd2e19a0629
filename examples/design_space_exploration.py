"""Run the complete design-space exploration flow (paper Figure 5).

Stage by stage on VGG16 / Stratix-V GXA7:

1. analyze the pruned quantized network (sharing factor N, buffer depths),
2. sweep N_knl for the normalized-performance-boost optimum (Figure 6),
3. characterize the platform with synthetic "fast compiles" and re-fit the
   C0..C7 resource constants (the paper's calibration stage),
4. explore the S_ec x N_cu grid under the 75% logic constraint (Figure 7),

then port the whole flow to a different device (Arria-10 GX1150) to show
the exploration is device-generic — the paper's "complete flow" claim.

Run:  python examples/design_space_exploration.py
"""

from repro.dse.calibration import (
    SyntheticCompiler,
    characterization_suite,
    fit_constants,
)
from repro.dse.explorer import explore
from repro.dse.performance import share_factor_from_workloads
from repro.hw.config import AcceleratorConfig
from repro.hw.device import ARRIA_10_GX1150, STRATIX_V_GXA7
from repro.workloads import synthetic_model_workload

SEED = 1


def run_flow(device, freq_mhz: float) -> None:
    workload = synthetic_model_workload("vgg16", seed=SEED)
    print(f"=== exploration on {device.name} @ {freq_mhz:g} MHz")

    # Stage 1: network analysis.
    n_share = share_factor_from_workloads(workload.layers)
    print(f"  stage 1: min Acc/Mult intensity ratio -> sharing factor N = {n_share}")

    # Stage 3 (shown early so the fit feeds the sweeps): characterization.
    compiler = SyntheticCompiler(device, noise=0.02, seed=SEED)
    base = AcceleratorConfig(n_cu=3, n_knl=14, n_share=n_share, s_ec=20)
    samples = compiler.characterize(characterization_suite(base))
    fitted = fit_constants(samples)
    print(
        f"  stage 3: fitted constants from {len(samples)} compiles: "
        f"C1={fitted.c1:.0f} ALM/lane, C4={fitted.c4:.1f} DSP/mult, "
        f"C6={fitted.c6:.0f} M20K/lane"
    )

    # Stages 2 + 4: the sweeps, inside the packaged flow.
    result = explore(workload, device, resources=fitted, freq_mhz=freq_mhz)
    print(f"  stage 2: optimal N_knl = {result.chosen_n_knl}")
    print(f"  stage 4: chosen {result.chosen.describe()}")
    print(
        f"           buffers D_f={result.buffers.d_f} D_w={result.buffers.d_w} "
        f"D_q={result.buffers.d_q}"
    )
    print(f"           predicted {result.performance.throughput_gops:.0f} GOP/s; "
          f"{'compute' if result.bandwidth.compute_bound else 'memory'}-bound "
          f"({result.bandwidth.required_bandwidth_gbs:.2f} GB/s needed)")
    print("           candidates:")
    for candidate in result.candidates[:5]:
        print(
            f"             S_ec={candidate.s_ec:>2} N_cu={candidate.n_cu} -> "
            f"{candidate.throughput_gops:6.1f} GOP/s "
            f"(logic {candidate.utilization.logic:.0%}, "
            f"dsp {candidate.utilization.dsp:.0%}, "
            f"mem {candidate.utilization.memory:.0%})"
        )
    print()


def main() -> None:
    run_flow(STRATIX_V_GXA7, freq_mhz=200.0)
    # Port to a bigger device: more DSPs and ALMs shift the whole frontier.
    run_flow(ARRIA_10_GX1150, freq_mhz=300.0)


if __name__ == "__main__":
    main()
