"""Benchmark: regenerate paper Figure 7 (S_ec x N_cu exploration)."""

from repro.analysis.compare import render_comparisons
from repro.experiments import fig7


def test_bench_fig7(benchmark, seed):
    result = benchmark(fig7.run, seed)
    print()
    print(result.render())
    print()
    print(render_comparisons(result.comparisons, title="Figure 7 — paper vs measured"))
    # The paper's implemented point (S_ec=20, N_cu=3) is feasible and
    # within 10% of the best candidate our models find.
    assert result.paper_point is not None and result.paper_point.feasible
    best = result.candidates[0]
    assert result.paper_point.throughput_gops >= 0.9 * best.throughput_gops

    # Refinement: re-rank candidates at their congestion-limited Fmax
    # (the paper's reason for carrying several close candidates forward).
    from repro.dse.frequency import refine_with_frequency

    refined = refine_with_frequency(list(result.candidates))
    print("\ncongestion-refined ranking (delivered GOP/s at achievable Fmax):")
    for entry in refined[:5]:
        print(
            f"  S_ec={entry.point.s_ec:>2} N_cu={entry.point.n_cu} -> "
            f"{entry.delivered_gops:6.1f} GOP/s @ {entry.fmax_mhz:5.1f} MHz"
        )
    assert (20, 3) in [(r.point.s_ec, r.point.n_cu) for r in refined[:5]]
