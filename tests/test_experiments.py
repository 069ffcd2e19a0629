"""Integration tests: every paper artifact regenerates with the right shape.

These are the reproduction's acceptance tests. :data:`BOUNDS` holds the
one bound of every paper-vs-measured row that ``abm-spconv experiments``
prints at seed 1, and :func:`test_row_within_its_bound` asserts them all.
The classes below keep the shape claims the rows cannot state: orderings,
feasibility, rendering and the arithmetic behind the largest misses.
"""

import pytest

from repro.analysis.compare import render_comparisons
from repro.dse.frequency import refine_with_frequency
from repro.dse.resources import next_power_of_two
from repro.experiments import (
    EXPERIMENTS,
    fig1,
    fig6,
    fig7,
    run,
    table1,
    table2,
    table3,
    utilization,
)
from repro.hw.config import PAPER_CONFIG_VGG16
from repro.hw.tiling import plan_windows
from repro.workloads import synthetic_model_workload
from repro.workloads.paper_targets import CU_EFFICIENCY, TABLE1_TOTALS

_VGG16_TABLE2 = (
    "Table 2's VGG16 GOP/s is 97.8% of the paper config's own roof, not the "
    "stated 87%; the simulator reaches 84.5% of that roof "
    "(test_table2_gap_is_the_papers_own_arithmetic)"
)
_ENCODED_MB = (
    "unexplained so far; ROADMAP direction 6 splits the MB into index bits, "
    "Q-Table and padding to find the term that differs"
)

#: ``{(experiment, metric): (bound, reason)}`` for every Comparison row at
#: seed 1. Rounding rule: each bound is the row's measured relative error
#: rounded up to two significant figures (an exact row gets 0). A reason
#: states why a row misses the paper by more than 10%.
BOUNDS = {
    ("table1", "conv1_1.sdconv_mop"): (0.0024, ""),
    ("table1", "conv1_1.spconv_mop"): (0.0066, ""),
    ("table1", "conv1_1.abm_acc_mop"): (0.013, ""),
    ("table1", "conv1_1.abm_mult_mop"): (0.045, ""),
    ("table1", "conv1_1.acc_to_mult"): (0.042, ""),
    ("table1", "conv1_2.sdconv_mop"): (0.00011, ""),
    ("table1", "conv1_2.spconv_mop"): (0.0057, ""),
    ("table1", "conv1_2.abm_acc_mop"): (0.0057, ""),
    ("table1", "conv1_2.abm_mult_mop"): (0.015, ""),
    ("table1", "conv1_2.acc_to_mult"): (0.015, ""),
    ("table1", "conv4_1.sdconv_mop"): (0.00038, ""),
    ("table1", "conv4_1.spconv_mop"): (0.00085, ""),
    ("table1", "conv4_1.abm_acc_mop"): (0.00085, ""),
    ("table1", "conv4_1.abm_mult_mop"): (0.00026, ""),
    ("table1", "conv4_1.acc_to_mult"): (0.0028, ""),
    ("table1", "conv4_2.sdconv_mop"): (0.00011, ""),
    ("table1", "conv4_2.spconv_mop"): (0.0039, ""),
    ("table1", "conv4_2.abm_acc_mop"): (0.0039, ""),
    ("table1", "conv4_2.abm_mult_mop"): (0.0099, ""),
    ("table1", "conv4_2.acc_to_mult"): (0.0049, ""),
    ("table1", "fc6.sdconv_mop"): (0.0026, ""),
    ("table1", "fc6.spconv_mop"): (0.0012, ""),
    ("table1", "fc6.abm_acc_mop"): (6.4e-05, ""),
    ("table1", "fc6.abm_mult_mop"): (0.0037, ""),
    ("table1", "fc6.acc_to_mult"): (0.0045, ""),
    ("table1", "fc7.sdconv_mop"): (0.0014, ""),
    ("table1", "fc7.spconv_mop"): (0.0032, ""),
    ("table1", "fc7.abm_acc_mop"): (0.0032, ""),
    ("table1", "fc7.abm_mult_mop"): (0.025, ""),
    ("table1", "fc7.acc_to_mult"): (0.029, ""),
    ("table1", "total.sdconv_mop"): (1.6e-05, ""),
    ("table1", "total.fdconv_mop"): (0.0019, ""),
    ("table1", "total.spconv_mop"): (0.00041, ""),
    ("table1", "total.abm_mop"): (0.00022, ""),
    ("table1", "saved.vs_sdconv"): (0.012, ""),
    ("table1", "saved.fdconv_vs_sdconv"): (0.00087, ""),
    ("table1", "saved.spconv_vs_sdconv"): (0.00042, ""),
    ("table2", "alexnet.throughput_gops"): (0.048, ""),
    ("table2", "alexnet.perf_density"): (0.063, ""),
    ("table2", "alexnet.dsps"): (0.013, ""),
    ("table2", "alexnet.alms"): (0.03, ""),
    ("table2", "alexnet.m20k"): (0.013, ""),
    ("table2", "vgg16.throughput_gops"): (0.14, _VGG16_TABLE2),
    ("table2", "vgg16.perf_density"): (0.14, _VGG16_TABLE2),
    ("table2", "vgg16.dsps"): (0.0, ""),
    ("table2", "vgg16.alms"): (0.031, ""),
    ("table2", "vgg16.m20k"): (0.0021, ""),
    ("table2", "vgg16.speedup_vs_fdconv"): (0.14, _VGG16_TABLE2),
    ("table2", "alexnet.speedup_vs_fdconv"): (0.047, ""),
    ("table2", "vgg16.norm_speedup_vs_sdconv"): (
        0.15,
        _VGG16_TABLE2 + "; and the paper rounds 1029/204 over 134.1/100 = 3.76 "
        "up to 3.8",
    ),
    ("table2", "density_advantage_vs_zhang-vgg16"): (0.14, _VGG16_TABLE2),
    ("table2", "density_advantage_vs_ma-vgg16"): (0.14, _VGG16_TABLE2),
    ("table2", "density_advantage_vs_aydonat-alexnet"): (0.061, ""),
    ("table3", "alexnet.original_mb"): (0.00075, ""),
    ("table3", "alexnet.encoded_mb"): (0.17, _ENCODED_MB),
    ("table3", "alexnet.d_w"): (
        1.0,
        "fc8 is the only synthetic AlexNet layer whose deepest kernel stream "
        "exceeds 1,024 nonzeros (1,098; next are fc6 at 939 and conv3 at 863), "
        "so D_w = next_pow2(1,098) = 2,048 (test_alexnet_buffer_depth_causes)",
    ),
    ("table3", "alexnet.d_q"): (
        0.5,
        "conv1's deepest kernel holds 30 distinct values, the most of any "
        "layer, so D_q = next_pow2(2 x 30) = 64 (test_alexnet_buffer_depth_causes)",
    ),
    ("table3", "vgg16.original_mb"): (0.0025, ""),
    ("table3", "vgg16.encoded_mb"): (0.19, _ENCODED_MB),
    ("table3", "vgg16.d_w"): (0.0, ""),
    ("table3", "vgg16.d_q"): (0.0, ""),
    ("fig1", "sdconv_roof_gops"): (0.0, ""),
    ("fig1", "fdconv_roof_gops"): (0.0013, ""),
    ("fig1", "abm_roof_gops"): (0.0027, ""),
    ("fig6", "optimal_n_knl"): (0.072, ""),
    ("fig6", "n_share"): (0.0, ""),
    ("fig7", "paper_point_vs_best_gops"): (0.047, ""),
    ("fig7", "paper_point_feasible"): (0.0, ""),
    ("fig7", "paper_point_rank_in_top8"): (0.0, ""),
    ("utilization", "vgg16.execution_efficiency"): (0.029, ""),
    ("utilization", "vgg16.paper_implied_efficiency"): (
        0.13,
        "Table 2's 1,029 GOP/s over the 1,052 GOP/s roof implies 97.8%, not the "
        "stated 87%: the paper's own numbers disagree "
        "(test_table2_gap_is_the_papers_own_arithmetic)",
    ),
    ("utilization", "vgg16.beats_lockstep_baseline"): (0.0, ""),
    ("utilization", "alexnet.execution_efficiency"): (
        0.11,
        "Table 2's AlexNet GOP/s already implies 85.7%, not the stated 81% "
        "(alexnet.paper_implied_efficiency), and the simulator reads 4.7% above "
        "that GOP/s (table2 alexnet.throughput_gops)",
    ),
    ("utilization", "alexnet.paper_implied_efficiency"): (0.058, ""),
    ("utilization", "alexnet.beats_lockstep_baseline"): (0.0, ""),
}


@pytest.fixture(scope="module")
def rows():
    """Every registered experiment's Comparison rows at seed 1, by key."""
    found = {}
    for name, _ in EXPERIMENTS:
        for row in getattr(run(name, seed=1), "comparisons", ()):
            key = (row.experiment, row.metric)
            assert key not in found, f"duplicate row {key}"
            found[key] = row
    return found


@pytest.mark.parametrize("key", sorted(BOUNDS), ids="/".join)
def test_row_within_its_bound(rows, key):
    bound, reason = BOUNDS[key]
    assert key in rows, f"bound {key} has no row"
    row = rows[key]
    assert row.relative_error <= bound, (key, row.measured, f"{row.relative_error:.4%}")
    if bound > 0.10:
        assert reason, f"{key} misses by more than 10% and states no reason"


def test_every_row_has_a_bound(rows):
    assert sorted(set(rows) - set(BOUNDS)) == []


@pytest.fixture(scope="module")
def t1():
    return table1.run(seed=1)


@pytest.fixture(scope="module")
def t2():
    return table2.run(seed=1)


@pytest.fixture(scope="module")
def t3():
    return table3.run(seed=1)


class TestTable1:
    def test_savings_headline(self, t1):
        """ABM saves ~83.6% vs SDConv, and beats FDConv and SpConv."""
        assert t1.counts.saved_vs_sdconv == pytest.approx(0.836, abs=0.02)
        assert 0.35 < t1.counts.saved_vs_fdconv < 0.55  # paper: 47.1%
        assert 0.40 < t1.counts.saved_vs_spconv < 0.55  # paper: 50%

    def test_ordering(self, t1):
        counts = t1.counts
        assert counts.abm_ops < counts.fdconv_ops < counts.sdconv_ops
        assert counts.abm_ops < counts.spconv_ops

    def test_fc_layers_keep_fdconv_dense(self, t1):
        fc6 = t1.layer("fc6")
        assert fc6.fdconv_ops == fc6.sdconv_ops

    def test_render(self, t1):
        text = t1.render()
        assert "conv4_2" in text and "Entire CNN" in text

    def test_measured_encoding_path_agrees(self):
        """Statistics-based and actually-encoded counts agree per layer."""
        encoded_counts = table1.run_measured_from_encoding(seed=1)
        stats_counts = table1.run(seed=1).counts
        stats_by_name = {l.name: l for l in stats_counts.layers}
        for layer in encoded_counts.layers:
            stats = stats_by_name[layer.name]
            assert layer.abm_accumulates == pytest.approx(
                stats.abm_accumulates, rel=0.05
            ), layer.name
            assert layer.abm_multiplies == pytest.approx(
                stats.abm_multiplies, rel=0.15
            ), layer.name


class TestTable2:
    def test_vgg_wins_big_over_fdconv(self, t2):
        """The headline claim: a sizeable VGG16 speedup over [3]."""
        row = next(c for c in t2.comparisons if c.metric == "vgg16.speedup_vs_fdconv")
        assert row.measured > 1.25  # paper: 1.55

    def test_alexnet_wins_modestly(self, t2):
        row = next(c for c in t2.comparisons if c.metric == "alexnet.speedup_vs_fdconv")
        assert 0.95 < row.measured < 1.30  # paper: 1.054

    def test_density_advantage_over_arria_designs(self, t2):
        """>2x GOP/s/DSP advantage over [4]/[12]/[10] (paper: >3x)."""
        for key in ("zhang-vgg16", "ma-vgg16", "aydonat-alexnet"):
            row = next(
                c for c in t2.comparisons if c.metric == f"density_advantage_vs_{key}"
            )
            assert row.measured > 2.0, key

    def test_dsp_usage_below_full(self, t2):
        """The design must NOT be DSP-bound (the paper's whole point)."""
        for column in t2.proposed.values():
            assert column.resources.dsps < 256

    def test_render(self, t2):
        text = t2.render()
        assert "ABM-SpConv (measured)" in text


class TestTable3:
    def test_vgg_buffer_depths_match(self, t3):
        assert t3.rows["vgg16"].buffers.d_w == 2048
        assert t3.rows["vgg16"].buffers.d_q == 128

    def test_alexnet_buffer_depth_causes(self, t3):
        """AlexNet's D_w / D_q (2048 / 64 against the paper's 1024 / 128)
        follow from two layers: fc8 alone has a kernel stream deeper than
        1,024 nonzeros, and conv1 has the most distinct values."""
        layers = synthetic_model_workload("alexnet", seed=1).layers
        deepest = {layer.spec.name: int(layer.nonzeros.max()) for layer in layers}
        assert {name: n for name, n in deepest.items() if n > 1024} == {"fc8": 1098}
        del deepest["fc8"]
        assert max(deepest.values()) == deepest["fc6"] == 939
        assert max(n for name, n in deepest.items() if name.startswith("conv")) == 863
        assert t3.rows["alexnet"].buffers.d_w == next_power_of_two(1098) == 2048

        distinct = {layer.spec.name: int(layer.distinct.max()) for layer in layers}
        assert max(distinct.values()) == distinct["conv1"] == 30
        assert sorted(distinct.values())[-2] < 30
        assert t3.rows["alexnet"].buffers.d_q == next_power_of_two(2 * 30) == 64

    def test_compression_factor(self, t3):
        """Encoding compresses ~4-6x (paper: 61->11.9, 138->26.4)."""
        for model in ("alexnet", "vgg16"):
            row = t3.rows[model]
            assert 3.5 < row.original_mb / row.encoded_mb < 7.0

    def test_render(self, t3):
        assert "vgg16" in t3.render()


class TestFig1:
    def test_roofs_ordered(self):
        """SDConv < FDConv < ABM-SpConv roof."""
        roofs = [roof.gops for roof in fig1.run(seed=1).roofline.roofs()]
        assert roofs == sorted(roofs)

    def test_simulated_point_between_fdconv_and_roof(self):
        result = fig1.run(seed=1)
        ours = next(p for p in result.points if "ABM" in p.label)
        zeng = next(p for p in result.points if "Zeng" in p.label)
        assert zeng.gops < ours.gops < 1052


class TestFig6:
    def test_optimum_in_plateau(self):
        result = fig6.run(seed=1)
        assert 11 <= result.chosen_n_knl <= 15
        # The paper's choice is a near-tie: within 5% of the best boost.
        feasible = {p.n_knl: p.normalized_boost for p in result.points if p.feasible}
        assert feasible[14] >= 0.95 * max(feasible.values())

    def test_share_factor(self):
        result = fig6.run(seed=1)
        row = next(c for c in result.comparisons if c.metric == "n_share")
        assert row.measured == 4

    def test_render(self):
        assert "N_knl" in fig6.run(seed=1).render()


class TestFig7:
    def test_paper_point_feasible_and_near_best(self):
        result = fig7.run(seed=1)
        assert result.paper_point is not None
        assert result.paper_point.feasible
        gap = next(
            c for c in result.comparisons if c.metric == "paper_point_vs_best_gops"
        )
        assert gap.measured >= 0.9 * gap.paper

    def test_paper_point_in_top_candidates(self):
        result = fig7.run(seed=1)
        ranked = [(p.s_ec, p.n_cu) for p in result.candidates]
        assert (20, 3) in ranked

    def test_paper_point_survives_frequency_refinement(self):
        """Re-ranked at each candidate's congestion-limited Fmax, the
        paper's (20, 3) stays in the top 5, which render() prints."""
        result = fig7.run(seed=1)
        refined = refine_with_frequency(list(result.candidates))
        assert (20, 3) in [(r.point.s_ec, r.point.n_cu) for r in refined[:5]]
        assert "congestion-limited Fmax" in result.render()

    def test_grid_point_lookup(self):
        result = fig7.run(seed=1)
        point = result.point(20, 3)
        assert point.utilization.dsp < 1.0

    def test_render(self):
        assert "S_ec" in fig7.run(seed=1).render()


class TestUtilization:
    def test_efficiency_band(self):
        result = utilization.run(seed=1)
        for model, row in result.rows.items():
            assert 0.75 < row.execution_efficiency < 0.98, model

    def test_beats_lockstep_baseline(self):
        """Both models must clearly beat [2]'s 64.5% efficiency."""
        result = utilization.run(seed=1)
        for row in result.rows.values():
            assert row.execution_efficiency > 0.645 + 0.1

    def test_table2_gap_is_the_papers_own_arithmetic(self):
        """The roof ``2 * R_mac * N_acc * Freq`` from Table 1's op counts,
        and the efficiency Table 2's GOP/s implies over it: ~98% (VGG16)
        and ~86% (AlexNet), above the stated 87% / 81%."""
        result = utilization.run(seed=1)
        vgg16, alexnet = result.rows["vgg16"], result.rows["alexnet"]
        config = vgg16.simulation.config
        r_mac = (TABLE1_TOTALS["sdconv"] / 2) / TABLE1_TOTALS["abm"]
        roof = 2 * r_mac * config.total_accumulators * config.freq_mhz / 1e3
        assert (config.total_accumulators, config.freq_mhz) == (840, 204)
        assert roof == pytest.approx(1052.0, abs=0.5)
        assert vgg16.roof_gops == pytest.approx(roof, rel=0.005)
        assert alexnet.roof_gops == pytest.approx(816.0, abs=1.0)

        implied = {
            c.metric.split(".")[0]: c
            for c in result.comparisons
            if c.metric.endswith(".paper_implied_efficiency")
        }
        assert implied["vgg16"].measured == pytest.approx(1029.0 / roof, rel=0.005)
        assert implied["vgg16"].measured == pytest.approx(0.978, abs=0.005)
        assert implied["alexnet"].measured == pytest.approx(0.857, abs=0.005)
        for model, row in implied.items():
            assert row.paper == CU_EFFICIENCY[model]
            assert row.measured > row.paper + 0.04, model
        # The simulator's 13.6% shortfall against Table 2's VGG16 GOP/s is
        # the gap between its efficiency and the one Table 2 implies.
        gap = 1 - vgg16.execution_efficiency / vgg16.paper_implied_efficiency
        assert gap == pytest.approx(0.136, abs=0.01)

    def test_conv5_lane_fill_ceiling(self):
        """With every window filling its S_ec lanes (``pixels / (steps *
        S_ec)`` = 1), conv5_1-conv5_3 could reclaim at most 4% of VGG16's
        simulated cycles at the paper config: lane packing cannot close
        the Table 2 gap."""
        simulation = utilization.run(seed=1).rows["vgg16"].simulation
        config = simulation.config
        assert config == PAPER_CONFIG_VGG16
        cycles = {layer.layer: layer.cycles_per_image for layer in simulation.layers}
        s_ec = config.s_ec
        reclaimable = {}
        for layer in synthetic_model_workload("vgg16", seed=1).layers:
            name = layer.spec.name
            if name.startswith("conv5_"):
                runs = plan_windows(layer.spec, config).window_runs
                pixels = sum(size * count for size, count in runs)
                lanes = sum(-(-size // s_ec) * s_ec * count for size, count in runs)
                reclaimable[name] = cycles[name] * (1 - pixels / lanes)
        assert sorted(reclaimable) == ["conv5_1", "conv5_2", "conv5_3"]
        share = sum(reclaimable.values()) / simulation.cycles_per_image
        assert 0 < share <= 0.04

    def test_scheduling_ablation_ordering(self):
        """Balanced kernel grouping is no worse than raw encode order."""
        result = utilization.run(seed=1)
        for model in ("vgg16", "alexnet"):
            balanced = result.rows[model].execution_efficiency
            assert balanced >= result.natural_efficiency[model] - 0.01

    def test_render(self):
        text = utilization.run(seed=1).render()
        assert "lockstep" in text


class TestReporting:
    def test_render_comparisons(self, t1):
        text = render_comparisons(t1.comparisons[:3], title="t")
        assert "paper" in text and "measured" in text
