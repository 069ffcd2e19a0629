"""Integration tests: every paper artifact regenerates with the right shape.

These are the reproduction's acceptance tests. Absolute hardware numbers
cannot be expected to match a simulator, so each assertion encodes the
band argued in DESIGN.md: exact for pure op-count artifacts, ~15-25% for
simulated throughput, and ordering/feasibility for the exploration flow.
"""

import pytest

from repro.analysis.compare import render_comparisons, worst_error
from repro.experiments import fig1, fig6, fig7, table1, table2, table3, utilization


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
    def test_per_layer_counts_within_5pct(self, t1):
        per_layer = [c for c in t1.comparisons if "." in c.metric and not c.metric.startswith(("total", "saved"))]
        assert worst_error(per_layer) < 0.08

    def test_totals_match_paper(self, t1):
        totals = {c.metric: c for c in t1.comparisons}
        assert totals["total.sdconv_mop"].relative_error < 0.001  # exact dims
        assert totals["total.abm_mop"].relative_error < 0.01
        assert totals["total.spconv_mop"].relative_error < 0.01

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
    def test_throughput_within_20pct_of_paper(self, t2):
        for cnn in ("alexnet", "vgg16"):
            row = next(c for c in t2.comparisons if c.metric == f"{cnn}.throughput_gops")
            assert row.relative_error < 0.20, (cnn, row.measured)

    def test_resource_columns_close(self, t2):
        for metric in ("vgg16.dsps", "vgg16.alms", "vgg16.m20k"):
            row = next(c for c in t2.comparisons if c.metric == metric)
            assert row.relative_error < 0.06, metric

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
    def test_encoded_sizes_within_25pct(self, t3):
        for model in ("alexnet", "vgg16"):
            row = next(
                c for c in t3.comparisons if c.metric == f"{model}.encoded_mb"
            )
            assert row.relative_error < 0.25, (model, row.measured)

    def test_original_sizes_exact(self, t3):
        for model in ("alexnet", "vgg16"):
            row = next(
                c for c in t3.comparisons if c.metric == f"{model}.original_mb"
            )
            assert row.relative_error < 0.01

    def test_vgg_buffer_depths_match(self, t3):
        assert t3.rows["vgg16"].buffers.d_w == 2048
        assert t3.rows["vgg16"].buffers.d_q == 128

    def test_compression_factor(self, t3):
        """Encoding compresses ~4-6x (paper: 61->11.9, 138->26.4)."""
        for model in ("alexnet", "vgg16"):
            assert 3.5 < t3.rows[model].compression < 7.0

    def test_render(self, t3):
        assert "vgg16" in t3.render()


class TestFig1:
    def test_roofs_match(self):
        result = fig1.run(seed=1)
        assert worst_error(result.comparisons) < 0.02

    def test_simulated_point_between_fdconv_and_roof(self):
        result = fig1.run(seed=1)
        ours = next(p for p in result.points if "ABM" in p.label)
        zeng = next(p for p in result.points if "Zeng" in p.label)
        assert zeng.gops < ours.gops < 1052


class TestFig6:
    def test_optimum_in_plateau(self):
        result = fig6.run(seed=1)
        assert 11 <= result.chosen_n_knl <= 15
        assert 14 in result.plateau  # the paper's choice is a near-tie

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

    def test_scheduling_ablation_ordering(self):
        ablation = utilization.scheduling_ablation(seed=1)
        for model in ("vgg16", "alexnet"):
            assert ablation["balanced"][model] >= ablation["natural"][model] - 0.01

    def test_render(self):
        text = utilization.run(seed=1).render()
        assert "lockstep" in text


class TestReporting:
    def test_render_comparisons(self, t1):
        text = render_comparisons(t1.comparisons[:3], title="t")
        assert "paper" in text and "measured" in text
