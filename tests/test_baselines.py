"""Tests for the published accelerator baselines of paper Table 2.

The SDConv / SpConv / FDConv op counts are pinned in ``test_opcount.py``
and ``test_experiments.py`` (Table 1).
"""

import pytest

from repro.baselines.published import get_baseline
from repro.workloads.paper_targets import TABLE2_COLUMNS


class TestPublished:
    def test_all_columns_present(self):
        assert len(TABLE2_COLUMNS) == 8
        for column in TABLE2_COLUMNS:
            assert get_baseline(column.key).column is column

    def test_perf_density_matches_paper(self):
        """Table 2's density row: [3] VGG16 2.58, proposed 4.29."""
        assert get_baseline("zeng-vgg16").perf_density == pytest.approx(2.58, rel=0.01)
        assert get_baseline("proposed-vgg16").perf_density == pytest.approx(4.29, rel=0.01)

    def test_published_speedup(self):
        """The paper's headline: 1.55x over [3] on VGG16."""
        proposed = get_baseline("proposed-vgg16")
        zeng = get_baseline("zeng-vgg16")
        speedup = proposed.throughput_gops / zeng.throughput_gops
        assert speedup == pytest.approx(1.55, rel=0.01)

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            get_baseline("nope")
