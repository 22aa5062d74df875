import xml.etree.ElementTree as ET

import pytest

from gridbench.errors import EmptySamples
from gridbench.report import EstimationPlotSpec, _fmt, gardner_altman_svg, text_summary
from gridbench.stats import compare
from record_fixture import minimal_record


def _spec(a, b, seed=3, metric="sens_max"):
    comparison = compare(metric, a, b, n_resamples=300, seed=1).to_dict()
    comparison["a_values"] = list(a)
    comparison["b_values"] = list(b)
    return EstimationPlotSpec(
        metric_name=metric,
        group_a_name="algorithm_a",
        group_b_name="algorithm_b",
        a_values=tuple(a),
        b_values=tuple(b),
        comparison=comparison,
        jitter_seed=seed,
    )


class TestGardnerAltmanSvg:
    def test_valid_xml_with_expected_structure(self):
        svg = gardner_altman_svg(_spec([0.1, 0.2, 0.3], [0.15, 0.22, 0.4]))
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_six_paired_values_give_twelve_swarm_points(self):
        svg = gardner_altman_svg(_spec([0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
                                       [0.2, 0.3, 0.4, 0.5, 0.6, 0.7]))
        assert svg.count('class="swarm-point"') == 12

    def test_byte_identical_rerender(self):
        spec = _spec([0.3, 0.1, 0.5, 0.2], [0.4, 0.2, 0.6, 0.1])
        assert gardner_altman_svg(spec) == gardner_altman_svg(spec)

    def test_identical_groups_degenerate_at_zero(self):
        a = [0.25, 0.25, 0.25]
        svg = gardner_altman_svg(_spec(a, list(a)))
        assert "mean diff = 0" in svg
        assert "CI [0, 0]" in svg

    def test_numeric_labels_match_comparison_fields(self):
        spec = _spec([0.11, 0.27, 0.32], [0.21, 0.16, 0.44])
        svg = gardner_altman_svg(spec)
        comp = spec.comparison
        assert f"mean diff = {_fmt(comp['point_estimate'])}" in svg
        ci = comp["bootstrap_ci"]
        assert f"CI [{_fmt(ci['low'])}, {_fmt(ci['high'])}]" in svg
        assert f"d = {_fmt(comp['cohens_d'])}" in svg
        assert f"p = {_fmt(comp['wilcoxon']['p_value'])}" in svg

    def test_ties_get_seeded_jitter_deterministically(self):
        spec_a = _spec([0.2, 0.2, 0.2, 0.4], [0.3, 0.3, 0.5, 0.5], seed=1)
        spec_b = _spec([0.2, 0.2, 0.2, 0.4], [0.3, 0.3, 0.5, 0.5], seed=2)
        assert gardner_altman_svg(spec_a) != gardner_altman_svg(spec_b)

    def test_empty_samples_rejected(self):
        with pytest.raises(EmptySamples):
            EstimationPlotSpec(metric_name="m", group_a_name="a",
                               group_b_name="b", a_values=(), b_values=(),
                               comparison={})
        with pytest.raises(EmptySamples):
            EstimationPlotSpec(metric_name="m", group_a_name="a",
                               group_b_name="b", a_values=(1.0,),
                               b_values=(1.0, 2.0), comparison={})


class TestTextSummary:
    def test_tabulates_metrics_and_statistics(self):
        record = minimal_record()
        text = text_summary(record)
        assert record["study_id"] in text
        assert "ds_one" in text and "ds_two" in text
        assert "sens_max" in text
        assert "(large)" in text  # fixture d = -2.5
        assert "CI[-0.015, -0.008]" in text
        assert "min_p=0.5" in text  # exact test at n_eff 2: 2^(1-2)

    def test_effect_buckets_rendered_from_comparison(self):
        record = minimal_record()
        record["comparison"][0]["cohens_d"] = 0.31
        record["comparison"][0]["effect_label"] = "small"
        text = text_summary(record)
        assert "d=0.31 (small)" in text
        record["comparison"][0]["cohens_d"] = 0.9
        record["comparison"][0]["effect_label"] = "large"
        assert "d=0.9 (large)" in text_summary(record)

    def test_empty_comparison_renders_metrics_only(self):
        record = minimal_record()
        record["comparison"] = []
        text = text_summary(record)
        assert "statistics" not in text
        assert "metrics" in text

    def test_incomputable_reasons_rendered(self):
        record = minimal_record()
        comp = record["comparison"][0]
        comp["wilcoxon"] = {"statistic": None, "p_value": None,
                            "n_effective": None, "method": None}
        comp["wilcoxon_incomputable"] = "every pair is tied"
        comp["cohens_d"] = None
        comp["cohens_d_incomputable"] = "zero deviation"
        comp["effect_label"] = None
        text = text_summary(record)
        assert "wilcoxon incomputable (every pair is tied)" in text
        assert "d incomputable (zero deviation)" in text
