import hashlib
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from gridbench.errors import EmptySamples
from gridbench.report import (
    _fmt,
    comparison_text,
    gardner_altman_svg,
    text_summary,
    write_reports,
)
from gridbench.stats import compare
from record_fixture import minimal_record

EXAMPLE_RECORD = Path(__file__).parent / "fixtures" / "example_record.json"


def _comparison(a, b, metric="sens_max"):
    """A comparison document as the record stores it."""
    comparison = compare(metric, a, b, n_resamples=300, seed=1).to_dict()
    comparison["a_values"] = list(a)
    comparison["b_values"] = list(b)
    return comparison


class TestGardnerAltmanSvg:
    def test_valid_xml_with_expected_structure(self):
        svg = gardner_altman_svg(_comparison([0.1, 0.2, 0.3], [0.15, 0.22, 0.4]), 3)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_six_paired_values_give_twelve_swarm_points(self):
        svg = gardner_altman_svg(_comparison([0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
                                             [0.2, 0.3, 0.4, 0.5, 0.6, 0.7]), 3)
        assert svg.count('class="swarm-point"') == 12

    def test_byte_identical_rerender(self):
        comp = _comparison([0.3, 0.1, 0.5, 0.2], [0.4, 0.2, 0.6, 0.1])
        assert gardner_altman_svg(comp, 3) == gardner_altman_svg(comp, 3)

    def test_identical_groups_degenerate_at_zero(self):
        a = [0.25, 0.25, 0.25]
        svg = gardner_altman_svg(_comparison(a, list(a)), 3)
        assert "mean diff = 0" in svg
        assert "CI [0, 0]" in svg

    def test_numeric_labels_match_comparison_fields(self):
        comp = _comparison([0.11, 0.27, 0.32], [0.21, 0.16, 0.44])
        svg = gardner_altman_svg(comp, 3)
        assert f"mean diff = {_fmt(comp['point_estimate'])}" in svg
        ci = comp["bootstrap_ci"]
        assert f"CI [{_fmt(ci['low'])}, {_fmt(ci['high'])}]" in svg
        assert f"d = {_fmt(comp['cohens_d'])}" in svg
        assert f"p = {_fmt(comp['wilcoxon']['p_value'])}" in svg

    def test_ties_get_seeded_jitter_deterministically(self):
        comp = _comparison([0.2, 0.2, 0.2, 0.4], [0.3, 0.3, 0.5, 0.5])
        assert gardner_altman_svg(comp, 1) != gardner_altman_svg(comp, 2)

    def test_empty_samples_rejected(self):
        with pytest.raises(EmptySamples):
            gardner_altman_svg({"metric_name": "m", "a_values": [],
                                "b_values": []}, 0)
        with pytest.raises(EmptySamples):
            gardner_altman_svg({"metric_name": "m", "a_values": [1.0],
                                "b_values": [1.0, 2.0]}, 0)


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


class TestComparisonText:
    def test_values_then_the_summary_line(self):
        record = minimal_record()
        comp = record["comparison"][0]
        lines = comparison_text(comp).splitlines()
        assert lines[0] == f"metric: {comp['metric_name']}"
        assert lines[1] == "  algorithm_a: " + ", ".join(map(_fmt, comp["a_values"]))
        assert lines[2] == "  algorithm_b: " + ", ".join(map(_fmt, comp["b_values"]))
        assert lines[3] in text_summary(record).splitlines()
        assert len(lines) == 4


class TestWriteReports:
    def test_example_record_report_bytes_are_pinned(self, tmp_path):
        record = json.loads(EXAMPLE_RECORD.read_text(encoding="utf-8"))
        written = write_reports(record, tmp_path)
        assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in written} == {
            "summary.txt":
                "dda0f757ac520ac2e967b08a1227863630151c5ddc399f8aee24e7584e25f55b",
            "gardner_altman_sens_max.svg":
                "d8bf3ac6a87c50ee417dcf730d13e4634cdff2598d4cc32f9db3e5f3cdf8d47d",
        }
        assert written == [tmp_path / "summary.txt",
                           tmp_path / "gardner_altman_sens_max.svg"]
