"""Statistical analysis layer, golden-report regression, HTML rendering.

The golden fixtures under ``tests/data`` pin three contracts:

* ``golden_report_a.md`` / ``golden_compare.md`` were generated with
  the PR 8 report code — today's ``RunReport.markdown()`` and
  ``compare_runs`` must reproduce them byte-for-byte on runs without
  repeats, proving the stats features cost nothing when unused.
* ``golden_analysis.md`` / ``golden_analysis.html`` pin the analysis
  markdown and the SVG-plotted HTML report for a committed repeat run,
  so neither the stats pipeline nor the renderer can drift silently.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import (
    RunAnalysis,
    RunReport,
    SweepSpec,
    analyze_run,
    compare_runs,
    group_samples,
    preset_sweep,
    run_sweep,
)
from repro.experiments.plotting import PlotError, get_plotter, strip_plot_svg
from repro.experiments.rendering import render_html_report, write_html_report
from repro.experiments.stats import StatsError
from repro.experiments.store import StoredResult

from cli_helpers import run_cli

DATA = Path(__file__).parent / "data"


def _record(spec_hash, experiment="alpha", params=None, repeat=0, seed=0,
            status="ok", series=None, **kwargs):
    return StoredResult(
        spec_hash=spec_hash,
        experiment=experiment,
        params=params or {},
        repeat=repeat,
        seed=seed,
        status=status,
        series=series or {},
        **kwargs,
    )


# ----------------------------- grouping --------------------------------
class TestGrouping:
    def test_group_key_ignores_seed(self):
        a = _record("h1", params={"x": 1, "seed": 10})
        b = _record("h2", params={"x": 1, "seed": 20})
        c = _record("h3", params={"x": 2, "seed": 10})
        assert a.group_key == b.group_key
        assert a.group_key != c.group_key

    def test_group_label_strips_seed(self):
        record = _record("h1", params={"seed": 7, "x": 1})
        assert record.group_label == "alpha[x=1]"
        assert _record("h2").group_label == "alpha"

    def test_group_samples_collects_per_metric(self):
        records = [
            _record("h1", params={"seed": 1}, seed=1,
                    series={"lat": {"all": 10.0}}),
            _record("h2", params={"seed": 2}, seed=2,
                    series={"lat": {"all": 12.0}}),
        ]
        groups = group_samples(records)
        assert len(groups) == 1
        (group,) = groups.values()
        assert group.n == 2
        assert group.metrics["lat"] == [10.0, 12.0]

    def test_group_samples_orders_by_repeat_then_seed(self):
        records = [
            _record("h2", repeat=1, seed=5, params={"seed": 5},
                    series={"m": {"all": 2.0}}),
            _record("h1", repeat=0, seed=9, params={"seed": 9},
                    series={"m": {"all": 1.0}}),
        ]
        (group,) = group_samples(records).values()
        assert group.metrics["m"] == [1.0, 2.0]

    def test_failed_records_are_excluded(self):
        records = [
            _record("h1", series={"m": {"all": 1.0}}),
            _record("h2", status="error"),
        ]
        (group,) = group_samples(records).values()
        assert group.n == 1


# --------------------------- RunAnalysis -------------------------------
class TestRunAnalysis:
    def test_declines_without_repeats(self):
        analysis = RunAnalysis(str(DATA / "golden_run_a"))
        assert analysis.testable_groups == []
        assert analysis.comparisons == []
        text = analysis.markdown()
        assert "declines to test" in text
        assert "--repeats" in text

    def test_golden_repeat_run_finds_significant_metric(self):
        analysis = RunAnalysis(str(DATA / "golden_repeat_run"))
        assert len(analysis.testable_groups) == 2
        significant = {c.metric for c in analysis.significant}
        assert significant == {"lat_ns"}
        (lat,) = [c for c in analysis.comparisons if c.metric == "lat_ns"]
        assert lat.p_adjusted <= 0.05
        assert lat.a12 == 0.0  # x=1 latencies all below x=2's
        assert "alpha[x=2] > alpha[x=1]" == lat.verdict

    def test_holm_correction_spans_all_metrics(self):
        analysis = RunAnalysis(str(DATA / "golden_repeat_run"))
        # Two tests in the family: the smaller raw p doubles.
        lat = next(c for c in analysis.comparisons if c.metric == "lat_ns")
        assert lat.p_adjusted == pytest.approx(min(1.0, 2 * lat.p_value))

    def test_constant_metrics_are_excluded(self):
        analysis = RunAnalysis(str(DATA / "golden_repeat_run"))
        assert analysis.constant_metrics == ["ops"]
        assert all(c.metric != "ops" for c in analysis.comparisons)

    def test_metric_filter(self):
        analysis = RunAnalysis(
            str(DATA / "golden_repeat_run"), metrics=["bw_gbps"]
        )
        assert {c.metric for c in analysis.comparisons} == {"bw_gbps"}

    def test_markdown_golden_is_byte_stable(self):
        analysis = RunAnalysis(str(DATA / "golden_repeat_run"))
        expected = (DATA / "golden_analysis.md").read_text()
        assert analysis.markdown() + "\n" == expected

    def test_invalid_alpha_raises(self):
        with pytest.raises(StatsError, match="alpha"):
            RunAnalysis(str(DATA / "golden_repeat_run"), alpha=1.5)

    def test_min_repeats_below_two_raises(self):
        with pytest.raises(StatsError, match="min_repeats"):
            RunAnalysis(str(DATA / "golden_repeat_run"), min_repeats=1)

    def test_declined_groups_are_listed(self):
        analysis = RunAnalysis(
            str(DATA / "golden_repeat_run"), min_repeats=10
        )
        assert len(analysis.declined) == 2
        assert "Declined" in analysis.markdown() or (
            "declines to test" in analysis.markdown()
        )

    def test_analyze_run_helper(self):
        analysis = analyze_run(str(DATA / "golden_repeat_run"), alpha=0.01)
        assert analysis.alpha == 0.01


# ------------------------ golden regressions ---------------------------
class TestGoldenRegression:
    def test_report_markdown_unchanged_since_pr8(self):
        report = RunReport(str(DATA / "golden_run_a"))
        expected = (DATA / "golden_report_a.md").read_text()
        assert report.markdown() + "\n" == expected

    def test_compare_runs_without_repeats_unchanged_since_pr8(self):
        got = compare_runs(
            str(DATA / "golden_run_a"), str(DATA / "golden_run_b")
        )
        expected = (DATA / "golden_compare.md").read_text()
        assert got + "\n" == expected

    def test_html_report_is_hash_stable(self):
        analysis = RunAnalysis(str(DATA / "golden_repeat_run"))
        html = render_html_report(analysis)
        expected = (DATA / "golden_analysis.html").read_text()
        assert hashlib.sha256(html.encode()).hexdigest() == (
            hashlib.sha256(expected.encode()).hexdigest()
        )

    def test_compare_runs_with_repeats_appends_significance(self):
        got = compare_runs(
            str(DATA / "golden_repeat_run"), str(DATA / "golden_repeat_run")
        )
        # Same run on both sides: a significance table appears (both
        # sides have repeats) but every verdict is "ns".
        assert "## Significance:" in got
        assert "ns" in got
        assert ">" not in got.split("## Significance:")[1].replace(
            "|", " "
        ).split("\n")[3]


# --------------------------- rendering ---------------------------------
class TestRendering:
    def test_html_is_deterministic(self):
        analysis = RunAnalysis(str(DATA / "golden_repeat_run"))
        again = RunAnalysis(str(DATA / "golden_repeat_run"))
        assert render_html_report(analysis) == render_html_report(again)

    def test_html_embeds_svg_plots(self):
        html = render_html_report(RunAnalysis(str(DATA / "golden_repeat_run")))
        assert "<svg" in html
        assert "lat_ns" in html

    def test_html_without_plots(self):
        html = render_html_report(
            RunAnalysis(str(DATA / "golden_repeat_run")), plots="none"
        )
        assert "<svg" not in html
        assert "Verdicts" in html

    def test_html_decline_path(self):
        html = render_html_report(RunAnalysis(str(DATA / "golden_run_a")))
        assert "declines to test" in html
        assert "<svg" not in html

    def test_write_html_report(self, tmp_path):
        target = tmp_path / "sub" / "report.html"
        path = write_html_report(
            RunAnalysis(str(DATA / "golden_repeat_run")), target
        )
        assert path == target
        assert target.read_text().startswith("<!DOCTYPE html>")

    def test_html_escapes_content(self):
        # Group labels and metric names flow into HTML; raw angle
        # brackets must never survive the trip.
        from repro.experiments.rendering import _cell, _table

        assert _cell("<evil>") == "<td>&lt;evil&gt;</td>"
        assert "<h>" not in _table(["<h>"], [["<v>"]])


class TestPlotting:
    def test_strip_plot_is_deterministic(self):
        groups = {"a": [1.0, 2.0, 3.0], "b": [2.5, 3.5]}
        assert strip_plot_svg("m", groups) == strip_plot_svg("m", groups)

    def test_strip_plot_handles_constant_values(self):
        svg = strip_plot_svg("m", {"a": [5.0, 5.0]})
        assert b"<svg" in svg

    def test_strip_plot_escapes_metric_name(self):
        svg = strip_plot_svg("<m>", {"a": [1.0]})
        assert b"<m>" not in svg

    def test_empty_groups_raise(self):
        with pytest.raises(PlotError):
            strip_plot_svg("m", {})

    def test_unknown_backend_raises(self):
        with pytest.raises(PlotError, match="unknown"):
            get_plotter("gnuplot")

    def test_matplotlib_backend_unavailable_raises_ploterror(self):
        # The container has no matplotlib; the backend must fail with
        # a PlotError naming the fix, not an ImportError at call time.
        try:
            import matplotlib  # noqa: F401
            pytest.skip("matplotlib installed; backend would work")
        except ImportError:
            pass
        plot = get_plotter("matplotlib")
        with pytest.raises(PlotError, match="matplotlib"):
            plot("m", {"a": [1.0, 2.0]})


# --------------------------- seed injection ----------------------------
class TestRepeatSeedInjection:
    def test_repeats_inject_distinct_seeds_for_seed_experiments(self):
        sweep = SweepSpec.from_dict({
            "name": "inj", "repeats": 3,
            "experiments": [
                {"experiment": "workload-mix",
                 "params": {"workload": "mixed(16)", "topology": "fanout-2"}},
            ],
        })
        specs = sweep.expand()
        seeds = [s.params["seed"] for s in specs]
        assert len(seeds) == 3
        assert len(set(seeds)) == 3
        for spec in specs:
            assert spec.params["seed"] == spec.seed

    def test_single_repeat_never_injects(self):
        sweep = SweepSpec.from_dict({
            "name": "inj", "repeats": 1,
            "experiments": [
                {"experiment": "workload-mix",
                 "params": {"workload": "mixed(16)", "topology": "fanout-2"}},
            ],
        })
        (spec,) = sweep.expand()
        assert "seed" not in spec.params

    def test_pinned_seed_wins_over_injection(self):
        sweep = SweepSpec.from_dict({
            "name": "inj", "repeats": 2,
            "experiments": [
                {"experiment": "workload-mix",
                 "params": {"workload": "mixed(16)", "topology": "fanout-2",
                            "seed": 42}},
            ],
        })
        assert all(s.params["seed"] == 42 for s in sweep.expand())

    def test_seedless_experiments_are_untouched(self):
        sweep = SweepSpec.from_dict({
            "name": "inj", "repeats": 2,
            "experiments": [{"experiment": "table1"}],
        })
        assert all("seed" not in s.params for s in sweep.expand())

    def test_seed_axis_must_be_integer(self):
        sweep = SweepSpec.from_dict({
            "name": "bad", "repeats": 1,
            "experiments": [
                {"experiment": "workload-mix",
                 "params": {"workload": "mixed(16)", "seed": "lucky"}},
            ],
        })
        with pytest.raises(Exception, match="seed must be an integer"):
            sweep.validate()

    def test_quick_preset_expansion_is_unchanged(self):
        # repeats=1 presets must keep their PR 8 spec hashes so every
        # cached run directory stays valid.
        hashes = sorted(s.spec_hash for s in preset_sweep("quick").expand())
        assert all("seed" not in s.params for s in preset_sweep("quick").expand())
        assert hashes == sorted(
            s.spec_hash for s in preset_sweep("quick").expand()
        )

    def test_significance_preset_validates(self):
        sweep = preset_sweep("significance")
        sweep.validate()
        specs = sweep.expand()
        assert len(specs) == 20
        assert len({s.params["seed"] for s in specs}) == 20


# ---------------------------- quick preset -----------------------------
def test_quick_preset_runs_all_ten_specs_ok(tmp_path):
    outcome = run_sweep(
        preset_sweep("quick"), tmp_path / "quick", jobs=1,
        telemetry=False,
    )
    assert outcome.total == len(outcome.executed) == 10
    assert outcome.ok
    report = RunReport(outcome.out_dir)
    assert len(report.ok_records) == 10
    assert not report.failures


# ------------------------------- CLI -----------------------------------
class TestAnalyzeCli:
    def test_analyze_missing_dir(self, tmp_path):
        code, out = run_cli("analyze", str(tmp_path / "nope"))
        assert code == 2
        assert "no results" in out

    def test_analyze_golden_repeat_run(self):
        code, out = run_cli("analyze", str(DATA / "golden_repeat_run"))
        assert code == 0
        assert "lat_ns" in out
        assert "p(Holm)" in out

    def test_analyze_declines_on_single_repeats(self):
        code, out = run_cli("analyze", str(DATA / "golden_run_a"))
        assert code == 0
        assert "declines to test" in out

    def test_analyze_writes_html(self, tmp_path):
        target = tmp_path / "report.html"
        code, out = run_cli(
            "analyze", str(DATA / "golden_repeat_run"), "--html", str(target)
        )
        assert code == 0
        assert target.is_file()
        assert "wrote" in out

    def test_analyze_rejects_bad_alpha(self):
        code, out = run_cli(
            "analyze", str(DATA / "golden_repeat_run"), "--alpha", "2.0"
        )
        assert code == 2
        assert "alpha" in out

    def test_analyze_metric_filter(self):
        code, out = run_cli(
            "analyze", str(DATA / "golden_repeat_run"),
            "--metric", "bw_gbps",
        )
        assert code == 0
        assert "lat_ns" not in out.split("##")[2]

    def test_sweep_rejects_bad_repeats(self, tmp_path):
        code, out = run_cli(
            "sweep", "--preset", "quick", "--repeats", "0",
            "--out", str(tmp_path / "r"),
        )
        assert code == 2
        assert "--repeats" in out


class TestSweepRepeatsCli:
    def test_repeats_flag_multiplies_specs(self, tmp_path):
        spec = {
            "name": "tiny", "repeats": 1,
            "experiments": [
                {"experiment": "workload-mix",
                 "params": {"workload": "mixed(16)", "topology": "fanout-2",
                            "streams": 2}},
            ],
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(spec))
        out_dir = tmp_path / "run"
        code, out = run_cli(
            "sweep", str(path), "--out", str(out_dir),
            "--jobs", "1", "--repeats", "3",
        )
        assert code == 0
        assert "3 specs" in out
        report = RunReport(str(out_dir))
        assert len(report.ok_records) == 3
        assert len({r.seed for r in report.ok_records}) == 3
        # All three are repeats of one scenario.
        assert len({r.group_key for r in report.ok_records}) == 1
