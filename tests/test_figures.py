"""Tests for the programmatic figure-regeneration API."""

import pytest

from repro import figures
from repro.cli import main
from repro.pipeline.experiment import Experiment, ExperimentConfig
from repro.workload.synthetic import SyntheticNewsConfig


@pytest.fixture(scope="module")
def experiment():
    return Experiment(
        ExperimentConfig(
            workload=SyntheticNewsConfig(days=16, docs_per_day=50),
            nbuckets=32,
            bucket_size=512,
        )
    )


class TestRegistry:
    def test_all_artifacts_registered(self):
        expected = {
            "table1", "fig1", "fig7", "fig8", "fig9", "fig10",
            "table5", "table6", "fig11", "fig12", "fig13", "fig14",
        }
        assert set(figures.REGISTRY) == expected

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown artifact"):
            figures.regenerate("fig99")


class TestArtifacts:
    def test_table1(self, experiment):
        result = figures.table1(experiment)
        assert "Total Postings" in result.rendered
        assert result.data["stats"].total_postings > 0
        assert 0 < result.data["top1_share"] <= 1

    def test_fig7(self, experiment):
        result = figures.figure7(experiment)
        assert result.data["new"][0] == 1.0
        assert len(result.data["new"]) == 16
        assert "Figure 7" in result.rendered

    def test_series_figures_share_policies(self, experiment):
        f8 = figures.figure8(experiment)
        f9 = figures.figure9(experiment)
        f10 = figures.figure10(experiment)
        keys = set(f8.data["series"])
        assert keys == set(f9.data["series"]) == set(f10.data["series"])
        assert "whole 0&z" in keys
        assert all(len(s) == 16 for s in f8.data["series"].values())

    def test_tables_5_and_6(self, experiment):
        t5 = figures.table5(experiment)
        t6 = figures.table6(experiment)
        assert len(t5.data["rows"]) == len(figures.TABLE5_STRATEGIES)
        assert len(t6.data["rows"]) == len(figures.TABLE6_STRATEGIES)
        assert "Allocation" in t5.rendered

    def test_k_sweeps(self, experiment):
        f11 = figures.figure11(experiment)
        f12 = figures.figure12(experiment)
        assert len(f11.data["sweep"]["new"]) == len(figures.FIGURE11_KS)
        assert len(f12.data["sweep"]["whole"]) == len(figures.FIGURE12_KS)

    def test_timing_figures(self, experiment):
        f13 = figures.figure13(experiment)
        f14 = figures.figure14(experiment)
        # The scale-1 physical disks (8,192 blocks each) are roomy for
        # this tiny corpus: everything is feasible.
        assert experiment.config.physical_blocks == 8192
        assert f13.data["infeasible"] == []
        assert set(f13.data["series"]) == set(f14.data["series"])
        for series in f13.data["series"].values():
            assert series == sorted(series)  # cumulative

    def test_fig1_standalone(self):
        result = figures.figure1(days=6, docs_per_day=60)
        assert result.data["history"]
        assert "bucket 5" in result.rendered


class TestCLIFigure:
    def test_figure_subcommand(self, capsys, monkeypatch):
        # Shrink the default experiment through the scale env var so the
        # CLI path stays fast.
        monkeypatch.setenv("REPRO_SCALE", "0.2")
        assert main(["figure", "table1"]) == 0
        assert "Total Postings" in capsys.readouterr().out
