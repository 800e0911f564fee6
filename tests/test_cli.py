"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import main, parse_policy
from repro.core.policy import Alloc, Limit, Policy, Style


class TestParsePolicy:
    def test_named(self):
        assert parse_policy("recommended-new") == Policy.recommended_new()
        assert parse_policy("update-optimized") == Policy.update_optimized()
        assert parse_policy("adaptive-new") == Policy.adaptive_new()

    def test_two_part_spec(self):
        assert parse_policy("whole:0") == Policy(
            style=Style.WHOLE, limit=Limit.ZERO
        )

    def test_four_part_spec(self):
        assert parse_policy("new:z:proportional:2.0") == Policy(
            style=Style.NEW, limit=Limit.Z, alloc=Alloc.PROPORTIONAL, k=2.0
        )

    def test_bad_specs(self):
        for bad in ("nope", "new", "new:z:prop", "bogus:z", "new:q"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_policy(bad)


@pytest.fixture
def corpus(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "a.txt").write_text("the cat sat with the dog")
    (docs / "b.txt").write_text("a mouse ran past the dog")
    (docs / "c.txt").write_text("cats and dogs and mice")
    return docs


class TestIndexAndQuery:
    def test_index_then_boolean_query(self, corpus, tmp_path, capsys):
        out = tmp_path / "idx.ckpt"
        assert main(["index", str(corpus), "-o", str(out)]) == 0
        assert out.exists()  # one self-contained snapshot file
        capsys.readouterr()

        assert main(["query", str(out), "cat AND dog"]) == 0
        output = capsys.readouterr().out
        assert "1 documents" in output
        assert "doc 0" in output

    def test_positional_index_phrase_and_near(self, corpus, tmp_path, capsys):
        out = tmp_path / "idx.ckpt"
        main(["index", str(corpus), "-o", str(out), "--positional"])
        capsys.readouterr()

        assert main(["query", str(out), "cat sat", "--phrase"]) == 0
        assert "1 documents" in capsys.readouterr().out

        assert main(["query", str(out), "mouse dog", "--near", "6"]) == 0
        assert "1 documents" in capsys.readouterr().out

    def test_near_needs_two_words(self, corpus, tmp_path, capsys):
        out = tmp_path / "idx.ckpt"
        main(["index", str(corpus), "-o", str(out), "--positional"])
        assert main(["query", str(out), "one", "--near", "3"]) == 1

    def test_custom_policy(self, corpus, tmp_path, capsys):
        out = tmp_path / "idx.ckpt"
        assert (
            main(
                [
                    "index",
                    str(corpus),
                    "-o",
                    str(out),
                    "--policy",
                    "whole:z:proportional:1.2",
                ]
            )
            == 0
        )
        assert "whole z prop-1.2" in capsys.readouterr().out

    def test_empty_directory_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "idx.ckpt"
        assert main(["index", str(empty), "-o", str(out)]) == 1


class TestExperimentAndStats:
    def test_experiment_summary(self, capsys):
        code = main(
            [
                "experiment",
                "--days",
                "8",
                "--scale",
                "0.3",
                "--policy",
                "new:0",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "policy:" in output and "new 0" in output
        assert "long-list I/O ops" in output

    def test_experiment_with_exercise(self, capsys):
        code = main(
            ["experiment", "--days", "6", "--scale", "0.3", "--exercise"]
        )
        assert code == 0
        assert "simulated build time" in capsys.readouterr().out

    def test_experiment_two_policies_with_exercise(self, capsys):
        code = main(
            [
                "experiment", "--days", "6", "--scale", "0.3", "--exercise",
                "--policy", "new:z", "--policy", "whole:z",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        new, whole = output.split("\n\n")
        assert "new z" in new and "whole z" in whole
        for block in (new, whole):
            assert "long-list I/O ops" in block
            assert "simulated build time" in block

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep"],
            ["experiment", "--jobs", "2"],
            ["experiment", "--shards", "2"],
            ["experiment", "--router-seed", "1"],
            ["experiment", "--doc-skew", "1.0"],
            ["serve-bench", "--batch-size", "1"],
            ["serve-bench", "--coalesce"],
            ["serve-bench", "--publish-mode", "clone"],
        ],
    )
    def test_sweep_and_jobs_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_stats(self, capsys):
        assert main(["stats", "--days", "6", "--scale", "0.3"]) == 0
        output = capsys.readouterr().out
        assert "Total Postings" in output


class TestServeBench:
    """``repro serve-bench`` end to end at toy size: exit status, the
    divergence line, and the report keys the ``ci.yml`` heredocs read."""

    def _run(self, tmp_path, capsys, *flags):
        import json

        path = tmp_path / "report.json"
        argv = [
            "serve-bench", "--readers", "2", "--cycles", "3",
            *flags, "--json", str(path),
        ]
        assert main(argv) == 0
        assert "divergences:      0" in capsys.readouterr().out
        return json.loads(path.read_text())

    def test_in_process_differential_under_faults(self, tmp_path, capsys):
        report = self._run(
            tmp_path, capsys,
            "--differential",
            "--delete-every", "3", "--inject-faults",
        )
        assert report["divergences"] == 0
        assert report["config"]["differential_checks"] == 3
        assert report["config"]["verify"] is True
        assert report["service"]["publishes"] == 3
        assert report["gateway"] == {}

    def test_gateway_open_loop_differential(self, tmp_path, capsys):
        report = self._run(
            tmp_path, capsys,
            "--gateway", "--shards", "2", "--replicas", "2",
            "--differential", "--arrival", "open",
            "--arrival-queries", "40",
        )
        gateway, arrivals = report["gateway"], report["open_loop"]
        assert gateway["failovers"] == 0
        assert arrivals["scheduled"] == 40
        assert (
            arrivals["completed"] + arrivals["shed"]
            + arrivals["deadline_exceeded"] == arrivals["scheduled"]
        )
        batching = gateway["batching"]
        assert 0 < batching["batch_frames"] <= batching["batched_reads"]
        assert gateway["replication"]["replica_divergences"] == 0
        assert gateway["rebalance"]["splits"] == 0
        # The workers publish: the service ledger is theirs, summed.
        service = report["service"]
        assert service["publishes"] == gateway["publishes"] > 0
        assert (
            service["cow_publishes"] + service["full_clone_publishes"]
            == service["publishes"]
        )
