"""Unit tests for the experiment runner and its caching."""

from dataclasses import fields

import pytest

from repro import cli, figures
from repro.core.policy import Limit, Policy, Style, figure8_policies
from repro.pipeline.experiment import Experiment, ExperimentConfig
from repro.storage import faults
from repro.storage.faults import (
    FaultPlan,
    InjectedCrash,
    registered_crash_points,
)
from repro.workload.synthetic import SyntheticNewsConfig


def tiny_config(**overrides):
    defaults = dict(
        workload=SyntheticNewsConfig(days=6, docs_per_day=30),
        nbuckets=16,
        bucket_size=128,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestCaching:
    def test_updates_generated_once(self):
        exp = Experiment(tiny_config())
        assert exp.updates() is exp.updates()

    def test_bucket_stage_cached(self):
        exp = Experiment(tiny_config())
        assert exp.bucket_stage() is exp.bucket_stage()

    def test_policy_runs_cached(self):
        exp = Experiment(tiny_config())
        p = Policy(style=Style.NEW, limit=Limit.ZERO)
        assert exp.run_policy(p) is exp.run_policy(p)

    def test_exercised_run_reuses_disk_stage(self):
        exp = Experiment(tiny_config())
        p = Policy(style=Style.NEW, limit=Limit.ZERO)
        base = exp.run_policy(p)
        exercised = exp.run_policy(p, exercise=True)
        assert exercised.disks is base.disks
        assert exercised.exercise is not None


class TestRuns:
    def test_run_policies_keys_by_name(self):
        exp = Experiment(tiny_config())
        policies = [
            Policy(style=Style.NEW, limit=Limit.ZERO),
            Policy(style=Style.WHOLE, limit=Limit.ZERO),
        ]
        runs = exp.run_policies(policies)
        assert set(runs) == {"new 0", "whole 0"}

    def test_series_cover_all_updates(self):
        exp = Experiment(tiny_config())
        run = exp.run_policy(Policy(style=Style.NEW, limit=Limit.ZERO))
        assert run.disks.series.nupdates == 6

    def test_stats(self):
        exp = Experiment(tiny_config())
        stats = exp.stats(frequent_fraction=0.01)
        assert stats.total_postings > 0
        assert stats.frequent_postings_share > 0.1


class TestFaultInjection:
    """One meaning of a fault plan: every policy run gets its own copy,
    seeded from the policy, installed around both stages."""

    NEW_Z = Policy(style=Style.NEW, limit=Limit.Z)
    WHOLE_Z = Policy(style=Style.WHOLE, limit=Limit.Z)

    def retries(self, policies):
        plan = FaultPlan(seed=3, transient_rate=0.3)
        runs = Experiment(tiny_config(fault_plan=plan)).run_policies(
            policies, exercise=True
        )
        return {
            name: run.exercise.result.total_retries
            for name, run in runs.items()
        }

    def test_retries_do_not_depend_on_the_other_policies(self):
        both = self.retries([self.NEW_Z, self.WHOLE_Z])
        assert both["new z"] > 0 and both["whole z"] > 0
        assert self.retries([self.WHOLE_Z, self.NEW_Z]) == both
        assert self.retries([self.NEW_Z]) == {"new z": both["new z"]}
        assert self.retries([self.WHOLE_Z]) == {"whole z": both["whole z"]}

    def test_per_policy_plans_deterministic_and_distinct(self):
        base = FaultPlan(seed=11, transient_rate=0.02)
        exp = Experiment(tiny_config(fault_plan=base))
        plans = [exp.fault_plan_for(p) for p in figure8_policies()]
        again = [exp.fault_plan_for(p) for p in figure8_policies()]
        assert [p.seed for p in plans] == [p.seed for p in again]
        assert len({p.seed for p in plans}) == len(plans)
        for plan, twin in zip(plans, again):
            assert plan is not twin and plan is not base
            assert plan.transient_rate == base.transient_rate
        assert Experiment(tiny_config()).fault_plan_for(self.NEW_Z) is None

    def test_long_list_crash_point_stops_the_run(self):
        point = next(p for p in registered_crash_points() if "inplace" in p)
        for exercise in (False, True):
            exp = Experiment(
                tiny_config(fault_plan=FaultPlan(crash_at=point))
            )
            with pytest.raises(InjectedCrash):
                exp.run_policies(figure8_policies(), exercise=exercise)
            assert faults._ACTIVE is None  # the plan does not outlive the run


class TestConfig:
    def test_bucket_flush_blocks(self):
        cfg = tiny_config()
        expected = -(-16 * 128 * 4 // 4096)
        assert cfg.bucket_flush_blocks == expected

    def test_scaled(self):
        # One rule scales the corpus, the bucket region and the physical
        # disks together; at scale 1 it is the base case field by field.
        base, at_one = ExperimentConfig(), ExperimentConfig.at_scale(1.0)
        for f in fields(ExperimentConfig):
            assert getattr(at_one, f.name) == getattr(base, f.name), f.name
        assert at_one.physical_blocks == 8192
        geometry = {
            scale: (cfg.workload.scale, cfg.nbuckets, cfg.physical_blocks)
            for scale in (0.05, 4, 20)
            for cfg in [ExperimentConfig.at_scale(scale)]
        }
        assert geometry == {
            0.05: (0.05, 32, 1024),
            4: (4, 1024, 32768),
            20: (20, 5120, 163840),
        }

    def test_entry_points_build_the_scaled_experiment(self, monkeypatch):
        # `repro experiment --scale` and `repro figure` under REPRO_SCALE
        # run the experiment the benches run, not a 256-bucket one.
        built = []

        class Built(Exception):
            pass

        class Recording(Experiment):
            def run_policies(self, policies, exercise=False):
                built.append(self.config)
                raise Built

        monkeypatch.setattr(cli, "Experiment", Recording)
        with pytest.raises(Built):
            cli.main(["experiment", "--scale", "4"])
        assert built == [ExperimentConfig.at_scale(4)]

        monkeypatch.setenv("REPRO_SCALE", "4")
        monkeypatch.setitem(figures.REGISTRY, "fig8", lambda e: e.config)
        assert figures.regenerate("fig8") == ExperimentConfig.at_scale(4)
