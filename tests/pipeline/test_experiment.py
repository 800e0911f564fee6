"""Unit tests for the experiment runner and its caching."""

import pytest

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
        cfg = tiny_config().scaled(2.0)
        assert cfg.workload.scale == 2.0
        assert cfg.nbuckets == 16
