"""Shared fixtures: small cached experiments so the suite stays fast."""

from __future__ import annotations

import pytest

from repro.pipeline import Experiment, ExperimentConfig
from repro.workload import SyntheticNewsConfig


def small_experiment_config(**overrides) -> ExperimentConfig:
    """A fast experiment: 24 days, small buckets, same dynamics."""
    workload = overrides.pop(
        "workload",
        SyntheticNewsConfig(days=24, docs_per_day=60, interrupted_day=15),
    )
    defaults = dict(
        workload=workload,
        nbuckets=64,
        bucket_size=512,
        block_postings=64,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="session")
def small_experiment() -> Experiment:
    """One shared small experiment; stages are cached inside it."""
    return Experiment(small_experiment_config())


@pytest.fixture
def no_flush_retries(monkeypatch):
    """A flush retry budget of 0: the first injected fault exhausts it,
    in every host the test builds in this process."""
    from repro.service import runtime

    monkeypatch.setattr(runtime, "MAX_FLUSH_RETRIES", 0)


@pytest.fixture
def events():
    """The lifecycle events this process emits while the test runs, as
    ``(name, fields)`` pairs (:mod:`repro.obs`).  A forked gateway
    worker's events stay in that worker."""
    import logging

    from repro.obs import logger

    trail = []
    handler = logging.Handler()
    handler.emit = lambda record: trail.append((record.msg, record.fields))
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield trail
    finally:
        logger.setLevel(logging.NOTSET)
        logger.removeHandler(handler)
