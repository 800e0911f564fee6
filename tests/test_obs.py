"""The lifecycle-event seam (:mod:`repro.obs`): free when nobody
listens, one JSON object per line when somebody does."""

from __future__ import annotations

import io
import json
import logging

from repro import obs


def test_event_formats_nothing_without_a_handler(monkeypatch):
    """``src/`` installs no handler, so an event costs one level check:
    no record is built, nothing is formatted."""
    assert not obs.logger.handlers
    built = []
    monkeypatch.setattr(
        obs.logger, "makeRecord", lambda *a, **k: built.append(a)
    )
    monkeypatch.setattr(
        obs.JsonLines, "format", lambda self, r: built.append(r)
    )
    obs.event("publish", mode="cow", causes=[None])
    assert built == []


def test_json_lines_carry_name_pid_and_fields():
    stream = io.StringIO()
    handler = logging.StreamHandler(stream)
    handler.setFormatter(obs.JsonLines())
    obs.logger.addHandler(handler)
    obs.logger.setLevel(logging.INFO)
    try:
        obs.event("checkpoint", shard=1, kind="base", bytes=609)
    finally:
        obs.logger.setLevel(logging.NOTSET)
        obs.logger.removeHandler(handler)
    line = json.loads(stream.getvalue())
    assert line.pop("ts") > 0
    assert line.pop("pid") > 0
    assert line == {
        "event": "checkpoint", "shard": 1, "kind": "base", "bytes": 609
    }
