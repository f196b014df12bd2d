"""Regression pins for the violations repro-lint surfaced in this tree.

Each pin failed before its fix landed:

- ``ReadoutServer.start`` emitted ``server_start`` while still holding
  ``_state_lock`` (RPA002) — probed behaviorally with a log handler.
- ``AlertManager._run_callback`` bumped ``callback_errors`` and
  ``state()`` read ``_states`` without ``_lock``;
  ``CalibrationWorker.running`` read ``_thread`` without
  ``_state_lock``; ``_ProcessShard`` failed futures / returned ring
  slots under ``_lock`` and read backlog lenses unlocked;
  ``MicroBatcher._build`` read ``_cond``-guarded geometry outside the
  lock (all RPA001/RPA002) — pinned by requiring the analyzer to stay
  clean over exactly those files.
- ``MetricsRegistry`` collector calls must run *outside* the owning
  lock (release-before-callback) — probed behaviorally with
  non-blocking lock acquisition from the callback.
"""

import logging

import numpy as np
import pytest

from repro.analysis import analyze_file
from repro.analysis.runner import apply_suppressions
from repro.obs.alerts import AlertManager, SeriesRule
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TelemetryStore
from repro.serve import ServerConfig, build_sharded_server

REPO_SRC = "src/repro"

FIXED_FILES = [
    f"{REPO_SRC}/serve/server.py",
    f"{REPO_SRC}/serve/stats.py",
    f"{REPO_SRC}/serve/slab.py",
    f"{REPO_SRC}/serve/batcher.py",
    f"{REPO_SRC}/serve/procshard.py",
    f"{REPO_SRC}/serve/shm.py",
    f"{REPO_SRC}/obs/alerts.py",
    f"{REPO_SRC}/obs/metrics.py",
    f"{REPO_SRC}/obs/trace.py",
    f"{REPO_SRC}/obs/timeseries.py",
    f"{REPO_SRC}/calib/worker.py",
    f"{REPO_SRC}/engine/cache.py",
    f"{REPO_SRC}/engine/engine.py",
]


@pytest.mark.parametrize("path", FIXED_FILES)
def test_fixed_file_stays_clean(path):
    findings, suppressions = analyze_file(path)
    active, _ = apply_suppressions(findings, suppressions)
    assert active == [], [f.render() for f in active]


class _LockProbeHandler(logging.Handler):
    """Records whether a lock was free at the moment an event logged."""

    def __init__(self, event, lock):
        super().__init__()
        self.event = event
        # Not ``self.lock`` — logging.Handler owns that name for its
        # internal I/O lock, which handle() acquires around emit().
        self.probed_lock = lock
        self.lock_was_free = None

    def emit(self, record):
        if record.getMessage() != self.event:
            return
        # A short timeout (not a non-blocking probe): another thread may
        # transiently hold the lock, but only the emitting thread holding
        # it would never release — the pre-fix deadlock shape.
        free = self.probed_lock.acquire(timeout=2.0)
        if free:
            self.probed_lock.release()
        self.lock_was_free = free


def test_server_start_logs_outside_state_lock(small_splits):
    train, val, _ = small_splits
    server = build_sharded_server(("mf",), train, val, n_shards=1,
                                  dtype=np.float64,
                                  config=ServerConfig(max_wait_ms=0.5))
    logger = logging.getLogger("repro.events.serve")
    old_level = logger.level
    probe = _LockProbeHandler("server_start", server._state_lock)
    logger.addHandler(probe)
    logger.setLevel(logging.INFO)
    try:
        with server:
            pass
    finally:
        logger.removeHandler(probe)
        logger.setLevel(old_level)
    assert probe.lock_was_free is True, (
        "server_start was logged while _state_lock was held")


def test_alert_callback_errors_are_counted_not_raised():
    store = TelemetryStore()
    store.ingest({"serve.worker_deaths": 0.0}, now=0.0)
    store.ingest({"serve.worker_deaths": 1.0}, now=1.0)
    rule = SeriesRule("deaths", "serve.worker_deaths", 0.0,
                      mode="delta", op=">", window_s=30.0)

    def broken(_state):
        raise RuntimeError("bundle writer died")

    manager = AlertManager([rule], on_fire=broken)
    transitions = manager.evaluate(store, now=1.0)
    assert [t.rule.name for t in transitions] == ["deaths"]
    assert manager.callback_errors == 1
    assert manager.state("deaths").firing is True


def test_metrics_collectors_run_outside_registry_lock():
    registry = MetricsRegistry()

    def collector():
        free = registry._lock.acquire(blocking=False)
        if free:
            registry._lock.release()
        return {"lock_was_free": free}

    registry.register_collector("probe", collector)
    exported = registry.export_dict()
    assert exported["probe"]["lock_was_free"] is True, (
        "collector invoked while the registry lock was held")
