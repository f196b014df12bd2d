"""Runtime lock-order detector: cycles, blocking events, install/uninstall.

Deliberate-inversion tests build their own private ``LockOrderMonitor``
and ``TrackedLock``s (with raw inner locks) so they can never poison the
globally installed monitor during a ``REPRO_LOCK_ORDER=1`` CI shard.
"""

import io
import json
import os
import threading

import pytest

from repro.analysis.runtime import (LockOrderMonitor, TrackedLock,
                                    TrackedRLock, check_report, get_monitor,
                                    install, main, uninstall, write_report)


def _pair(monitor):
    return (TrackedLock("site:a", monitor), TrackedLock("site:b", monitor))


def test_nested_acquire_records_an_edge():
    monitor = LockOrderMonitor()
    a, b = _pair(monitor)
    with a:
        with b:
            pass
    assert monitor.edges() == {("site:a", "site:b"): 1}
    assert monitor.cycles() == []


def test_opposite_order_locks_make_a_cycle():
    monitor = LockOrderMonitor()
    a, b = _pair(monitor)
    with a:
        with b:
            pass

    def inverted():
        with b:
            with a:
                pass

    # The inverted order runs on another thread (uncontended, so it
    # cannot deadlock) — exactly the latent inversion the detector is
    # for: both orders were *observed*, so the graph must cycle.
    t = threading.Thread(target=inverted)
    t.start()
    t.join()
    assert monitor.cycles() == [["site:a", "site:b"]]
    report = monitor.report()
    assert report["cycles"] == [["site:a", "site:b"]]
    problems = check_report(report)
    assert len(problems) == 1 and "site:a" in problems[0]


def test_blocking_while_holding_is_recorded():
    monitor = LockOrderMonitor()
    a, b = _pair(monitor)
    b_held = threading.Event()
    release_b = threading.Event()

    def holder():
        with b:
            b_held.set()
            release_b.wait(timeout=5.0)

    t = threading.Thread(target=holder)
    t.start()
    b_held.wait(timeout=5.0)
    with a:                      # hold a, then contend on b
        acquired = b.acquire(timeout=0.05)
        if acquired:             # pragma: no cover - defensive
            b.release()
        release_b.set()
    t.join()
    report = monitor.report()
    assert {"held": ["site:a"], "acquiring": "site:b", "count": 1} in (
        report["blocking_while_holding"])


def test_rlock_reentry_adds_no_self_edge():
    monitor = LockOrderMonitor()
    r = TrackedRLock("site:r", monitor)
    with r:
        with r:
            pass
    assert monitor.edges() == {}
    # Fully released: another thread can take it.
    assert r.acquire(blocking=False)
    r.release()


def test_tracked_rlock_supports_condition_wait():
    monitor = LockOrderMonitor()
    cond = threading.Condition(TrackedRLock("site:c", monitor))
    done = []

    def waiter():
        with cond:
            while not done:
                cond.wait(timeout=5.0)

    t = threading.Thread(target=waiter)
    t.start()
    with cond:
        done.append(True)
        cond.notify_all()
    t.join(timeout=5.0)
    assert not t.is_alive()


def test_install_uninstall_patch_and_restore_factories():
    # Under a REPRO_LOCK_ORDER=1 shard a session monitor is already
    # installed; step aside and restore it so this test never breaks
    # the shard's own instrumentation.
    previous = get_monitor()
    if previous is not None:
        uninstall()
    before = (threading.Lock, threading.RLock, threading.Condition)
    monitor = install()
    try:
        assert get_monitor() is monitor
        assert install() is monitor          # idempotent
        # A lock created from test code (a tracked site) is wrapped and
        # still works as a context manager.
        lock = threading.Lock()
        assert isinstance(lock, TrackedLock)
        with lock:
            assert lock.locked()
        assert not lock.locked()
        assert "tests/analysis/test_runtime.py" in lock._name
    finally:
        uninstall()
    assert (threading.Lock, threading.RLock, threading.Condition) == before
    assert get_monitor() is None
    if previous is not None:
        install(previous)


def test_report_roundtrip_and_cli(tmp_path):
    monitor = LockOrderMonitor()
    a, b = _pair(monitor)
    with a:
        with b:
            pass
    path = tmp_path / "report.json"
    report = write_report(monitor, str(path))
    assert json.loads(path.read_text()) == report

    out = io.StringIO()
    assert main([str(path)], stream=out) == 0
    assert "acyclic" in out.getvalue()

    def inverted():
        with b:
            with a:
                pass

    t = threading.Thread(target=inverted)
    t.start()
    t.join()
    write_report(monitor, str(path))
    out = io.StringIO()
    assert main([str(path)], stream=out) == 1
    assert "PROBLEM" in out.getvalue()

    out = io.StringIO()
    assert main([], stream=out) == 2


@pytest.mark.skipif(os.environ.get("REPRO_LOCK_ORDER") != "1",
                    reason="runs only under REPRO_LOCK_ORDER=1")
def test_live_monitor_sees_repro_locks(small_splits):
    # Under the instrumented shard, exercising the serve stack must
    # populate the global graph with repro-created lock sites.
    import numpy as np

    from repro.serve import ServerConfig, build_sharded_server

    train, val, test = small_splits
    server = build_sharded_server(("mf",), train, val, n_shards=1,
                                  dtype=np.float64,
                                  config=ServerConfig(max_wait_ms=0.5))
    with server:
        server.predict(test.demod[:8])
    monitor = get_monitor()
    assert any("repro/serve" in site for site in monitor.report()["locks"])
