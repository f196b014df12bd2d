"""Work-conserving batching through the server, on both backends.

A lone request on an idle server is dispatched at once, however long
``max_wait_ms`` is: the knob is a ceiling on waiting behind a batch still
computing, not a wait every request pays. That only holds while every
gathered batch gives its in-flight slot back exactly once, whichever way
the batch ends; a leaked slot quietly turns the server back into deadline
batching. These tests pin the count back to 0 after each ending.
"""

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.serve import ServerClosedError, ServerConfig, build_sharded_server
from repro.serve.procshard import usable_cpu_count

BACKENDS = ("thread", "process")


@pytest.fixture(scope="module")
def splits(request):
    return request.getfixturevalue("small_splits")


def make_server(splits, backend, n_shards=1, **knobs):
    train, val, _ = splits
    knobs.setdefault("max_wait_ms", 10_000)
    return build_sharded_server(("mf",), train, val, n_shards=n_shards,
                                config=ServerConfig(backend=backend, **knobs))


def settled_in_flight(server, timeout_s=5.0):
    """The in-flight batch count, once it reaches 0 or the timeout ends."""
    deadline = time.monotonic() + timeout_s
    while server._batcher.in_flight and time.monotonic() < deadline:
        time.sleep(0.005)
    return server._batcher.in_flight


class Gate:
    """Engine batch hook that holds shard 0's batches until opened.

    Hooks run on the inference thread (thread backend) or on the result
    receiver before delivery (process backend), so on both backends a
    held batch stays in flight.
    """

    def __init__(self, server):
        self.engine = server.shards[0].engine
        self.entered = threading.Event()
        self.opened = threading.Event()
        self.engine.add_batch_hook(self)

    def __call__(self, chunk, bits):
        self.entered.set()
        self.opened.wait(30)

    def open(self):
        self.opened.set()
        self.engine.remove_batch_hook(self)


def wait_for(future, timeout_s=30):
    """'ok', or the name of the exception the future raised."""
    try:
        future.result(timeout_s)
        return "ok"
    except Exception as exc:  # noqa: BLE001 — the outcome is the point
        return type(exc).__name__


@pytest.mark.parametrize("backend", BACKENDS)
class TestInFlightSlots:
    def test_lone_request_skips_the_ceiling(self, splits, backend):
        _, _, test = splits
        with make_server(splits, backend) as server:
            server.predict(test.demod[0], timeout=30)      # warm
            started = time.perf_counter()
            response = server.predict(test.demod[1], timeout=1.0)
            assert time.perf_counter() - started < 1.0
            assert response.batch_traces == 1
            assert settled_in_flight(server) == 0

    def test_normal_batch_releases(self, splits, backend):
        _, _, test = splits
        with make_server(splits, backend) as server:
            futures = [server.submit(test.demod[i:i + 3]) for i in range(5)]
            assert [wait_for(f) for f in futures] == ["ok"] * 5
            assert settled_in_flight(server) == 0

    def test_batch_of_shed_riders_releases(self, splits, backend):
        _, _, test = splits
        server = make_server(splits, backend, max_batch_traces=2,
                             max_queue_requests=1, overload="shed")
        with server:
            gate = Gate(server)
            try:
                held = server.submit(test.demod[0])
                assert gate.entered.wait(30)        # held is in flight
                victim = server.submit(test.demod[1])   # forms behind it
                # Full queue: sheds the victim, then seals the victim's
                # batch (no room for 2 more traces) with no live rider.
                newest = server.submit(test.demod[2:4])
                assert wait_for(victim) == "ServerOverloadedError"
            finally:
                gate.open()
            assert wait_for(held) == "ok"
            assert wait_for(newest) == "ok"
            assert settled_in_flight(server) == 0
            stats = server.stats.snapshot()
            assert stats["shed"] == 1
            assert stats["batches"] == 2          # the shed batch never ran

    def test_shard_error_releases(self, splits, backend):
        _, _, test = splits
        with make_server(splits, backend) as server:
            too_long = np.concatenate([test.demod[:1]] * 2, axis=-1)
            with pytest.raises(ValueError, match="trained on only"):
                server.predict(too_long, timeout=30)
            assert settled_in_flight(server) == 0
            server.predict(test.demod[0], timeout=1.0)      # still serving
            assert settled_in_flight(server) == 0

    def test_stop_releases(self, splits, backend):
        _, _, test = splits
        server = make_server(splits, backend, max_batch_traces=2)
        server.start()
        gate = Gate(server)
        stopper = threading.Thread(target=server.stop)
        try:
            held = server.submit(test.demod[0])
            assert gate.entered.wait(30)
            behind = server.submit(test.demod[1:3])   # sealed by size
            forming = server.submit(test.demod[3])    # waits on held
            stopper.start()
            deadline = time.monotonic() + 30
            while not server._batcher.closed:     # stop() has begun
                assert time.monotonic() < deadline
                time.sleep(0.005)
        finally:
            gate.open()
            if stopper.ident is None:
                server.stop()
        stopper.join(timeout=60)
        assert not stopper.is_alive()
        assert wait_for(held) == "ok"        # in-flight batch completes
        assert wait_for(behind) in ("ok", "ServerClosedError")
        assert wait_for(forming) == "ServerClosedError"
        assert server._batcher.in_flight == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_failing_trace_tail_counts_cancelled_once(splits, backend,
                                                  monkeypatch):
    # The finalize pass resolves futures before its tracing tail; when the
    # tail raises, the fail() that follows must be the only pass counting
    # a cancelled rider as failed.
    _, _, test = splits
    server = make_server(splits, backend, trace_sample_rate=1.0)
    with server:
        def broken_record(trace, ended_at=None):
            raise RuntimeError("recorder broke")

        monkeypatch.setattr(server.tracer, "record", broken_record)
        gate = Gate(server)
        try:
            held = server.submit(test.demod[0])
            assert gate.entered.wait(30)
            kept = server.submit(test.demod[1])      # forms behind held
            dropped = server.submit(test.demod[2])
            assert dropped.cancel()
        finally:
            gate.open()
        assert wait_for(held) == "ok"
        assert wait_for(kept) == "ok"
        assert settled_in_flight(server) == 0
    stats = server.stats
    assert (stats.submitted, stats.completed, stats.failed) == (3, 2, 1)


def test_dead_shard_fail_fast_releases(splits):
    # ProcessShardBackend.submit fails a batch up front when a shard is
    # dead; no shard ever reports on it, so the branch itself must give
    # the slot back.
    _, _, test = splits
    with make_server(splits, "process", n_shards=2) as server:
        server.predict(test.demod[0], timeout=30)
        os.kill(server.backend.worker_pids[1], signal.SIGKILL)
        deadline = time.monotonic() + 30
        while server.stats.worker_deaths == 0:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        for i in range(3):
            with pytest.raises(ServerClosedError, match="worker died"):
                server.predict(test.demod[i], timeout=1.0)
            assert settled_in_flight(server) == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_stress_accounting_reconciles(splits, backend):
    # More submitters than cores, a tiny shed queue, random client
    # cancellations and a 10 us GIL switch interval: every admitted
    # request must land in exactly one outcome, and no slot may leak.
    _, _, test = splits
    n_threads = 2 * usable_cpu_count() + 2
    server = make_server(splits, backend, max_batch_traces=8,
                         max_queue_requests=4, overload="shed",
                         max_wait_ms=1.0)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        server.start()
        stop_at = time.monotonic() + 1.0
        errors = []

        def client(seed):
            rng = np.random.default_rng(seed)
            try:
                while time.monotonic() < stop_at:
                    start = int(rng.integers(0, test.n_traces - 3))
                    m = int(rng.integers(1, 4))
                    future = server.submit(test.demod[start:start + m])
                    if rng.random() < 0.3:
                        future.cancel()
                    elif rng.random() < 0.3:
                        wait_for(future)
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(seed,))
                   for seed in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
    finally:
        server.stop()
        sys.setswitchinterval(old_interval)
    stats = server.stats
    assert stats.submitted > n_threads
    assert stats.shed > 0
    assert stats.submitted == (stats.completed + stats.failed
                               + stats.rejected + stats.shed)
    assert server._batcher.in_flight == 0
