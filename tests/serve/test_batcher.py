"""Micro-batching scheduler tests: flush triggers, work-conserving seals,
ordering, backpressure."""

import threading
import time

import numpy as np
import pytest

from repro.serve import MicroBatcher, ServeRequest, ServerOverloadedError


def request(n_traces=1):
    return ServeRequest(traces=np.zeros((n_traces, 2, 2, 4)))


class TestFlushTriggers:
    def test_flush_on_batch_size(self):
        batcher = MicroBatcher(max_batch_traces=3, max_wait_ms=10_000)
        for _ in range(5):
            batcher.offer(request())
        assert len(batcher.gather()) == 3   # no deadline wait when full
        assert len(batcher) == 2            # leftovers stay queued
        batcher.close()
        assert batcher.gather() is None     # close wins over the backlog
        assert len(batcher.drain()) == 2    # leftovers fail fast via drain

    def test_requests_are_never_split(self):
        batcher = MicroBatcher(max_batch_traces=4, max_wait_ms=0)
        batcher.offer(request(3))
        batcher.offer(request(3))
        first = batcher.gather()
        assert [r.n_traces for r in first] == [3]
        assert [r.n_traces for r in batcher.gather()] == [3]

    def test_oversized_request_served_alone(self):
        batcher = MicroBatcher(max_batch_traces=4, max_wait_ms=0)
        batcher.offer(request(10))
        batcher.offer(request(1))
        assert [r.n_traces for r in batcher.gather()] == [10]

    def test_deadline_flush_without_full_batch(self):
        batcher = MicroBatcher(max_batch_traces=1000, max_wait_ms=5)
        batcher.offer(request())
        started = time.perf_counter()
        batch = batcher.gather()
        assert len(batch) == 1
        assert time.perf_counter() - started < 1.0

    def test_fifo_order_preserved(self):
        batcher = MicroBatcher(max_batch_traces=10, max_wait_ms=0)
        first, second = request(), request()
        batcher.offer(first)
        batcher.offer(second)
        assert batcher.gather().requests == [first, second]

    def test_gather_blocks_until_offer(self):
        batcher = MicroBatcher(max_batch_traces=1, max_wait_ms=0)
        got = []

        def consume():
            got.append(batcher.gather())

        thread = threading.Thread(target=consume, daemon=True)
        thread.start()
        time.sleep(0.02)
        assert not got            # still blocked, nothing offered yet
        batcher.offer(request())
        thread.join(timeout=2.0)
        assert len(got) == 1 and len(got[0]) == 1


def gather_in_thread(batcher):
    """Start a consumer blocked in gather(); returns (results, thread)."""
    got = []
    thread = threading.Thread(target=lambda: got.append(batcher.gather()),
                              daemon=True)
    thread.start()
    return got, thread


class TestWorkConservingSeal:
    def test_lone_request_on_idle_batcher_is_gathered_at_once(self):
        batcher = MicroBatcher(max_batch_traces=1000, max_wait_ms=10_000)
        lone = request()
        batcher.offer(lone)
        started = time.perf_counter()
        batch = batcher.gather()
        assert time.perf_counter() - started < 1.0     # not the 10 s ceiling
        assert batch.requests == [lone]
        assert batcher.in_flight == 1

    def test_forming_batch_waits_while_a_batch_is_in_flight(self):
        batcher = MicroBatcher(max_batch_traces=1000, max_wait_ms=10_000)
        batcher.offer(request())
        batcher.gather()                    # in flight, never released
        batcher.offer(request())
        got, thread = gather_in_thread(batcher)
        time.sleep(0.1)
        assert got == []                    # still forming behind it
        assert len(batcher) == 1
        batcher.close()
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert got == [None]

    def test_release_seals_forming_batch_before_the_deadline(self):
        batcher = MicroBatcher(max_batch_traces=1000, max_wait_ms=10_000)
        batcher.offer(request())
        first = batcher.gather()
        second, third = request(), request()
        batcher.offer(second)
        batcher.offer(third)
        got, thread = gather_in_thread(batcher)
        time.sleep(0.05)
        assert got == []
        released = time.perf_counter()
        first.release_in_flight()
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert time.perf_counter() - released < 1.0
        assert got[0].requests == [second, third]   # filled while waiting
        assert batcher.in_flight == 1

    def test_ceiling_seals_when_in_flight_batch_never_completes(self):
        batcher = MicroBatcher(max_batch_traces=1000, max_wait_ms=50)
        batcher.offer(request())
        batcher.gather()                    # in flight, never released
        waiting = request()
        batcher.offer(waiting)
        batch = batcher.gather()
        waited = time.perf_counter() - waiting.enqueued_at
        assert batch.requests == [waiting]
        assert 0.045 <= waited < 5.0        # sealed by max_wait_ms itself
        assert batcher.in_flight == 2

    def test_size_sealed_batch_gathered_whatever_is_in_flight(self):
        batcher = MicroBatcher(max_batch_traces=2, max_wait_ms=10_000)
        batcher.offer(request())
        batcher.gather()                    # in flight, never released
        full = [request(), request()]
        for r in full:
            batcher.offer(r)
        started = time.perf_counter()
        assert batcher.gather().requests == full
        oversized = request(5)
        batcher.offer(oversized)
        assert batcher.gather().requests == [oversized]
        assert time.perf_counter() - started < 1.0
        assert batcher.in_flight == 3

    def test_release_counts_once(self):
        batcher = MicroBatcher(max_batch_traces=1, max_wait_ms=0)
        batcher.offer(request())
        batcher.offer(request())
        first, second = batcher.gather(), batcher.gather()
        assert batcher.in_flight == 2
        first.release_in_flight()
        first.release_in_flight()
        assert batcher.in_flight == 1
        second.release_in_flight()
        assert batcher.in_flight == 0


class TestBackpressure:
    def test_reject_policy_raises(self):
        batcher = MicroBatcher(max_queue_requests=2, max_wait_ms=0)
        batcher.offer(request())
        batcher.offer(request())
        with pytest.raises(ServerOverloadedError, match="queue full"):
            batcher.offer(request())

    def test_shed_policy_returns_oldest_victim(self):
        batcher = MicroBatcher(max_queue_requests=2, max_wait_ms=0,
                               overload="shed")
        oldest, kept, newest = request(), request(), request()
        assert batcher.offer(oldest) is None
        assert batcher.offer(kept) is None
        assert batcher.offer(newest) is oldest
        batch = batcher.gather()
        assert oldest.shed                   # victim rides the slab marked
        assert [r for r in batch if not r.shed] == [kept, newest]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="overload"):
            MicroBatcher(overload="drop-all")


class TestClose:
    def test_close_leaves_backlog_for_drain(self):
        batcher = MicroBatcher(max_batch_traces=100, max_wait_ms=10_000)
        queued = request()
        batcher.offer(queued)
        batcher.close()
        # Queued-but-ungathered requests are never computed after close;
        # the owner drains them to fail their futures fast.
        assert batcher.gather() is None
        assert batcher.drain() == [queued]
        assert batcher.drain() == []        # drain is idempotent

    def test_offer_after_close_raises(self):
        batcher = MicroBatcher()
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.offer(request())

    def test_close_wakes_blocked_gather(self):
        batcher = MicroBatcher()
        got = []

        def consume():
            got.append(batcher.gather())

        thread = threading.Thread(target=consume, daemon=True)
        thread.start()
        time.sleep(0.02)
        batcher.close()
        thread.join(timeout=2.0)
        assert got == [None]


class TestValidation:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_batch_traces=0)
        with pytest.raises(ValueError):
            MicroBatcher(max_wait_ms=-1)
        with pytest.raises(ValueError):
            MicroBatcher(max_queue_requests=0)

    def test_pending_introspection(self):
        batcher = MicroBatcher()
        batcher.offer(request(3))
        batcher.offer(request(2))
        assert len(batcher) == 2
        assert batcher.pending_traces() == 5
