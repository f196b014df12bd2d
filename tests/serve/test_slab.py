"""SlabPool tests: recycling identity, bounds, leak self-correction.

Also home of the hot-path allocation pins: the acceptance criterion that a
steady-state serve flush performs zero per-batch trace allocation is
asserted here at both the batcher level (flushed demod arrays are views of
one recycled slab) and the server level (slab counters converge to
reused-only).
"""

import gc

import numpy as np

from repro.serve import MicroBatcher, ServeRequest, SlabPool
from repro.serve.slab import DEFAULT_MAX_FREE, DEFAULT_MAX_OUTSTANDING


def request(n_traces=1, fill=0.0):
    return ServeRequest(
        traces=np.full((n_traces, 2, 2, 4), fill, dtype=np.float64))


class TestSlabPool:
    def test_release_then_acquire_returns_same_array(self):
        pool = SlabPool()
        slab = pool.acquire((4, 3), np.float64)
        pool.release(slab)
        again = pool.acquire((4, 3), np.float64)
        assert again is slab
        assert pool.allocated == 1 and pool.reused == 1

    def test_geometries_are_segregated(self):
        pool = SlabPool()
        a = pool.acquire((4, 3), np.float64)
        pool.release(a)
        b = pool.acquire((4, 3), np.float32)     # same shape, other dtype
        assert b is not a
        assert pool.allocated == 2

    def test_free_list_is_bounded(self):
        pool = SlabPool(max_free=2)
        slabs = [pool.acquire((8,), np.float64) for _ in range(4)]
        for slab in slabs:
            pool.release(slab)
        assert pool.free_count() == 2            # the rest were dropped

    def test_acquire_degrades_to_none_at_outstanding_bound(self):
        pool = SlabPool(max_outstanding=2)
        held = [pool.acquire((8,), np.float64) for _ in range(2)]
        assert all(s is not None for s in held)
        assert pool.acquire((8,), np.float64) is None
        assert pool.fallbacks == 1
        pool.release(held.pop())
        assert pool.acquire((8,), np.float64) is not None

    def test_leaked_slab_self_corrects_outstanding(self):
        pool = SlabPool(max_outstanding=2)
        pool.acquire((8,), np.float64)           # leaked: never released
        gc.collect()
        assert pool.outstanding == 0             # weakly tracked
        held = [pool.acquire((8,), np.float64) for _ in range(2)]
        assert all(s is not None for s in held)  # leak did not pin the bound

    def test_counts_every_acquire_outcome(self):
        pool = SlabPool(max_outstanding=1)
        assert pool.counts() == {"allocated": 0, "reused": 0,
                                 "fallbacks": 0}
        slab = pool.acquire((4,), np.float64)
        pool.acquire((4,), np.float64)           # at bound -> fallback
        pool.release(slab)
        pool.acquire((4,), np.float64)
        assert pool.counts() == {"allocated": 1, "reused": 1,
                                 "fallbacks": 1}

    def test_defaults_are_sane(self):
        pool = SlabPool()
        assert pool.max_free == DEFAULT_MAX_FREE
        assert pool.max_outstanding == DEFAULT_MAX_OUTSTANDING


class TestZeroCopyHotPath:
    """The acceptance pin: no per-flush trace allocation, ever."""

    def test_flushed_demod_is_a_slab_view_not_a_concatenation(self):
        batcher = MicroBatcher(max_batch_traces=4, max_wait_ms=0)
        batcher.offer(request(2, fill=1.0))
        batcher.offer(request(2, fill=2.0))
        batch = batcher.gather()
        assert batch.slab is not None
        assert batch.demod.base is batch.slab    # a view, no copy
        np.testing.assert_array_equal(batch.demod[:2], 1.0)
        np.testing.assert_array_equal(batch.demod[2:], 2.0)

    def test_steady_state_reuses_one_slab_across_flushes(self):
        batcher = MicroBatcher(max_batch_traces=4, max_wait_ms=0)
        pool = batcher.slab_pool
        seen = set()
        for _ in range(5):
            for _ in range(4):
                batcher.offer(request())
            batch = batcher.gather()
            seen.add(id(batch.slab))
            batch.release_slab()
        assert pool.allocated == 1               # one slab serves them all
        assert pool.reused == 4
        assert len(seen) == 1

    def test_oversized_request_bypasses_the_slab(self):
        batcher = MicroBatcher(max_batch_traces=4, max_wait_ms=0)
        oversized = request(10)
        batcher.offer(oversized)
        batch = batcher.gather()
        assert batch.slab is None
        assert batch.demod is oversized.traces   # served from its own array
        assert batcher.slab_pool.allocated == 0
