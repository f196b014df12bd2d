"""ServerStats tests: percentiles, swaps, and concurrent recording."""

import threading

import numpy as np
import pytest

from repro.serve import ServerStats, SlabPool


class TestPercentiles:
    def test_empty_window_is_nan(self):
        snapshot = ServerStats().snapshot()
        assert np.isnan(snapshot["p50_ms"])
        assert snapshot["completed"] == 0

    def test_percentiles_ordered(self):
        stats = ServerStats()
        for latency in np.linspace(0.001, 0.1, 200):
            stats.record_done(1, float(latency), now=1.0)
        snapshot = stats.snapshot()
        assert snapshot["p50_ms"] <= snapshot["p95_ms"] <= snapshot["p99_ms"]
        assert snapshot["p50_ms"] == pytest.approx(50.5, rel=0.05)

    def test_window_is_bounded(self):
        stats = ServerStats(latency_window=16)
        for _ in range(100):
            stats.record_done(1, 1.0, now=1.0)
        for _ in range(16):
            stats.record_done(1, 0.001, now=2.0)
        # Only the recent window survives: old 1s latencies evicted.
        assert stats.snapshot()["p99_ms"] == pytest.approx(1.0, rel=0.1)


class TestConcurrentRecording:
    def test_snapshot_races_with_recorders(self):
        # Worker threads hammer every recording path while the main
        # thread snapshots continuously: no exceptions, and the final
        # counters add up exactly.
        stats = ServerStats(latency_window=256)
        n_threads, per_thread = 8, 500
        start = threading.Barrier(n_threads + 1)

        def recorder(seed):
            rng = np.random.default_rng(seed)
            start.wait()
            for i in range(per_thread):
                stats.record_submit(2, now=float(i))
                stats.record_done(2, float(rng.random()), now=float(i))
                stats.record_batch(1, 2)
                if i % 50 == 0:
                    stats.record_swap(seed % 2)

        threads = [threading.Thread(target=recorder, args=(t,), daemon=True)
                   for t in range(n_threads)]
        for thread in threads:
            thread.start()
        start.wait()
        snapshots = []
        while any(t.is_alive() for t in threads):
            snapshots.append(stats.snapshot())
        for thread in threads:
            thread.join()

        final = stats.snapshot()
        total = n_threads * per_thread
        assert final["submitted"] == total
        assert final["completed"] == total
        assert final["traces_done"] == 2 * total
        assert final["swaps"] == n_threads * (per_thread // 50)
        # Per-shard versions sum to the total swap count.
        assert sum(final["model_versions"].values()) == final["swaps"]
        # Every mid-run snapshot was internally consistent.
        for snapshot in snapshots:
            assert snapshot["completed"] <= snapshot["submitted"]
            assert not np.isnan(snapshot["p50_ms"]) or snapshot["completed"] == 0

    def test_swap_versions_monotone_per_shard(self):
        stats = ServerStats()
        assert stats.record_swap(0) == 1
        assert stats.record_swap(1) == 1
        assert stats.record_swap(0) == 2
        assert stats.snapshot()["model_versions"] == {"0": 2, "1": 1}
        assert stats.swaps == 3


class TestBatchAccounting:
    def test_mean_batch_traces_counts_batched_not_completed(self):
        # Regression: the metric used to divide completed traces by all
        # flushed batches, so failures deflated "amortization achieved".
        stats = ServerStats()
        stats.record_batch(2, 100)
        stats.record_batch(1, 50)            # this batch will fail
        stats.record_done(100, 0.01, now=1.0)
        stats.record_failure()
        assert stats.mean_batch_traces() == 75.0     # (100 + 50) / 2
        snapshot = stats.snapshot()
        assert snapshot["batched_traces"] == 150
        assert snapshot["mean_batch_traces"] == 75.0
        assert snapshot["traces_done"] == 100

    def test_mean_batch_traces_empty(self):
        assert ServerStats().mean_batch_traces() == 0.0


class TestHotPathCounters:
    def test_slab_counts_are_read_from_the_pools(self):
        trace_pool = SlabPool()
        response_pool = SlabPool(max_outstanding=1)
        stats = ServerStats(trace_pool=trace_pool,
                            response_pool=response_pool)
        slab = trace_pool.acquire((4,), np.float64)        # allocated
        trace_pool.release(slab)
        slab = trace_pool.acquire((4,), np.float64)        # reused
        trace_pool.release(slab)
        trace_pool.acquire((4,), np.float64)               # reused
        held = response_pool.acquire((4,), np.int64)       # allocated
        assert response_pool.acquire((4,), np.int64) is None  # fallback
        assert held is not None
        snapshot = stats.snapshot()
        assert snapshot["trace_slab_allocated"] == 1
        assert snapshot["trace_slab_reused"] == 2
        assert snapshot["trace_slab_fallbacks"] == 0
        assert snapshot["response_slab_allocated"] == 1
        assert snapshot["response_slab_fallbacks"] == 1
        # 2 reuses out of 5 acquires across both pools.
        assert snapshot["slab_reuse_ratio"] == pytest.approx(0.4)

    def test_slab_ratio_is_zero_safe(self):
        # No acquires yet must yield 0.0, not NaN — benchmark JSON is
        # written with allow_nan=False.
        snapshot = ServerStats().snapshot()
        assert snapshot["slab_reuse_ratio"] == 0.0
        assert snapshot["ring_coalesce_ratio"] == 0.0
        assert snapshot["dispatch_lag_p50_ms"] == 0.0
        assert snapshot["dispatch_lag_p99_ms"] == 0.0

    def test_dispatch_lag_percentiles(self):
        stats = ServerStats()
        for lag in np.linspace(0.001, 0.01, 100):
            stats.record_dispatch_lag(float(lag))
        snapshot = stats.snapshot()
        assert 0 < snapshot["dispatch_lag_p50_ms"] \
            <= snapshot["dispatch_lag_p99_ms"]
        assert snapshot["dispatch_lag_p50_ms"] == pytest.approx(5.5,
                                                                rel=0.05)

    def test_ring_coalesce_ratio(self):
        stats = ServerStats()
        stats.record_ring_flush(3)
        stats.record_ring_flush(1)
        snapshot = stats.snapshot()
        assert snapshot["ring_flushes"] == 2
        assert snapshot["ring_batches"] == 4
        assert snapshot["ring_coalesce_ratio"] == 2.0


class TestTailPercentiles:
    def test_percentile_key_pinned(self):
        from repro.serve import LATENCY_PERCENTILES, percentile_key
        assert LATENCY_PERCENTILES == (50, 95, 99, 99.9)
        assert percentile_key(50) == "p50_ms"
        assert percentile_key(99.9) == "p999_ms"

    def test_snapshot_reports_p999(self):
        stats = ServerStats()
        for latency in np.linspace(0.001, 1.0, 2000):
            stats.record_done(1, float(latency), now=1.0)
        snapshot = stats.snapshot()
        assert (snapshot["p50_ms"] <= snapshot["p95_ms"]
                <= snapshot["p99_ms"] <= snapshot["p999_ms"])
        # The default window (8192) holds all 2000 samples, so p999 is
        # real order-statistic math, pinned against numpy directly.
        expected = 1000.0 * float(np.percentile(
            np.linspace(0.001, 1.0, 2000), 99.9))
        assert snapshot["p999_ms"] == pytest.approx(expected)


class TestLifecycleEdges:
    def test_snapshot_before_any_traffic(self):
        # Regression: every derived metric must be well-defined on a
        # fresh server — throughput/uptime 0.0, never None or an error.
        snapshot = ServerStats().snapshot()
        assert snapshot["throughput_traces_per_s"] == 0.0
        assert snapshot["uptime_s"] == 0.0

    def test_throughput_zero_between_submit_and_first_completion(self):
        stats = ServerStats()
        stats.record_submit(4, now=1.0)
        assert stats.snapshot()["throughput_traces_per_s"] == 0.0
        assert stats.throughput_traces_per_s() == 0.0
        # Uptime starts ticking at the first submission, though.
        assert stats.uptime_s() >= 0.0
        stats.record_done(4, 0.01, now=2.0)
        assert stats.snapshot()["throughput_traces_per_s"] == \
            pytest.approx(4.0)

    def test_completion_at_submit_instant_is_zero_not_inf(self):
        stats = ServerStats()
        stats.record_submit(1, now=1.0)
        stats.record_done(1, 0.0, now=1.0)
        assert stats.snapshot()["throughput_traces_per_s"] == 0.0

    def test_register_into_registry(self):
        from repro.obs import MetricsRegistry
        stats = ServerStats()
        registry = MetricsRegistry()
        stats.register_into(registry)
        stats.record_submit(2, now=1.0)
        stats.record_done(2, 0.01, now=2.0)
        exported = registry.export_dict()["serve"]
        assert exported["completed"] == 1
        assert exported["traces_done"] == 2
        assert "serve.completed 1" in registry.export_text()
