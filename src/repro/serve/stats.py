"""Thread-safe serving counters: latency percentiles and throughput."""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, Optional

import numpy as np

from .slab import SlabPool

#: Percentiles reported by :meth:`ServerStats.latency_percentiles`.
#: 99.9 (reported as ``p999_ms``) is the QEC tail-latency observable;
#: it is only meaningful once the window holds >= ~1000 samples, which
#: the default ``latency_window`` of 8192 comfortably allows.
LATENCY_PERCENTILES = (50, 95, 99, 99.9)


def percentile_key(p: float) -> str:
    """Snapshot key for a percentile: 50 -> ``p50_ms``, 99.9 -> ``p999_ms``."""
    return f"p{p:g}_ms".replace(".", "")


class ServerStats:
    """Counters for one :class:`~repro.serve.server.ReadoutServer`.

    Latencies are request-level (submission to future resolution) and kept
    in a bounded window so a long-lived server's percentile math stays O(1)
    in memory. Throughput is measured over the span from the first
    submission to the most recent completion. Every submitted request
    lands in exactly one of ``completed``, ``failed`` (a future its client
    cancelled counts here), ``rejected`` or ``shed``.

    Slab counters are not mirrored here: the ``trace_pool`` and
    ``response_pool`` passed in count their own acquires, and
    :meth:`snapshot` reads them (an omitted pool counts nothing).
    """

    def __init__(self, latency_window: int = 8192, *,
                 trace_pool: Optional[SlabPool] = None,
                 response_pool: Optional[SlabPool] = None):
        if latency_window < 1:
            raise ValueError(
                f"latency_window must be positive, got {latency_window}")
        self._lock = threading.Lock()
        self._latencies_s: Deque[float] = deque(maxlen=int(latency_window))  #: guarded-by: _lock
        self.submitted = 0  #: guarded-by: _lock
        self.rejected = 0  #: guarded-by: _lock
        self.shed = 0  #: guarded-by: _lock
        self.completed = 0  #: guarded-by: _lock
        self.failed = 0  #: guarded-by: _lock
        self.traces_in = 0  #: guarded-by: _lock
        self.traces_done = 0  #: guarded-by: _lock
        self.batches = 0  #: guarded-by: _lock
        self.batched_requests = 0  #: guarded-by: _lock
        self.batched_traces = 0  #: guarded-by: _lock
        self.max_batch_traces = 0  #: guarded-by: _lock
        self.worker_deaths = 0  #: guarded-by: _lock
        self.swaps = 0  #: guarded-by: _lock
        self.model_versions: Dict[int, int] = {}  #: guarded-by: _lock
        self._pools = {"trace": trace_pool or SlabPool(),
                       "response": response_pool or SlabPool()}
        self.ring_flushes = 0  #: guarded-by: _lock
        self.ring_batches = 0  #: guarded-by: _lock
        #: guarded-by: _lock
        self._dispatch_lags_s: Deque[float] = deque(
            maxlen=int(latency_window))
        self._first_submit_t: Optional[float] = None  #: guarded-by: _lock
        self._last_done_t: Optional[float] = None  #: guarded-by: _lock

    # ------------------------------------------------------------------
    # Recording (called from submit path and worker threads)
    # ------------------------------------------------------------------
    def record_submit(self, n_traces: int, now: float) -> None:
        with self._lock:
            self.submitted += 1
            self.traces_in += n_traces
            if self._first_submit_t is None:
                self._first_submit_t = now

    def record_reject(self) -> None:
        with self._lock:
            self.rejected += 1

    def record_shed(self) -> None:
        with self._lock:
            self.shed += 1

    def record_batch(self, n_requests: int, n_traces: int) -> None:
        with self._lock:
            self.batches += 1
            self.batched_requests += n_requests
            self.batched_traces += n_traces
            self.max_batch_traces = max(self.max_batch_traces, n_traces)

    def record_done(self, n_traces: int, latency_s: float,
                    now: float) -> None:
        with self._lock:
            self.completed += 1
            self.traces_done += n_traces
            self._latencies_s.append(latency_s)
            self._last_done_t = now

    def record_failure(self, n_requests: int = 1) -> None:
        with self._lock:
            self.failed += n_requests

    def record_worker_death(self) -> None:
        """Count an unexpected shard-worker exit (process backend).

        A nonzero value means the server lost serving capacity mid-run:
        requests touching the dead shard fail fast with
        :class:`~.batcher.ServerClosedError` rather than hanging, and the
        counter is the operator's cue to look at the backend's recorded
        exit codes.
        """
        with self._lock:
            self.worker_deaths += 1

    def record_dispatch_lag(self, lag_s: float) -> None:
        """Seal-to-dispatch delay for one flushed batch.

        Measures how long a sealed micro-batch waited for the dispatch
        pump — the direct observable for the single-dispatcher bottleneck
        this layer was rebuilt to remove. Kept in the same bounded window
        as latencies.
        """
        with self._lock:
            self._dispatch_lags_s.append(lag_s)

    def record_ring_flush(self, n_batches: int) -> None:
        """One shared-memory ring submission carrying ``n_batches`` batches.

        Process backend only: ``ring_batches / ring_flushes`` is the
        coalescing ratio — how many micro-batches each IPC round-trip
        amortizes.
        """
        with self._lock:
            self.ring_flushes += 1
            self.ring_batches += n_batches

    def record_swap(self, shard_index: int) -> int:
        """Count an engine hot swap; returns the shard's new model version.

        Versions start at 0 (the engine the server was built with) and
        increment once per promoted recalibration, so ``model_versions``
        doubles as the zero-downtime observability trail: a version bump
        with no failure spike is a clean swap.
        """
        with self._lock:
            self.swaps += 1
            version = self.model_versions.get(shard_index, 0) + 1
            self.model_versions[shard_index] = version
            return version

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def _latency_percentiles_locked(self) -> Dict[str, float]:
        if not self._latencies_s:
            return {percentile_key(p): float("nan")
                    for p in LATENCY_PERCENTILES}
        values = np.percentile(np.asarray(self._latencies_s),
                               LATENCY_PERCENTILES)
        return {percentile_key(p): 1000.0 * float(v)
                for p, v in zip(LATENCY_PERCENTILES, values)}

    def _mean_batch_traces_locked(self) -> float:
        if self.batches == 0:
            return 0.0
        # Batched traces, not completed ones: a failed or cancelled batch
        # still counts toward the denominator, so dividing by completions
        # would deflate the metric exactly when failures make it matter.
        return self.batched_traces / self.batches

    def _dispatch_lag_locked(self) -> Dict[str, float]:
        if not self._dispatch_lags_s:
            return {"dispatch_lag_p50_ms": 0.0, "dispatch_lag_p99_ms": 0.0}
        values = np.percentile(np.asarray(self._dispatch_lags_s), (50, 99))
        return {"dispatch_lag_p50_ms": 1000.0 * float(values[0]),
                "dispatch_lag_p99_ms": 1000.0 * float(values[1])}

    def _ring_coalesce_ratio_locked(self) -> float:
        if self.ring_flushes == 0:
            return 0.0
        return self.ring_batches / self.ring_flushes

    def _throughput_locked(self) -> float:
        # Well-defined before the first completion: 0.0, never None or a
        # ZeroDivision — snapshot consumers (benches, dashboards, the
        # healthcheck) must be able to read it at any lifecycle point.
        if (self._first_submit_t is None or self._last_done_t is None
                or self._last_done_t <= self._first_submit_t):
            return 0.0
        return self.traces_done / (self._last_done_t - self._first_submit_t)

    def _uptime_locked(self, now: float) -> float:
        # Serving-time clock: starts at the first submission (the same
        # origin the throughput span uses), 0.0 before any traffic.
        if self._first_submit_t is None:
            return 0.0
        return max(0.0, now - self._first_submit_t)

    def latency_percentiles(self) -> Dict[str, float]:
        """``{"p50_ms", "p95_ms", "p99_ms", "p999_ms"}`` over the window."""
        with self._lock:
            return self._latency_percentiles_locked()

    def uptime_s(self) -> float:
        """Seconds since the first submission (0.0 before any traffic)."""
        with self._lock:
            return self._uptime_locked(time.perf_counter())

    def mean_batch_traces(self) -> float:
        """Mean traces per flushed batch (amortization achieved)."""
        with self._lock:
            return self._mean_batch_traces_locked()

    def throughput_traces_per_s(self) -> float:
        """Completed traces per second, first submission to last completion."""
        with self._lock:
            return self._throughput_locked()

    def read_counters(self, *names: str) -> tuple:
        """Read several counters under one lock acquisition.

        External pollers (such as the calibration probe scheduler's
        duty-cycle accounting) read counters here: a direct attribute
        read races concurrent ``record_*`` writers, and repro-lint's
        RPA001 flags it because the counters are ``guarded-by: _lock``.
        This is the locked path for "give me a mutually-consistent view
        of two or three counters" without the cost of a full
        :meth:`snapshot`.
        """
        with self._lock:
            return tuple(getattr(self, name) for name in names)

    def snapshot(self) -> Dict[str, object]:
        """One JSON-friendly dict of every counter and derived metric.

        Values are numeric except ``model_versions``, a per-shard dict of
        hot-swap version counters (string keys, JSON-safe). The whole
        snapshot is taken under a single lock acquisition so its counters
        are mutually consistent — a reader never sees a ``completed``
        bumped after the latency window it is reported next to. The slab
        counters (``{trace,response}_slab_{allocated,reused,fallbacks}``)
        are read from the pools just before, each under its pool's lock.
        A healthy hot path converges to reused-only
        (``slab_reuse_ratio``); fallbacks flag backlog pressure.
        """
        slabs = {f"{pool}_slab_{outcome}": count
                 for pool, slab_pool in self._pools.items()
                 for outcome, count in slab_pool.counts().items()}
        acquires = sum(slabs.values())
        reused = slabs["trace_slab_reused"] + slabs["response_slab_reused"]
        with self._lock:
            counters = {
                "submitted": self.submitted,
                "rejected": self.rejected,
                "shed": self.shed,
                "completed": self.completed,
                "failed": self.failed,
                "traces_in": self.traces_in,
                "traces_done": self.traces_done,
                "batches": self.batches,
                "batched_requests": self.batched_requests,
                "batched_traces": self.batched_traces,
                "max_batch_traces": self.max_batch_traces,
                "worker_deaths": self.worker_deaths,
                "swaps": self.swaps,
                **slabs,
                "ring_flushes": self.ring_flushes,
                "ring_batches": self.ring_batches,
                "model_versions": {str(shard): version for shard, version
                                   in sorted(self.model_versions.items())},
            }
            counters.update(self._latency_percentiles_locked())
            counters.update(self._dispatch_lag_locked())
            counters["mean_batch_traces"] = self._mean_batch_traces_locked()
            counters["slab_reuse_ratio"] = (reused / acquires if acquires
                                            else 0.0)
            counters["ring_coalesce_ratio"] = \
                self._ring_coalesce_ratio_locked()
            counters["throughput_traces_per_s"] = self._throughput_locked()
            counters["uptime_s"] = self._uptime_locked(time.perf_counter())
        return counters

    def register_into(self, registry, component: str = "serve") -> None:
        """Expose this snapshot through a ``MetricsRegistry``.

        Thin adapter onto :meth:`snapshot` — the registry's
        ``export_dict()``/``export_text()`` become the one snapshot
        surface while this class keeps its existing shape.
        """
        registry.register_collector(component, self.snapshot, replace=True)
