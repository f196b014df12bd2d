"""End-to-end request tracing through the serving pipeline.

The acceptance bar: a sampled request under load yields a *complete*
stitched trace — every instant from submit to resolve is covered by some
span (``gaps(eps) == []``) — on both backends, including the process
backend where worker-side inference spans cross the spawn boundary via
the trace ring's id headers.
"""

import numpy as np
import pytest

from repro.serve import (ProcessShardBackend, ServerConfig,
                         build_sharded_server)

#: Tolerated uncovered time between adjacent instrumentation points.
#: Real micro-gaps are a few microseconds (the time between one span's
#: final perf_counter() and the next's); the margin absorbs scheduler
#: noise on loaded CI machines without masking a missing pipeline stage.
EPSILON_S = 5e-3

#: Spans every completed trace must carry regardless of backend.
COMMON_SPANS = {"submit", "slab_copy", "queue_wait", "batch_seal",
                "dispatch", "resolve"}


@pytest.fixture(scope="module")
def splits(request):
    return request.getfixturevalue("small_splits")


@pytest.fixture(scope="module")
def traced_thread_server(splits):
    train, val, _ = splits
    server = build_sharded_server(
        ("mf",), train, val, n_shards=2,
        config=ServerConfig(max_wait_ms=0.5, trace_sample_rate=1.0))
    with server:
        yield server


@pytest.fixture(scope="module")
def traced_process_server(splits):
    train, val, _ = splits
    server = build_sharded_server(
        ("mf",), train, val, n_shards=2,
        config=ServerConfig(backend="process", max_wait_ms=0.5,
                            trace_sample_rate=1.0))
    with server:
        yield server


def _spans_by_name(trace):
    spans = {}
    for name, start, end in trace.sorted_spans():
        spans.setdefault(name, []).append((start, end))
    return spans


class TestThreadBackendTracing:
    def test_every_request_traced_at_rate_one(self, traced_thread_server,
                                              splits):
        _, _, test = splits
        recorder = traced_thread_server.flight_recorder
        before = recorder.recorded
        futures = [traced_thread_server.submit(test.demod[i])
                   for i in range(16)]
        for future in futures:
            future.result(30)
        assert recorder.recorded == before + 16

    def test_stitched_trace_is_complete(self, traced_thread_server, splits):
        _, _, test = splits
        futures = [traced_thread_server.submit(test.demod[i])
                   for i in range(24)]
        for future in futures:
            future.result(30)
        for trace in traced_thread_server.flight_recorder.traces():
            names = set(trace.span_names())
            assert COMMON_SPANS <= names, names
            assert any(n.startswith("worker_inference/") for n in names)
            assert any(n.startswith("response_scatter/") for n in names)
            assert trace.gaps(EPSILON_S) == [], trace.to_dict()

    def test_span_ordering_is_consistent(self, traced_thread_server, splits):
        _, _, test = splits
        traced_thread_server.submit(test.demod[0]).result(30)
        trace = traced_thread_server.flight_recorder.traces()[-1]
        spans = _spans_by_name(trace)
        # submit starts the trace; resolve ends it.
        assert spans["submit"][0][0] == trace.started_at
        assert trace.span_names()[-1] == "resolve"
        resolve_end = spans["resolve"][0][1]
        assert resolve_end <= trace.ended_at
        # dispatch precedes every worker inference, which precedes its
        # shard's response scatter.
        dispatch_start = spans["dispatch"][0][0]
        for name, intervals in spans.items():
            if name.startswith("worker_inference/"):
                shard = name.rsplit("/", 1)[1]
                scatter = spans[f"response_scatter/{shard}"]
                for (w_start, w_end), (s_start, _) in zip(intervals, scatter):
                    assert dispatch_start <= w_start <= w_end
                    assert w_end <= s_start + EPSILON_S


class TestSampling:
    def test_fractional_sampling_under_load(self, splits):
        train, val, test = splits
        server = build_sharded_server(
            ("mf",), train, val, n_shards=1,
            config=ServerConfig(max_wait_ms=0.5, trace_sample_rate=0.25))
        with server:
            futures = [server.submit(test.demod[i % 8]) for i in range(40)]
            for future in futures:
                future.result(30)
            # deterministic accumulator: exactly every 4th request
            assert server.flight_recorder.recorded == 10

    def test_rate_zero_records_nothing(self, splits):
        train, val, test = splits
        server = build_sharded_server(("mf",), train, val, n_shards=1,
                                      config=ServerConfig(max_wait_ms=0.5))
        with server:
            server.predict(test.demod[:4])
            assert server.flight_recorder.recorded == 0
            assert not server.tracer.enabled


class TestProcessBackendTracing:
    def test_trace_crosses_the_spawn_boundary(self, traced_process_server,
                                              splits):
        """Worker-side spans stitch into the parent-side context."""
        _, _, test = splits
        futures = [traced_process_server.submit(test.demod[i])
                   for i in range(24)]
        for future in futures:
            future.result(30)
        traces = traced_process_server.flight_recorder.traces()
        assert traces
        for trace in traces:
            names = set(trace.span_names())
            assert COMMON_SPANS <= names, names
            # process-backend vocabulary: ring hop + remote inference
            assert any(n.startswith("ring_submit/") for n in names)
            assert any(n.startswith("ring_transit/") for n in names)
            assert any(n.startswith("worker_inference/") for n in names)
            assert any(n.startswith("response_scatter/") for n in names)
            assert trace.gaps(EPSILON_S) == [], trace.to_dict()

    def test_worker_spans_ordered_within_ring_transit(
            self, traced_process_server, splits):
        _, _, test = splits
        traced_process_server.submit(test.demod[0]).result(30)
        trace = traced_process_server.flight_recorder.traces()[-1]
        spans = _spans_by_name(trace)
        for name, intervals in spans.items():
            if not name.startswith("worker_inference/"):
                continue
            shard = name.rsplit("/", 1)[1]
            (t_start, t_end) = spans[f"ring_transit/{shard}"][0]
            for w_start, w_end in intervals:
                # The worker measured inference on the same system-wide
                # monotonic clock: it must land inside the parent's
                # send-to-receive window (small epsilon for clock reads
                # straddling the pipe).
                assert t_start - EPSILON_S <= w_start
                assert w_end <= t_end + EPSILON_S

    def test_traces_survive_coalescing(self, splits):
        """Batches packed into one ring slot keep per-request traces."""
        train, val, test = splits
        server = build_sharded_server(
            ("mf",), train, val, n_shards=1,
            config=ServerConfig(
                backend=ProcessShardBackend(coalesce_batches=4),
                max_wait_ms=0.0, max_batch_traces=2, trace_sample_rate=1.0))
        with server:
            futures = [server.submit(test.demod[i % 8]) for i in range(32)]
            for future in futures:
                future.result(30)
            snapshot = server.stats.snapshot()
            assert snapshot["ring_coalesce_ratio"] > 1.0, \
                "load did not exercise coalescing"
            traces = server.flight_recorder.traces()
            assert traces
            for trace in traces:
                names = set(trace.span_names())
                assert any(n.startswith("worker_inference/")
                           for n in names), names
                assert trace.gaps(EPSILON_S) == [], trace.to_dict()
