"""Readout server tests: correctness, concurrency, backpressure, lifecycle."""

import asyncio
import concurrent.futures
import threading
import time

import numpy as np
import pytest

from repro.core import make_design
from repro.engine import EngineStats, ReadoutEngine
from repro.readout import plan_feedlines
from repro.serve import (ReadoutServer, ServeShard, ServerClosedError,
                         ServerConfig, ServerOverloadedError,
                         build_sharded_server)


@pytest.fixture(scope="module")
def splits(request):
    return request.getfixturevalue("small_splits")


@pytest.fixture(scope="module")
def sharded_server(splits):
    """A 2-shard float64 server over the deterministic 'mf' design."""
    train, val, _ = splits
    server = build_sharded_server(("mf",), train, val, n_shards=2,
                                  dtype=np.float64,
                                  config=ServerConfig(max_wait_ms=0.5))
    with server:
        yield server


@pytest.fixture(scope="module")
def reference_bits(splits):
    """Bit-exact per-shard 'mf' predictions, stitched to device order."""
    train, val, test = splits
    full = np.empty((test.n_traces, test.n_qubits), dtype=np.int64)
    for feedline in plan_feedlines(test.n_qubits, 2):
        idx = list(feedline.qubit_indices)
        design = make_design("mf").fit(train.select_qubits(idx),
                                       val.select_qubits(idx))
        full[:, idx] = design.predict_bits(test.select_qubits(idx))
    return full


class TestPredictions:
    def test_multi_trace_matches_per_shard_reference(self, sharded_server,
                                                     splits, reference_bits):
        _, _, test = splits
        response = sharded_server.predict(test.demod[:40])
        np.testing.assert_array_equal(response.bits_for("mf"),
                                      reference_bits[:40])

    def test_single_trace_request_unwraps(self, sharded_server, splits,
                                          reference_bits):
        _, _, test = splits
        response = sharded_server.predict(test.demod[3])
        assert response.bits_for().shape == (test.n_qubits,)
        np.testing.assert_array_equal(response.bits_for(), reference_bits[3])

    def test_concurrent_submissions_all_resolve(self, sharded_server,
                                                splits, reference_bits):
        _, _, test = splits
        futures = [sharded_server.submit(test.demod[i]) for i in range(30)]
        for i, future in enumerate(futures):
            np.testing.assert_array_equal(future.result(timeout=10).bits_for(),
                                          reference_bits[i])

    def test_response_metadata(self, sharded_server, splits):
        _, _, test = splits
        response = sharded_server.predict(test.demod[:5])
        assert response.latency_s > 0
        assert response.batch_traces >= 5

    def test_asyncio_submission(self, sharded_server, splits,
                                reference_bits):
        _, _, test = splits

        async def fan_out():
            return await asyncio.gather(*[
                sharded_server.predict_async(test.demod[i]) for i in range(8)
            ])

        responses = asyncio.run(fan_out())
        for i, response in enumerate(responses):
            np.testing.assert_array_equal(response.bits_for(),
                                          reference_bits[i])

    def test_stats_track_requests(self, sharded_server, splits):
        _, _, test = splits
        before = sharded_server.stats.completed
        sharded_server.predict(test.demod[:2])
        snapshot = sharded_server.stats.snapshot()
        assert snapshot["completed"] == before + 1
        assert snapshot["p50_ms"] > 0
        assert snapshot["throughput_traces_per_s"] > 0

    def test_engine_stats_exposed(self, sharded_server):
        per_shard = sharded_server.engine_stats()
        assert set(per_shard) == {0, 1}
        assert all(s["traces"] > 0 for s in per_shard.values())


class TestValidation:
    def test_wrong_qubit_count_rejected(self, sharded_server):
        with pytest.raises(ValueError, match="serves 5 qubits"):
            sharded_server.submit(np.zeros((3, 2, 20)))

    def test_wrong_rank_rejected(self, sharded_server):
        with pytest.raises(ValueError, match="traces must be"):
            sharded_server.submit(np.zeros((5, 20)))

    def test_empty_request_rejected(self, sharded_server):
        with pytest.raises(ValueError, match="at least one trace"):
            sharded_server.submit(np.zeros((0, 5, 2, 20)))

    def test_no_shards_rejected(self):
        with pytest.raises(ValueError, match="at least one shard"):
            ReadoutServer([])

    def test_overlapping_shards_rejected(self, splits):
        train, val, _ = splits
        design = {"mf": make_design("mf").fit(train, val)}
        shard = ServeShard(feedline=plan_feedlines(5, 1)[0],
                           engine=ReadoutEngine(design),
                           device=train.device)
        with pytest.raises(ValueError, match="overlap"):
            ReadoutServer([shard, shard])

    def test_gap_in_coverage_rejected(self, splits):
        train, val, _ = splits
        feedline = plan_feedlines(5, 2)[1]      # qubits 3-4: gap below
        idx = list(feedline.qubit_indices)
        sub = train.select_qubits(idx)
        design = {"mf": make_design("mf").fit(sub, val.select_qubits(idx))}
        shard = ServeShard(feedline=feedline, engine=ReadoutEngine(design),
                           device=sub.device)
        with pytest.raises(ValueError, match="cover"):
            ReadoutServer([shard])

    def test_mismatched_designs_rejected(self, splits):
        train, val, _ = splits
        shards = []
        for feedline, names in zip(plan_feedlines(5, 2),
                                   [("mf",), ("centroid",)]):
            idx = list(feedline.qubit_indices)
            sub_train = train.select_qubits(idx)
            designs = {n: make_design(n).fit(sub_train,
                                             val.select_qubits(idx))
                       for n in names}
            shards.append(ServeShard(feedline=feedline,
                                     engine=ReadoutEngine(designs),
                                     device=sub_train.device))
        with pytest.raises(ValueError, match="same designs"):
            ReadoutServer(shards)


class _SlowEngine:
    """Engine stub whose predictions take a configurable time."""

    design_names = ["mf"]

    def __init__(self, delay_s=0.02, fail=False):
        self.delay_s = delay_s
        self.fail = fail
        self.stats = EngineStats()

    def predict_traces_into(self, demod, device, out):
        time.sleep(self.delay_s)
        if self.fail:
            raise RuntimeError("shard exploded")
        out["mf"][:] = 0
        return out


def _stub_server(device, engine=None, **knobs):
    shard = ServeShard(feedline=plan_feedlines(device.n_qubits, 1)[0],
                       engine=_SlowEngine() if engine is None else engine,
                       device=device)
    return ReadoutServer([shard], ServerConfig(**knobs))


class TestEngineContract:
    def test_predict_traces_only_engine_is_refused(self, splits):
        # The ShardEngine check runs where an engine enters: at
        # construction and at every swap, before any state changes.
        _, _, test = splits

        class _PredictTracesOnly:
            design_names = ["mf"]

            def predict_traces(self, demod, device):
                return {"mf": np.zeros((demod.shape[0], demod.shape[1]),
                                       dtype=np.int64)}

        with pytest.raises(TypeError, match="ShardEngine"):
            _stub_server(test.device, engine=_PredictTracesOnly())
        server = _stub_server(test.device, max_wait_ms=0.1)
        with server:
            with pytest.raises(TypeError, match="ShardEngine"):
                server.swap_engine(0, _PredictTracesOnly())
            assert server.stats.snapshot()["swaps"] == 0
            assert server.predict(test.demod[0]).bits_for("mf").shape == (5,)


class TestBackpressure:
    def test_reject_raises_and_counts(self, splits):
        _, _, test = splits
        server = _stub_server(test.device, max_batch_traces=1,
                              max_wait_ms=0.0, max_queue_requests=2)
        with server:
            rejected = 0
            futures = []
            for i in range(30):
                try:
                    futures.append(server.submit(test.demod[0]))
                except ServerOverloadedError:
                    rejected += 1
            assert rejected > 0
            assert server.stats.rejected == rejected
            for future in futures:
                future.result(timeout=10)

    def test_shed_fails_oldest_future(self, splits):
        _, _, test = splits
        server = _stub_server(test.device, max_batch_traces=1,
                              max_wait_ms=0.0, max_queue_requests=2,
                              overload="shed")
        with server:
            futures = [server.submit(test.demod[0]) for _ in range(30)]
            outcomes = []
            for future in futures:
                try:
                    future.result(timeout=10)
                    outcomes.append("ok")
                except ServerOverloadedError:
                    outcomes.append("shed")
            assert outcomes.count("shed") == server.stats.shed
            assert outcomes.count("shed") > 0
            # The newest request is never the victim.
            assert outcomes[-1] == "ok"


class TestFailures:
    def test_shard_failure_fails_request(self, splits):
        _, _, test = splits
        server = _stub_server(test.device, engine=_SlowEngine(0.0, fail=True))
        with server:
            future = server.submit(test.demod[0])
            with pytest.raises(RuntimeError, match="shard exploded"):
                future.result(timeout=10)
            assert server.stats.failed == 1

    def test_cancelled_future_does_not_kill_worker(self, splits):
        # A client timing out (asyncio.wait_for cancels the wrapped
        # future) must not take the shard worker thread down with it.
        _, _, test = splits
        server = _stub_server(test.device, engine=_SlowEngine(0.05),
                              max_batch_traces=1, max_wait_ms=0.0)
        with server:
            doomed = server.submit(test.demod[0])
            doomed.cancel()
            # The next request is served by the same worker thread.
            response = server.predict(test.demod[0], timeout=10)
            assert response.bits_for("mf").shape == (test.n_qubits,)

    def test_failure_skips_cancelled_futures(self, splits):
        _, _, test = splits
        server = _stub_server(test.device,
                              engine=_SlowEngine(0.05, fail=True),
                              max_batch_traces=1, max_wait_ms=0.0)
        with server:
            cancelled = server.submit(test.demod[0])
            cancelled.cancel()
            failed = server.submit(test.demod[0])
            with pytest.raises(RuntimeError, match="shard exploded"):
                failed.result(timeout=10)


class TestResponseAccess:
    def test_unknown_design_lists_available(self, sharded_server, splits):
        _, _, test = splits
        response = sharded_server.predict(test.demod[0])
        with pytest.raises(KeyError, match="available.*mf"):
            response.bits_for("mf-rmf-nn")

    def test_implicit_design_requires_sole_design(self, splits):
        train, val, test = splits
        server = build_sharded_server(("mf", "centroid"), train, val,
                                      config=ServerConfig(max_wait_ms=0.5))
        with server:
            response = server.predict(test.demod[0])
            with pytest.raises(ValueError, match="name one"):
                response.bits_for()
            # Naming a hosted design still works.
            assert response.bits_for("centroid").shape == (5,)

    def test_pre_completion_access_times_out(self, splits):
        # A future polled before its batch resolves raises TimeoutError
        # rather than returning a half-built response.
        _, _, test = splits
        server = _stub_server(test.device, engine=_SlowEngine(0.2))
        with server:
            future = server.submit(test.demod[0])
            with pytest.raises(concurrent.futures.TimeoutError):
                future.result(timeout=0.01)
            assert future.result(timeout=10).bits_for("mf").shape == (5,)


class TestHotSwap:
    def test_swap_takes_effect_at_batch_boundary(self, splits):
        _, _, test = splits

        class _ConstantEngine:
            design_names = ["mf"]

            def __init__(self, value):
                self.value = value
                self.stats = EngineStats()

            def predict_traces_into(self, demod, device, out):
                out["mf"][:] = self.value
                return out

        server = _stub_server(test.device, engine=_ConstantEngine(0),
                              max_wait_ms=0.1)
        with server:
            assert server.predict(test.demod[0]).bits_for("mf").sum() == 0
            version = server.swap_engine(0, _ConstantEngine(1))
            assert version == 1
            assert server.predict(test.demod[0]).bits_for("mf").sum() == 5
            assert server.stats.snapshot()["swaps"] == 1
            assert server.stats.snapshot()["model_versions"] == {"0": 1}

    def test_swap_under_concurrent_traffic_drops_nothing(self, splits):
        # Hammer the server while swapping between two fitted engines:
        # every request resolves, zero failures, versions advance.
        train, val, test = splits
        server = build_sharded_server(
            ("mf",), train, val, n_shards=1,
            config=ServerConfig(max_batch_traces=8, max_wait_ms=0.2))
        engines = [ReadoutEngine({"mf": make_design("mf").fit(train, val)})
                   for _ in range(2)]
        with server:
            futures = []
            for i in range(60):
                futures.append(server.submit(test.demod[i % test.n_traces]))
                if i % 10 == 9:
                    server.swap_engine(0, engines[(i // 10) % 2])
            for future in futures:
                assert future.result(timeout=10).bits_for("mf").shape == (5,)
        assert server.stats.failed == 0
        assert server.stats.swaps == 6
        assert server.stats.model_versions[0] == 6

    def test_swap_validates_designs_and_shard(self, sharded_server, splits):
        train, val, _ = splits
        wrong = ReadoutEngine(
            {"centroid": make_design("centroid").fit(train, val)})
        with pytest.raises(ValueError, match="serves"):
            sharded_server.swap_engine(0, wrong)
        good = sharded_server.shards[0].engine
        with pytest.raises(ValueError, match="no shard"):
            sharded_server.swap_engine(7, good)

    def test_swap_after_stop_rejected(self, splits):
        _, _, test = splits
        server = _stub_server(test.device)
        server.start()
        engine = server.shards[0].engine
        server.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            server.swap_engine(0, engine)


class TestLifecycle:
    def test_stop_drains_queued_requests(self, splits):
        _, _, test = splits
        server = _stub_server(test.device, max_batch_traces=1,
                              max_wait_ms=0.0)
        futures = [server.submit(test.demod[0]) for _ in range(5)]
        server.stop()
        assert all(f.done() for f in futures)

    def test_submit_after_stop_raises(self, splits):
        _, _, test = splits
        server = _stub_server(test.device)
        with server:
            server.predict(test.demod[0])
        with pytest.raises(RuntimeError, match="stopped"):
            server.submit(test.demod[0])

    def test_restart_rejected(self, splits):
        _, _, test = splits
        server = _stub_server(test.device)
        server.start()
        server.stop()
        with pytest.raises(RuntimeError, match="restarted"):
            server.start()

    def test_stop_is_idempotent(self, splits):
        _, _, test = splits
        server = _stub_server(test.device)
        server.start()
        server.stop()
        server.stop()

    def test_threads_terminate(self, splits):
        _, _, test = splits
        before = threading.active_count()
        server = _stub_server(test.device)
        with server:
            server.predict(test.demod[0])
        assert threading.active_count() == before

    def test_stop_fails_backlog_fast_but_finishes_in_flight(self, splits):
        # Regression test for the deterministic-drain contract: a deep
        # backlog behind a slow engine must not block stop() — the batch
        # being computed completes, everything queued behind it fails
        # with ServerClosedError instead of hanging (or being computed).
        _, _, test = splits
        delay = 0.3
        server = _stub_server(test.device, engine=_SlowEngine(delay),
                              max_batch_traces=1, max_wait_ms=0.0)
        server.start()
        futures = [server.submit(test.demod[0]) for _ in range(8)]
        time.sleep(0.05)              # worker is mid-batch on request 0
        started = time.perf_counter()
        server.stop()
        stop_elapsed = time.perf_counter() - started
        # Bounded by ~one in-flight batch, not the 8-deep backlog.
        assert stop_elapsed < 4 * delay
        assert all(f.done() for f in futures)
        outcomes = []
        for future in futures:
            try:
                future.result()
                outcomes.append("ok")
            except ServerClosedError:
                outcomes.append("closed")
        assert outcomes[0] == "ok"            # in-flight batch completed
        assert "closed" in outcomes           # the backlog failed fast
        assert server.stats.failed == outcomes.count("closed")

    def test_submit_vs_stop_race_is_typed_and_reconciled(self, splits):
        # submit() reads the stopped flag without the state lock; hammer
        # the window where stop() lands mid-submit and require (a) every
        # refusal is the typed ServerClosedError and (b) the stats ledger
        # still reconciles: every counted submission has exactly one
        # counted outcome.
        _, _, test = splits
        trace = test.demod[0]
        for _ in range(3):
            server = _stub_server(test.device, engine=_SlowEngine(0.0),
                                  max_batch_traces=8, max_wait_ms=0.1)
            server.start()
            start = threading.Barrier(3)
            futures, untyped = [], []
            lock = threading.Lock()

            def hammer():
                start.wait()
                for _ in range(200):
                    try:
                        future = server.submit(trace)
                    except ServerClosedError:
                        continue          # typed refusal: the contract
                    except RuntimeError as exc:
                        with lock:
                            untyped.append(exc)
                        continue
                    with lock:
                        futures.append(future)

            threads = [threading.Thread(target=hammer) for _ in range(2)]
            for thread in threads:
                thread.start()
            start.wait()
            time.sleep(0.002)
            server.stop()
            for thread in threads:
                thread.join(timeout=10)
            assert untyped == []
            assert all(f.done() for f in futures)
            stats = server.stats
            assert stats.submitted == stats.completed + stats.failed

    def test_response_slab_recycles_when_every_future_cancelled(self,
                                                                splits):
        # A batch whose every client went away must return its pooled
        # response slab — ownership only transfers with a resolved future.
        _, _, test = splits

        class _GateEngine:
            design_names = ["mf"]

            def __init__(self):
                self.gate = threading.Event()
                self.stats = EngineStats()

            def predict_traces_into(self, demod, device, out):
                assert self.gate.wait(10)
                out["mf"][:] = 0
                return out

        engine = _GateEngine()
        server = _stub_server(test.device, engine=engine,
                              max_batch_traces=4, max_wait_ms=0.0)
        with server:
            pool = server._response_pool
            doomed = server.submit(test.demod[:2])
            time.sleep(0.05)              # batch in flight, engine gated
            assert doomed.cancel()
            engine.gate.set()
            deadline = time.perf_counter() + 5
            while pool.free_count() == 0 and time.perf_counter() < deadline:
                time.sleep(0.01)
            assert pool.free_count() == 1     # recycled, nobody saw it
            # The next live request reuses that very slab...
            response = server.predict(test.demod[:2], timeout=10)
            assert server.stats.snapshot()["response_slab_reused"] == 1
            # ...and keeps it: its views escaped to the client.
            assert response.bits_for("mf").shape == (2, test.n_qubits)
            assert pool.free_count() == 0


class TestHotPathMemory:
    def test_oversized_request_spans_slab_boundary_correctly(self, splits,
                                                             reference_bits):
        # A single request larger than max_batch_traces bypasses the slab
        # and is served alone — interleaved with slab-sized traffic, every
        # response must still match the per-shard reference bit for bit.
        train, val, test = splits
        server = build_sharded_server(
            ("mf",), train, val, n_shards=2, dtype=np.float64,
            config=ServerConfig(max_batch_traces=8, max_wait_ms=0.5))
        with server:
            small_a = server.submit(test.demod[:3])
            oversized = server.submit(test.demod[:20])   # > 8: slab bypass
            small_b = server.submit(test.demod[5:10])
            np.testing.assert_array_equal(
                oversized.result(timeout=10).bits_for("mf"),
                reference_bits[:20])
            np.testing.assert_array_equal(
                small_a.result(timeout=10).bits_for("mf"),
                reference_bits[:3])
            np.testing.assert_array_equal(
                small_b.result(timeout=10).bits_for("mf"),
                reference_bits[5:10])

    def test_steady_state_recycles_slabs_with_zero_fallbacks(self, splits):
        _, _, test = splits
        server = _stub_server(test.device, engine=_SlowEngine(0.0),
                              max_batch_traces=4, max_wait_ms=0.0)
        with server:
            for _ in range(12):
                server.predict(test.demod[:2], timeout=10)
        snapshot = server.stats.snapshot()
        # Trace slabs converge to pure recycling: one allocation ever.
        assert snapshot["trace_slab_allocated"] == 1
        assert snapshot["trace_slab_reused"] >= 10
        assert snapshot["trace_slab_fallbacks"] == 0
        # Response slabs recycle only when no view escaped (ownership
        # moves to resolved futures), so the combined ratio is bounded
        # below by the trace side alone.
        assert snapshot["response_slab_fallbacks"] == 0
        assert snapshot["slab_reuse_ratio"] > 0.3
        assert snapshot["dispatch_lag_p99_ms"] >= 0.0

    def test_float16_trace_path_serves_quantized_slabs(self, splits):
        train, val, test = splits
        server = build_sharded_server(
            ("mf",), train, val, n_shards=2,
            config=ServerConfig(max_wait_ms=0.5, trace_dtype=np.float16))
        reference = build_sharded_server(("mf",), train, val, n_shards=2,
                                         config=ServerConfig(max_wait_ms=0.5))
        assert server.trace_dtype == np.dtype(np.float16)
        with server, reference:
            quantized = server.predict(test.demod[:40], timeout=10)
            full = reference.predict(test.demod[:40], timeout=10)
        agree = np.mean(quantized.bits_for("mf") == full.bits_for("mf"))
        # Half-precision traces cost a little accuracy, never correctness.
        assert agree >= 0.9
        assert quantized.bits_for("mf").shape == full.bits_for("mf").shape
