"""Process-backend server tests: parity, swaps, teardown, worker death.

The process backend must be observably the *same service* as the thread
backend — identical bits, identical drain semantics, identical calibration
plumbing — with the extra obligations of a multi-process system: workers
are reaped deterministically (exit codes recorded, no orphans) and a
worker death fails its traffic fast instead of hanging it.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.calib.monitors import ScoreDriftMonitor
from repro.calib.recalibrator import Recalibrator, attach_score_monitors
from repro.core import FAST_CONFIG, make_design
from repro.engine import EngineStats, ReadoutEngine
from repro.readout import generate_dataset, plan_feedlines
from repro.serve import (ProcessShardBackend, ReadoutServer, ServeShard,
                        ServerClosedError, ServerConfig, ThreadShardBackend,
                        build_sharded_server)
from repro.serve.procshard import engine_to_spec


class _StubEngine:
    """A ShardEngine that is no ReadoutEngine: nothing to ship to a worker."""

    design_names = ["mf"]

    def __init__(self):
        self.stats = EngineStats()

    def predict_traces_into(self, demod, device, out):
        out["mf"][:] = 0
        return out


@pytest.fixture(scope="module")
def splits(request):
    return request.getfixturevalue("small_splits")


@pytest.fixture(scope="module")
def process_server(splits):
    """A 2-shard process-backend server over the deterministic 'mf' design."""
    train, val, _ = splits
    server = build_sharded_server(
        ("mf",), train, val, n_shards=2,
        config=ServerConfig(backend="process", max_wait_ms=0.5))
    with server:
        yield server


@pytest.fixture(scope="module")
def thread_reference_bits(splits):
    """The same fitted service on the thread backend: the parity oracle."""
    train, val, test = splits
    server = build_sharded_server(("mf",), train, val, n_shards=2,
                                  config=ServerConfig(max_wait_ms=0.5))
    with server:
        return server.predict(test.demod[:60]).bits_for("mf")


class TestParity:
    def test_backend_is_selected(self, process_server):
        assert process_server.backend.name == "process"
        assert isinstance(process_server.backend, ProcessShardBackend)

    def test_bits_identical_to_thread_backend(self, process_server, splits,
                                              thread_reference_bits):
        _, _, test = splits
        response = process_server.predict(test.demod[:60])
        np.testing.assert_array_equal(response.bits_for("mf"),
                                      thread_reference_bits)

    def test_single_trace_request_unwraps(self, process_server, splits,
                                          thread_reference_bits):
        _, _, test = splits
        response = process_server.predict(test.demod[3])
        assert response.bits_for().shape == (test.n_qubits,)
        np.testing.assert_array_equal(response.bits_for(),
                                      thread_reference_bits[3])

    def test_concurrent_submissions_all_resolve(self, process_server, splits,
                                                thread_reference_bits):
        _, _, test = splits
        futures = [process_server.submit(test.demod[i]) for i in range(30)]
        for i, future in enumerate(futures):
            np.testing.assert_array_equal(
                future.result(timeout=30).bits_for(),
                thread_reference_bits[i])

    def test_engine_stats_come_from_the_workers(self, process_server, splits):
        _, _, test = splits
        process_server.predict(test.demod[:8])
        per_shard = process_server.engine_stats()
        assert set(per_shard) == {0, 1}
        # The parent-side replica never runs inference; nonzero counters
        # prove the workers' own engines reported them back.
        assert all(stats["traces"] > 0 for stats in per_shard.values())
        for shard in process_server.shards:
            assert shard.engine.stats.traces == 0

    def test_worker_pids_are_live_children(self, process_server):
        pids = process_server.backend.worker_pids
        assert set(pids) == {0, 1}
        for pid in pids.values():
            os.kill(pid, 0)          # raises if no such process


class TestHooksMirroring:
    def test_batch_hooks_fire_in_the_parent(self, process_server, splits):
        _, _, test = splits
        seen = []

        def hook(chunk, bits):
            seen.append((chunk.demod.shape, {k: v.shape
                                             for k, v in bits.items()}))

        engine = process_server.shards[0].engine
        engine.add_batch_hook(hook)
        try:
            process_server.predict(test.demod[:12])
            deadline = time.time() + 10
            while not seen and time.time() < deadline:
                time.sleep(0.01)
        finally:
            engine.remove_batch_hook(hook)
        shard_qubits = process_server.shards[0].feedline.n_qubits
        assert seen
        shape, bit_shapes = seen[0]
        assert shape[1:] == (shard_qubits, 2, test.demod.shape[3])
        assert bit_shapes["mf"][1] == shard_qubits

    def test_score_monitors_observe_remote_batches(self, process_server,
                                                   splits):
        _, _, test = splits
        monitors = [ScoreDriftMonitor(n_qubits=s.feedline.n_qubits)
                    for s in process_server.shards]
        attach_score_monitors(process_server, monitors)
        try:
            process_server.predict(test.demod[:16])
            deadline = time.time() + 10
            while (not all(m.batches_seen for m in monitors)
                   and time.time() < deadline):
                time.sleep(0.01)
            assert all(m.batches_seen >= 1 for m in monitors)
        finally:
            for shard, monitor in zip(process_server.shards, monitors):
                shard.engine.remove_batch_hook(monitor._hook)


class TestHotSwap:
    def test_swap_ships_serialized_pipelines_to_the_worker(self, splits):
        train, val, test = splits
        server = build_sharded_server(
            ("mf",), train, val, n_shards=1,
            config=ServerConfig(backend="process", max_wait_ms=0.5))
        # A replacement fitted on different data: its parent-side
        # predictions are the oracle for what the worker must serve.
        half = train.subset(np.arange(train.n_traces // 2))
        replacement = ReadoutEngine(
            {"mf": make_design("mf").fit(half, val)})
        expected = replacement.predict_traces(
            test.demod[:40].astype(np.float32), test.device)["mf"]
        with server:
            before = server.predict(test.demod[:40]).bits_for("mf")
            version = server.swap_engine(0, replacement)
            assert version == 1
            after = server.predict(test.demod[:40]).bits_for("mf")
        np.testing.assert_array_equal(after, expected)
        assert server.stats.model_versions[0] == 1
        assert before.shape == after.shape
        assert server.backend.exit_codes == {0: 0}

    def test_swap_rejects_unserializable_engine(self, process_server, splits):
        with pytest.raises(ValueError, match="pipelines"):
            process_server.swap_engine(0, _StubEngine())
        # The failed swap never half-applied: versions are untouched.
        assert 0 not in process_server.stats.model_versions

    def test_recalibrator_cycles_through_the_process_backend(self, splits):
        # The CalibrationWorker's repair primitive end to end: collect,
        # refit, validate through the live (process-backed) serve path,
        # and promote via the swap-over-pickle path.
        train, val, test = splits
        server = build_sharded_server(
            ("mf",), train, val, n_shards=2,
            config=ServerConfig(backend="process", max_wait_ms=0.5))
        device = test.device
        with server:
            recalibrator = Recalibrator(server,
                                        calibration_shots_per_state=8)
            report = recalibrator.recalibrate_shard(
                1, lambda shots, rng: generate_dataset(device, shots, rng),
                np.random.default_rng(5))
            assert report.shard_index == 1
            assert 0.0 <= report.candidate_fidelity <= 1.0
            assert 0.0 <= report.incumbent_fidelity <= 1.0
            if report.promoted:
                assert server.stats.model_versions[1] == report.model_version
            # Traffic still flows on the (possibly swapped) engines.
            assert server.predict(test.demod[0]).bits_for("mf").shape == (5,)
        assert server.stats.failed == 0


class TestStartupValidation:
    def test_stub_engines_rejected_before_spawning(self, splits):
        train, _, _ = splits
        [feedline] = plan_feedlines(train.n_qubits, 1)
        server = ReadoutServer(
            [ServeShard(feedline=feedline, engine=_StubEngine(),
                        device=train.device)],
            ServerConfig(backend="process"))
        with pytest.raises(ValueError, match="pipelines"):
            server.start()
        server.stop()

    def test_unknown_backend_rejected(self, splits):
        train, val, _ = splits
        with pytest.raises(ValueError, match="backend must be one of"):
            build_sharded_server(("mf",), train, val,
                                 config=ServerConfig(backend="fiber"))

    def test_backend_instance_validates_its_options(self):
        with pytest.raises(ValueError, match="ring_slots"):
            ProcessShardBackend(ring_slots=0)
        with pytest.raises(ValueError, match="coalesce_batches"):
            ProcessShardBackend(coalesce_batches=0)

    def test_backend_instance_is_single_use(self, splits):
        # A prebuilt backend bound to one server must refuse a second:
        # reuse would fan batches across both servers' shard workers.
        train, val, test = splits
        backend = ThreadShardBackend()
        first = build_sharded_server(("mf",), train, val,
                                     config=ServerConfig(backend=backend))
        with first:
            first.predict(test.demod[0])
            second = build_sharded_server(
                ("mf",), train, val, config=ServerConfig(backend=backend))
            with pytest.raises(RuntimeError, match="one server"):
                second.start()


class TestLifecycle:
    def test_stop_reaps_children_with_clean_exit_codes(self, splits):
        train, val, test = splits
        server = build_sharded_server(
            ("mf",), train, val, n_shards=2,
            config=ServerConfig(backend="process", max_wait_ms=0.5))
        with server:
            server.predict(test.demod[0])
            pids = dict(server.backend.worker_pids)
        assert server.backend.exit_codes == {0: 0, 1: 0}
        for pid in pids.values():
            deadline = time.time() + 5
            while time.time() < deadline:
                try:
                    os.kill(pid, 0)
                except OSError:
                    break            # gone: reaped, not orphaned
                time.sleep(0.01)
            else:
                pytest.fail(f"worker {pid} survived stop()")

    def test_stop_is_idempotent(self, splits):
        train, val, _ = splits
        server = build_sharded_server(("mf",), train, val,
                                      config=ServerConfig(backend="process"))
        server.start()
        server.stop()
        server.stop()
        assert server.backend.exit_codes == {0: 0}

    def test_killed_worker_fails_queued_requests_fast(self, splits):
        train, val, test = splits
        # Worker 1 is frozen first, so the burst's first batch stays in
        # flight on it and the rest forms behind that batch: the kill
        # always lands before any of the burst got an answer. Once that
        # batch sits in worker 1's ring, its failure (and so the first
        # future's) comes after the death is counted.
        server = build_sharded_server(
            ("mf",), train, val, n_shards=2,
            config=ServerConfig(backend="process", max_batch_traces=256,
                                max_wait_ms=50.0))
        with server:
            server.predict(test.demod[0], timeout=30)     # warm and live
            victim = server.backend.worker_pids[1]
            os.kill(victim, signal.SIGSTOP)
            futures = [server.submit(test.demod[i]) for i in range(40)]
            shipped_by = time.monotonic() + 30
            while not server.backend._handles[1]._pending:
                assert time.monotonic() < shipped_by
                time.sleep(0.001)
            os.kill(victim, signal.SIGKILL)

            outcomes = {"ok": 0, "closed": 0}
            started = time.perf_counter()
            for future in futures:
                try:
                    future.result(timeout=30)
                    outcomes["ok"] += 1
                except ServerClosedError:
                    outcomes["closed"] += 1
            elapsed = time.perf_counter() - started
            # Queued requests failed fast — no hang, typed error only.
            assert outcomes["closed"] == 40
            assert elapsed < 20
            assert server.stats.worker_deaths == 1

            # Requests after the death are refused just as fast.
            with pytest.raises(ServerClosedError, match="worker died"):
                server.predict(test.demod[0], timeout=30)
        # stop() still reaps both children; the kill is in the record.
        codes = server.backend.exit_codes
        assert codes[0] == 0
        assert codes[1] == -signal.SIGKILL
        snapshot = server.stats.snapshot()
        assert snapshot["worker_deaths"] == 1
        assert snapshot["failed"] >= 40


class TestQuantizedPath:
    def test_float16_bits_identical_across_backends(self, splits):
        # The opt-in quantized slab/ring path must be a *deterministic*
        # quantization: the same float16 traces produce the same bits
        # whether the shard engines run in threads or worker processes.
        train, val, test = splits
        thread_server = build_sharded_server(
            ("mf",), train, val, n_shards=2,
            config=ServerConfig(max_wait_ms=0.5, trace_dtype=np.float16))
        process_server = build_sharded_server(
            ("mf",), train, val, n_shards=2,
            config=ServerConfig(max_wait_ms=0.5, backend="process",
                                trace_dtype=np.float16))
        with thread_server:
            via_threads = thread_server.predict(
                test.demod[:40], timeout=30).bits_for("mf")
        with process_server:
            via_processes = process_server.predict(
                test.demod[:40], timeout=30).bits_for("mf")
        np.testing.assert_array_equal(via_threads, via_processes)


class TestRingCoalescing:
    def test_backlogged_batches_share_ring_round_trips(self, splits):
        # Saturate a single-slot ring so flushed micro-batches pile up in
        # the shard's submit queue, then verify the submitter packed them:
        # strictly fewer ring flushes than batches dispatched.
        train, val, test = splits
        server = build_sharded_server(
            ("mf",), train, val, n_shards=1,
            config=ServerConfig(
                backend=ProcessShardBackend(ring_slots=1, coalesce_batches=4),
                max_batch_traces=4, max_wait_ms=0.0))
        with server:
            futures = [server.submit(test.demod[i % test.n_traces])
                       for i in range(64)]
            for future in futures:
                future.result(timeout=60)
        snapshot = server.stats.snapshot()
        assert snapshot["ring_batches"] >= snapshot["ring_flushes"] > 0
        assert snapshot["ring_batches"] < snapshot["batches"] * 2
        assert snapshot["ring_coalesce_ratio"] >= 1.0
        # The pile-up behind the single slot must actually coalesce.
        assert snapshot["ring_flushes"] < snapshot["ring_batches"]
        assert server.stats.failed == 0

    def test_coalescing_disabled_maps_one_batch_per_flush(self, splits):
        train, val, test = splits
        server = build_sharded_server(
            ("mf",), train, val, n_shards=1,
            config=ServerConfig(
                backend=ProcessShardBackend(coalesce_batches=1),
                max_batch_traces=4, max_wait_ms=0.0))
        with server:
            for i in range(8):
                server.predict(test.demod[i], timeout=30)
        snapshot = server.stats.snapshot()
        assert snapshot["ring_flushes"] == snapshot["ring_batches"] > 0
        assert snapshot["ring_coalesce_ratio"] == 1.0


class TestEngineSpec:
    def test_spec_round_trip_preserves_predictions(self, splits):
        from repro.serve.procshard import engine_from_spec
        train, val, test = splits
        engine = ReadoutEngine(
            {"mf": make_design("mf", FAST_CONFIG).fit(train, val)})
        rebuilt = engine_from_spec(engine_to_spec(engine))
        assert rebuilt.design_names == engine.design_names
        assert rebuilt.dtype == engine.dtype
        assert rebuilt.chunk_size == engine.chunk_size
        demod = test.demod[:20].astype(np.float32)
        np.testing.assert_array_equal(
            rebuilt.predict_traces(demod, test.device)["mf"],
            engine.predict_traces(demod, test.device)["mf"])

    def test_spec_requires_pipelines(self):
        with pytest.raises(ValueError, match="pipelines"):
            engine_to_spec(object())
