"""Recalibrator and calibration-loop tests over a live server."""

import numpy as np
import pytest

from repro.calib import (CalibrationLoop, CalibrationWorker,
                         DriftingSimulator, DriftSchedule, FidelityMonitor,
                         ParameterDrift, Recalibrator, ScoreDriftMonitor,
                         attach_score_monitors)
from repro.core import load_pipeline, make_design
from repro.engine import ReadoutEngine
from repro.experiments.drift_recovery import drifting_two_qubit_device
from repro.readout import single_qubit_device
from repro.serve import ServerConfig, build_sharded_server


def make_simulator(magnitude=2.2, start_shot=0):
    schedule = DriftSchedule([
        ParameterDrift(parameter="iq_angle_rad", kind="step",
                       magnitude=magnitude, start_shot=start_shot),
    ])
    return DriftingSimulator(single_qubit_device(), schedule)


def make_server(simulator, seed=0):
    """An 'mf' server calibrated on the simulator's current truth."""
    calib = simulator.calibration_set(120, np.random.default_rng(seed))
    train, val, _ = calib.split(np.random.default_rng(seed + 1), 0.6, 0.15)
    return build_sharded_server(
        ("mf",), train, val, n_shards=1,
        config=ServerConfig(max_wait_ms=0.5)).start()


def make_two_shard_server(simulator, max_batch_traces=256):
    """A two-shard 'mf' server calibrated on the simulator's truth."""
    calib = simulator.calibration_set(100, np.random.default_rng(0))
    train, val, _ = calib.split(np.random.default_rng(1), 0.6, 0.15)
    return build_sharded_server(
        ("mf",), train, val, n_shards=2,
        config=ServerConfig(max_batch_traces=max_batch_traces,
                            max_wait_ms=0.5)).start()


def fit_engine(simulator, seed=3):
    """A fresh fitted single-design engine at the simulator's truth."""
    calib = simulator.calibration_set(100, np.random.default_rng(seed))
    train, val, _ = calib.split(np.random.default_rng(seed + 1), 0.6, 0.15)
    engine = ReadoutEngine({"mf": make_design("mf").fit(train, val)})
    return engine, train.device


class TestRecalibrator:
    def test_promotes_under_drift(self, tmp_path):
        # Calibrate clean, then step-drift the device hard: the refit
        # candidate must beat the stale incumbent and get promoted.
        simulator = make_simulator(start_shot=50)
        server = make_server(simulator)
        simulator.shot = 100                 # past the onset: truth rotated
        recalibrator = Recalibrator(server,
                                    calibration_shots_per_state=120,
                                    snapshot_dir=str(tmp_path))
        shard = recalibrator.recalibrate_shard(0, simulator,
                                               np.random.default_rng(5))
        assert shard.shard_index == 0
        assert shard.promoted
        assert shard.candidate_fidelity > shard.incumbent_fidelity + 0.1
        assert shard.model_version == 1
        assert server.stats.model_versions == {0: 1}
        assert server.stats.swaps == 1
        # The promoted pipeline was snapshotted and round-trips.
        [snapshot] = sorted(tmp_path.glob("shard0_mf_v1.npz"))
        assert load_pipeline(str(snapshot)).fitted
        # The promoted engine actually serves: fidelity back up.
        probe = simulator.calibration_set(40, np.random.default_rng(6))
        bits = server.predict(probe.demod).bits_for("mf")
        assert np.mean(bits == probe.labels) > 0.9
        server.stop()

    def test_rejects_candidate_without_improvement(self):
        # No drift at all: a refit on fresh shots of the same truth cannot
        # clear a positive improvement margin, so the incumbent stays.
        simulator = make_simulator(magnitude=0.0)
        server = make_server(simulator)
        recalibrator = Recalibrator(server,
                                    calibration_shots_per_state=120,
                                    min_improvement=0.05)
        report = recalibrator.recalibrate_shard(0, simulator,
                                                np.random.default_rng(5))
        assert not report.promoted
        assert report.model_version == 0
        assert server.stats.swaps == 0
        assert server.stats.model_versions == {}
        server.stop()

    def test_callable_source(self):
        simulator = make_simulator(magnitude=0.0)
        server = make_server(simulator)
        calls = []

        def source(shots_per_state, rng):
            calls.append(shots_per_state)
            return simulator.calibration_set(shots_per_state, rng)

        recalibrator = Recalibrator(server, calibration_shots_per_state=60)
        recalibrator.recalibrate_shard(0, source, np.random.default_rng(0))
        assert calls == [60]
        server.stop()

    def test_validation(self):
        simulator = make_simulator()
        server = make_server(simulator)
        with pytest.raises(ValueError, match="calibration_shots_per_state"):
            Recalibrator(server, calibration_shots_per_state=2)
        with pytest.raises(ValueError, match="min_improvement"):
            Recalibrator(server, min_improvement=-0.1)
        server.stop()


class TestPerShardCycles:
    def make_two_shard(self, magnitude=2.0, start_shot=50):
        """Two-shard server; qubit 1 (shard 1) step-drifts at start_shot."""
        schedule = DriftSchedule([
            ParameterDrift(parameter="iq_angle_rad", qubit=1, kind="step",
                           magnitude=magnitude, start_shot=start_shot),
        ])
        simulator = DriftingSimulator(drifting_two_qubit_device(), schedule)
        return simulator, make_two_shard_server(simulator)

    def test_recalibrate_shard_repairs_one_shard(self):
        # Only shard 1 drifted; its independent cycle collects its own
        # calibration set and promotes without touching shard 0.
        simulator, server = self.make_two_shard()
        simulator.shot = 100                 # past onset: qubit 1 rotated
        recalibrator = Recalibrator(server, calibration_shots_per_state=100)
        report = recalibrator.recalibrate_shard(
            1, simulator, np.random.default_rng(5))
        assert report.shard_index == 1
        assert report.promoted
        assert report.candidate_fidelity > report.incumbent_fidelity + 0.1
        assert report.model_version == 1
        assert server.stats.model_versions == {1: 1}
        # The repaired shard serves well again; shard 0 kept version 0.
        probe = simulator.calibration_set(40, np.random.default_rng(6))
        bits = server.predict(probe.demod).bits_for("mf")
        assert np.mean(bits[:, 1] == probe.labels[:, 1]) > 0.9
        server.stop()

    def test_recalibrate_shard_unknown_index(self):
        simulator, server = self.make_two_shard()
        recalibrator = Recalibrator(server, calibration_shots_per_state=40)
        with pytest.raises(ValueError, match="no shard with feedline"):
            recalibrator.recalibrate_shard(7, simulator,
                                           np.random.default_rng(0))
        server.stop()


class TestAttachScoreMonitors:
    def test_monitor_count_must_match_shards(self):
        simulator = make_simulator()
        server = make_server(simulator)
        with pytest.raises(ValueError, match="one monitor per shard"):
            attach_score_monitors(server, [])
        server.stop()

    def test_stale_hook_detached_from_retired_engine(self):
        # Regression: re-attaching after a promotion must move the hook,
        # not leave the retired incumbent feeding the monitor forever.
        simulator = make_simulator(magnitude=0.0)
        server = make_server(simulator)
        monitor = ScoreDriftMonitor(n_qubits=1, warmup_batches=2)
        attach_score_monitors(server, [monitor])
        retired = server.shards[0].engine
        replacement, device = fit_engine(simulator)
        server.swap_engine(0, replacement, device=device)
        attach_score_monitors(server, [monitor])

        probe = simulator.calibration_set(10, np.random.default_rng(9))
        seen = monitor.batches_seen
        retired.predict_bits(probe)          # e.g. offline re-scoring
        assert monitor.batches_seen == seen  # stale hook would increment
        replacement.predict_bits(probe)
        assert monitor.batches_seen > seen
        server.stop()

    def test_rehook_survives_engine_id_reuse(self):
        # Regression for the id()-reuse bug: a replacement engine
        # allocated at a freed incumbent's address must still be hooked —
        # identity tracked by id() silently skips it, killing drift
        # monitoring for the shard after a promotion.
        simulator = make_simulator(magnitude=0.0)
        server = make_server(simulator)
        monitor = ScoreDriftMonitor(n_qubits=1, warmup_batches=2)
        calib = simulator.calibration_set(100, np.random.default_rng(5))
        train, val, _ = calib.split(np.random.default_rng(6), 0.6, 0.15)
        designs = {"mf": make_design("mf").fit(train, val)}

        # Each round hooks a freshly allocated incumbent, retires it, and
        # allocates one candidate: CPython's allocator hands back the
        # just-freed slot on most rounds (the litter list perturbs the
        # heap between rounds so retries are independent).
        reused, litter = None, []
        for _ in range(32):
            incumbent = ReadoutEngine(designs)
            server.swap_engine(0, incumbent, device=train.device)
            attach_score_monitors(server, [monitor])
            incumbent_id = id(incumbent)
            del incumbent
            server.swap_engine(0, ReadoutEngine(designs),
                               device=train.device)   # hooked engine freed
            candidate = ReadoutEngine(designs)
            if id(candidate) == incumbent_id:
                reused = candidate
                break
            litter.append(candidate)
        if reused is None:
            pytest.skip("allocator never reused a hooked engine's address")

        server.swap_engine(0, reused, device=train.device)
        attach_score_monitors(server, [monitor])
        probe = simulator.calibration_set(10, np.random.default_rng(9))
        seen = monitor.batches_seen
        reused.predict_bits(probe)
        assert monitor.batches_seen > seen   # id()-tracking skips the hook
        server.stop()


def loop_worker(server, simulator, *, monitor_kwargs, cooldown_windows=1,
                shots=120, min_improvement=0.0, **kwargs):
    """A hand-ticked worker: one tick per window, per-shard monitors."""
    recalibrator = Recalibrator(server, calibration_shots_per_state=shots,
                                min_improvement=min_improvement)
    monitors = {shard.feedline.index: FidelityMonitor(**monitor_kwargs)
                for shard in server.shards}
    return CalibrationWorker(server, recalibrator, simulator,
                             fidelity_monitors=monitors,
                             poll_interval_s=1.0,
                             cooldown_s=float(cooldown_windows), **kwargs)


class TestCalibrationLoop:
    def test_closed_loop_recovers_fidelity(self):
        simulator = make_simulator(magnitude=2.2,
                                   start_shot=2 * 200)
        server = make_server(simulator)
        worker = loop_worker(
            server, simulator,
            monitor_kwargs=dict(window=400, drop_tolerance=0.05,
                                min_observations=100),
            rng=np.random.default_rng(9))
        loop = CalibrationLoop(server, simulator, worker)
        records = loop.run(n_windows=10, traces_per_window=200,
                           rng=np.random.default_rng(7))
        assert loop.swap_count >= 1
        assert loop.request_failures == 0
        assert any(r.alarms for r in records)
        # After the step drift + recovery, serving fidelity is healthy
        # again by the final window.
        assert records[-1].fidelity > 0.9
        # Version counters prove zero-downtime promotions happened.
        assert server.stats.model_versions[0] >= 1
        assert not worker.running            # ticked by the loop only
        server.stop()

    def test_monitor_only_loop_never_recalibrates(self):
        # worker=None is the no-recalibration arm: serve and score only.
        simulator = make_simulator(magnitude=2.2, start_shot=100)
        server = make_server(simulator)
        loop = CalibrationLoop(server, simulator)
        records = loop.run(n_windows=4, traces_per_window=150,
                           rng=np.random.default_rng(7))
        assert loop.swap_count == 0
        assert all(r.alarms == 0 and not r.maintenance for r in records)
        assert server.stats.swaps == 0
        # Fidelity visibly degrades with nobody fixing it.
        assert records[-1].fidelity < records[0].fidelity - 0.1
        server.stop()

    def test_cooldown_records_suppressed_alarm(self):
        # An alarm raised inside a shard's cooldown is counted on the
        # window's record and in the worker's stats, triggers no refit,
        # and the refit resumes once the cooldown ticks out.
        simulator = make_simulator(magnitude=0.0)
        server = make_server(simulator)
        worker = loop_worker(
            server, simulator,
            # An unreachable floor keeps the alarm firing, and
            # min_improvement=1 rejects every candidate, so the alarm
            # outlives each refit.
            monitor_kwargs=dict(window=100, min_fidelity=1.01,
                                min_observations=10),
            cooldown_windows=2, shots=60, min_improvement=1.0,
            score_monitoring=False, rng=np.random.default_rng(3))
        loop = CalibrationLoop(server, simulator, worker)
        records = loop.run(n_windows=4, traces_per_window=60,
                           rng=np.random.default_rng(4))

        assert [r.alarms for r in records] == [1, 1, 1, 1]
        assert [len(r.maintenance) for r in records] == [1, 0, 0, 1]
        assert not any(m.report.promoted for r in records
                       for m in r.maintenance)
        assert worker.stats.alarms_suppressed == 2
        assert worker.stats.refits == 2
        server.stop()

    def test_score_alarm_scopes_recalibration_to_its_shard(self):
        # A label-free alarm on one shard repairs that shard only.
        # Onset at window 9: the score monitors' 8-batch warmup completes
        # on healthy traffic first.
        schedule = DriftSchedule([
            ParameterDrift(parameter="iq_angle_rad", qubit=1, kind="step",
                           magnitude=2.0, start_shot=900),
        ])
        simulator = DriftingSimulator(drifting_two_qubit_device(), schedule)
        server = make_two_shard_server(simulator)
        worker = loop_worker(
            server, simulator,
            # Effectively mute the labeled fidelity monitors so the
            # per-shard score monitors drive detection.
            monitor_kwargs=dict(window=400, drop_tolerance=0.49,
                                min_observations=400),
            shots=80, rng=np.random.default_rng(9))
        loop = CalibrationLoop(server, simulator, worker, design="mf")
        records = loop.run(n_windows=14, traces_per_window=100,
                           rng=np.random.default_rng(7))
        maintenance = [m for r in records for m in r.maintenance]
        assert maintenance, "score monitors never triggered a refit"
        assert {m.shard_index for m in maintenance} == {1}
        assert {m.alarm.monitor for m in maintenance} == {"score-drift"}
        assert server.stats.model_versions.get(1, 0) >= 1
        assert server.stats.model_versions.get(0, 0) == 0
        assert loop.request_failures == 0
        server.stop()

    def test_same_timeline_same_maintenance(self):
        # The hand-ticked policy is deterministic: one seeded drifting
        # timeline through two fresh servers repairs the same shards on
        # the same windows with the same outcomes. 100-trace requests
        # against a 128-trace batch cap make every request its own
        # micro-batch, so the score monitors see identical batches.
        def run_timeline():
            schedule = DriftSchedule([
                ParameterDrift(parameter="iq_angle_rad", qubit=0,
                               kind="linear", magnitude=2.2,
                               period_shots=1200, start_shot=600),
                ParameterDrift(parameter="iq_angle_rad", qubit=1,
                               kind="step", magnitude=2.0, start_shot=1400),
            ])
            simulator = DriftingSimulator(drifting_two_qubit_device(),
                                          schedule)
            server = make_two_shard_server(simulator, max_batch_traces=128)
            worker = loop_worker(
                server, simulator,
                monitor_kwargs=dict(window=400, drop_tolerance=0.04,
                                    min_observations=200),
                shots=80, rng=np.random.default_rng(9))
            loop = CalibrationLoop(server, simulator, worker,
                                   requests_per_window=2)
            records = loop.run(n_windows=12, traces_per_window=200,
                               rng=np.random.default_rng(7))
            server.stop()
            timeline = [
                (r.fidelity, r.alarms,
                 [(m.shard_index, m.alarm.monitor, m.report.promoted,
                   m.report.model_version) for m in r.maintenance])
                for r in records]
            return timeline, server.stats.snapshot()["model_versions"]

        first, versions = run_timeline()
        assert run_timeline() == (first, versions)
        cycles = [cycle for _, _, window in first for cycle in window]
        assert any(promoted for _, _, promoted, _ in cycles)
        # The timeline exercises both alarm sources and the cooldown.
        assert {monitor for _, monitor, _, _ in cycles} == {
            "fidelity", "score-drift"}
        assert any(alarms > len(window) for _, alarms, window in first)

    def test_design_selection_validated(self):
        simulator = make_simulator()
        server = make_server(simulator)
        with pytest.raises(ValueError, match="unknown design"):
            CalibrationLoop(server, simulator, design="mf-rmf-nn")
        other = make_server(simulator, seed=7)
        worker = loop_worker(other, simulator,
                             monitor_kwargs=dict(window=100,
                                                 min_observations=10))
        with pytest.raises(ValueError, match="different server"):
            CalibrationLoop(server, simulator, worker)
        # A worker ticked by its own thread and by the loop would refit
        # one shard twice at once.
        with loop_worker(server, simulator,
                         monitor_kwargs=dict(window=100,
                                             min_observations=10)) as running:
            with pytest.raises(ValueError, match="running"):
                CalibrationLoop(server, simulator, running)
        other.stop()
        server.stop()
