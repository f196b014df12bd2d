"""Recalibrator and calibration-loop tests over a live server."""

import numpy as np
import pytest

from repro.calib import (CalibrationLoop, DriftingSimulator, DriftSchedule,
                         FidelityMonitor, ParameterDrift, Recalibrator,
                         ScoreDriftMonitor, attach_score_monitors)
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
        report = recalibrator.recalibrate(simulator,
                                          np.random.default_rng(5))
        assert report.swapped == 1
        [shard] = report.shards
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
        report = recalibrator.recalibrate(simulator,
                                          np.random.default_rng(5))
        assert report.swapped == 0
        assert not report.shards[0].promoted
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

        Recalibrator(server, calibration_shots_per_state=60).recalibrate(
            source, np.random.default_rng(0))
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
        calib = simulator.calibration_set(100, np.random.default_rng(0))
        train, val, _ = calib.split(np.random.default_rng(1), 0.6, 0.15)
        server = build_sharded_server(
            ("mf",), train, val, n_shards=2,
            config=ServerConfig(max_wait_ms=0.5)).start()
        return simulator, server

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

    def test_recalibrate_scoped_to_shard_indices(self):
        simulator, server = self.make_two_shard()
        simulator.shot = 100
        recalibrator = Recalibrator(server, calibration_shots_per_state=100,
                                    min_improvement=0.05)
        # Scope the cycle to the healthy shard only: its candidate cannot
        # clear the margin, and the drifting shard must not be touched.
        report = recalibrator.recalibrate(simulator,
                                          np.random.default_rng(5),
                                          shard_indices=[0])
        assert [s.shard_index for s in report.shards] == [0]
        assert report.swapped == 0
        assert server.stats.model_versions == {}
        with pytest.raises(ValueError, match="no shard with feedline"):
            recalibrator.recalibrate(simulator, np.random.default_rng(5),
                                     shard_indices=[0, 9])
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


class TestCalibrationLoop:
    def test_closed_loop_recovers_fidelity(self):
        simulator = make_simulator(magnitude=2.2,
                                   start_shot=2 * 200)
        server = make_server(simulator)
        loop = CalibrationLoop(
            server, simulator,
            Recalibrator(server, calibration_shots_per_state=120),
            fidelity_monitor=FidelityMonitor(window=400,
                                             drop_tolerance=0.05,
                                             min_observations=100),
            recal_rng=np.random.default_rng(9))
        records = loop.run(n_windows=10, traces_per_window=200,
                           rng=np.random.default_rng(7))
        assert loop.swap_count >= 1
        assert loop.request_failures == 0
        assert any(r.alarm is not None for r in records)
        # After the step drift + recovery, serving fidelity is healthy
        # again by the final window.
        assert records[-1].fidelity > 0.9
        # Version counters prove zero-downtime promotions happened.
        assert server.stats.model_versions[0] >= 1
        server.stop()

    def test_monitor_only_loop_never_recalibrates(self):
        simulator = make_simulator(magnitude=2.2, start_shot=100)
        server = make_server(simulator)
        loop = CalibrationLoop(server, simulator, recalibrator=None)
        records = loop.run(n_windows=4, traces_per_window=150,
                           rng=np.random.default_rng(7))
        assert loop.swap_count == 0
        assert all(r.recalibration is None for r in records)
        # Fidelity visibly degrades with nobody fixing it.
        assert records[-1].fidelity < records[0].fidelity - 0.1
        server.stop()

    def test_cooldown_records_suppressed_alarm(self):
        # Regression: an alarm raised during a cooldown window used to be
        # overwritten to None, so the WindowRecord trail claimed nothing
        # fired. It must be kept, flagged suppressed, and not acted on.
        simulator = make_simulator(magnitude=0.0)
        server = make_server(simulator)
        loop = CalibrationLoop(
            server, simulator,
            # min_improvement=1: every attempt is rejected, so the alarm
            # keeps firing while cooldown windows tick down.
            Recalibrator(server, calibration_shots_per_state=60,
                         min_improvement=1.0),
            fidelity_monitor=FidelityMonitor(window=100, min_fidelity=1.01,
                                             min_observations=10),
            score_monitoring=False, cooldown_windows=2,
            recal_rng=np.random.default_rng(3))
        records = loop.run(n_windows=4, traces_per_window=60,
                           rng=np.random.default_rng(4))

        assert records[0].alarm is not None
        assert records[0].recalibration is not None
        assert not records[0].suppressed
        for record in records[1:3]:          # the two cooldown windows
            assert record.alarm is not None   # kept, not erased
            assert record.suppressed
            assert record.recalibration is None
        assert records[3].recalibration is not None   # cooldown over
        server.stop()

    def test_score_alarm_scopes_recalibration_to_its_shard(self):
        # A label-free alarm on one shard repairs that shard only — the
        # loop drives the same per-shard primitive the worker uses.
        # Onset at window 9: the score monitors' 8-batch warmup (one
        # micro-batch per window here) completes on healthy traffic first.
        schedule = DriftSchedule([
            ParameterDrift(parameter="iq_angle_rad", qubit=1, kind="step",
                           magnitude=2.0, start_shot=900),
        ])
        simulator = DriftingSimulator(drifting_two_qubit_device(), schedule)
        calib = simulator.calibration_set(100, np.random.default_rng(0))
        train, val, _ = calib.split(np.random.default_rng(1), 0.6, 0.15)
        server = build_sharded_server(
            ("mf",), train, val, n_shards=2,
            config=ServerConfig(max_wait_ms=0.5)).start()
        loop = CalibrationLoop(
            server, simulator,
            Recalibrator(server, calibration_shots_per_state=80),
            design="mf",
            # Effectively mute the whole-device fidelity monitor so the
            # per-shard score monitors drive detection.
            fidelity_monitor=FidelityMonitor(window=400,
                                             drop_tolerance=0.49,
                                             min_observations=400),
            recal_rng=np.random.default_rng(9))
        records = loop.run(n_windows=14, traces_per_window=100,
                           rng=np.random.default_rng(7))
        reports = [r.recalibration for r in records
                   if r.recalibration is not None]
        assert reports, "score monitors never triggered a recalibration"
        assert all({s.shard_index for s in report.shards} == {1}
                   for report in reports)
        assert server.stats.model_versions.get(1, 0) >= 1
        assert server.stats.model_versions.get(0, 0) == 0
        assert loop.request_failures == 0
        server.stop()

    def test_design_selection_validated(self):
        simulator = make_simulator()
        server = make_server(simulator)
        with pytest.raises(ValueError, match="unknown design"):
            CalibrationLoop(server, simulator, design="mf-rmf-nn")
        server.stop()
