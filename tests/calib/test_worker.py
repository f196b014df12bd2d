"""Background worker tests: probe scheduling, alarm queues, async repair."""

import time

import numpy as np
import pytest

from repro.calib import (CalibrationWorker, DriftAlarm, DriftingSimulator,
                         DriftSchedule, FidelityMonitor, ParameterDrift,
                         ProbeScheduler, Recalibrator)
from repro.experiments.drift_recovery import drifting_two_qubit_device
from repro.serve import ServerConfig, build_sharded_server, closed_loop


def make_simulator(magnitude=0.0, start_shot=0, qubit=1, kind="step",
                   period_shots=1000.0):
    schedule = DriftSchedule([
        ParameterDrift(parameter="iq_angle_rad", qubit=qubit, kind=kind,
                       magnitude=magnitude, period_shots=period_shots,
                       start_shot=start_shot),
    ]) if magnitude else DriftSchedule([])
    return DriftingSimulator(drifting_two_qubit_device(), schedule)


def make_server(simulator, seed=0):
    """A two-shard 'mf' server calibrated on the simulator's current truth."""
    calib = simulator.calibration_set(100, np.random.default_rng(seed))
    train, val, _ = calib.split(np.random.default_rng(seed + 1), 0.6, 0.15)
    return build_sharded_server(
        ("mf",), train, val, n_shards=2,
        config=ServerConfig(max_batch_traces=128, max_wait_ms=0.5)).start()


def dummy_alarm(detail="forced"):
    return DriftAlarm(monitor="test", statistic=1.0, threshold=0.0,
                      detail=detail)


class TestProbeScheduler:
    def test_duty_cycle_accounting(self):
        simulator = make_simulator()
        server = make_server(simulator)
        probes = ProbeScheduler(server, simulator, duty_cycle=0.1,
                                probe_batch=10,
                                rng=np.random.default_rng(3))
        # No traffic yet: nothing owed, nothing probed.
        assert probes.poll() == []
        assert server.stats.probes == 0

        traffic = simulator.generate_traffic(100, np.random.default_rng(4))
        server.predict(traffic.demod)
        probes.poll()               # 100 traces * 0.1 = 10 owed -> 1 batch
        assert server.stats.probes == 1
        assert server.stats.probe_traces == 10
        # The probe batch itself must not owe further probes.
        assert probes.poll() == []
        assert server.stats.probes == 1
        assert probes.owed_traces() < 10
        server.stop()

    def test_routes_outcomes_to_per_shard_monitors(self):
        simulator = make_simulator()
        server = make_server(simulator)
        probes = ProbeScheduler(server, simulator, duty_cycle=0.5,
                                probe_batch=20,
                                rng=np.random.default_rng(3))
        traffic = simulator.generate_traffic(40, np.random.default_rng(4))
        server.predict(traffic.demod)
        probes.poll()
        for shard_index in (0, 1):
            assert probes.monitors[shard_index].n_observations == 20
        # Enough evidence -> the first trusted estimate became baseline.
        probes2 = ProbeScheduler(server, simulator, duty_cycle=0.5,
                                 probe_batch=20,
                                 rng=np.random.default_rng(5))
        for _ in range(4):
            traffic = simulator.generate_traffic(40,
                                                 np.random.default_rng(6))
            server.predict(traffic.demod)
            probes2.poll()
        assert all(m.baseline is not None
                   for m in probes2.monitors.values())
        server.stop()

    def test_validation(self):
        simulator = make_simulator()
        server = make_server(simulator)
        with pytest.raises(ValueError, match="duty_cycle"):
            ProbeScheduler(server, simulator, duty_cycle=0.0)
        with pytest.raises(ValueError, match="probe_batch"):
            ProbeScheduler(server, simulator, probe_batch=0)
        with pytest.raises(ValueError, match="unknown design"):
            ProbeScheduler(server, simulator, design="mf-rmf-nn")
        with pytest.raises(ValueError, match="cover every shard"):
            ProbeScheduler(server, simulator,
                           monitors={0: FidelityMonitor()})
        server.stop()


class TestCalibrationWorkerLifecycle:
    def make_worker(self, server, simulator, **kwargs):
        recalibrator = Recalibrator(server, calibration_shots_per_state=60)
        return CalibrationWorker(server, recalibrator, simulator,
                                 poll_interval_s=0.005, **kwargs)

    def test_start_stop_join(self):
        simulator = make_simulator()
        server = make_server(simulator)
        worker = self.make_worker(server, simulator)
        assert not worker.running
        worker.start()
        assert worker.running
        worker.start()              # idempotent
        worker.stop()
        assert not worker.running
        worker.stop()               # idempotent
        with pytest.raises(RuntimeError, match="restarted"):
            worker.start()
        server.stop()

    def test_context_manager(self):
        simulator = make_simulator()
        server = make_server(simulator)
        with self.make_worker(server, simulator) as worker:
            assert worker.running
        assert not worker.running
        server.stop()

    def test_validation(self):
        simulator = make_simulator()
        server = make_server(simulator)
        other = make_server(simulator, seed=7)
        recalibrator = Recalibrator(other, calibration_shots_per_state=60)
        with pytest.raises(ValueError, match="different server"):
            CalibrationWorker(server, recalibrator, simulator)
        recalibrator = Recalibrator(server, calibration_shots_per_state=60)
        with pytest.raises(ValueError, match="poll_interval_s"):
            CalibrationWorker(server, recalibrator, simulator,
                              poll_interval_s=0)
        with pytest.raises(ValueError, match="cooldown_s"):
            CalibrationWorker(server, recalibrator, simulator,
                              cooldown_s=-1)
        other.stop()
        server.stop()

    def test_cooldown_suppresses_but_counts(self):
        # Deterministic single-tick driving: no thread, direct _tick calls.
        simulator = make_simulator()
        server = make_server(simulator)
        worker = self.make_worker(server, simulator, cooldown_s=60.0,
                                  score_monitoring=False)
        worker._enqueue_alarm(0, dummy_alarm())
        worker._tick()
        assert worker.stats.refits == 1
        assert worker.stats.alarms_suppressed == 0
        # A second alarm inside the (long) cooldown is counted suppressed,
        # never silently dropped, and triggers no refit.
        worker._enqueue_alarm(0, dummy_alarm("second"))
        worker._tick()
        assert worker.stats.refits == 1
        assert worker.stats.alarms_suppressed == 1
        server.stop()

    def test_suppressed_sticky_alarm_requeues_after_cooldown(self):
        # Regression: suppressing a sticky alarm must forget the dedup
        # entry, or the monitor's identical re-reports are deduped against
        # the suppressed object forever and the shard is never repaired.
        simulator = make_simulator()
        server = make_server(simulator)
        worker = self.make_worker(server, simulator, cooldown_s=60.0,
                                  score_monitoring=False)
        worker._enqueue_alarm(0, dummy_alarm())
        worker._tick()                       # refit; cooldown starts
        sticky = dummy_alarm("sticky")
        worker._enqueue_alarm(0, sticky)
        worker._tick()                       # suppressed
        worker._enqueue_alarm(0, sticky)     # the monitor re-reports it
        assert len(worker._alarms[0]) == 1   # must land in the queue again
        worker._cooldown_until[0] = 0.0      # cooldown over
        worker._tick()
        assert worker.stats.refits == 2
        server.stop()

    def test_sticky_alarm_enqueued_once(self):
        simulator = make_simulator()
        server = make_server(simulator)
        worker = self.make_worker(server, simulator,
                                  score_monitoring=False)
        alarm = dummy_alarm()
        worker._enqueue_alarm(1, alarm)
        worker._enqueue_alarm(1, alarm)      # sticky re-report
        assert len(worker._alarms[1]) == 1
        server.stop()


class TestBackgroundRepair:
    def test_repairs_only_the_drifting_shard(self):
        # Step-rotate qubit 1 (shard 1) after initial calibration; run
        # traffic from the main thread while the worker watches.
        simulator = make_simulator(magnitude=2.0, start_shot=300)
        server = make_server(simulator)
        recalibrator = Recalibrator(server, calibration_shots_per_state=80,
                                    min_improvement=0.005)
        probes = ProbeScheduler(server, simulator, duty_cycle=0.1,
                                probe_batch=20,
                                rng=np.random.default_rng(11))
        worker = CalibrationWorker(server, recalibrator, simulator,
                                   probes=probes, poll_interval_s=0.002,
                                   cooldown_s=0.2, warmup_batches=4,
                                   rng=np.random.default_rng(12)).start()
        rng = np.random.default_rng(13)
        failures = 0
        deadline = time.monotonic() + 30.0
        while worker.promotions == 0 and time.monotonic() < deadline:
            traffic = simulator.generate_traffic(150, rng)
            try:
                server.predict(traffic.demod, timeout=30)
            except Exception:  # noqa: BLE001 — count, keep the run honest
                failures += 1
            time.sleep(0.003)
        worker.stop()

        assert worker.promotions >= 1
        assert failures == 0
        # Surgical repair: only the drifting shard's version bumped.
        versions = server.stats.model_versions
        assert versions.get(1, 0) >= 1
        assert versions.get(0, 0) == 0
        assert all(r.shard_index == 1 for r in worker.records
                   if r.report is not None and r.report.promoted)
        assert worker.stats.refit_errors == 0
        assert worker.stats.tick_errors == 0
        # The repaired shard actually serves well again.
        probe = simulator.calibration_set(30, np.random.default_rng(14))
        bits = server.predict(probe.demod).bits_for("mf")
        assert np.mean(bits[:, 1] == probe.labels[:, 1]) > 0.85
        server.stop()

    def test_concurrent_swaps_under_loadgen_stress(self):
        # The satellite stress test: the worker promotes while closed-loop
        # traffic hammers the server. Zero request failures, and the
        # drifting shard's model versions climb strictly monotonically.
        simulator = make_simulator(magnitude=2.5, kind="linear",
                                   period_shots=8000.0)
        server = make_server(simulator)
        test_set = simulator.calibration_set(40, np.random.default_rng(20))
        recalibrator = Recalibrator(server, calibration_shots_per_state=60,
                                    min_improvement=0.0)
        worker = CalibrationWorker(server, recalibrator, simulator,
                                   poll_interval_s=0.002, cooldown_s=0.0,
                                   score_monitoring=False,
                                   rng=np.random.default_rng(21)).start()
        total_failed = 0
        for round_index in range(4):
            # Advance the drift, then alarm the drifting shard while the
            # load generator keeps traffic in flight.
            simulator.shot += 2000
            worker._enqueue_alarm(1, dummy_alarm(f"round {round_index}"))
            report = closed_loop(server, test_set, n_clients=4,
                                 requests_per_client=25,
                                 traces_per_request=2,
                                 seed=22 + round_index)
            total_failed += report.failed
        deadline = time.monotonic() + 20.0
        while (len(worker.records) < 4
               and time.monotonic() < deadline):
            time.sleep(0.01)
        worker.stop()

        assert total_failed == 0
        assert server.stats.failed == 0
        assert worker.stats.refit_errors == 0
        # Under a steadily drifting truth every refit beats the stale
        # incumbent: multiple promotions, strictly increasing versions.
        promoted_versions = [r.report.model_version for r in worker.records
                             if r.report is not None and r.report.promoted]
        assert len(promoted_versions) >= 2
        assert promoted_versions == sorted(promoted_versions)
        assert len(set(promoted_versions)) == len(promoted_versions)
        assert server.stats.model_versions.get(1, 0) == len(promoted_versions)
        assert server.stats.model_versions.get(0, 0) == 0
        server.stop()
