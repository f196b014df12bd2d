"""Continuous monitoring wired through the server: telemetry, alerts,
auto-bundles, and the console — on live traffic."""

import os
import signal
import time

import numpy as np
import pytest

from repro.calib import (CalibrationWorker, DriftingSimulator,
                         DriftSchedule, Recalibrator)
from repro.experiments.drift_recovery import drifting_two_qubit_device
from repro.obs import SeriesRule, load_bundle, render_console
from repro.serve import ServerConfig, build_sharded_server
from repro.serve.loadgen import closed_loop


@pytest.fixture(scope="module")
def splits(request):
    return request.getfixturevalue("small_splits")


class TestServerWiring:
    def test_monitoring_off_by_default(self, splits):
        train, val, _ = splits
        server = build_sharded_server(("mf",), train, val, n_shards=1,
                                      config=ServerConfig(max_wait_ms=0.5))
        assert server.telemetry is None
        assert server.alerts is None

    def test_alert_options_require_telemetry(self, splits):
        train, val, _ = splits
        with pytest.raises(ValueError):
            build_sharded_server(("mf",), train, val, n_shards=1,
                                 config=ServerConfig(bundle_dir="/tmp/x"))
        with pytest.raises(ValueError):
            build_sharded_server(("mf",), train, val, n_shards=1,
                                 config=ServerConfig(alert_rules=[]))

    def test_sampler_lifecycle_follows_server(self, splits, tmp_path):
        train, val, test = splits
        server = build_sharded_server(
            ("mf",), train, val, n_shards=2,
            config=ServerConfig(max_wait_ms=0.5, telemetry_interval_s=0.02))
        with server:
            assert server.telemetry.running
            closed_loop(server, test, n_clients=2, requests_per_client=5)
            deadline = time.monotonic() + 10.0
            store = server.telemetry.store
            while time.monotonic() < deadline:
                latest = store.latest("serve.completed")
                if latest is not None and latest >= 10.0:
                    break
                time.sleep(0.01)
            assert store.latest("serve.completed") >= 10.0
            # The whole stack lands in one store: serve stats, engine
            # counters, recorder stats, the sampler's own health, and
            # the alert gauge.
            names = store.names()
            assert any(n.startswith("engine.") for n in names)
            assert any(n.startswith("flight_recorder.") for n in names)
            assert store.latest("telemetry.samples") >= 1.0
            assert store.latest("metrics.alerts_active") == 0.0
        assert not server.telemetry.running
        # Clean traffic, default rules: nothing fired.
        assert server.alerts.total_fired() == 0

    def test_calib_worker_joins_server_registry(self):
        simulator = DriftingSimulator(drifting_two_qubit_device(),
                                      DriftSchedule([]))
        calib = simulator.calibration_set(100, np.random.default_rng(5))
        train, val, _ = calib.split(np.random.default_rng(6), 0.6, 0.15)
        server = build_sharded_server(
            ("mf",), train, val, n_shards=2,
            config=ServerConfig(max_wait_ms=0.5, telemetry_interval_s=0.02))
        recalibrator = Recalibrator(server, calibration_shots_per_state=60)
        worker = CalibrationWorker(server, recalibrator, simulator,
                                   poll_interval_s=0.005)
        with server:
            with worker:
                traffic = simulator.generate_traffic(
                    50, np.random.default_rng(7))
                server.predict(traffic.demod)
                deadline = time.monotonic() + 10.0
                store = server.telemetry.store
                while time.monotonic() < deadline:
                    if (store.latest("calib.ticks") or 0.0) >= 1.0:
                        break
                    time.sleep(0.01)
                # Maintenance counters ride the same telemetry stream.
                assert store.latest("calib.ticks") >= 1.0
                assert store.latest("calib.running") == 1.0


class TestWorkerDeathAlert:
    def test_kill_fires_once_bundles_and_renders(self, splits, tmp_path):
        train, val, test = splits
        bundle_root = str(tmp_path / "bundles")
        server = build_sharded_server(
            ("mf",), train, val, n_shards=2,
            config=ServerConfig(backend="process", max_wait_ms=0.5,
                                telemetry_interval_s=0.02,
                                trace_sample_rate=0.25,
                                bundle_dir=bundle_root))
        with server:
            closed_loop(server, test, n_clients=2, requests_per_client=5)
            report = server.healthcheck(budget_s=30.0)
            assert report.healthy
            assert server.last_health is report

            pids = {s.shard_index: s.pid for s in report.shards}
            os.kill(pids[0], signal.SIGKILL)
            state = server.alerts.state("worker_death")
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline and not state.firing:
                # Death detection needs traffic on the dead ring.
                try:
                    closed_loop(server, test, n_clients=1,
                                requests_per_client=2)
                except Exception:
                    pass
                time.sleep(0.05)
            assert state.firing

            # Edge-triggered: the death stays inside the rule window for
            # many more samples, yet fires exactly once.
            samples_before = server.telemetry.samples
            deadline = time.monotonic() + 10.0
            while (time.monotonic() < deadline
                   and server.telemetry.samples < samples_before + 10):
                time.sleep(0.01)
            assert state.fired_count == 1

            # The firing edge wrote a postmortem bundle automatically.
            bundle_dir = os.path.join(bundle_root, "alert-worker_death-1")
            assert os.path.isdir(bundle_dir)
            loaded = load_bundle(bundle_dir)
            assert loaded["alerts"]["rules"]["worker_death"]["firing"]
            assert loaded["manifest"]["reason"] == "alert:worker_death"
            deaths = loaded["telemetry"]["series"]["serve.worker_deaths"]
            assert deaths[0][1] == 0.0 and deaths[-1][1] >= 1.0

            # And the console renders it (same path as the CLI).
            text = render_console(bundle_dir)
            assert "[FIRING] worker_death (critical)" in text
            assert "worker deaths" in text
        # One fire, no spam — stop() did not re-fire it either.
        assert server.alerts.state("worker_death").fired_count == 1


class TestCustomRules:
    def test_custom_rule_replaces_defaults(self, splits):
        train, val, test = splits
        rule = SeriesRule("any_traffic", "serve.completed", 0.0,
                          mode="delta", window_s=60.0)
        server = build_sharded_server(
            ("mf",), train, val, n_shards=1,
            config=ServerConfig(max_wait_ms=0.5, telemetry_interval_s=0.02,
                                alert_rules=[rule]))
        with server:
            assert [r.name for r in server.alerts.rules] == ["any_traffic"]
            closed_loop(server, test, n_clients=1, requests_per_client=3)
            state = server.alerts.state("any_traffic")
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and not state.firing:
                time.sleep(0.01)
            assert state.firing
        assert state.fired_count == 1


class TestHealthCaching:
    def test_last_health_none_until_probed(self, splits):
        train, val, _ = splits
        server = build_sharded_server(("mf",), train, val, n_shards=1,
                                      config=ServerConfig(max_wait_ms=0.5))
        assert server.last_health is None
        with server:
            report = server.healthcheck(budget_s=10.0)
        assert server.last_health is report

    def test_probe_geometry_unchanged(self, splits):
        # The monitoring additions must not disturb the probe path.
        train, val, _ = splits
        server = build_sharded_server(
            ("mf",), train, val, n_shards=1,
            config=ServerConfig(max_wait_ms=0.5, telemetry_interval_s=0.05))
        with server:
            probe = server._probe_traces()
            assert probe.shape[1] == server.n_qubits
            assert np.all(probe == 0)
