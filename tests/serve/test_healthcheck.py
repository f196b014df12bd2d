"""End-to-end health probes: per-shard verdicts on both backends."""

import json
import os
import signal
import time

import numpy as np
import pytest

from repro.serve import (HealthReport, ServerConfig, ShardHealth,
                         build_sharded_server)


@pytest.fixture(scope="module")
def splits(request):
    return request.getfixturevalue("small_splits")


@pytest.fixture(scope="module")
def thread_server(splits):
    train, val, _ = splits
    server = build_sharded_server(("mf",), train, val, n_shards=2,
                                  config=ServerConfig(max_wait_ms=0.5))
    with server:
        yield server


class TestShardHealthModel:
    def test_healthy_requires_alive_and_an_answer(self):
        answered = ShardHealth(shard_index=0, alive=True, round_trip_ms=1.0,
                               engine_version=0, backlog=0)
        silent = ShardHealth(shard_index=0, alive=True,
                             round_trip_ms=float("nan"),
                             engine_version=0, backlog=0)
        dead = ShardHealth(shard_index=0, alive=False, round_trip_ms=1.0,
                           engine_version=0, backlog=0)
        assert answered.healthy
        assert not silent.healthy
        assert not dead.healthy

    def test_report_as_dict_is_json_safe(self):
        report = HealthReport(healthy=True, probe_ok=True, budget_s=1.0,
                              shards=[ShardHealth(
                                  shard_index=0, alive=True,
                                  round_trip_ms=1.25, engine_version=2,
                                  backlog=0, pid=123)])
        payload = report.as_dict()
        json.dumps(payload)
        assert payload["shards"][0]["healthy"] is True


class TestThreadBackend:
    def test_healthy_server_all_shards_answer(self, thread_server):
        report = thread_server.healthcheck(budget_s=10.0)
        assert report.healthy and report.probe_ok
        assert report.error == ""
        assert sorted(s.shard_index for s in report.shards) == [0, 1]
        for shard in report.shards:
            assert shard.alive and shard.healthy
            assert np.isfinite(shard.round_trip_ms)
            assert shard.round_trip_ms > 0
            assert shard.engine_version == 0

    def test_probe_counts_in_stats(self, thread_server):
        before = thread_server.stats.snapshot()["submitted"]
        thread_server.healthcheck(budget_s=10.0)
        assert thread_server.stats.snapshot()["submitted"] == before + 1

    def test_budget_validation(self, thread_server):
        with pytest.raises(ValueError):
            thread_server.healthcheck(budget_s=0.0)

    def test_healthcheck_before_any_traffic(self, splits):
        # The probe must derive trace geometry without having seen a
        # request (and lazily start the server).
        train, val, _ = splits
        server = build_sharded_server(("mf",), train, val, n_shards=1,
                                      config=ServerConfig(max_wait_ms=0.5))
        with server:
            report = server.healthcheck(budget_s=10.0)
        assert report.healthy

    def test_stopped_server_reports_unhealthy(self, splits):
        train, val, _ = splits
        server = build_sharded_server(("mf",), train, val, n_shards=1,
                                      config=ServerConfig(max_wait_ms=0.5))
        with server:
            server.predict(np.zeros_like(server._probe_traces()))
        report = server.healthcheck(budget_s=2.0)
        assert not report.healthy
        assert not report.probe_ok
        assert report.error


class TestProcessBackend:
    def test_healthy_then_killed_worker_flagged(self, splits):
        train, val, _ = splits
        server = build_sharded_server(
            ("mf",), train, val, n_shards=2,
            config=ServerConfig(backend="process", max_wait_ms=0.5))
        with server:
            report = server.healthcheck(budget_s=30.0)
            assert report.healthy
            pids = {s.shard_index: s.pid for s in report.shards}
            assert all(pid is not None for pid in pids.values())

            os.kill(pids[0], signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            # Death detection is asynchronous (sentinel thread); poll the
            # probe until the verdict flips.
            while time.monotonic() < deadline:
                report = server.healthcheck(budget_s=5.0)
                if not report.healthy:
                    break
                time.sleep(0.1)
            assert not report.healthy
            by_index = {s.shard_index: s for s in report.shards}
            assert not by_index[0].alive
            assert not by_index[0].healthy
            assert "exit code" in by_index[0].detail
            # The surviving shard is still individually alive.
            assert by_index[1].alive
