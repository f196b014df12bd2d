"""Debug bundles: capture, partial capture, load, and the CLI."""

import json
import os
import subprocess
import sys

import pytest

from repro.obs.bundle import load_bundle, write_debug_bundle
from repro.obs.log import configure_event_log, log_event, remove_event_handler
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TelemetryStore
from repro.obs.trace import FlightRecorder, TraceContext


def make_sources():
    registry = MetricsRegistry()
    registry.counter("done").inc(7)
    store = TelemetryStore()
    store.ingest({"serve.completed": 10.0}, now=0.0)
    store.ingest({"serve.completed": 30.0}, now=1.0)
    recorder = FlightRecorder()
    trace = TraceContext(1, started_at=0.0)
    trace.add_span("inference", 0.0, 0.002)
    trace.finish(0.003)
    recorder.record(trace)
    return registry, store, recorder


class TestWriteDebugBundle:
    def test_explicit_sources(self, tmp_path):
        registry, store, recorder = make_sources()
        path = write_debug_bundle(str(tmp_path / "b"), registry=registry,
                                  telemetry=store,
                                  flight_recorder=recorder,
                                  reason="test")
        files = sorted(os.listdir(path))
        assert files == ["flight_recorder.json", "manifest.json",
                         "metrics.json", "telemetry.json"]
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest["reason"] == "test"
        assert manifest["pid"] == os.getpid()
        assert sorted(manifest["files"]) == [
            "flight_recorder.json", "metrics.json", "telemetry.json"]
        metrics = json.loads((tmp_path / "b" / "metrics.json").read_text())
        assert metrics["metrics"]["done"] == 7.0

    def test_partial_sources_never_fatal(self, tmp_path):
        class Broken:
            def dump(self):
                raise RuntimeError("mid-failure")

        path = write_debug_bundle(str(tmp_path / "b"),
                                  telemetry=Broken())
        payload = json.loads(
            (tmp_path / "b" / "telemetry.json").read_text())
        assert "RuntimeError" in payload["error"]
        assert os.path.exists(os.path.join(path, "manifest.json"))

    def test_event_log_tail_captured(self, tmp_path):
        log_path = tmp_path / "events.jsonl"
        handler = configure_event_log(path=str(log_path))
        try:
            for i in range(5):
                log_event("serve", "tick", n=i)
            write_debug_bundle(str(tmp_path / "b"), event_tail=3)
        finally:
            remove_event_handler(handler)
        tail = (tmp_path / "b" / "events_tail.jsonl").read_text()
        events = [json.loads(line) for line in tail.splitlines()]
        # The bundle-written event itself may land in the tail; the last
        # three ticks before the capture must be there.
        ticks = [e for e in events if e["event"] == "tick"]
        assert [e["n"] for e in ticks] == [2, 3, 4]

    def test_duck_typed_server(self, tmp_path):
        registry, store, recorder = make_sources()

        class FakeSampler:
            def __init__(self):
                self.store = store

        class FakeServer:
            metrics = registry
            telemetry = FakeSampler()
            alerts = None
            flight_recorder = recorder
            last_health = {"healthy": True, "shards": []}
            shards = ("shard0", "shard1")

        write_debug_bundle(str(tmp_path / "b"), FakeServer())
        loaded = load_bundle(str(tmp_path / "b"))
        assert loaded["health"]["healthy"] is True
        assert loaded["manifest"]["server"] == {"type": "FakeServer",
                                                "n_shards": 2}
        assert loaded["telemetry"]["series"]["serve.completed"]

    def test_process_server_manifest_names_shards_and_pids(self, tmp_path,
                                                           small_splits):
        from repro.net import ReadoutService
        from repro.serve import ServerConfig, build_sharded_server

        train, val, _ = small_splits
        server = build_sharded_server(
            ("mf",), train, val, n_shards=2,
            config=ServerConfig(backend="process"))
        with server, ReadoutService(server) as service:
            pids = server.backend.worker_pids
            write_debug_bundle(str(tmp_path / "server"), server)
            write_debug_bundle(str(tmp_path / "service"), service)
        assert sorted(pids) == [0, 1] and all(pids.values())
        for name in ("server", "service"):
            summary = load_bundle(str(tmp_path / name))["manifest"]["server"]
            assert summary["type"] == "ReadoutServer"
            assert summary["n_shards"] == 2
            assert summary["backend"] == "ProcessShardBackend"
            assert summary["worker_pids"] == {str(i): pid
                                              for i, pid in pids.items()}


class TestLoadBundle:
    def test_roundtrip(self, tmp_path):
        registry, store, recorder = make_sources()
        write_debug_bundle(str(tmp_path / "b"), registry=registry,
                           telemetry=store, flight_recorder=recorder)
        loaded = load_bundle(str(tmp_path / "b"))
        assert loaded["metrics"]["metrics"]["done"] == 7.0
        clone = TelemetryStore.from_dump(loaded["telemetry"])
        assert clone.latest("serve.completed") == 30.0
        assert loaded["flight_recorder"]["slowest"][0]["trace_id"] == 1

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_bundle(str(tmp_path / "nope"))

    def test_missing_files_are_absent_keys(self, tmp_path):
        write_debug_bundle(str(tmp_path / "b"))
        loaded = load_bundle(str(tmp_path / "b"))
        assert "manifest" in loaded
        assert "metrics" not in loaded
        assert "events_tail" not in loaded


class TestBundleCli:
    def test_cli_writes_a_bundle(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = ("src" + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else "src")
        out = subprocess.run(
            [sys.executable, "-m", "repro.obs.bundle",
             str(tmp_path / "b")],
            capture_output=True, text=True, env=env, timeout=120)
        assert out.returncode == 0, out.stderr
        assert "found in sys.modules" not in out.stderr
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest["reason"] == "cli"
