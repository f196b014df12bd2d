"""ServerConfig façade: pinned defaults, the server's copy, builder wiring."""

import dataclasses
import types

import pytest

from repro.core import FAST_CONFIG
from repro.engine import EngineStats
from repro.readout.sharding import plan_feedlines
from repro.serve import (ReadoutServer, ServeShard, ServerConfig,
                         build_sharded_server)

#: The server defaults, frozen here on purpose: a default that moves
#: changes behaviour for every caller that omits the knob.
PINNED_DEFAULTS = {
    "max_batch_traces": 256,
    "max_wait_ms": 2.0,
    "max_queue_requests": 1024,
    "overload": "reject",
    "trace_dtype": None,
    "latency_window": 8192,
    "backend": "thread",
    "trace_sample_rate": 0.0,
    "flight_recorder": None,
    "metrics": None,
    "telemetry_interval_s": None,
    "alert_rules": None,
    "bundle_dir": None,
}


class StubEngine:
    design_names = ["mf"]

    def __init__(self):
        self.stats = EngineStats()

    def predict_traces_into(self, demod, device, out):
        out["mf"][:] = demod[:, :, 0, 0] > 0
        return out


def one_shard():
    device = types.SimpleNamespace(n_qubits=5, n_bins=40)
    return [ServeShard(feedline=plan_feedlines(5, 1)[0],
                       engine=StubEngine(), device=device)]


class TestDefaults:
    def test_defaults_are_pinned(self):
        config = ServerConfig()
        for field in dataclasses.fields(ServerConfig):
            assert field.name in PINNED_DEFAULTS, (
                f"new knob {field.name!r}: add it to PINNED_DEFAULTS "
                f"deliberately, with its default pinned")
            assert getattr(config, field.name) \
                == PINNED_DEFAULTS[field.name], field.name
        assert len(dataclasses.fields(ServerConfig)) == len(PINNED_DEFAULTS)

    def test_no_config_builds_the_default_config(self):
        server = ReadoutServer(one_shard())
        assert server.config == ServerConfig()

    def test_config_is_kept_on_the_server(self):
        config = ServerConfig(max_wait_ms=0.25)
        server = ReadoutServer(one_shard(), config)
        assert server.config is config


class TestBuilderWiring:
    @pytest.fixture(scope="class")
    def splits(self, request):
        return request.getfixturevalue("small_splits")

    def test_builder_accepts_config(self, splits):
        train, val, _ = splits
        server = build_sharded_server(
            ("mf",), train, val, n_shards=2, training=FAST_CONFIG,
            config=ServerConfig(max_wait_ms=0.5, max_batch_traces=64))
        assert server.config.max_wait_ms == 0.5
        assert server.config.max_batch_traces == 64
        assert len(server.shards) == 2
