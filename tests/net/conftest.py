"""Shared fixtures for the network front-end tests.

The protocol/service/client mechanics are tested over stub engines (no
fitting, deterministic bits) so the suite runs fast; only the parity
suite fits real engines.
"""

from __future__ import annotations

import socket
import threading
import types

import numpy as np
import pytest

from repro.engine import EngineStats
from repro.net import ReadoutService
from repro.readout.sharding import plan_feedlines
from repro.serve import ReadoutServer, ServeShard, ServerConfig


class EchoEngine:
    """Deterministic stub: bit = sign of each qubit's first I bin."""

    design_names = ["mf"]

    def __init__(self):
        self.stats = EngineStats()

    def predict_traces_into(self, demod, device, out):
        out["mf"][:] = demod[:, :, 0, 0] > 0
        return out


class GateEngine(EchoEngine):
    """Stub whose predictions block until the test opens the gate."""

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()

    def predict_traces_into(self, demod, device, out):
        self.gate.wait(30.0)
        return super().predict_traces_into(demod, device, out)


def stub_server(engine=None, **knobs) -> ReadoutServer:
    """A one-shard server over a stub engine (5 qubits, 40 bins)."""
    knobs.setdefault("max_wait_ms", 0.5)
    device = types.SimpleNamespace(n_qubits=5, n_bins=40)
    shard = ServeShard(feedline=plan_feedlines(5, 1)[0],
                       engine=engine if engine is not None else EchoEngine(),
                       device=device)
    return ReadoutServer([shard], ServerConfig(**knobs))


def stub_traces(n: int = 8, seed: int = 0) -> np.ndarray:
    """A deterministic ``(n, 5, 2, 40)`` float64 trace stack."""
    return np.random.default_rng(seed).normal(size=(n, 5, 2, 40))


@pytest.fixture
def echo_service():
    """A started service over an echo-engine server."""
    server = stub_server()
    with server:
        with ReadoutService(server) as service:
            yield service


@pytest.fixture
def gated_service():
    """A started service whose engine blocks until ``gate`` opens."""
    engine = GateEngine()
    server = stub_server(engine=engine)
    with server:
        with ReadoutService(server, max_inflight_per_conn=2) as service:
            yield service, engine
        engine.gate.set()       # never leave a worker parked on teardown


def raw_connection(service: ReadoutService) -> socket.socket:
    """A plain TCP connection to a service (for hand-crafted frames)."""
    sock = socket.create_connection(service.address, timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock
