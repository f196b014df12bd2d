"""The benchmark's workloads and how each one is deployed.

A workload fixes everything about a run except its seed: the designs
served, the shard backend and shard count, the front end (TCP or
in-process ``submit``), the arrival discipline and the request size.
:func:`deploy` builds the whole stack for one workload from a seed, the
same way a user would: simulate a calibration set, fit the designs per
feedline shard, start the server (and the TCP listener), and wait for the
first healthy healthcheck. Its wall time is the benchmark's ``setup_s``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core import FAST_CONFIG
from repro.net import ReadoutClient, ReadoutService
from repro.readout import five_qubit_paper_device, generate_dataset
from repro.serve import ReadoutServer, ServerConfig, fit_serve_shards

MF_DESIGNS = ("mf", "mf-svm", "mf-nn", "mf-rmf-svm", "mf-rmf-nn")

#: The design whose served bits give ``assignment_fidelity`` (F_NQ).
FIDELITY_DESIGN = "mf-rmf-nn"

#: The calibration set (32 basis states x this many shots, split 80/15
#: into train/validation, the rest unused) is the same in every run, like
#: a device calibrated once, so fitting costs the same whatever the seed.
CALIBRATION_SEED = 42
CALIBRATION_SHOTS_PER_STATE = 60
TRAIN_FRACTION = 0.8
VAL_FRACTION = 0.15

#: The traffic set, simulated from ``--seed``: every request carries
#: traces drawn from it.
TRAFFIC_SHOTS_PER_STATE = 40

#: Budget for the setup healthcheck probe.
HEALTH_BUDGET_S = 30.0


@dataclass(frozen=True)
class Workload:
    """One seeded traffic shape against one server configuration.

    Why each workload exists is recorded in ``BENCHMARK.json`` and
    ``perfbench/README.md``.
    """

    name: str
    discipline: str                  # "open" or "closed"
    arrival: str                     # "uniform", "poisson" or "closed-loop"
    rate_per_s: float                # open loop: offered requests per second
    clients: int                     # load threads (= connections over TCP)
    traces_per_request: int
    designs: Tuple[str, ...]
    backend: str
    shards: int
    front_end: str                   # "tcp" or "in-process"
    swap_every: int                  # client-0 requests between swaps; 0 = none

    def describe(self) -> Dict[str, object]:
        """JSON-safe description, printed with every result."""
        out = asdict(self)
        out["designs"] = list(self.designs)
        out["server_config"] = "ServerConfig defaults"
        out["seed"] = "--seed: traffic traces and load schedule"
        return out


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="lone-tcp",
        discipline="open", arrival="uniform", rate_per_s=200.0, clients=1,
        traces_per_request=1, designs=("mf", FIDELITY_DESIGN),
        backend="thread", shards=1, front_end="tcp", swap_every=0),
    Workload(
        name="poisson-small",
        discipline="open", arrival="poisson", rate_per_s=3000.0, clients=1,
        traces_per_request=1, designs=MF_DESIGNS,
        backend="thread", shards=1, front_end="in-process", swap_every=0),
    Workload(
        name="bulk-swap",
        discipline="closed", arrival="closed-loop", rate_per_s=0.0,
        clients=2, traces_per_request=256, designs=MF_DESIGNS,
        backend="process", shards=2, front_end="in-process", swap_every=32),
)}


@dataclass
class Deployment:
    """A running stack for one workload, plus the data it was fitted on."""

    workload: Workload
    traffic: object                  # ReadoutDataset the requests draw from
    shards: list
    server: ReadoutServer
    service: Optional[ReadoutService] = None

    def close(self) -> None:
        """Drain the front end, then stop the server (reaps workers)."""
        if self.service is not None:
            self.service.stop()
        self.server.stop()


def make_data(seed: int):
    """``(train, val, traffic)``: fixed calibration splits, seeded traffic."""
    device = five_qubit_paper_device()
    calibration = generate_dataset(
        device, CALIBRATION_SHOTS_PER_STATE,
        np.random.default_rng(CALIBRATION_SEED))
    train, val, _ = calibration.split(
        np.random.default_rng(CALIBRATION_SEED + 1), TRAIN_FRACTION,
        VAL_FRACTION)
    traffic = generate_dataset(device, TRAFFIC_SHOTS_PER_STATE,
                               np.random.default_rng(seed))
    return train, val, traffic


def deploy(workload: Workload, seed: int, *,
           flight_recorder=None) -> Deployment:
    """Generate, fit, start and healthcheck one workload's stack.

    With ``flight_recorder`` the server traces every request into it
    (the traced run); otherwise tracing is off.
    """
    train, val, traffic = make_data(seed)
    shards = fit_serve_shards(workload.designs, train, val,
                              n_shards=workload.shards, training=FAST_CONFIG)
    config = ServerConfig(
        backend=workload.backend,
        trace_sample_rate=0.0 if flight_recorder is None else 1.0,
        flight_recorder=flight_recorder)
    server = ReadoutServer(shards, config)
    deployment = Deployment(workload=workload, traffic=traffic, shards=shards,
                            server=server)
    try:
        server.start()
        if workload.front_end == "tcp":
            deployment.service = ReadoutService(server).start()
            with ReadoutClient(*deployment.service.address) as client:
                healthy = client.healthcheck(HEALTH_BUDGET_S)["healthy"]
        else:
            healthy = server.healthcheck(HEALTH_BUDGET_S).healthy
        if not healthy:
            raise RuntimeError(f"{workload.name}: setup healthcheck failed")
    except BaseException:
        deployment.close()
        raise
    return deployment
