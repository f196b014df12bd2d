"""Async recovery: background per-shard recalibration under live traffic.

The ``drift_recovery`` experiment runs the *synchronous* calibration loop —
one window at a time, maintenance interleaved with traffic by construction.
This experiment exercises the deployment shape instead: a
:class:`~repro.calib.CalibrationWorker` thread watches a live two-shard
server while the main thread keeps submitting traffic windows, and drift is
injected into **one shard only**. The claims, asserted by
``benchmarks/test_bench_worker.py``:

* the worker detects the drifting shard (score-monitor batch hooks plus
  interleaved labeled probes at a duty cycle) and repairs it *per shard* —
  the healthy shard is never refit and its traffic sees no fidelity dip;
* traffic never stops: zero failed requests across both arms, with the
  repair visible only as the drifting shard's model-version bump;
* the repair recovers most of the drift-induced fidelity loss relative to
  a no-worker arm replaying the identical traffic seeds.

Reported per window: both arms' per-shard served fidelity and the worker's
cumulative promotions. Headline numbers land in ``data["summary"]``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.calib import (CalibrationWorker, DriftingSimulator, DriftSchedule,
                         ParameterDrift, ProbeScheduler, Recalibrator)
from repro.calib.loop import serve_window
from repro.serve import ServerConfig, build_sharded_server

from .config import DEFAULT_CONFIG, ExperimentConfig
from .drift_recovery import drifting_two_qubit_device
from .results import ExperimentResult

#: Traffic windows in the timeline; the step drift lands at the start of
#: window DRIFT_ONSET_WINDOWS (in the no-worker arm's shot clock).
N_WINDOWS = 26
DRIFT_ONSET_WINDOWS = 6

#: The served design (deterministic, cheap to refit — the experiment
#: measures the worker, not head training).
SERVED_DESIGN = "mf"

#: Which shard drifts (qubit 1 of the 2-qubit/2-shard device) and which
#: must stay undisturbed.
DRIFTING_SHARD = 1
HEALTHY_SHARD = 0

#: Each window is submitted as this many concurrent multi-trace requests.
REQUESTS_PER_WINDOW = 4

#: Probe bandwidth: fraction of served traffic re-spent on labeled probes.
PROBE_DUTY_CYCLE = 0.1


def single_shard_step_schedule(onset_shot: int) -> DriftSchedule:
    """A hard step rotation of qubit 1's response; qubit 0 never moves."""
    return DriftSchedule([
        ParameterDrift(parameter="iq_angle_rad", qubit=DRIFTING_SHARD,
                       kind="step", magnitude=2.0, start_shot=onset_shot),
    ])


@dataclass
class _WindowOutcome:
    """Per-shard served fidelity of one traffic window."""

    fidelity: Dict[int, float]
    failures: int
    promotions: int


@dataclass
class _Arm:
    outcomes: List[_WindowOutcome]
    stats: Dict[str, object]
    worker_stats: Optional[Dict[str, int]]
    request_failures: int

    def series(self, shard_index: int) -> List[float]:
        return [o.fidelity[shard_index] for o in self.outcomes]


def _serve_and_score(server, traffic, columns) -> _WindowOutcome:
    """Serve one window through the shared loop plumbing; score per shard."""
    predicted, rows, failures = serve_window(server, traffic, SERVED_DESIGN,
                                             REQUESTS_PER_WINDOW)
    if len(rows):
        labels = traffic.labels[rows]
        fidelity = {
            shard_index: float((predicted[:, idx] == labels[:, idx]).mean())
            for shard_index, idx in columns.items()
        }
    else:
        fidelity = {shard_index: float("nan") for shard_index in columns}
    return _WindowOutcome(fidelity=fidelity, failures=failures, promotions=0)


def _run_arm(config: ExperimentConfig, *, with_worker: bool,
             traces_per_window: int, calibration_shots: int) -> _Arm:
    onset = DRIFT_ONSET_WINDOWS * traces_per_window
    simulator = DriftingSimulator(drifting_two_qubit_device(),
                                  single_shard_step_schedule(onset))

    # Initial calibration at shot 0 — identical across arms by seed.
    initial = simulator.calibration_set(
        calibration_shots, np.random.default_rng(config.seed + 40))
    train, val, _ = initial.split(np.random.default_rng(config.seed + 41),
                                  0.6, 0.15)
    server = build_sharded_server(
        (SERVED_DESIGN,), train, val, n_shards=2,
        config=ServerConfig(max_batch_traces=128, max_wait_ms=0.5)).start()
    columns = {shard.feedline.index: list(shard.feedline.qubit_indices)
               for shard in server.shards}

    worker = None
    if with_worker:
        recalibrator = Recalibrator(
            server, calibration_shots_per_state=calibration_shots,
            warm_blend=0.25, min_improvement=0.005)
        probes = ProbeScheduler(
            server, simulator, duty_cycle=PROBE_DUTY_CYCLE, probe_batch=24,
            design=SERVED_DESIGN, rng=np.random.default_rng(config.seed + 50))
        worker = CalibrationWorker(
            server, recalibrator, simulator, probes=probes,
            poll_interval_s=0.002, cooldown_s=0.25, warmup_batches=6,
            rng=np.random.default_rng(config.seed + 51)).start()

    traffic_rng = np.random.default_rng(config.seed + 42)
    outcomes: List[_WindowOutcome] = []
    for _ in range(N_WINDOWS):
        traffic = simulator.generate_traffic(traces_per_window, traffic_rng)
        outcome = _serve_and_score(server, traffic, columns)
        if worker is not None:
            outcome.promotions = worker.promotions
            # Yield the GIL briefly so the maintenance thread gets its
            # tick between windows even on a single busy core.
            time.sleep(0.003)
        outcomes.append(outcome)

    worker_stats = None
    if worker is not None:
        worker.stop()
        worker_stats = worker.stats.as_dict()
    stats = server.stats.snapshot()
    server.stop()
    return _Arm(outcomes=outcomes, stats=stats, worker_stats=worker_stats,
                request_failures=sum(o.failures for o in outcomes))


def run_async_recovery(config: ExperimentConfig = DEFAULT_CONFIG,
                       ) -> ExperimentResult:
    """Replay one single-shard drift timeline with and without the worker."""
    traces_per_window = int(min(240, max(80, config.shots_per_state)))
    calibration_shots = int(min(160, max(50, config.shots_per_state)))

    without = _run_arm(config, with_worker=False,
                       traces_per_window=traces_per_window,
                       calibration_shots=calibration_shots)
    with_worker = _run_arm(config, with_worker=True,
                           traces_per_window=traces_per_window,
                           calibration_shots=calibration_shots)

    rows = []
    for window in range(N_WINDOWS):
        base = without.outcomes[window]
        live = with_worker.outcomes[window]
        rows.append([
            window,
            base.fidelity[HEALTHY_SHARD], base.fidelity[DRIFTING_SHARD],
            live.fidelity[HEALTHY_SHARD], live.fidelity[DRIFTING_SHARD],
            live.promotions,
        ])

    drifted = slice(DRIFT_ONSET_WINDOWS, N_WINDOWS)
    pre = slice(0, DRIFT_ONSET_WINDOWS)
    f0 = float(np.mean(without.series(DRIFTING_SHARD)[pre]))
    degraded = float(np.mean(without.series(DRIFTING_SHARD)[drifted]))
    maintained = float(np.mean(with_worker.series(DRIFTING_SHARD)[drifted]))
    loss = f0 - degraded
    recovered_fraction = float("nan") if loss <= 0 else (
        (maintained - degraded) / loss)

    healthy_baseline = float(np.mean(without.series(HEALTHY_SHARD)))
    healthy_min = float(np.min(with_worker.series(HEALTHY_SHARD)))
    versions = with_worker.stats["model_versions"]
    summary = {
        "pre_drift_fidelity": f0,
        "no_worker_fidelity": degraded,
        "with_worker_fidelity": maintained,
        "drift_induced_loss": loss,
        "recovered_fraction": recovered_fraction,
        "healthy_shard_baseline_fidelity": healthy_baseline,
        "healthy_shard_min_fidelity": healthy_min,
        "healthy_shard_dip": healthy_baseline - healthy_min,
        "drifting_shard_versions": int(versions.get(str(DRIFTING_SHARD), 0)),
        "healthy_shard_versions": int(versions.get(str(HEALTHY_SHARD), 0)),
        "model_versions": versions,
        "request_failures_with_worker": with_worker.request_failures,
        "request_failures_no_worker": without.request_failures,
        "server_failed_requests": int(with_worker.stats["failed"]),
        "probe_traces": with_worker.worker_stats["probe_traces"],
        "worker": with_worker.worker_stats,
        "traces_per_window": traces_per_window,
        "calibration_shots_per_state": calibration_shots,
    }

    return ExperimentResult(
        experiment="async_recovery",
        title=("Background per-shard recalibration under live traffic "
               "(one shard drifts; the other must not notice)"),
        headers=["window", "healthy_no_worker", "drift_no_worker",
                 "healthy_worker", "drift_worker", "promotions"],
        rows=rows,
        paper_reference=("beyond the paper: continuous asynchronous "
                         "maintenance of the per-feedline discriminators "
                         "the paper calibrates offline (Section 6)"),
        notes=(f"2-qubit/2-shard device, step rotation on shard "
               f"{DRIFTING_SHARD} only; worker recovered "
               f"{recovered_fraction:.0%} of the loss with "
               f"{summary['drifting_shard_versions']} promotion(s) on the "
               f"drifting shard, {summary['healthy_shard_versions']} on "
               f"the healthy one, and "
               f"{summary['request_failures_with_worker']} failed requests"),
        data={"summary": summary},
    )
