"""Drift recovery: closed-loop recalibration vs a drifting device.

The paper fits its discriminators once, offline; any deployment serving
continuous traffic must instead survive what real devices do between
calibrations — resonator responses rotate and shrink, silently destroying
assignment fidelity. This experiment injects exactly that drift into a
two-qubit, two-feedline device and replays the *identical* traffic
timeline through two arms:

* **no-recal** — the server keeps its initial calibration forever;
* **calib-loop** — a :class:`~repro.calib.CalibrationLoop` ticks a
  :class:`~repro.calib.CalibrationWorker` once per window: each shard's
  fidelity monitor scores its columns of the served window, label-free
  score monitors watch each shard's batches, and an alarm outside the
  shard's one-window cooldown refits that shard alone (warm-started
  envelopes); validated candidates hot-swap into the serving shard with
  zero downtime.

Reported per window: both arms' served fidelity, the shards with a queued
alarm on the worker's tick, and the promoted swaps. The headline numbers —
drift-induced fidelity loss, the fraction the loop recovers, recovery
latency, swap count, and request failures during swaps (must be zero) —
land in ``data`` and are asserted by ``benchmarks/test_bench_calib.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.calib import (CalibrationLoop, CalibrationWorker,
                         DriftingSimulator, DriftSchedule, FidelityMonitor,
                         ParameterDrift, Recalibrator)
from repro.readout import DeviceParams, QubitReadoutParams
from repro.serve import ServerConfig, build_sharded_server

from .config import DEFAULT_CONFIG, ExperimentConfig
from .results import ExperimentResult

#: Traffic windows in the timeline; drift ramps from DRIFT_ONSET_WINDOWS
#: over DRIFT_RAMP_WINDOWS.
N_WINDOWS = 18
DRIFT_ONSET_WINDOWS = 4
DRIFT_RAMP_WINDOWS = 11

#: The served design. The threshold MF design is deterministic and cheap
#: to refit, so the experiment measures the *loop*, not head training.
SERVED_DESIGN = "mf"

#: Probe-window fidelity drop that defines "degraded" for the recovery
#: latency metric (matches the monitor's default sensitivity scale).
DEGRADED_TOLERANCE = 0.04


def drifting_two_qubit_device(noise_std: float = 1.0) -> DeviceParams:
    """A two-qubit, two-feedline device sized for drift studies.

    Comfortable separations and mid-range T1s: the initial calibration is
    strong (so drift-induced loss is unambiguous), and simulation stays
    cheap enough to replay many traffic windows per arm.
    """
    qubits = []
    for freq, angle, sep, sep_angle, t1 in (
            (72.0, 0.4, 0.40, 1.0, 8.0),
            (131.0, 1.6, 0.34, 2.6, 6.0)):
        ground = 0.9 * np.exp(1j * angle)
        qubits.append(QubitReadoutParams(
            intermediate_freq_mhz=freq,
            iq_ground=complex(ground),
            iq_excited=complex(ground + sep * np.exp(1j * sep_angle)),
            t1_us=t1,
            ring_up_rate_per_ns=0.012,
        ))
    crosstalk = np.array([[0.0, 0.03], [0.04, 0.0]])
    return DeviceParams(qubits=tuple(qubits), noise_std=noise_std,
                        crosstalk=crosstalk)


def recovery_schedule(traces_per_window: int) -> DriftSchedule:
    """The injected drift, scaled to the timeline's shot clock.

    Qubit 0's response rotates 2.2 rad (an uncompensated envelope is left
    projecting onto the wrong axis — near-chance discrimination); qubit 1
    rotates the other way later while its separation shrinks 25%. All
    linear ramps: the no-recalibration arm cannot luck back into
    fidelity.
    """
    onset = DRIFT_ONSET_WINDOWS * traces_per_window
    ramp = DRIFT_RAMP_WINDOWS * traces_per_window
    return DriftSchedule([
        ParameterDrift(parameter="iq_angle_rad", qubit=0, kind="linear",
                       magnitude=2.2, period_shots=ramp, start_shot=onset),
        ParameterDrift(parameter="iq_angle_rad", qubit=1, kind="linear",
                       magnitude=-1.7, period_shots=ramp,
                       start_shot=onset + 2 * traces_per_window),
        ParameterDrift(parameter="separation_scale", qubit=1, kind="linear",
                       magnitude=-0.25, period_shots=ramp,
                       start_shot=onset + 2 * traces_per_window),
    ])


@dataclass
class _Arm:
    """One replay of the timeline (with or without the calib loop)."""

    loop: CalibrationLoop
    fidelity: List[float]

    @property
    def server(self):
        return self.loop.server


def _run_arm(config: ExperimentConfig, *, recalibrate: bool,
             traces_per_window: int, calibration_shots: int) -> _Arm:
    device = drifting_two_qubit_device()
    simulator = DriftingSimulator(device,
                                  recovery_schedule(traces_per_window))

    # Initial calibration at shot 0 — identical across arms by seed.
    calib_rng = np.random.default_rng(config.seed + 20)
    initial = simulator.calibration_set(calibration_shots, calib_rng)
    train, val, _ = initial.split(np.random.default_rng(config.seed + 21),
                                  0.6, 0.15)
    server = build_sharded_server(
        (SERVED_DESIGN,), train, val, n_shards=2,
        config=ServerConfig(max_batch_traces=128, max_wait_ms=0.5)).start()

    worker = None
    if recalibrate:
        recalibrator = Recalibrator(
            server, calibration_shots_per_state=calibration_shots,
            warm_blend=0.25, min_improvement=0.0)
        monitors = {
            shard.feedline.index: FidelityMonitor(
                window=2 * traces_per_window,
                drop_tolerance=DEGRADED_TOLERANCE,
                min_observations=traces_per_window)
            for shard in server.shards}
        # One tick per window: the cooldown is one window long.
        worker = CalibrationWorker(
            server, recalibrator, simulator, fidelity_monitors=monitors,
            poll_interval_s=1.0, cooldown_s=1.0,
            rng=np.random.default_rng(config.seed + 30))
    loop = CalibrationLoop(server, simulator, worker, design=SERVED_DESIGN)
    loop.run(N_WINDOWS, traces_per_window,
             rng=np.random.default_rng(config.seed + 10))
    server.stop()
    return _Arm(loop=loop, fidelity=loop.fidelity_series())


def _recovery_latency(arm: _Arm, baseline: float) -> float:
    """Mean windows from first degradation to the promoting swap."""
    threshold = baseline - DEGRADED_TOLERANCE
    latencies = []
    degraded_since = None
    for record in arm.loop.records:
        if degraded_since is None and record.fidelity < threshold:
            degraded_since = record.window
        if record.swapped:
            if degraded_since is not None:
                latencies.append(record.window - degraded_since)
            degraded_since = None
    return float(np.mean(latencies)) if latencies else float("nan")


def run_drift_recovery(config: ExperimentConfig = DEFAULT_CONFIG,
                       ) -> ExperimentResult:
    """Replay one drifting timeline with and without the calib loop."""
    traces_per_window = int(min(400, max(80, config.shots_per_state)))
    calibration_shots = int(min(200, max(60, config.shots_per_state)))

    without = _run_arm(config, recalibrate=False,
                       traces_per_window=traces_per_window,
                       calibration_shots=calibration_shots)
    with_loop = _run_arm(config, recalibrate=True,
                         traces_per_window=traces_per_window,
                         calibration_shots=calibration_shots)

    rows = []
    for record, baseline_record in zip(with_loop.loop.records,
                                       without.loop.records):
        rows.append([
            record.window, record.end_shot,
            baseline_record.fidelity, record.fidelity,
            record.alarms, record.swapped,
        ])

    drifted = slice(DRIFT_ONSET_WINDOWS, N_WINDOWS)
    f0 = float(np.mean(without.fidelity[:DRIFT_ONSET_WINDOWS]))
    degraded = float(np.mean(without.fidelity[drifted]))
    maintained = float(np.mean(with_loop.fidelity[drifted]))
    loss = f0 - degraded
    recovered_fraction = float("nan") if loss <= 0 else (
        (maintained - degraded) / loss)

    stats = with_loop.server.stats.snapshot()
    summary = {
        "pre_drift_fidelity": f0,
        "no_recal_fidelity": degraded,
        "with_loop_fidelity": maintained,
        "drift_induced_loss": loss,
        "recovered_fraction": recovered_fraction,
        "swap_count": with_loop.loop.swap_count,
        "model_versions": stats["model_versions"],
        "recovery_latency_windows": _recovery_latency(with_loop, f0),
        "request_failures_with_loop": with_loop.loop.request_failures,
        "request_failures_no_recal": without.loop.request_failures,
        "traces_per_window": traces_per_window,
        "calibration_shots_per_state": calibration_shots,
    }

    return ExperimentResult(
        experiment="drift_recovery",
        title=("Closed-loop recalibration vs injected drift "
               "(fidelity over time, with/without the calib loop)"),
        headers=["window", "end_shot", "fid_no_recal", "fid_calib_loop",
                 "alarm", "swaps"],
        rows=rows,
        paper_reference=("beyond the paper: the paper calibrates offline "
                         "once (Section 6); this closes the loop for "
                         "continuous serving"),
        notes=(f"2-qubit/2-shard device, design {SERVED_DESIGN!r}, "
               f"{N_WINDOWS} windows x {traces_per_window} traces, drift "
               f"onset window {DRIFT_ONSET_WINDOWS}; recovered "
               f"{recovered_fraction:.0%} of the drift-induced loss with "
               f"{summary['swap_count']} hot swaps and "
               f"{summary['request_failures_with_loop']} request failures"),
        data={"summary": summary},
    )
