"""Surviving device drift: the closed calibration loop in action.

Calibrates a two-qubit, two-shard readout service, then lets the simulated
device drift underneath it (resonator responses rotate away from the
fitted matched filters). A :class:`repro.calib.CalibrationLoop` scores
each served window and ticks a :class:`repro.calib.CalibrationWorker`
once per window: a shard whose monitor alarms is refit on its own
(warm-started from the incumbent envelopes), the candidate is validated
on held-out probes and hot-swapped into that serving shard — zero
downtime, visible as model-version bumps with no request failures.

Run:  PYTHONPATH=src python examples/calibration_loop.py
"""

import numpy as np

from repro.calib import (CalibrationLoop, CalibrationWorker,
                         DriftingSimulator, DriftSchedule, FidelityMonitor,
                         ParameterDrift, Recalibrator)
from repro.experiments.drift_recovery import drifting_two_qubit_device
from repro.serve import ServerConfig, build_sharded_server

TRACES_PER_WINDOW = 150
N_WINDOWS = 16


def main():
    device = drifting_two_qubit_device()
    schedule = DriftSchedule([
        # Qubit 0's resonator response rotates 2.3 rad over ~9 windows;
        # qubit 1's shrinks by 30% a little later.
        ParameterDrift(parameter="iq_angle_rad", qubit=0, kind="linear",
                       magnitude=2.3, period_shots=9 * TRACES_PER_WINDOW,
                       start_shot=3 * TRACES_PER_WINDOW),
        ParameterDrift(parameter="separation_scale", qubit=1, kind="linear",
                       magnitude=-0.3, period_shots=8 * TRACES_PER_WINDOW,
                       start_shot=5 * TRACES_PER_WINDOW),
    ])
    simulator = DriftingSimulator(device, schedule)

    print("calibrating 'mf' on the clean device, 2 feedline shards...")
    initial = simulator.calibration_set(150, np.random.default_rng(0))
    train, val, _ = initial.split(np.random.default_rng(1), 0.6, 0.15)
    server = build_sharded_server(
        ("mf",), train, val, n_shards=2,
        config=ServerConfig(max_wait_ms=0.5)).start()

    # Hand-ticked once per window: poll_interval_s=1.0 makes cooldown_s
    # a window count.
    worker = CalibrationWorker(
        server, Recalibrator(server, calibration_shots_per_state=150),
        simulator,
        fidelity_monitors={
            shard.feedline.index: FidelityMonitor(
                window=2 * TRACES_PER_WINDOW, drop_tolerance=0.04,
                min_observations=TRACES_PER_WINDOW)
            for shard in server.shards},
        poll_interval_s=1.0, cooldown_s=1.0, rng=np.random.default_rng(2))
    loop = CalibrationLoop(server, simulator, worker)

    print(f"serving {N_WINDOWS} windows x {TRACES_PER_WINDOW} traces of "
          f"drifting traffic:\n")
    print("window  fidelity  event")
    traffic_rng = np.random.default_rng(3)
    for _ in range(N_WINDOWS):
        record = loop.process_window(
            simulator.generate_traffic(TRACES_PER_WINDOW, traffic_rng))
        event = ""
        promoted = [m.report for m in record.maintenance
                    if m.report is not None and m.report.promoted]
        if promoted:
            validated = np.mean([r.candidate_fidelity for r in promoted])
            event = (f"recalibrated: {len(promoted)} shard(s) promoted, "
                     f"validated fidelity {validated:.3f}")
        elif record.maintenance:
            event = "recalibrated: candidate rejected"
        elif record.alarms:
            event = f"{record.alarms} alarm(s) in cooldown"
        print(f"{record.window:>6}  {record.fidelity:>8.3f}  {event}")

    stats = server.stats.snapshot()
    print(f"\n{loop.swap_count} hot swaps (model versions "
          f"{stats['model_versions']}), {loop.request_failures} request "
          f"failures, {stats['completed']} requests served")
    server.stop()


if __name__ == "__main__":
    main()
