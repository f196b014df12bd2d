"""Calibration-loop benchmark: drift recovery and hot-swap overhead.

Two claims are asserted:

* the closed calib loop (monitors -> recalibrator -> hot swap) recovers
  >= 70% of the drift-induced fidelity loss relative to the
  no-recalibration baseline arm of the ``drift_recovery`` experiment,
  with promoted swaps observed (per-shard model versions > 0) and zero
  request failures — swaps must be invisible to traffic;
* ``swap_engine`` adds negligible serve-path overhead: a closed-loop load
  run with an aggressive background swapper sustains most of the
  swap-free throughput, again with zero failures.

Measured numbers land in ``benchmarks/results/bench_calib.json``.
"""

import json
import threading

import numpy as np

from repro.core import make_design
from repro.engine import ReadoutEngine
from repro.experiments import run_experiment
from repro.experiments.results import ExperimentResult
from repro.readout import generate_dataset, single_qubit_device
from repro.serve import ServerConfig, build_sharded_server, closed_loop

from conftest import json_result_path, run_once

SEED = 2023
#: Background swap cadence during the overhead run (aggressive on purpose:
#: a real recalibration promotes once per drift episode, not at 200 Hz).
SWAP_INTERVAL_S = 0.005
N_CLIENTS = 16
REQUESTS_PER_CLIENT = 200


def _swap_overhead() -> dict:
    """Closed-loop throughput with and without a background hot swapper."""
    device = single_qubit_device()
    data = generate_dataset(device, shots_per_state=120,
                            rng=np.random.default_rng(SEED))
    train, val, test = data.split(np.random.default_rng(SEED + 1), 0.5, 0.1)

    def run(swapping: bool):
        server = build_sharded_server(
            ("mf",), train, val, n_shards=1,
            config=ServerConfig(max_batch_traces=128, max_wait_ms=0.5))
        server.start()
        # Two fitted engines ping-ponged by the swapper; both serve the
        # same design so every swap is a legal promotion.
        engines = [
            ReadoutEngine({"mf": make_design("mf").fit(train, val)})
            for _ in range(2)
        ]
        stop = threading.Event()
        swaps_done = [0]

        def swapper():
            while not stop.wait(SWAP_INTERVAL_S):
                server.swap_engine(0, engines[swaps_done[0] % 2])
                swaps_done[0] += 1

        thread = None
        if swapping:
            thread = threading.Thread(target=swapper, daemon=True)
            thread.start()
        report = closed_loop(server, test, n_clients=N_CLIENTS,
                             requests_per_client=REQUESTS_PER_CLIENT,
                             traces_per_request=2, seed=SEED + 2)
        if thread is not None:
            stop.set()
            thread.join()
        server.stop()
        return report, swaps_done[0], server.stats.snapshot()

    baseline_report, _, baseline_stats = run(swapping=False)
    swapped_report, n_swaps, swapped_stats = run(swapping=True)
    for label, report in (("baseline", baseline_report),
                          ("swapping", swapped_report)):
        if report.failed or report.rejected:
            raise RuntimeError(
                f"degraded {label} load run ({report.failed} failed, "
                f"{report.rejected} rejected); overhead numbers would lie")
    return {
        "baseline_tps": baseline_report.traces_per_s(),
        "swapping_tps": swapped_report.traces_per_s(),
        "throughput_ratio": (swapped_report.traces_per_s()
                             / baseline_report.traces_per_s()),
        "swaps_during_run": n_swaps,
        "swapping_p99_ms": swapped_report.latency_ms(99),
        "baseline_p99_ms": baseline_report.latency_ms(99),
        "swapping_failed": swapped_report.failed,
        "model_versions": swapped_stats["model_versions"],
        "baseline_stats": baseline_stats,
    }


def run_bench_calib() -> ExperimentResult:
    recovery = run_experiment("drift_recovery")
    summary = recovery.data["summary"]
    overhead = _swap_overhead()

    return ExperimentResult(
        experiment="bench_calib",
        title=("Closed-loop recalibration: drift recovery and hot-swap "
               "overhead"),
        headers=["metric", "value"],
        rows=[
            ["pre_drift_fidelity", summary["pre_drift_fidelity"]],
            ["no_recal_fidelity", summary["no_recal_fidelity"]],
            ["with_loop_fidelity", summary["with_loop_fidelity"]],
            ["recovered_fraction", summary["recovered_fraction"]],
            ["swap_count", summary["swap_count"]],
            ["request_failures", summary["request_failures_with_loop"]],
            ["swap_throughput_ratio", overhead["throughput_ratio"]],
            ["swaps_during_load_run", overhead["swaps_during_run"]],
        ],
        notes=(f"recovery arm: {summary['swap_count']} promoted swaps, "
               f"versions {summary['model_versions']}; overhead arm: "
               f"{overhead['swaps_during_run']} background swaps at "
               f"{1 / SWAP_INTERVAL_S:.0f} Hz during a "
               f"{N_CLIENTS}-client closed loop"),
        data={"recovery": summary, "overhead": overhead},
    )


def test_bench_calib(benchmark, record_result):
    result = run_once(benchmark, run_bench_calib)
    record_result(result)
    recovery = result.data["recovery"]
    overhead = result.data["overhead"]

    # Acceptance: the loop recovers >= 70% of the drift-induced loss
    # (measured ~90%; the bound leaves room for scheduler noise)...
    assert recovery["drift_induced_loss"] > 0.05
    assert recovery["recovered_fraction"] >= 0.70
    # ...with real promoted hot swaps observed on the version counters...
    assert recovery["swap_count"] >= 1
    assert any(int(v) > 0 for v in recovery["model_versions"].values())
    # ...and zero request failures: swaps are invisible to traffic.
    assert recovery["request_failures_with_loop"] == 0

    # Hot swapping at 200 Hz costs almost nothing on the serve path: the
    # reference swap is an attribute assignment at a batch boundary
    # (measured ~1.0x; asserted loosely for loaded CI machines).
    assert overhead["swaps_during_run"] >= 5
    assert overhead["swapping_failed"] == 0
    assert overhead["throughput_ratio"] >= 0.5

    payload = json.loads(json_result_path(result.experiment).read_text())
    assert payload["data"]["recovery"]["recovered_fraction"] == (
        recovery["recovered_fraction"])
