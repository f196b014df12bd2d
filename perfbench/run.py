"""The repository benchmark: end-to-end readout metrics and a layer budget.

Run from the repository root::

    python3 perfbench/run.py --workload lone-tcp --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that splits each request's time
over the layers (``net``, ``serve``, ``engine``, ``core``) and writes its
spans to ``perfbench/out/``. Either way every served bit is checked
against an in-process oracle after the timed phase, and the stack's
accounting must reconcile. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the line before
it describes the workload and the host. Workloads, metrics and what each
per-layer metric should move are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
#: Declares every metric's name and unit; results report exactly these.
BENCHMARK = ROOT / "BENCHMARK.json"
sys.path.insert(0, str(SRC))

#: Timed full deploys per untraced run; ``setup_s`` is the fastest. Set-up
#: is CPU-bound, and on a shared host a neighbour's burst only ever adds
#: time to it: on a shared 2-vCPU host single deploys of one
#: ``poisson-small`` run ranged 0.9-1.8 s, and over five runs the per-run
#: median spread (IQR/median 0.27) about twice as far as the minimum.
#: One untimed deploy comes first: it pays the first-use imports and
#: caches (it took about twice as long as the later ones), not set-up.
SETUP_REPEATS = 5
WARMUP_S = 1.0
#: Back-to-back swaps timed on the idle server (traced run) for workloads
#: that carry none under load.
IDLE_SWAPS = 64
#: Untraced/traced alternating blocks in a traced run.
TRACE_BLOCKS = 4
RECORDER_CAPACITY = 1_000_000
#: Tail percentiles printed on the info line, not reported as metrics: on
#: a shared host, scheduling stalls delay a varying share of lone requests
#: by milliseconds, so even the p90 of ``lone-tcp`` followed the
#: neighbours' load (IQR 70% of the median over ten runs) while its p50
#: held within a few percent.
TAIL_PERCENTILES = (90, 95, 99, 99.9)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to exit.

    The process backend's shared-memory rings start it, and it would
    otherwise outlive this process for a moment. Stopped servers are
    collected first, so their semaphores unregister before it stops.
    """
    from multiprocessing import resource_tracker

    gc.collect()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def metric_units(kind: str) -> dict:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(BENCHMARK) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _result(correct, attempted, failed, values, units) -> str:
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()}})


def run_untraced(workload, seed: int, seconds: float):
    import numpy as np

    from checks import check_phases, open_loop_problems, reconcile
    from drivers import DRIVERS, Swapper
    from workloads import deploy

    setup_s, problems = [], []
    deployment = deploy(workload, seed)
    for _ in range(SETUP_REPEATS):
        deployment.close()
        problems += reconcile(deployment.server, deployment.service)
        start = time.perf_counter()
        deployment = deploy(workload, seed)
        setup_s.append(time.perf_counter() - start)
    server = deployment.server
    names = list(server.design_names)
    driver = DRIVERS[workload.arrival]
    kwargs = ({"swapper": Swapper(server, deployment.shards)}
              if workload.swap_every else {})
    try:
        warm = driver(deployment, WARMUP_S,
                      np.random.default_rng((seed, 10)), names, **kwargs)
        phase = driver(deployment, seconds,
                       np.random.default_rng((seed, 11)), names, **kwargs)
        phases = [warm, phase]
    finally:
        deployment.close()
    problems += reconcile(server, deployment.service)
    if workload.discipline == "open":
        problems += open_loop_problems(workload, phase,
                                       server.config.max_wait_ms)
    rss = peak_rss_mb()
    check = check_phases(deployment, phases, names)
    if abs(check["fidelity"] - check["evaluate_fidelity"]) > 1e-9:
        problems.append(f"served F_NQ {check['fidelity']} != evaluate "
                        f"{check['evaluate_fidelity']}")
    latencies = phase.latencies_s()
    values = {
        "setup_s": min(setup_s),
        "latency_p50_us": 1e6 * float(np.median(latencies)),
        "throughput_traces_per_s": phase.throughput_traces_per_s(),
        "success_fraction": 1.0 - check["failed"] / check["attempted"],
        "assignment_fidelity": check["fidelity"],
        "peak_rss_mb": rss,
    }
    info = {"setup_s_each": setup_s, "latency_samples": int(latencies.size),
            "tail_latency_us": {
                f"p{q:g}": {"value": 1e6 * float(np.percentile(latencies, q)),
                            "samples_beyond": int(latencies.size
                                                  * (1 - q / 100))}
                for q in TAIL_PERCENTILES},
            "swaps_under_load": len(phase.swaps_s), "check": check,
            "problems": problems}
    return values, check, problems, info


def run_traced(workload, seed: int, seconds: float):
    import numpy as np

    from checks import check_phases, open_loop_problems, reconcile
    from drivers import DRIVERS, Swapper
    from layers import (analyse_traces, bytes_per_request, dump_traces,
                        engine_counters, engine_timings, probe)
    from repro.obs import FlightRecorder
    from repro.serve.procshard import usable_cpu_count
    from workloads import deploy

    recorder = FlightRecorder(max_slowest=0, sample_size=RECORDER_CAPACITY)
    deployment = deploy(workload, seed, flight_recorder=recorder)
    server, service = deployment.server, deployment.service
    names = list(server.design_names)
    driver = DRIVERS[workload.arrival]
    swapper = Swapper(server, deployment.shards)
    kwargs = {"swapper": swapper} if workload.swap_every else {}
    try:
        warm = driver(deployment, WARMUP_S,
                      np.random.default_rng((seed, 20)), names, **kwargs)
        recorder.clear()
        net_before = service.net_stats.snapshot() if service else None
        blocks = []
        for b in range(TRACE_BLOCKS):
            server.tracer.sample_rate = 1.0 if b % 2 else 0.0
            blocks.append(driver(deployment, seconds / TRACE_BLOCKS,
                                 np.random.default_rng((seed, 21 + b)),
                                 names, **kwargs))
        traces = recorder.traces()
        stats = server.stats.snapshot()
        counters = engine_counters(server)
        net_after = service.net_stats.snapshot() if service else None
        if not workload.swap_every:
            for _ in range(IDLE_SWAPS):
                swapper.swap()
        probed = probe(deployment, names, np.random.default_rng((seed, 30)))
        probe_phase, probe_analysis, probe_stats, probe_net, problems = probed
    finally:
        deployment.close()
    problems += reconcile(server, service)
    if workload.discipline == "open":
        for block in blocks:
            problems += open_loop_problems(workload, block,
                                           server.config.max_wait_ms)
    timings = engine_timings(deployment.shards[0], deployment.traffic.demod)
    check = check_phases(deployment, [warm, *blocks, probe_phase], names)

    traced, untraced = blocks[1::2], blocks[0::2]
    calls = np.concatenate([np.stack([p.sent, p.done], axis=1)[p.ok]
                            for p in traced])
    main = analyse_traces(traces, calls if service else None)
    values = {metric: main[metric] for metric in metric_units("per_layer")
              if metric in main}
    if service is not None:
        values["net.bytes_per_request"] = bytes_per_request(net_after,
                                                            net_before)
    else:                          # net bypassed: priced by the probe
        for metric in values:
            if metric.startswith("net."):
                values[metric] = probe_analysis[metric]
        values["net.bytes_per_request"] = bytes_per_request(probe_net)
    ring_stats = stats
    if workload.backend != "process":  # rings bypassed: priced by the probe
        values["serve.ring_submit_us"] = probe_analysis["serve.ring_submit_us"]
        values["serve.ring_transit_us"] = probe_analysis[
            "serve.ring_transit_us"]
        ring_stats = probe_stats
    traffic = deployment.traffic
    values.update({
        "serve.batch_traces_mean": stats["mean_batch_traces"],
        "serve.slab_reuse_ratio": stats["slab_reuse_ratio"],
        "serve.dispatch_lag_us": 1e3 * stats["dispatch_lag_p50_ms"],
        "serve.ring_coalesce_ratio": ring_stats["ring_coalesce_ratio"],
        # Computed from geometry, not counted: per trace the submitter
        # writes its float64 demod into the ring and the worker writes
        # one int64 bit per design and qubit back.
        "serve.ring_bytes_per_trace": float(
            traffic.demod[0].nbytes + 8 * len(names) * traffic.n_qubits),
        **counters, **timings,
        "obs.trace_overhead_ratio": (
            np.median(np.concatenate([p.latencies_s() for p in traced]))
            / np.median(np.concatenate([p.latencies_s() for p in untraced]))),
        "loadgen.lag_p99_us": 1e6 * float(np.percentile(
            np.concatenate([p.lag for p in blocks]), 99)),
        "serve.swap_us": 1e6 * float(np.median(swapper.durations_s)),
        "host.usable_cores": usable_cpu_count(),
    })
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{workload.name}-seed{seed}-trace.json"
    with open(out_path, "w") as fh:
        json.dump({"workload": workload.name, "seed": seed,
                   "metrics": values, "budget": main["budget"],
                   "probe_budget": probe_analysis["budget"],
                   "traces": dump_traces(traces)}, fh)
    info = {"traced_requests": len(traces), "trace_file": str(out_path),
            "budget": main["budget"], "check": check, "problems": problems}
    return values, check, problems, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no source tree at {SRC}; run from a repository "
              f"checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    from repro.serve.procshard import usable_cpu_count
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    run = run_traced if args.trace else run_untraced
    values, check, problems, info = run(workload, args.seed, args.seconds)
    stop_resource_tracker()
    units = metric_units("per_layer" if args.trace else "end_to_end")
    correct = check["failed"] == 0 and not problems
    print(json.dumps({"workload": workload.describe(),
                      "host": {"usable_cores": usable_cpu_count()},
                      "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, **info}, default=float))
    print(_result(correct, check["attempted"], check["failed"], values,
                  units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
