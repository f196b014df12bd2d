"""Per-layer measurements: trace budgets, engine/stage timings, probes.

**Trace budget.** A traced request carries the server's spans (net
decode/encode, submit, slab copy, queue wait, batch seal, dispatch, ring
submit/transit, worker inference, response scatter, resolve). The
request's interval, from the trace's start to its last span end, is
split so that every instant belongs to exactly one span — the covering
span that started last — or to nobody. A span's share is its *self
time*: for properly nested spans that is its duration minus the part
its child spans cover (ring transit minus the worker's inference inside
it); for spans that merely overlap, the later one takes over. Time no
span covers is ``layers.unaccounted_us``. ``/shardN`` suffixes are
dropped, so parallel shards share one name.

**Engine and stages.** ``predict_traces_into`` and each distinct fitted
stage's ``transform`` are timed directly on the workload's own engine
(shard 0's, the largest feedline group) at 1 and ``BULK_TRACES`` traces.

**Probes.** A workload that bypasses a layer still reports that layer's
metrics, measured by a probe in the same run: paced requests of the
workload's own shape through a ReadoutClient into a process-backend
server over the same fitted shards (the workload's own server when it is
already a process server). The probe cannot move the workload's
end-to-end numbers; it prices the bypassed layer for that request shape.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.pipeline import KIND_BITS, KIND_DATASET
from repro.net import ReadoutService
from repro.obs import FlightRecorder
from repro.readout.dataset import ReadoutDataset
from repro.serve import ReadoutServer, ServerConfig

from checks import reconcile
from drivers import paced_tcp

#: Span (``/shardN`` stripped) -> the per-layer metric its self time feeds.
SPAN_METRICS = {
    "net_decode": "net.decode_us",
    "net_encode": "net.encode_us",
    "submit": "serve.submit_us",
    "slab_copy": "serve.slab_copy_us",
    "queue_wait": "serve.queue_wait_us",
    "batch_seal": "serve.batch_seal_us",
    "dispatch": "serve.dispatch_us",
    "ring_submit": "serve.ring_submit_us",
    "ring_transit": "serve.ring_transit_us",
    "worker_inference": "engine.inference_us",
    "response_scatter": "serve.response_scatter_us",
    "resolve": "serve.resolve_us",
}

#: Traces analysed per run (evenly spaced); enough for stable p50/p99.
MAX_ANALYSED = 4000

PROBE_REQUESTS = 100
PROBE_PERIOD_S = 0.004

#: The bulk size for engine and stage timings (= ``max_batch_traces``).
BULK_TRACES = 256
STAGE_KINDS = ("mf-bank", "mf-rmf-bank", "duration-scaler", "linear-head",
               "fnn-head")


def exclusive_times(spans: Sequence[Tuple[str, float, float]], start: float,
                    end: float) -> Tuple[Dict[str, float], float]:
    """Split ``[start, end]`` among spans; returns (self times, uncovered)."""
    points = sorted({start, end, *(min(max(s, start), end)
                                   for _, s, _ in spans),
                     *(min(max(e, start), end) for _, _, e in spans)})
    self_time: Dict[str, float] = defaultdict(float)
    uncovered = 0.0
    for a, b in zip(points, points[1:]):
        owner = None
        for span in spans:
            _, s, e = span
            if s <= a and e >= b and (owner is None or s > owner[1]
                                      or (s == owner[1] and e < owner[2])):
                owner = span
        if owner is None:
            uncovered += b - a
        else:
            self_time[owner[0]] += b - a
    return self_time, uncovered


def _span_name(name: str) -> str:
    return name.split("/", 1)[0]


def _p(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _evenly(traces, limit: int = MAX_ANALYSED):
    """Finished traces in start order, thinned evenly to ``limit``."""
    traces = sorted((t for t in traces if t.finished and t.spans),
                    key=lambda t: t.started_at)
    if len(traces) <= limit:
        return traces
    return [traces[i] for i in
            np.linspace(0, len(traces) - 1, limit).astype(int)]


def analyse_traces(traces, calls: Optional[np.ndarray] = None
                   ) -> Dict[str, object]:
    """Per-layer self-time percentiles over finished request traces.

    ``calls`` is an optional ``(n, 2)`` array of client ``(sent, done)``
    times around ``ReadoutClient.predict``; each trace is matched to the
    call whose interval contains its start, giving the client call time
    and the network overhead (client call minus the server-side span).
    """
    traces = _evenly(traces)
    per_span: Dict[str, List[float]] = defaultdict(list)
    unaccounted, totals, client_call, overhead = [], [], [], []
    for trace in traces:
        spans = [(_span_name(n), s, e) for n, s, e in trace.spans]
        end = max(trace.ended_at, max(e for _, _, e in spans))
        self_time, uncovered = exclusive_times(spans, trace.started_at, end)
        for name, seconds in self_time.items():
            per_span[name].append(seconds)
        unaccounted.append(uncovered)
        totals.append(end - trace.started_at)
        if calls is not None and len(calls):
            i = int(np.searchsorted(calls[:, 0], trace.started_at)) - 1
            if i >= 0 and calls[i, 1] >= trace.started_at:
                call = calls[i, 1] - calls[i, 0]
                client_call.append(call)
                overhead.append(call - (end - trace.started_at))
    us = 1e6
    out: Dict[str, object] = {
        metric: us * _p(per_span.get(span, ()), 50)
        for span, metric in SPAN_METRICS.items()}
    out["serve.queue_wait_p99_us"] = us * _p(per_span.get("queue_wait", ()),
                                             99)
    out["layers.unaccounted_us"] = us * _p(unaccounted, 50)
    out["net.client_call_us"] = us * _p(client_call, 50)
    out["net.overhead_us"] = us * _p(overhead, 50)
    out["budget"] = {
        "requests_analysed": len(traces),
        "trace_p50_us": us * _p(totals, 50),
        "self_p50_us": {name: us * _p(v, 50)
                        for name, v in sorted(per_span.items())},
        "self_mean_us": {name: us * float(np.sum(v)) / max(1, len(traces))
                         for name, v in sorted(per_span.items())},
        "unaccounted_mean_us": us * float(np.mean(unaccounted or [0.0])),
    }
    return out


def dump_traces(traces) -> List[Dict[str, object]]:
    """JSON-safe spans of the traces :func:`analyse_traces` analyses."""
    return [t.to_dict() for t in _evenly(traces)]


# ----------------------------------------------------------------------
# Engine and stage timings
# ----------------------------------------------------------------------
def _p50_call(fn: Callable[[], object], repeats: int) -> float:
    fn()                                   # warm caches and buffers
    times = np.empty(repeats)
    for i in range(repeats):
        start = time.perf_counter()
        fn()
        times[i] = time.perf_counter() - start
    return float(np.median(times))


def stage_kind(stage) -> str:
    """Which ``core.<kind>`` budget line a fitted stage belongs to."""
    if stage.input_kind == KIND_DATASET:
        return "mf-rmf-bank" if "rmf" in stage.name else "mf-bank"
    if stage.output_kind == KIND_BITS:
        return "fnn-head" if "fnn" in stage.name else "linear-head"
    return "duration-scaler"


def engine_timings(shard, demod: np.ndarray) -> Dict[str, float]:
    """Engine floor, bulk cost and per-stage ``transform`` costs."""
    engine, device = shard.engine, shard.device
    x = demod[:BULK_TRACES, list(shard.feedline.qubit_indices)]

    def predict_s(m: int) -> float:
        out = {name: np.empty((m, x.shape[1]), dtype=np.int64)
               for name in engine.design_names}
        return _p50_call(lambda: engine.predict_traces_into(x[:m], device, out),
                         repeats=300 if m == 1 else 60)

    timings = {"engine.floor_us": 1e6 * predict_s(1),
               "engine.us_per_trace_bulk":
                   1e6 * predict_s(BULK_TRACES) / BULK_TRACES}
    for m in (1, BULK_TRACES):
        for kind in STAGE_KINDS:
            timings[f"core.{kind}.us_m{m}"] = 0.0
        chunk = ReadoutDataset(
            demod=x[:m].astype(engine.dtype),
            labels=np.zeros((m, x.shape[1]), dtype=np.int64),
            basis=np.zeros(m, dtype=np.int64), device=device)
        # The engine's sharing rule: a stage whose cumulative fingerprint
        # was already computed for an earlier design is not run again.
        memo: Dict[str, np.ndarray] = {}
        for pipeline in engine.pipelines.values():
            features, key = None, ""
            for stage in pipeline.stages:
                fingerprint = stage.fingerprint()
                key = (None if key is None or fingerprint is None
                       else f"{key}/{fingerprint}")
                if key is not None and key in memo:
                    features = memo[key]
                    continue
                seconds = _p50_call(
                    lambda s=stage, f=features: s.transform(chunk, f),
                    repeats=200 if m == 1 else 50)
                timings[f"core.{stage_kind(stage)}.us_m{m}"] += 1e6 * seconds
                features = stage.transform(chunk, features)
                if key is not None:
                    memo[key] = features
    return timings


def engine_counters(server) -> Dict[str, float]:
    """Shared-feature counters summed over every shard's engine."""
    totals = defaultdict(float)
    for stats in server.engine_stats().values():
        for key in ("stage_hits", "shareable_evals", "stage_evals",
                    "chunks"):
            totals[key] += stats.get(key, 0)
    reusable = totals["stage_hits"] + totals["shareable_evals"]
    return {
        "engine.sharing_ratio": (totals["stage_hits"] / reusable
                                 if reusable else 0.0),
        "engine.stage_evals_per_chunk": (totals["stage_evals"]
                                         / totals["chunks"]
                                         if totals["chunks"] else 0.0),
    }


def bytes_per_request(after: Dict[str, int],
                      before: Optional[Dict[str, int]] = None) -> float:
    """Wire bytes, both ways, per admitted request between two ``NetStats``
    snapshots (a count; handshake frames are included)."""
    before = before or {"bytes_received": 0, "bytes_sent": 0,
                        "requests_in": 0}
    wire = sum(after[k] - before[k] for k in ("bytes_received", "bytes_sent"))
    return wire / max(1, after["requests_in"] - before["requests_in"])


# ----------------------------------------------------------------------
# Probe of bypassed layers
# ----------------------------------------------------------------------
def probe(deployment, design_names: Sequence[str],
          rng: np.random.Generator):
    """Price net and ring layers with paced TCP requests of this shape.

    Returns ``(phase, analysis, server stats, net stats, problems)``; the
    probe's own accounting is reconciled here, the workload's server (when
    probed in place) when it stops.
    """
    workload = deployment.workload
    own = workload.backend == "process"
    if own:
        server = deployment.server
        server.flight_recorder.clear()
        server.tracer.sample_rate = 1.0
    else:
        server = ReadoutServer(deployment.shards, ServerConfig(
            backend="process", trace_sample_rate=1.0,
            flight_recorder=FlightRecorder(max_slowest=0,
                                           sample_size=4 * PROBE_REQUESTS)))
        server.start()
    try:
        with ReadoutService(server) as service:
            rows = rng.integers(0, deployment.traffic.n_traces,
                                (PROBE_REQUESTS,
                                 workload.traces_per_request))
            phase = paced_tcp(service.address, deployment.traffic.demod, rows,
                              PROBE_PERIOD_S, design_names)
        stats = server.stats.snapshot()
        calls = np.stack([phase.sent, phase.done], axis=1)[phase.ok]
        analysis = analyse_traces(server.flight_recorder.traces(), calls)
    finally:
        if not own:
            server.stop()
    problems = reconcile(None if own else server, service)
    return phase, analysis, stats, service.net_stats.snapshot(), problems
