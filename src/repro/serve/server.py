"""Async micro-batching readout service over sharded inference engines.

:class:`ReadoutServer` is the traffic-facing facade over PR 1's
:class:`~repro.engine.ReadoutEngine`: clients submit single- or multi-trace
discrimination requests (sync, future-based, or ``asyncio``); a
:class:`~.batcher.MicroBatcher` coalesces them while an earlier batch
is computing (sealing at once when the shards are idle, and at the latest
after ``max_wait_ms`` or at ``max_batch_traces``); and each flushed batch
fans out to one worker per
:class:`ServeShard`. A shard owns the fitted engine for one feedline qubit
group — the software analogue of the paper's one-FPGA-per-feedline
deployment — so each engine is only ever driven by its own worker (engines
keep mutable chunk buffers) and multi-qubit devices scale horizontally by
adding shards.

The hot path is allocation-free in steady state: request traces are copied
once, at submit time, into recycled trace slabs
(:class:`~.slab.SlabPool`); each shard scatters its bits straight into a
pooled response slab through column indexers precomputed at construction;
and the dispatcher thread is a thin flush pump — it never concatenates,
stitches, or copies trace payloads.

*Where* the shard workers run is a :class:`ShardBackend` choice:

* ``backend="thread"`` (:class:`ThreadShardBackend`, the default) runs one
  worker thread per shard in this process — lowest latency, zero setup
  cost, but every shard shares the GIL, so added shards mostly improve
  batching, not raw throughput;
* ``backend="process"`` (:class:`~.procshard.ProcessShardBackend`) runs
  one *spawned worker process* per shard, with a per-shard submitter
  thread feeding trace batches through shared-memory rings (one slow or
  backlogged shard never stalls the others) — true parallel shards at the
  cost of per-batch IPC and worker startup.

Everything above the backend — submission APIs, micro-batching,
backpressure, :class:`~.stats.ServerStats`, :meth:`ReadoutServer.swap_engine`
hot swaps, and the calibration plumbing — behaves identically on both.
"""

from __future__ import annotations

import asyncio
import logging
import math
import os
import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from queue import SimpleQueue
from typing import (Dict, List, Optional, Protocol, Sequence, Union,
                    runtime_checkable)

import numpy as np

from repro.engine import EngineStats
from repro.obs.alerts import AlertManager, AlertState, default_rules
from repro.obs.log import log_event
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TelemetrySampler
from repro.obs.trace import FlightRecorder, TraceContext, Tracer
from repro.readout.parameters import DeviceParams
from repro.readout.sharding import FeedlineShard

from .batcher import (FlushedBatch, MicroBatcher, ServeRequest,
                      ServerClosedError, ServerOverloadedError)
from .config import ServerConfig
from .slab import SlabPool
from .stats import ServerStats

#: Shard execution backends selectable by name.
BACKENDS = ("thread", "process")


@runtime_checkable
class ShardEngine(Protocol):
    """The engine contract a shard worker relies on, and nothing more.

    A fitted :class:`~repro.engine.ReadoutEngine` implements it; test
    stubs implement the same three members. The server checks it once,
    where an engine enters (construction and
    :meth:`ReadoutServer.swap_engine`), and then calls the members
    directly. ``predict_traces_into(demod, device, out)`` writes each
    design's ``(m, n_qubits)`` bits into the caller's ``out`` buffers and
    returns them; ``stats.as_dict()`` feeds
    :meth:`ReadoutServer.engine_stats`.
    """

    design_names: Sequence[str]
    stats: EngineStats

    def predict_traces_into(self, demod: np.ndarray, device: DeviceParams,
                            out: Dict[str, np.ndarray],
                            ) -> Dict[str, np.ndarray]:
        ...


def _check_engine(engine: object) -> None:
    if not isinstance(engine, ShardEngine):
        raise TypeError(
            f"{type(engine).__name__!r} is not a ShardEngine: an engine "
            f"needs design_names, stats and predict_traces_into (a fitted "
            f"repro.engine.ReadoutEngine has them)")


@dataclass
class ServeShard:
    """One serving worker: a feedline qubit group plus its fitted engine.

    ``engine`` is a :class:`ShardEngine` (a fitted
    :class:`~repro.engine.ReadoutEngine`) over traces of
    ``feedline.n_qubits`` qubits; ``device`` is the sharded
    :class:`~repro.readout.parameters.DeviceParams` the engine was fitted
    for (see :func:`~repro.readout.sharding.shard_device`). Workers drive
    it through preallocated output buffers, so a steady-state batch
    allocates no result arrays.

    ``engine`` is deliberately a mutable reference: the shard's worker
    re-reads it at every micro-batch boundary, which is what lets
    :meth:`ReadoutServer.swap_engine` promote a recalibrated engine with a
    single atomic assignment and zero downtime. ``device`` may be updated
    in the same swap (a recalibrated engine is typically fitted against a
    fresher calibration dataset's device snapshot). On the process backend
    this object is the *parent-side replica* — the authoritative fitted
    model the worker process's deserialized copy is built from, and the
    attachment point for batch-hook observers (drift monitors), which the
    backend feeds with every remotely computed batch.
    """

    feedline: FeedlineShard
    engine: ShardEngine
    device: DeviceParams


@dataclass
class ReadoutResponse:
    """Resolved discrimination result for one request.

    ``bits`` maps design name to predicted bits — ``(n_qubits,)`` for a
    single-trace request, ``(m, n_qubits)`` otherwise, with qubit columns
    in global device order. The arrays are views into the batch's pooled
    response slab, whose ownership transfers to the resolved futures (the
    slab is only recycled when no response escaped). ``latency_s`` covers
    submission to resolution; ``batch_traces`` is the size of the
    micro-batch that carried the request (amortization observability).
    """

    bits: Dict[str, np.ndarray]
    latency_s: float
    batch_traces: int

    def bits_for(self, design: Optional[str] = None) -> np.ndarray:
        """Bits of one design; the sole design may be left implicit."""
        if design is None:
            if len(self.bits) != 1:
                raise ValueError(
                    f"server hosts {sorted(self.bits)}; name one")
            return next(iter(self.bits.values()))
        try:
            return self.bits[design]
        except KeyError:
            raise KeyError(
                f"response has no design {design!r}; "
                f"available: {sorted(self.bits)}") from None


@dataclass
class ShardHealth:
    """One shard's verdict from :meth:`ReadoutServer.healthcheck`.

    ``alive`` is the backend's liveness view (worker thread running /
    worker process not dead); ``round_trip_ms`` is the submit-to-scatter
    time of the probe through *this* shard (NaN when the shard never
    answered); ``backlog`` counts batches queued at the backend for the
    shard (ring/queue depth); ``pid`` is set on the process backend.
    """

    shard_index: int
    alive: bool
    round_trip_ms: float
    engine_version: int
    backlog: int
    pid: Optional[int] = None
    detail: str = ""

    @property
    def healthy(self) -> bool:
        return self.alive and not math.isnan(self.round_trip_ms)

    def as_dict(self) -> Dict[str, object]:
        return {
            "shard_index": self.shard_index,
            "alive": self.alive,
            "healthy": self.healthy,
            "round_trip_ms": round(self.round_trip_ms, 4),
            "engine_version": self.engine_version,
            "backlog": self.backlog,
            "pid": self.pid,
            "detail": self.detail,
        }


@dataclass
class HealthReport:
    """End-to-end health verdict for a server (one probe, every shard)."""

    healthy: bool
    probe_ok: bool
    budget_s: float
    shards: List[ShardHealth] = field(default_factory=list)
    error: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "healthy": self.healthy,
            "probe_ok": self.probe_ok,
            "budget_s": self.budget_s,
            "error": self.error,
            "shards": [shard.as_dict() for shard in self.shards],
        }


def _fail_future(future: Future, exc: BaseException) -> bool:
    """Fail a pending future; True when its request counts as failed.

    A future its client already cancelled counts as failed too: the
    request still ended without bits, and every admitted request lands in
    exactly one :class:`ServerStats` outcome.
    """
    try:
        future.set_exception(exc)
        return True
    except InvalidStateError:
        return future.cancelled()


class _InFlightBatch:
    """A flushed batch being computed by the shard workers.

    Each shard worker reports exactly once — :meth:`deliver` with its
    bits, or :meth:`shard_error` on failure. Delivery scatters the shard's
    columns directly into a pooled response slab (column indexers
    precomputed at server construction); when the last shard reports, the
    finalize pass slices request rows out of the slab and resolves the
    futures — no per-batch stitch allocation. The trace slab returns to
    its pool at that same last report, the one point where no worker can
    still be reading it. Futures a client has already cancelled (e.g. an
    ``asyncio`` timeout propagated through ``wrap_future``) are skipped —
    a cancelled request must never take a worker down with it — and
    counted as failed; shed riders are left to the submit that shed them.
    A batch whose every future was cancelled or shed recycles its
    response slab too, since no view escaped.

    The batch's in-flight slot in the micro-batcher is given back at the
    last shard report, before the finalize pass (the shards are free, so
    the next batch may seal). A backend that fails a batch before any
    worker sees it still reports once per shard through
    :meth:`shard_error`; only a backend handoff that raises leaves the
    release to the dispatcher.
    """

    def __init__(self, batch: FlushedBatch, server: "ReadoutServer"):
        self._batch = batch
        self.requests = batch.requests
        self.demod = batch.demod
        self.n_traces = batch.n_traces
        self._server = server
        self._stats = server.stats
        self._design_names = server.design_names
        self._columns = server._columns
        self._remaining = len(server.shards)
        self._failed = False
        self._lock = threading.Lock()
        self._response: Optional[np.ndarray] = None
        self._views_escaped = 0
        # Tracing: the (usually empty) list of live requests carrying a
        # TraceContext, cached so every instrumentation point below is a
        # single truthiness check for the untraced majority.
        self.traced = [r for r in batch.requests
                       if r.trace is not None and not r.shed]
        # Set by the dispatcher just before the backend handoff; the
        # backends use it as the start of their worker/ring spans.
        self.dispatched_at: Optional[float] = None

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record one span onto every traced request riding this batch."""
        for request in self.traced:
            request.trace.add_span(name, start, end)

    def deliver(self, feedline: FeedlineShard,
                bits: Dict[str, np.ndarray]) -> None:
        """One shard's bits: scatter into the response slab, then report.

        The scatter copies out of ``bits`` synchronously, so callers may
        pass views into reusable worker buffers (or shared-memory ring
        slots) and recycle them as soon as this returns.
        """
        with self._lock:
            settle = not self._failed
            if settle and self._response is None:
                self._response = self._server._acquire_response(
                    self.n_traces)
            response = self._response
        if settle:
            scatter_start = time.perf_counter() if self.traced else 0.0
            columns = self._columns[feedline.index]
            for d, design in enumerate(self._design_names):
                response[d, :self.n_traces, columns] = bits[design]
            if self.traced:
                self.add_span(f"response_scatter/shard{feedline.index}",
                              scatter_start, time.perf_counter())
        self._shard_done()

    def shard_error(self, exc: BaseException) -> None:
        """One shard's terminal failure: fail the batch, then report."""
        self.fail(exc)
        self._shard_done()

    def fail(self, exc: BaseException) -> None:
        """Fail every still-pending future (idempotent, non-reporting).

        Slabs are *not* recycled here — a path that cannot prove every
        worker is done simply leaks them to the garbage collector (pool
        release is advisory).
        """
        with self._lock:
            if self._failed:
                return
            self._failed = True
        # Shed riders are failed (and counted) by the submit that shed them.
        failed = sum(_fail_future(r.future, exc) for r in self.requests
                     if not r.shed)
        if failed:
            self._stats.record_failure(failed)

    def _shard_done(self) -> None:
        with self._lock:
            self._remaining -= 1
            if self._remaining > 0:
                return
            failed = self._failed
        # Outside _lock: the release takes the batcher's condition.
        self._batch.release_in_flight()
        if not failed:
            try:
                self._finalize()
            except Exception as exc:  # noqa: BLE001 — never hang a client
                self.fail(exc)
        # The last shard has reported: nothing can still read the trace
        # slab, so it recycles; the response slab recycles only when no
        # resolved future carried a view out of it.
        self._batch.release_slab()
        response, self._response = self._response, None
        if response is not None and (self._failed
                                     or self._views_escaped == 0):
            self._server._release_response(response)

    def _finalize(self) -> None:
        response = self._response
        now = time.perf_counter()
        offset = 0
        escaped = 0
        cancelled = 0
        for request in self.requests:
            m = request.n_traces
            if request.shed:
                # Its shedding submit fails (and counts) it, possibly
                # still racing this pass: never resolve it here.
                offset += m
                continue
            bits = {
                design: (response[d, offset]
                         if request.single
                         else response[d, offset:offset + m])
                for d, design in enumerate(self._design_names)
            }
            latency = now - request.enqueued_at
            try:
                request.future.set_result(ReadoutResponse(
                    bits=bits, latency_s=latency,
                    batch_traces=self.n_traces))
            except InvalidStateError:
                cancelled += 1      # by its client: result dropped
            else:
                escaped += 1
                self._stats.record_done(m, latency, now)
            offset += m
        self._views_escaped = escaped
        if self.traced:
            resolve_end = time.perf_counter()
            tracer = self._server.tracer
            for request in self.traced:
                request.trace.add_span("resolve", now, resolve_end)
                tracer.record(request.trace, resolve_end)
        # Last, so that if anything above raises, the fail() that follows
        # is the only pass counting the cancelled futures.
        if cancelled:
            self._stats.record_failure(cancelled)


class ShardBackend:
    """Execution strategy for flushed micro-batches over the shards.

    The server owns admission (validation, micro-batching, backpressure)
    and result plumbing (futures, stats); a backend owns the workers that
    drive each :class:`ServeShard`'s engine. The lifecycle mirrors the
    server's:

    * :meth:`start` once, before any batch flows;
    * :meth:`submit` from the dispatcher thread only — hand one
      :class:`_InFlightBatch` to every shard's worker queue (the handoff
      must not block on any single shard's backlog); every shard must
      eventually report terminally via ``deliver`` or ``shard_error``;
    * :meth:`request_stop` when shutdown begins — queued-but-unstarted
      work must fail fast from here on (the batch each worker is
      computing still completes);
    * :meth:`stop` last — reap every worker deterministically.

    Engine hot swaps are split into :meth:`prepare_swap` (may raise, runs
    before the server mutates any shard state — e.g. the process backend
    serializes the replacement here) and :meth:`commit_swap` (runs under
    the server's state lock after the shard references are updated).
    """

    name = "?"

    def start(self, server: "ReadoutServer") -> None:
        raise NotImplementedError

    def submit(self, inflight: _InFlightBatch) -> None:
        raise NotImplementedError

    def request_stop(self) -> None:
        """Shutdown has begun: make not-yet-started work fail fast."""

    def stop(self) -> None:
        raise NotImplementedError

    def prepare_swap(self, shard: ServeShard, engine) -> object:
        """Validate/serialize a replacement engine; returns commit payload."""
        return None

    def commit_swap(self, shard: ServeShard, payload: object) -> None:
        """Propagate an already-applied swap to the shard's worker."""

    def engine_stats(self) -> Dict[int, Dict[str, float]]:
        """Worker-side engine counters, for backends that run remotely."""
        return {}

    def shard_health(self) -> Dict[int, Dict[str, object]]:
        """Backend-level liveness per shard index.

        Keys per shard: ``alive`` (worker thread running / process not
        dead), ``backlog`` (batches queued at the backend for this
        shard), plus backend-specific extras (``pid``, ``exit_code``,
        ``detail``). :meth:`ReadoutServer.healthcheck` merges this with
        an end-to-end probe; an empty dict means "nothing known" (e.g.
        the backend never started) and reads as alive-by-default.
        """
        return {}


class ThreadShardBackend(ShardBackend):
    """One worker thread per shard, sharing this process (and its GIL).

    The original execution model: lowest latency and zero startup cost,
    with every shard's engine driven in-process. Each worker keeps a
    preallocated per-design output buffer and drives engines through
    ``predict_traces_into``, so a steady-state batch allocates nothing;
    engine batch hooks fire naturally on the inference threads and
    :meth:`ReadoutServer.swap_engine` is a plain reference swap.
    Throughput, however, is bounded by one interpreter — use
    :class:`~.procshard.ProcessShardBackend` when shard compute should
    actually run in parallel.
    """

    name = "thread"

    def __init__(self):
        self._server: Optional[ReadoutServer] = None
        self._queues: List[SimpleQueue] = []
        self._threads: List[threading.Thread] = []

    def start(self, server: "ReadoutServer") -> None:
        if self._server is not None:
            raise RuntimeError(
                "a ShardBackend instance serves exactly one server; "
                "build a fresh backend for a new server")
        self._server = server
        for shard in server.shards:
            q: SimpleQueue = SimpleQueue()
            self._queues.append(q)
            self._threads.append(threading.Thread(
                target=self._worker_loop, args=(shard, q),
                name=f"readout-serve-shard{shard.feedline.index}",
                daemon=True))
        for thread in self._threads:
            thread.start()

    def submit(self, inflight: _InFlightBatch) -> None:
        for q in self._queues:
            q.put(inflight)

    def stop(self) -> None:
        for q in self._queues:
            q.put(None)
        for thread in self._threads:
            thread.join()

    def shard_health(self) -> Dict[int, Dict[str, object]]:
        if self._server is None:
            return {}
        out: Dict[int, Dict[str, object]] = {}
        for shard, q, thread in zip(self._server.shards, self._queues,
                                    self._threads):
            out[shard.feedline.index] = {
                "alive": thread.is_alive(),
                "backlog": q.qsize(),
            }
        return out

    def _worker_loop(self, shard: ServeShard, q: SimpleQueue) -> None:
        # Contiguous qubit groups (everything plan_feedlines produces) are
        # sliced as zero-copy views; only irregular groups pay a gather.
        columns = _shard_columns(shard.feedline)
        out_bufs: Dict[str, np.ndarray] = {}
        while True:
            inflight = q.get()
            if inflight is None:
                return
            if self._server.stopping.is_set():
                # Fail-fast shutdown: batches still queued behind the one
                # being computed are failed, not drained through the engine.
                inflight.shard_error(ServerClosedError(
                    "server stopped before the batch reached the engine"))
                continue
            try:
                engine = shard.engine
                out = self._out_views(out_bufs, engine.design_names,
                                      inflight.n_traces,
                                      shard.feedline.n_qubits)
                bits = engine.predict_traces_into(
                    inflight.demod[:, columns], shard.device, out)
                if inflight.traced and inflight.dispatched_at is not None:
                    # Starts at the backend handoff, so worker-queue wait
                    # and the engine pass land in one attributed span.
                    inflight.add_span(
                        f"worker_inference/shard{shard.feedline.index}",
                        inflight.dispatched_at, time.perf_counter())
                # deliver() copies out of `bits` before returning, so the
                # worker's reusable output buffers are free for the next
                # batch the moment it does.
                inflight.deliver(shard.feedline, bits)
            except Exception as exc:  # noqa: BLE001 — fail the whole batch
                # Covers engine errors and scatter errors alike: any
                # still-pending future fails rather than hanging, and the
                # worker thread survives for the next batch.
                inflight.shard_error(exc)

    @staticmethod
    def _out_views(bufs: Dict[str, np.ndarray], design_names,
                   n_traces: int, n_qubits: int) -> Dict[str, np.ndarray]:
        """Per-design views of this worker's recycled output buffers."""
        out = {}
        for name in design_names:
            buf = bufs.get(name)
            if buf is None or buf.shape[0] < n_traces:
                buf = np.empty((max(n_traces, 1), n_qubits), dtype=np.int64)
                bufs[name] = buf
            out[name] = buf[:n_traces]
        return out


def _shard_columns(feedline: FeedlineShard) -> Union[slice, np.ndarray]:
    """Column indexer for one shard's qubits (zero-copy when contiguous).

    Precomputed once per shard (server construction / worker start), so
    the per-batch scatter never rebuilds an index list.
    """
    idx = feedline.qubit_indices
    if idx == tuple(range(idx[0], idx[-1] + 1)):
        return slice(idx[0], idx[-1] + 1)
    return np.asarray(idx, dtype=np.intp)


def _make_backend(backend) -> ShardBackend:
    if isinstance(backend, ShardBackend):
        return backend
    if backend == "thread":
        return ThreadShardBackend()
    if backend == "process":
        from .procshard import ProcessShardBackend
        return ProcessShardBackend()
    raise ValueError(
        f"backend must be one of {BACKENDS} or a ShardBackend instance, "
        f"got {backend!r}")


class ReadoutServer:
    """Micro-batching readout-discrimination service.

    Parameters
    ----------
    shards:
        The :class:`ServeShard` workers. Their feedline groups must be
        disjoint and together cover qubits ``0..n-1``; every engine must
        be a :class:`ShardEngine` (else ``TypeError``) serving the same
        design names.
    config:
        A :class:`~repro.serve.config.ServerConfig` grouping every knob
        below (``ReadoutServer(shards, ServerConfig(max_wait_ms=...))``;
        omitted, every default). It is kept on :attr:`config`.
    max_batch_traces / max_wait_ms / max_queue_requests / overload:
        Micro-batching and backpressure knobs, passed to
        :class:`~.batcher.MicroBatcher`. ``max_batch_traces`` caps a batch
        and is also the recycled trace-slab size. ``max_wait_ms`` is a
        ceiling, not a wait every request pays: a request reaching an idle
        server is dispatched at once, and requests arriving while a batch
        computes wait for it to finish, at most ``max_wait_ms``.
    trace_dtype:
        Optional forced dtype for the trace slabs (and, on the process
        backend, the shared-memory rings). ``np.float16`` halves hot-path
        memory traffic at a small accuracy cost; the float16 tests in
        ``tests/serve/test_server.py`` (agreement with the full-precision
        path) and ``tests/serve/test_procserver.py`` (bit-identical across
        backends) pin it. The default ``None`` inherits each stream's own
        dtype, preserving bit-exact float64 parity.
    latency_window:
        Size of the latency sample window kept by :class:`ServerStats`.
    backend:
        Where shard workers run: ``"thread"`` (default, this process),
        ``"process"`` (one spawned worker process per shard, batches via
        shared memory), or a prebuilt :class:`ShardBackend` instance,
        which is how a backend gets non-default options (e.g.
        ``ProcessShardBackend(ring_slots=4)``). The process backend
        serves only :class:`~repro.engine.ReadoutEngine` engines, whose
        fitted pipelines it ships to the workers.
    trace_sample_rate:
        Fraction of requests that get a :class:`~repro.obs.trace.
        TraceContext` recording per-stage spans (queue-wait, batch-seal,
        slab-copy, dispatch, ring-transit, worker inference,
        response-scatter, resolve) into :attr:`flight_recorder`. The
        default 0.0 disables tracing; the hot path then pays one
        attribute read per request.
    flight_recorder:
        Where sampled traces are retained
        (:class:`~repro.obs.trace.FlightRecorder`; a private one is
        created when omitted).
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry` this server
        registers its snapshot collectors into (``serve``, ``engine``,
        ``flight_recorder`` components); a private registry is created
        when omitted, so ``server.metrics.export_dict()`` always works.
    telemetry_interval_s:
        When set, a :class:`~repro.obs.timeseries.TelemetrySampler`
        polls :attr:`metrics` every this many seconds for the server's
        lifetime, building rate history in :attr:`telemetry` and
        evaluating :attr:`alerts` on each sample. The default ``None``
        disables continuous monitoring entirely (no thread, no
        overhead).
    alert_rules:
        The :class:`~repro.obs.alerts.AlertRule`s the sampler
        evaluates; defaults to :func:`~repro.obs.alerts.default_rules`
        (worker death, backpressure, p99 breach, swap storms,
        availability burn). Requires ``telemetry_interval_s``.
    bundle_dir:
        When set (requires ``telemetry_interval_s``), a rule firing
        with ``capture_bundle=True`` — worker death, in the default set
        — automatically writes a postmortem debug bundle into
        ``{bundle_dir}/alert-{rule}-{n}``.

    The server starts its workers lazily on first submission (or
    explicitly via :meth:`start` / use as a context manager) and cannot be
    restarted after :meth:`stop`.
    """

    def __init__(self, shards: Sequence[ServeShard],
                 config: Optional[ServerConfig] = None):
        config = ServerConfig() if config is None else config
        self.config = config
        if not shards:
            raise ValueError("server needs at least one shard")
        covered: List[int] = []
        for shard in shards:
            _check_engine(shard.engine)
            covered.extend(shard.feedline.qubit_indices)
        if len(set(covered)) != len(covered):
            raise ValueError("shard qubit groups overlap")
        if sorted(covered) != list(range(len(covered))):
            raise ValueError(
                f"shard qubit groups must cover 0..{len(covered) - 1} "
                f"exactly, got {sorted(covered)}")
        names = [tuple(sorted(s.engine.design_names)) for s in shards]
        if len(set(names)) != 1:
            raise ValueError(
                f"every shard must serve the same designs, got {names}")
        self._shards = tuple(shards)
        self.n_qubits = len(covered)
        self.design_names = list(names[0])
        self.trace_dtype = (None if config.trace_dtype is None
                            else np.dtype(config.trace_dtype))
        self._trace_pool = SlabPool()
        self._response_pool = SlabPool()
        self.stats = ServerStats(latency_window=config.latency_window,
                                 trace_pool=self._trace_pool,
                                 response_pool=self._response_pool)
        # Column indexers by feedline index, computed exactly once: the
        # per-batch scatter must never rebuild list(feedline.qubit_indices).
        self._columns = {s.feedline.index: _shard_columns(s.feedline)
                         for s in self._shards}
        self._batcher = MicroBatcher(
            max_batch_traces=config.max_batch_traces,
            max_wait_ms=config.max_wait_ms,
            max_queue_requests=config.max_queue_requests,
            overload=config.overload,
            trace_dtype=config.trace_dtype, slab_pool=self._trace_pool)
        self._backend = _make_backend(config.backend)
        self._recorder = (config.flight_recorder
                          if config.flight_recorder is not None
                          else FlightRecorder())
        self._tracer = Tracer(config.trace_sample_rate, self._recorder)
        self.metrics = (config.metrics if config.metrics is not None
                        else MetricsRegistry())
        self.stats.register_into(self.metrics, "serve")
        self.metrics.register_collector(
            "engine",
            lambda: {str(i): d for i, d in self.engine_stats().items()},
            replace=True)
        self.metrics.register_collector(
            "flight_recorder", self._recorder.stats, replace=True)
        self.last_health: Optional[HealthReport] = None
        self.bundle_dir = config.bundle_dir
        self._telemetry: Optional[TelemetrySampler] = None
        self._alerts: Optional[AlertManager] = None
        if config.telemetry_interval_s is None:
            if (config.alert_rules is not None
                    or config.bundle_dir is not None):
                raise ValueError(
                    "alert_rules/bundle_dir require telemetry_interval_s "
                    "(alerts are evaluated on telemetry samples)")
        else:
            rules = (default_rules() if config.alert_rules is None
                     else list(config.alert_rules))
            self._alerts = AlertManager(rules, registry=self.metrics,
                                        on_fire=self._on_alert_fire)
            self._telemetry = TelemetrySampler(
                self.metrics, interval_s=config.telemetry_interval_s,
                alerts=self._alerts)
        self._dispatcher: Optional[threading.Thread] = None
        self._state_lock = threading.Lock()
        self._stopping = threading.Event()
        self._started = False
        self._stopped = False

    @property
    def shards(self) -> Sequence[ServeShard]:
        return self._shards

    @property
    def backend(self) -> ShardBackend:
        """The shard execution backend (``backend.name`` identifies it)."""
        return self._backend

    @property
    def stopping(self) -> threading.Event:
        """Set once shutdown begins; backends use it to fail work fast."""
        return self._stopping

    @property
    def tracer(self) -> Tracer:
        """The request-trace sampler (rate set by ``trace_sample_rate``)."""
        return self._tracer

    @property
    def flight_recorder(self) -> FlightRecorder:
        """Retained sampled traces (N slowest + uniform sample)."""
        return self._recorder

    @property
    def max_batch_traces(self) -> int:
        """The micro-batcher's flush size (backends size buffers from it)."""
        return self._batcher.max_batch_traces

    @property
    def telemetry(self) -> Optional[TelemetrySampler]:
        """Continuous metric sampling (None unless ``telemetry_interval_s``
        was set)."""
        return self._telemetry

    @property
    def alerts(self) -> Optional[AlertManager]:
        """The alert evaluator riding :attr:`telemetry` (None when
        monitoring is off)."""
        return self._alerts

    def _on_alert_fire(self, state: AlertState) -> None:
        # Runs on the sampler thread at the firing edge. Bundles only for
        # rules that ask for one, into a per-episode directory so a later
        # unrelated firing never overwrites this postmortem.
        if not state.rule.capture_bundle or self.bundle_dir is None:
            return
        # Imported lazily: repro.obs.bundle is runnable via -m, and a
        # module-level import here would pre-load it through the package
        # chain, making runpy warn on `python -m repro.obs.bundle`.
        from repro.obs.bundle import write_debug_bundle

        target = os.path.join(
            self.bundle_dir,
            f"alert-{state.rule.name}-{state.fired_count}")
        write_debug_bundle(target, self,
                           reason=f"alert:{state.rule.name}")

    # ------------------------------------------------------------------
    # Response slab pool (used by _InFlightBatch)
    # ------------------------------------------------------------------
    def _acquire_response(self, n_traces: int) -> np.ndarray:
        """A pooled ``(n_designs, capacity, n_qubits)`` bits slab."""
        shape = (len(self.design_names),
                 max(self.max_batch_traces, n_traces), self.n_qubits)
        slab = self._response_pool.acquire(shape, np.int64)
        if slab is None:            # pool at its outstanding bound
            slab = np.empty(shape, dtype=np.int64)
        return slab

    def _release_response(self, slab: np.ndarray) -> None:
        self._response_pool.release(slab)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ReadoutServer":
        with self._state_lock:
            if self._stopped:
                raise RuntimeError("server cannot be restarted after stop()")
            if self._started:
                return self
            # Backend first: a backend that cannot start (e.g. process
            # workers with unserializable engines) reaps itself and leaves
            # the server un-started, so stop() has nothing to unwind.
            self._backend.start(self)
            self._started = True
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="readout-serve-dispatch",
                daemon=True)
            self._dispatcher.start()
            if self._telemetry is not None:
                self._telemetry.start()
        # Outside _state_lock: the event log is an arbitrary sink (file,
        # test handler) and must never stall submit()'s stopped-check or
        # a concurrent stop() — repro-lint RPA002 pins this.
        log_event("serve", "server_start",
                  backend=self._backend.name,
                  shards=len(self._shards), n_qubits=self.n_qubits)
        return self

    def stop(self) -> None:
        """Stop deterministically: finish in-flight batches, fail the rest.

        The batch each worker is currently computing completes and
        resolves its futures normally; every request still queued — in the
        batcher or behind other batches on a worker — fails fast with
        :class:`~.batcher.ServerClosedError` instead of being computed (or
        left hanging). Shutdown latency is therefore bounded by one
        in-flight batch per shard, not by the backlog depth. On the
        process backend, :meth:`stop` additionally reaps every worker
        process (joining, escalating to terminate/kill on timeout) and
        records exit codes — no orphans survive it.
        """
        with self._state_lock:
            if self._stopped:
                return
            self._stopped = True
            started = self._started
        self._stopping.set()
        if self._telemetry is not None:
            # Joins the sampler (its last tick runs now, so the stored
            # history covers the moment shutdown began).
            self._telemetry.stop()
        if started:
            self._backend.request_stop()
        self._batcher.close()
        closed = ServerClosedError(
            "server stopped before the request was scheduled")
        if started:
            self._dispatcher.join()       # dispatcher observes the close
        for request in self._batcher.drain():
            if _fail_future(request.future, closed):
                self.stats.record_failure()
        if started:
            self._backend.stop()
        log_event("serve", "server_stop",
                  submitted=self.stats.submitted,
                  completed=self.stats.completed,
                  failed=self.stats.failed)

    def __enter__(self) -> "ReadoutServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Submission APIs
    # ------------------------------------------------------------------
    def submit(self, traces: np.ndarray, *,
               _trace: Optional[TraceContext] = None) -> Future:
        """Enqueue a request; returns a future of :class:`ReadoutResponse`.

        ``traces`` is one ``(n_qubits, 2, n_bins)`` trace or a
        ``(m, n_qubits, 2, n_bins)`` stack. Raises
        :class:`~.batcher.ServerOverloadedError` under the ``reject``
        policy when the queue is full; under ``shed`` the oldest queued
        request's future fails instead. Raises
        :class:`~.batcher.ServerClosedError` once the server is stopped.
        ``_trace`` force-attaches a pre-made trace context (internal —
        the healthcheck probe uses it to bypass sampling).
        """
        traces = np.asarray(traces)
        single = traces.ndim == 3
        if single:
            traces = traces[None]
        if traces.ndim != 4 or traces.shape[2] != 2:
            raise ValueError(
                f"traces must be (n_qubits, 2, n_bins) or "
                f"(m, n_qubits, 2, n_bins), got {traces.shape}")
        if traces.shape[1] != self.n_qubits:
            raise ValueError(
                f"server serves {self.n_qubits} qubits, got "
                f"{traces.shape[1]}")
        if traces.shape[0] == 0:
            raise ValueError("request must contain at least one trace")
        # Lock-free stop check: _stopped is a monotonic bool flipped under
        # the state lock, and a plain read is atomic under the GIL — the
        # submit path must not contend on the state lock per request. The
        # race window (stop() landing right after the read) is closed by
        # the batcher: offer() on a closed batcher raises, handled below.
        if self._stopped:
            raise ServerClosedError("server is stopped")
        if not self._started:
            self.start()
        trace = _trace if _trace is not None else self._tracer.sample()
        request = ServeRequest(traces=traces, single=single, trace=trace)
        self.stats.record_submit(request.n_traces, request.enqueued_at)
        try:
            victim = self._batcher.offer(request)
        except ServerOverloadedError:
            self.stats.record_reject()
            log_event("serve", "backpressure_reject",
                      level=logging.WARNING, n_traces=request.n_traces)
            raise
        except RuntimeError:
            # stop() closed the batcher between our _stopped check and the
            # offer: surface the typed shutdown error and account for the
            # request so submitted stays reconcilable with the outcomes.
            self.stats.record_failure()
            raise ServerClosedError("server is stopped") from None
        if trace is not None:
            trace.add_span("submit", trace.started_at, time.perf_counter())
        if victim is not None:
            self.stats.record_shed()
            log_event("serve", "backpressure_shed",
                      level=logging.WARNING, n_traces=victim.n_traces)
            _fail_future(victim.future, ServerOverloadedError(
                "request shed by a newer arrival"))
        return request.future

    def predict(self, traces: np.ndarray,
                timeout: Optional[float] = None) -> ReadoutResponse:
        """Synchronous convenience: submit and wait for the response."""
        return self.submit(traces).result(timeout)

    async def predict_async(self, traces: np.ndarray) -> ReadoutResponse:
        """``asyncio`` submission: awaits the wrapped request future."""
        return await asyncio.wrap_future(self.submit(traces))

    # ------------------------------------------------------------------
    # Hot swap (zero-downtime recalibration)
    # ------------------------------------------------------------------
    def swap_engine(self, shard_index: int, engine,
                    device: Optional[DeviceParams] = None) -> int:
        """Atomically replace one shard's engine; returns its new version.

        ``shard_index`` is the feedline index (``shard.feedline.index``).
        The swap is a single reference assignment, so it is lock-free on
        the serve path: the shard's worker re-reads ``shard.engine`` at
        every micro-batch boundary, meaning the batch being computed
        finishes on the incumbent and the very next batch runs on the new
        engine — no request is dropped or delayed. On the process backend
        the same boundary holds remotely: the replacement's fitted
        pipelines are serialized (:func:`repro.core.dumps_pipeline`) and
        shipped through the worker's command channel, which is ordered
        ahead of subsequent batches, so the worker rebuilds its engine at
        exactly the same batch boundary. ``device`` optionally updates the
        per-shard device snapshot handed to the engine (a recalibrated
        engine is usually fitted against fresher calibration data). The
        new engine must be a :class:`ShardEngine` (else ``TypeError``)
        serving exactly the server's design names over the shard's qubit
        group — design names and, when ``device`` is passed, its qubit
        count are validated here; an engine's group width is not
        introspectable without a probe trace, so fitting the replacement
        for the right shard is the caller's contract
        (:class:`repro.calib.Recalibrator` fits per ``feedline`` slice).

        The per-shard version counter in :attr:`stats` starts at 0 for the
        construction-time engine and increments on every swap.
        """
        shard = next((s for s in self._shards
                      if s.feedline.index == shard_index), None)
        if shard is None:
            known = sorted(s.feedline.index for s in self._shards)
            raise ValueError(
                f"no shard with feedline index {shard_index}; have {known}")
        _check_engine(engine)
        names = sorted(engine.design_names)
        if names != sorted(self.design_names):
            raise ValueError(
                f"replacement engine serves {names}, server serves "
                f"{sorted(self.design_names)}")
        if device is not None and device.n_qubits != shard.feedline.n_qubits:
            raise ValueError(
                f"replacement device has {device.n_qubits} qubits, shard "
                f"{shard_index} serves {shard.feedline.n_qubits}")
        # Serialization (process backend) happens before any state
        # mutation: a replacement that cannot ship never half-applies.
        payload = self._backend.prepare_swap(shard, engine)
        with self._state_lock:
            if self._stopped:
                raise RuntimeError("server is stopped")
            # Device first: the worker reads `shard.engine` before
            # `shard.device`, so a torn read pairs the incumbent engine
            # with the new device for at most one batch — benign, as swaps
            # never change the trace geometry (bins/duration/qubits).
            if device is not None:
                shard.device = device
            shard.engine = engine          # atomic: next batch uses it
            self._backend.commit_swap(shard, payload)
        version = self.stats.record_swap(shard_index)
        log_event("serve", "engine_swap", shard=shard_index,
                  version=version)
        return version

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def _probe_traces(self) -> np.ndarray:
        """A minimal one-trace request matching the served geometry."""
        shape = self._batcher.trace_shape
        if shape is None:
            # No traffic yet: derive the geometry from the shard devices
            # (every shard shares bins/duration; only qubit counts differ).
            shape = (self.n_qubits, 2, int(self._shards[0].device.n_bins))
        dtype = (self.trace_dtype if self.trace_dtype is not None
                 else np.float64)
        return np.zeros((1,) + tuple(shape), dtype=dtype)

    def healthcheck(self, budget_s: float = 5.0) -> HealthReport:
        """Probe every shard end to end; per-shard verdicts within budget.

        Submits one zero-filled probe trace through the full pipeline
        (micro-batcher, dispatcher, every shard's worker, scatter,
        resolve) with a forced trace context, then combines the probe's
        per-shard ``response_scatter`` spans with the backend's liveness
        view. A shard is *healthy* when its backend worker is alive
        **and** it answered the probe; ``HealthReport.healthy`` requires
        the probe to resolve within ``budget_s`` and every shard to be
        healthy. The probe rides the normal submit path, so it also
        exercises admission and counts in :attr:`stats` (one request,
        one trace). Works on a stopped server (reports unhealthy rather
        than raising) and starts a lazily not-yet-started one.
        """
        if budget_s <= 0:
            raise ValueError(f"budget_s must be positive, got {budget_s}")
        error = ""
        probe_ok = False
        trace = self._tracer.start()
        try:
            future = self.submit(self._probe_traces(), _trace=trace)
        except Exception as exc:  # noqa: BLE001 — verdict, not crash
            error = repr(exc)
            future = None
        if future is not None:
            try:
                future.result(budget_s)
                probe_ok = True
            except Exception as exc:  # noqa: BLE001 — verdict, not crash
                error = repr(exc)
        # Liveness is read *after* the probe so a worker death the probe
        # itself exposed (fast-fail on a dead ring) is already visible.
        backend_health = self._backend.shard_health()
        versions = self.stats.snapshot()["model_versions"]
        scatter_end: Dict[int, float] = {}
        for name, _, end in trace.spans:
            if name.startswith("response_scatter/shard"):
                index = int(name.rsplit("shard", 1)[1])
                scatter_end[index] = max(scatter_end.get(index, end), end)
        shards = []
        for shard in self._shards:
            index = shard.feedline.index
            info = backend_health.get(index, {})
            alive = bool(info.get("alive", True))
            end = scatter_end.get(index)
            rtt_ms = (float("nan") if end is None
                      else 1e3 * (end - trace.started_at))
            detail = str(info.get("detail", ""))
            if not detail and not alive:
                exit_code = info.get("exit_code")
                detail = (f"worker dead (exit code {exit_code})"
                          if exit_code is not None else "worker dead")
            shards.append(ShardHealth(
                shard_index=index, alive=alive, round_trip_ms=rtt_ms,
                engine_version=int(versions.get(str(index), 0)),
                backlog=int(info.get("backlog", 0)),
                pid=info.get("pid"), detail=detail))
        healthy = probe_ok and all(s.healthy for s in shards)
        log_event("serve", "healthcheck", healthy=healthy,
                  probe_ok=probe_ok, error=error,
                  unhealthy_shards=[s.shard_index for s in shards
                                    if not s.healthy])
        report = HealthReport(healthy=healthy, probe_ok=probe_ok,
                              budget_s=float(budget_s), shards=shards,
                              error=error)
        # Cached for postmortem bundles: a bundle written mid-failure
        # must not run a live probe of its own.
        self.last_health = report
        return report

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        # A thin flush pump: the trace payload was already written into
        # the batch's slab at submit time, so per batch this thread only
        # builds the in-flight bookkeeping and hands the slab views to the
        # backend (whose per-shard queues never block on one another).
        while True:
            batch = self._batcher.gather()
            if batch is None:
                return
            live = sum(1 for r in batch.requests if not r.shed)
            if live == 0:
                # Every rider was shed while queued; nothing to compute.
                batch.release_slab()
                batch.release_in_flight()
                continue
            inflight = _InFlightBatch(batch, self)
            self.stats.record_batch(live, batch.n_traces)
            now = time.perf_counter()
            self.stats.record_dispatch_lag(now - batch.sealed_at)
            if inflight.traced:
                # dispatched_at must be set *before* the handoff: a worker
                # may pick the batch up the instant submit() enqueues it.
                inflight.dispatched_at = time.perf_counter()
                inflight.add_span("dispatch", now, inflight.dispatched_at)
            try:
                self._backend.submit(inflight)
            except Exception as exc:  # noqa: BLE001 — keep dispatching
                # A backend that cannot take the batch fails it; the
                # dispatcher itself must survive to drain the close.
                inflight.fail(exc)
                batch.release_in_flight()

    def engine_stats(self) -> Dict[int, Dict[str, float]]:
        """Per-shard engine counters, keyed by shard index.

        On the thread backend these come from the in-process engines; on
        the process backend each worker reports its own engine's counters
        with every completed batch, and the freshest snapshot wins — except
        ``hook_errors``, which is summed with the parent replica's count:
        batch hooks run parent-side there (the workers have none), so the
        replica is the only place a broken observer shows up.
        """
        out = {shard.feedline.index: shard.engine.stats.as_dict()
               for shard in self._shards}
        for index, worker in self._backend.engine_stats().items():
            worker = dict(worker)
            worker["hook_errors"] += out[index]["hook_errors"]
            out[index] = worker
        return out
