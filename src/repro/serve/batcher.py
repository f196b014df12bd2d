"""Micro-batching scheduler: coalesce readout requests into engine batches.

Requests accumulate into a *forming* batch. Sealing is work-conserving:
while no gathered batch is in flight, :meth:`MicroBatcher.gather` seals
the forming batch at once, so a lone request on an idle server never
waits for company. While a batch is in flight, the forming batch keeps
filling until that batch completes, it holds ``max_batch_traces`` traces,
or its oldest request has waited ``max_wait_ms`` — a ceiling on the wait,
not a wait every request pays. Batch size therefore follows load: one
request when idle, up to ``max_batch_traces`` under saturation. A burst
that reaches an idle batcher all at once splits: its first request is
gathered alone and the rest form behind it, so a closed loop whose
clients resubmit in lockstep runs smaller batches than a deadline would
give it. The owner of each gathered batch gives its in-flight slot back
with :meth:`FlushedBatch.release_in_flight` when the batch is over.

Requests are never split across batches, so per-request futures resolve
from exactly one engine pass. Backpressure on a full queue follows the
configured overload policy: *reject* refuses the new request, *shed*
fails the oldest queued one (freshest-first service under overload).

This is the zero-copy half of the serve hot path: each request's traces
are copied **once**, at :meth:`MicroBatcher.offer` time, straight into a
recycled trace slab from a :class:`~.slab.SlabPool` — on the submitting
client's thread, outside the batcher lock, so concurrent clients
parallelize the memcpy instead of serializing it behind a dispatcher. A
sealed batch reaches the dispatcher as a :class:`FlushedBatch` whose
``demod`` is a view of the slab: no ``np.concatenate``, no per-flush
allocation. Requests that cannot ride a slab — oversized singles, a pool
at its outstanding bound, mismatched trace geometry — fall back to an
assemble-at-gather batch, counted but off the steady-state path.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Deque, List, Optional

import numpy as np

from repro.obs.trace import TraceContext

from .slab import SlabPool

#: Supported behaviours when the submission queue is full.
OVERLOAD_POLICIES = ("reject", "shed")


class ServerOverloadedError(RuntimeError):
    """The service refused (or shed) a request due to backpressure."""


class ServerClosedError(RuntimeError):
    """The server stopped before this request reached an engine.

    Raised by the futures of requests that were still queued (in the
    batcher or behind other batches in a worker's queue) when
    :meth:`~repro.serve.server.ReadoutServer.stop` ran: shutdown fails
    them fast instead of draining an unbounded backlog. Batches already
    being computed still complete normally.
    """


@dataclass
class ServeRequest:
    """One submitted request, normalized to a multi-trace demod array.

    ``traces`` is ``(m, n_qubits, 2, n_bins)``; ``single`` records that the
    caller submitted one unbatched ``(n_qubits, 2, n_bins)`` trace so the
    response can unwrap to per-qubit bits. The future resolves to a
    :class:`~repro.serve.server.ReadoutResponse` (or raises on failure).
    ``shed`` marks a request evicted under the shed policy: its future has
    already failed, but its rows may still ride an already-written slab —
    the finalize path simply skips the dead future. ``trace`` is the
    request's sampled :class:`~repro.obs.trace.TraceContext` (None for
    the untraced majority): pipeline stages append spans to it as the
    request moves, and the finalize path hands it to the flight recorder.
    """

    traces: np.ndarray
    single: bool = False
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.perf_counter)
    shed: bool = False
    trace: Optional[TraceContext] = None

    @property
    def n_traces(self) -> int:
        return int(self.traces.shape[0])


@dataclass
class FlushedBatch:
    """One sealed micro-batch, ready for dispatch.

    ``demod`` is the batch's assembled ``(n_traces, n_qubits, 2, n_bins)``
    array — a view of ``slab`` on the pooled hot path (``slab is not
    None``), or an exact-size array on the fallback/oversized path. The
    owner must call :meth:`release_slab` exactly once when no shard can
    still read ``demod`` (release is advisory; see
    :class:`~.slab.SlabPool`), and :meth:`release_in_flight` once the
    batch is over, however it ended. ``sealed_at`` timestamps the seal for
    dispatch-lag accounting.
    """

    requests: List[ServeRequest]
    demod: np.ndarray
    n_traces: int
    sealed_at: float
    slab: Optional[np.ndarray] = None
    pool: Optional[SlabPool] = None
    batcher: Optional["MicroBatcher"] = None

    def release_slab(self) -> None:
        slab, self.slab = self.slab, None
        if slab is not None and self.pool is not None:
            self.pool.release(slab)

    def release_in_flight(self) -> None:
        """Give back this batch's in-flight slot in the batcher.

        Call when no shard will compute the batch any further: its last
        shard reported, it was dropped, or it was failed before any shard
        took it. Until every gathered batch is released, the batcher keeps
        the next batch forming (see :meth:`MicroBatcher.gather`), so a
        leaked slot silently turns batching back into deadline waits. Only
        the first call counts; later ones, from any thread, are no-ops.
        """
        batcher = self.batcher
        if batcher is not None:
            batcher._release_in_flight(self)

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)


class _Forming:
    """A batch being assembled (and copied into) under the batcher."""

    __slots__ = ("slab", "requests", "n_traces", "deadline", "sealed_at",
                 "copying", "sealed", "traced")

    def __init__(self, slab: Optional[np.ndarray], deadline: float):
        self.slab = slab
        self.requests: List[ServeRequest] = []
        self.n_traces = 0
        self.deadline = deadline
        self.sealed_at = 0.0
        self.copying = 0         # offer() copies still writing the slab
        self.sealed = False
        self.traced = False      # any request carries a TraceContext


class MicroBatcher:
    """Thread-safe request queue with work-conserving, size-capped flushes.

    Parameters
    ----------
    max_batch_traces:
        Flush once a batch holds this many traces; also the trace slab
        size. A single request larger than the cap still forms its own
        (oversized, slab-bypassing) batch.
    max_wait_ms:
        Ceiling on how long the forming batch waits behind a batch still
        in flight: it seals once its oldest request has waited this long,
        even if the in-flight batch has not completed. With nothing in
        flight the forming batch seals at once, so an idle batcher adds
        no wait.
    max_queue_requests:
        Bound on queued (not yet gathered) requests; beyond it the
        overload policy applies.
    overload:
        ``"reject"`` makes :meth:`offer` raise
        :class:`ServerOverloadedError`; ``"shed"`` accepts the new request
        and returns the evicted oldest one for the caller to fail.
    trace_dtype:
        Forced slab dtype (e.g. ``np.float16`` for the quantized trace
        path). ``None`` (default) inherits the first request's dtype, so
        float64 traffic keeps bit-exact float64 batches.
    slab_pool:
        The :class:`~.slab.SlabPool` trace slabs come from; a private pool
        is created when omitted (the server passes one wired to its stats).
    """

    def __init__(self, max_batch_traces: int = 256, max_wait_ms: float = 2.0,
                 max_queue_requests: int = 1024, overload: str = "reject",
                 trace_dtype=None, slab_pool: Optional[SlabPool] = None):
        if max_batch_traces < 1:
            raise ValueError(
                f"max_batch_traces must be positive, got {max_batch_traces}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if max_queue_requests < 1:
            raise ValueError(
                f"max_queue_requests must be positive, got {max_queue_requests}")
        if overload not in OVERLOAD_POLICIES:
            raise ValueError(
                f"overload must be one of {OVERLOAD_POLICIES}, got {overload!r}")
        self.max_batch_traces = int(max_batch_traces)
        self.max_wait_s = float(max_wait_ms) / 1000.0
        self.max_queue_requests = int(max_queue_requests)
        self.overload = overload
        self.trace_dtype = (None if trace_dtype is None
                            else np.dtype(trace_dtype))
        self._pool = slab_pool if slab_pool is not None else SlabPool()
        self._queue: Deque[_Forming] = deque()   #: guarded-by: _cond
        self._forming: Optional[_Forming] = None  #: guarded-by: _cond
        self._trace_shape: Optional[tuple] = None  #: guarded-by: _cond
        self._slab_dtype: Optional[np.dtype] = None  #: guarded-by: _cond
        self._n_pending = 0  #: guarded-by: _cond
        self._pending_traces = 0  #: guarded-by: _cond
        self._in_flight = 0  #: guarded-by: _cond
        self._cond = threading.Condition()
        self._closed = False  #: guarded-by: _cond

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    #: hot-path
    def offer(self, request: ServeRequest) -> Optional[ServeRequest]:
        """Enqueue a request; returns the shed victim under that policy.

        The request's traces are copied into the forming batch's slab on
        *this* thread, outside the batcher lock — concurrent submitters
        copy in parallel, and the dispatcher never touches trace payloads
        again. Raises :class:`ServerOverloadedError` when the queue is
        full under the ``reject`` policy, and :class:`RuntimeError` once
        closed.
        """
        traces = request.traces
        n = int(traces.shape[0])
        copy_into: Optional[_Forming] = None
        start = 0
        with self._cond:
            if self._closed:
                raise RuntimeError("batcher is closed")
            victim = None
            if self._n_pending >= self.max_queue_requests:
                if self.overload == "reject":
                    raise ServerOverloadedError(
                        f"queue full ({self.max_queue_requests} requests)")
                victim = self._shed_oldest_locked()
            if self._trace_shape is None:
                self._trace_shape = tuple(traces.shape[1:])
                self._slab_dtype = (self.trace_dtype if self.trace_dtype
                                    is not None else traces.dtype)
            if (n > self.max_batch_traces
                    or tuple(traces.shape[1:]) != self._trace_shape):
                # Oversized single request (or alien geometry): its own
                # slab-bypassing batch, sealed on the spot. The engine
                # rejects bad geometry per batch instead of poisoning a
                # shared slab.
                self._seal_forming_locked()
                alone = _Forming(slab=None, deadline=0.0)
                alone.requests.append(request)
                alone.n_traces = n
                alone.traced = request.trace is not None
                self._seal_locked(alone)
            else:
                forming = self._forming
                if (forming is not None
                        and forming.n_traces + n > self.max_batch_traces):
                    self._seal_forming_locked()
                    forming = None
                if forming is None:
                    slab = self._pool.acquire(
                        (self.max_batch_traces,) + self._trace_shape,
                        self._slab_dtype)
                    forming = _Forming(
                        slab=slab,
                        deadline=request.enqueued_at + self.max_wait_s)
                    self._forming = forming
                start = forming.n_traces
                forming.requests.append(request)
                forming.n_traces += n
                if request.trace is not None:
                    forming.traced = True
                if forming.slab is not None:
                    forming.copying += 1
                    copy_into = forming
                if forming.n_traces >= self.max_batch_traces:
                    self._seal_forming_locked()
            self._n_pending += 1
            self._pending_traces += n
            self._cond.notify_all()
        if copy_into is not None:
            # The one trace copy of the hot path (casts to the slab dtype
            # when the quantized path is on). No lock held: large-request
            # memcpys from different clients overlap.
            trace = request.trace
            copy_start = time.perf_counter() if trace is not None else 0.0
            copy_into.slab[start:start + n] = traces
            if trace is not None:
                trace.add_span("slab_copy", copy_start, time.perf_counter())
            with self._cond:
                copy_into.copying -= 1
                if copy_into.copying == 0 and (copy_into.sealed
                                               or self._closed):
                    self._cond.notify_all()
        return victim

    def _shed_oldest_locked(self) -> ServeRequest:
        for batch in self._queue:
            for r in batch.requests:
                if not r.shed:
                    return self._mark_shed_locked(r)
        if self._forming is not None:
            for r in self._forming.requests:
                if not r.shed:
                    return self._mark_shed_locked(r)
        # Unreachable while accounting holds (pending >= bound >= 1).
        raise ServerOverloadedError(
            f"queue full ({self.max_queue_requests} requests)")

    def _mark_shed_locked(self, request: ServeRequest) -> ServeRequest:
        request.shed = True
        self._n_pending -= 1
        self._pending_traces -= request.n_traces
        return request

    def _seal_forming_locked(self) -> None:
        if self._forming is not None:
            forming, self._forming = self._forming, None
            self._seal_locked(forming)

    def _seal_locked(self, forming: _Forming) -> None:
        forming.sealed = True
        forming.sealed_at = time.perf_counter()
        if forming.traced:
            for r in forming.requests:
                if r.trace is not None:
                    r.trace.add_span("queue_wait", r.enqueued_at,
                                     forming.sealed_at)
        self._queue.append(forming)

    def close(self) -> None:
        """Stop accepting requests; :meth:`gather` then returns None.

        Queued requests that no :meth:`gather` call has picked up yet stay
        behind for the owner to :meth:`drain` and fail fast — close never
        silently computes a backlog.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def drain(self) -> List[ServeRequest]:
        """Remove and return every queued-but-ungathered live request.

        The shutdown path: after :meth:`close`, the server fails these
        futures with :class:`ServerClosedError` instead of leaving them
        hanging (or blocking shutdown on an unbounded backlog). Trace
        slabs of the drained batches return to the pool once any in-flight
        :meth:`offer` copy into them has finished.
        """
        with self._cond:
            batches = list(self._queue)
            self._queue.clear()
            if self._forming is not None:
                batches.append(self._forming)
                self._forming = None
            while any(b.copying for b in batches):
                self._cond.wait(0.05)
            requests: List[ServeRequest] = []
            for batch in batches:
                requests.extend(r for r in batch.requests if not r.shed)
                if batch.slab is not None:
                    self._pool.release(batch.slab)
                    batch.slab = None
            self._n_pending = 0
            self._pending_traces = 0
            return requests

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    #: hot-path
    def gather(self) -> Optional[FlushedBatch]:
        """Block for the next sealed batch; None once closed.

        A batch holds whole requests whose trace counts sum to at most
        ``max_batch_traces`` (except a single oversized request, served
        alone). Batches already sealed by size are returned whatever is in
        flight. The forming batch is sealed as soon as every previously
        gathered batch has been released (see
        :meth:`FlushedBatch.release_in_flight`), or once its oldest request
        has waited ``max_wait_ms``. Each returned batch holds one in-flight
        slot until released. After :meth:`close`, gather returns None
        immediately — still-queued requests are left for :meth:`drain`, so
        shutdown fails them fast rather than computing a backlog.
        """
        with self._cond:
            while True:
                if self._queue and self._queue[0].copying == 0:
                    batch = self._queue.popleft()
                    live = [r for r in batch.requests if not r.shed]
                    self._n_pending -= len(live)
                    self._pending_traces -= sum(r.n_traces for r in live)
                    self._in_flight += 1
                    break
                if self._closed:
                    return None
                if self._queue:
                    self._cond.wait()        # head slab copy committing
                    continue
                forming = self._forming
                if forming is None:
                    self._cond.wait()
                    continue
                # Work-conserving: with nothing in flight, waiting for
                # company only adds delay. Otherwise keep filling until the
                # in-flight batches are released (which notifies) or the
                # deadline, the ceiling, passes.
                remaining = forming.deadline - time.perf_counter()
                if self._in_flight == 0 or remaining <= 0:
                    self._seal_forming_locked()
                    continue
                self._cond.wait(remaining)
            # Snapshot the geometry while still under the lock: _build
            # runs outside it (the fallback assembly must not serialize
            # gatherers), and these two are _cond-guarded state.
            trace_shape = self._trace_shape
            slab_dtype = self._slab_dtype
        return self._build(batch, trace_shape, slab_dtype)

    def _build(self, batch: _Forming, trace_shape: Optional[tuple],
               slab_dtype: Optional[np.dtype]) -> FlushedBatch:
        if batch.traced:
            # seal -> gather: time the batch spent waiting for (and being
            # assembled by) the dispatch pump after its seal.
            built_at = time.perf_counter()
            for r in batch.requests:
                if r.trace is not None and not r.shed:
                    r.trace.add_span("batch_seal", batch.sealed_at, built_at)
        if batch.slab is not None:
            demod = batch.slab[:batch.n_traces]
            return FlushedBatch(
                requests=batch.requests, demod=demod,
                n_traces=batch.n_traces, sealed_at=batch.sealed_at,
                slab=batch.slab, pool=self._pool, batcher=self)
        # Off the hot path: oversized/alien-geometry singles reuse the
        # request's own array (cast only when a quantized dtype is
        # forced); a pool at its outstanding bound assembles per batch.
        if len(batch.requests) == 1:
            traces = batch.requests[0].traces
            demod = traces
            if (slab_dtype is not None
                    and traces.dtype != slab_dtype
                    and tuple(traces.shape[1:]) == trace_shape):
                demod = traces.astype(slab_dtype)
        else:
            demod = np.empty((batch.n_traces,) + trace_shape,
                             dtype=slab_dtype)
            offset = 0
            for r in batch.requests:
                demod[offset:offset + r.n_traces] = r.traces
                offset += r.n_traces
        return FlushedBatch(requests=batch.requests, demod=demod,
                            n_traces=batch.n_traces,
                            sealed_at=batch.sealed_at, batcher=self)

    def _release_in_flight(self, batch: FlushedBatch) -> None:
        with self._cond:
            if batch.batcher is None:
                return              # already released
            batch.batcher = None
            self._in_flight -= 1
            # Only a forming batch waits on the in-flight count; waking the
            # gatherer otherwise costs the releasing thread a GIL handoff.
            if self._in_flight == 0 and self._forming is not None:
                self._cond.notify_all()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    @property
    def slab_pool(self) -> SlabPool:
        return self._pool

    @property
    def in_flight(self) -> int:
        """Gathered batches not yet released (see :meth:`gather`)."""
        with self._cond:
            return self._in_flight

    @property
    def trace_shape(self) -> Optional[tuple]:
        """Per-trace geometry locked in by the first request (or None)."""
        with self._cond:
            return self._trace_shape

    def __len__(self) -> int:
        with self._cond:
            return self._n_pending

    def pending_traces(self) -> int:
        with self._cond:
            return self._pending_traces
