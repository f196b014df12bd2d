"""Process-based shard execution: true parallel serving workers.

:class:`ProcessShardBackend` runs each :class:`~.server.ServeShard` in its
own **spawned worker process**, so shard compute escapes the parent
interpreter's GIL and a multi-shard server's throughput scales with cores
instead of plateauing. The moving parts, per shard:

* **engine shipping** — the worker never pickles live engine objects; it
  rebuilds a fresh :class:`~repro.engine.ReadoutEngine` from the fitted
  pipelines serialized with :func:`repro.core.dumps_pipeline` (the
  ``save_pipeline``/``load_pipeline`` archive format), both at startup and
  on every :meth:`~.server.ReadoutServer.swap_engine` hot swap;
* **trace transport** — micro-batches move through a
  :class:`~.shm.TraceRing` (paired request/response slots in POSIX shared
  memory): a per-shard **submitter thread** memcpys the shard's trace
  columns of each batch into a free slot — coalescing up to
  ``coalesce_batches`` queued micro-batches back to back into *one* slot
  so small batches amortize the IPC round-trip — and sends a tiny
  ``("batch", seq, slot, n)`` message over a pipe; the worker predicts
  straight out of the mapped slot and writes bits directly into the
  slot's response block (``predict_traces_into``) — no hot-path pickling,
  no intermediate result copy. Because each shard has its own submitter
  and its own ring, one slow or backlogged shard never stalls the
  others' handoff;
* **control flow** — commands (ring attach, batch, swap, stop) are
  strictly ordered on one pipe, which is what preserves the swap-at-a-
  batch-boundary contract remotely; results return on a second pipe, and
  a parent-side receiver thread resolves the shared
  :class:`~.server._InFlightBatch` futures exactly like a thread-backend
  worker would;
* **observability mirroring** — each result carries the worker engine's
  counter snapshot (surfaced via
  :meth:`~.server.ReadoutServer.engine_stats`), and the parent replays
  every completed batch through the parent-side replica engine's batch
  hooks (:meth:`~repro.engine.ReadoutEngine.run_batch_hooks`), so drift
  monitors and the :class:`~repro.calib.worker.CalibrationWorker` keep
  working unchanged;
* **deterministic teardown** — :meth:`~.server.ReadoutServer.stop` makes
  queued batches fail fast (an ``Event`` the worker checks before
  computing), completes the in-flight one, then joins every child —
  escalating to terminate/kill after a timeout — and records exit codes.
  A worker that *dies* (crash, OOM kill) is detected via its process
  sentinel: its pending batches fail immediately with
  :class:`~.batcher.ServerClosedError` and the death is counted in
  :class:`~.stats.ServerStats`.

Workers use the ``spawn`` start method: children import the package fresh
and receive only picklable state, so the backend never depends on
fork-inherited locks or monkeypatched module state.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
import pickle
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.model_io import dumps_pipeline, loads_pipeline
from repro.engine import ReadoutEngine
from repro.obs.log import log_event
from repro.readout.dataset import ReadoutDataset

from .batcher import ServerClosedError
from .server import ShardBackend, ServeShard, _shard_columns
from .shm import TraceRing

#: Request/response slots per worker ring: double buffering, so the parent
#: fills the next batch while the worker computes the current one.
DEFAULT_RING_SLOTS = 2

#: Micro-batches coalesced into one ring slot (and one IPC round-trip)
#: when a shard's submit queue runs deep. Rings are sized for this, so
#: coalescing never waits — it only packs what is already queued.
DEFAULT_COALESCE_BATCHES = 4

#: How long a clean shutdown waits for a worker before escalating.
DEFAULT_JOIN_TIMEOUT_S = 10.0

#: How long ReadoutServer.start() waits for every worker's ready
#: handshake (interpreter boot + package import, budgeted generously for
#: loaded CI machines).
DEFAULT_STARTUP_TIMEOUT_S = 120.0

#: BLAS/OpenMP pools are capped to one thread per worker unless the
#: operator set these explicitly: the backend's parallelism is one
#: process per shard, and N workers each spinning up a cores-wide BLAS
#: pool oversubscribe the host instead of scaling it. The caps ride the
#: environment snapshot spawn takes at Process.start(), so applying them
#: mutates the parent environment briefly — _SPAWN_ENV_LOCK serializes
#: every backend's spawn batch so two servers starting concurrently
#: cannot see each other's half-applied caps.
_WORKER_THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

_SPAWN_ENV_LOCK = threading.Lock()


def scaling_summary(
        throughput: Dict[str, Dict[str, float]]) -> Dict[str, object]:
    """Summarize a backend x shard-count throughput sweep.

    ``throughput[backend][str(n_shards)]`` is traces/s. Returns the
    ``data["scaling"]`` block both the serve benchmark and the
    ``serve_scaling`` experiment emit: the per-backend curves, a
    ``{backend}_speedup_{N}shards`` ratio for every swept shard count
    against the smallest, and the ``cpus`` context
    ``benchmarks/compare_results.py`` keys its cross-machine gating on —
    one producer, so the gate's schema cannot silently drift.
    """
    summary: Dict[str, object] = {"cpus": usable_cpu_count()}
    for backend, curve in throughput.items():
        summary[backend] = dict(curve)
        counts = sorted(curve, key=int)
        low = counts[0]
        if len(counts) > 1 and curve[low] > 0:
            for count in counts[1:]:
                summary[f"{backend}_speedup_{count}shards"] = (
                    curve[count] / curve[low])
    return summary


def usable_cpu_count() -> int:
    """CPUs this process may actually run on — the parallelism ceiling.

    ``os.cpu_count()`` reports the machine; affinity masks and container
    cpusets can grant far less. Scaling expectations for the process
    backend (how many shards can truly run in parallel) must come from
    this number, not the nominal one.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


@dataclass(frozen=True)
class EngineSpec:
    """Picklable description of a fitted engine, rebuildable anywhere.

    ``blobs`` maps design name to :func:`repro.core.dumps_pipeline` bytes;
    ``dtype``/``chunk_size`` reproduce the engine's streaming knobs. The
    mapping order fixes the design order used for response-slot layout.
    """

    blobs: Tuple[Tuple[str, bytes], ...]
    dtype: str
    chunk_size: int


def engine_to_spec(engine: ReadoutEngine) -> EngineSpec:
    """Serialize an engine's fitted pipelines for a worker process.

    Workers only ever run a :class:`~repro.engine.ReadoutEngine` rebuilt
    from these pipelines, so any other engine is rejected up front,
    before anything spawns.
    """
    if not isinstance(engine, ReadoutEngine):
        raise ValueError(
            f"the process backend ships engines as serialized fitted "
            f"pipelines; {type(engine).__name__!r} is not a "
            f"repro.engine.ReadoutEngine")
    blobs = tuple((name, dumps_pipeline(pipeline))
                  for name, pipeline in engine.pipelines.items())
    return EngineSpec(blobs=blobs, dtype=engine.dtype.str,
                      chunk_size=engine.chunk_size)


def engine_from_spec(spec: EngineSpec) -> ReadoutEngine:
    """Rebuild a serving engine from :func:`engine_to_spec` output."""
    designs = {name: loads_pipeline(blob) for name, blob in spec.blobs}
    return ReadoutEngine(designs, chunk_size=spec.chunk_size,
                         dtype=np.dtype(spec.dtype))


def _portable_exc(exc: BaseException) -> BaseException:
    """The exception itself when picklable, else a faithful stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 — anything unpicklable gets wrapped
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _shard_worker_main(shard_index: int, design_names: Tuple[str, ...],
                       device, spec: EngineSpec, commands, results,
                       stopping) -> None:
    """Entry point of one spawned shard worker (module-level for spawn).

    Processes the strictly ordered command stream: attach to (re)allocated
    trace rings, compute batches out of ring slots, rebuild the engine on
    hot swaps, and acknowledge ``stop``. Batches arriving after the
    stopping event are skipped, not computed — the parent fails their
    futures fast, mirroring the thread backend's drain semantics.
    """
    engine = engine_from_spec(spec)
    ring: Optional[TraceRing] = None
    try:
        # Interpreter boot + package import dominate worker startup; the
        # ready handshake lets the parent keep that out of serving time.
        results.send(("ready",))
        while True:
            try:
                message = commands.recv()
            except (EOFError, OSError):
                break                     # parent vanished; die quietly
            kind = message[0]
            if kind == "stop":
                results.send(("stopped",))
                break
            if kind == "ring":
                if ring is not None:
                    ring.close()
                ring = TraceRing.attach(message[1])
            elif kind == "swap":
                engine = engine_from_spec(message[1])
                if message[2] is not None:
                    device = message[2]
            elif kind == "batch":
                _, seq, slot, n_traces = message
                if stopping.is_set():
                    results.send(("skipped", seq, slot))
                    continue
                try:
                    # Trace stitching: the slot header names the traced
                    # requests riding this batch; time the engine pass
                    # and ship the span home keyed by those ids.
                    # perf_counter is a system-wide monotonic clock, so
                    # the timestamps are directly comparable with the
                    # parent's.
                    trace_ids = ring.read_trace_ids(slot)
                    t_infer = time.perf_counter() if trace_ids else 0.0
                    # Zero-copy result path: the engine writes each
                    # chunk's bits straight into the slot's response
                    # block — no worker-side result array at all.
                    out = {name: ring.response_view(slot, d, 0, n_traces)
                           for d, name in enumerate(design_names)}
                    engine.predict_traces_into(
                        ring.request_view(slot, n_traces), device, out)
                    span = ((trace_ids, t_infer, time.perf_counter())
                            if trace_ids else None)
                    results.send(("done", seq, slot,
                                  engine.stats.as_dict(), span))
                except Exception as exc:  # noqa: BLE001 — fail the batch
                    results.send(("err", seq, slot, _portable_exc(exc)))
    finally:
        if ring is not None:
            ring.close()
        try:
            results.close()
            commands.close()
        except OSError:
            pass


class _ShardUnavailable(Exception):
    """Internal: this shard cannot take the batch (dead or stopping)."""


class _ProcessShard:
    """Parent-side handle for one spawned shard worker.

    The dispatcher's handoff is :meth:`enqueue` — a lock-light append to
    this shard's own submit deque. A dedicated **submitter thread** drains
    the deque into the shard's trace ring, coalescing compatible queued
    batches into single slots, so slot backpressure (and the memcpy into
    shared memory) lands on the shard it belongs to instead of stalling
    the dispatcher — and with it every other shard.
    """

    def __init__(self, server, shard: ServeShard, spec: EngineSpec, ctx,
                 n_slots: int, join_timeout_s: float,
                 coalesce_batches: int = DEFAULT_COALESCE_BATCHES):
        self.shard = shard
        self.index = shard.feedline.index
        self._server = server
        self._n_slots = n_slots
        self._join_timeout_s = join_timeout_s
        self._coalesce = max(1, int(coalesce_batches))
        self._columns = _shard_columns(shard.feedline)
        self._n_qubits = shard.feedline.n_qubits
        # Canonical design order shared with the worker for the life of
        # the shard: fixes the response-slot layout across hot swaps
        # (engines may list designs in any internal order).
        self._design_names = tuple(server.design_names)
        self._ring: Optional[TraceRing] = None
        self._free: "queue.Queue[int]" = queue.Queue()
        for slot in range(n_slots):
            self._free.put(slot)
        # seq -> [(inflight, offset, n_traces), ...] slot segments.
        self._pending: Dict[int, List[Tuple[object, int, int]]] = {}  #: guarded-by: _lock
        # seq -> send timestamp, kept only for traced groups (ring
        # transit spans stitch send -> result-receive per group).
        self._sent_at: Dict[int, float] = {}  #: guarded-by: _lock
        self._next_seq = 0  #: guarded-by: _lock
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._submit_q: "deque[object]" = deque()  #: guarded-by: _submit_cond
        self._submit_cond = threading.Condition()
        self._dead = False
        self._finished = False
        self._ready = threading.Event()
        self.exit_code: Optional[int] = None
        self.last_engine_stats: Optional[Dict[str, float]] = None

        cmd_child, self._commands = ctx.Pipe(duplex=False)
        self._results, res_child = ctx.Pipe(duplex=False)
        self._stopping = ctx.Event()
        self._proc = ctx.Process(
            target=_shard_worker_main,
            args=(self.index, self._design_names, shard.device, spec,
                  cmd_child, res_child, self._stopping),
            name=f"readout-serve-shard{self.index}", daemon=True)
        self._proc.start()
        log_event("worker", "worker_spawn", shard=self.index,
                  pid=self._proc.pid)
        # Close the child's pipe ends in the parent so EOF propagates.
        cmd_child.close()
        res_child.close()
        self._receiver = threading.Thread(
            target=self._receive_loop,
            name=f"readout-serve-shard{self.index}-recv", daemon=True)
        self._receiver.start()
        self._submitter = threading.Thread(
            target=self._submit_loop,
            name=f"readout-serve-shard{self.index}-submit", daemon=True)
        self._submitter.start()

    # ------------------------------------------------------------------
    # Submission (dispatcher enqueues; the submitter thread ships)
    # ------------------------------------------------------------------
    @property
    def dead(self) -> bool:
        return self._dead

    @property
    def pid(self) -> Optional[int]:
        return self._proc.pid

    def death_error(self) -> ServerClosedError:
        return ServerClosedError(
            f"shard {self.index} worker died (exit code {self.exit_code})")

    def wait_ready(self, timeout_s: float) -> None:
        """Block until the worker's ready handshake (or its death).

        Keeps one-time worker startup (interpreter boot, package import,
        pipeline deserialization) out of serving latency, and turns a
        worker that cannot even start — e.g. a corrupt engine blob — into
        an immediate, attributable error instead of a dead first batch.
        """
        if not self._ready.wait(timeout_s):
            raise RuntimeError(
                f"shard {self.index} worker not ready after {timeout_s:g}s")
        if self._dead:
            raise RuntimeError(str(self.death_error()))

    #: hot-path
    def enqueue(self, inflight) -> None:
        """Hand one in-flight batch to this shard (dispatcher thread).

        Never blocks on slot availability or the memcpy into shared
        memory — that work belongs to this shard's submitter thread.
        """
        with self._submit_cond:
            self._submit_q.append(inflight)
            self._submit_cond.notify()

    #: hot-path
    def _submit_loop(self) -> None:
        """Drain the submit deque into the ring, coalescing when deep.

        Coalescing only packs what is *already queued*: a group is the
        head batch plus up to ``coalesce_batches - 1`` immediate followers
        with the same trace geometry — never a wait for more traffic, so
        an idle server's latency is untouched.
        """
        while True:
            with self._submit_cond:
                while not self._submit_q:
                    self._submit_cond.wait()
                head = self._submit_q.popleft()
                if head is None:
                    return
                group = [head]
                limit = (self._server.max_batch_traces * self._coalesce)
                total = head.n_traces
                while (len(group) < self._coalesce and self._submit_q
                        and self._submit_q[0] is not None):
                    nxt = self._submit_q[0]
                    if (total + nxt.n_traces > limit
                            or nxt.demod.shape[1:] != head.demod.shape[1:]
                            or nxt.demod.dtype != head.demod.dtype):
                        break
                    group.append(self._submit_q.popleft())
                    total += nxt.n_traces
            self._send_group(group, total)

    #: hot-path
    def _send_group(self, group: List[object], total: int) -> None:
        """Ship one coalesced group: one slot, one command message."""
        failure: Optional[BaseException] = None
        if self._dead:
            failure = self.death_error()
        elif self._server.stopping.is_set():
            failure = ServerClosedError(
                "server stopped before the batch was shipped to the "
                "worker")
        if failure is not None:
            for inflight in group:
                inflight.shard_error(failure)
            return
        try:
            demods = [inflight.demod[:, self._columns]
                      for inflight in group]
            if self._ring is None or not self._ring.fits(demods[0], total):
                self._reallocate_ring(demods[0], total)
            slot = self._acquire_free_slot()
        except _ShardUnavailable as exc:
            closed = ServerClosedError(str(exc))
            for inflight in group:
                inflight.shard_error(closed)
            return
        offset = 0
        segments: List[Tuple[object, int, int]] = []
        for inflight, demod in zip(group, demods):
            n = int(demod.shape[0])
            self._ring.write_request_at(slot, offset, demod)
            segments.append((inflight, offset, n))
            offset += n
        traced = [inflight for inflight in group if inflight.traced]
        # Headers are written for every group (count 0 clears a recycled
        # slot's stale ids) before the batch message that reveals them.
        self._ring.write_trace_ids(
            slot, [r.trace.trace_id
                   for inflight in traced for r in inflight.traced])
        died = False
        with self._lock:
            if self._dead:
                # Only note the fact under the lock; failing futures runs
                # done-callbacks and the slot return can wake the
                # submitter — neither belongs under _lock.
                died = True
            else:
                seq = self._next_seq
                self._next_seq += 1
                self._pending[seq] = segments
                if traced:
                    # Registered with _pending under the same lock so the
                    # receiver (which may win the race to this seq) always
                    # finds it. ring_submit covers submitter-queue wait,
                    # slot wait and the shared-memory memcpy.
                    sent_at = time.perf_counter()
                    self._sent_at[seq] = sent_at
                    for inflight in traced:
                        if inflight.dispatched_at is not None:
                            inflight.add_span(
                                f"ring_submit/shard{self.index}",
                                inflight.dispatched_at, sent_at)
        if died:
            self._free.put(slot)
            exc = self.death_error()
            for inflight in group:
                inflight.shard_error(exc)
            return
        try:
            with self._send_lock:
                self._commands.send(("batch", seq, slot, total))  # repro-lint: ignore[RPA002] serializing pipe writes is _send_lock's sole purpose; nothing else is held under it
        except (BrokenPipeError, OSError):
            with self._lock:
                self._pending.pop(seq, None)
                self._sent_at.pop(seq, None)
            self._free.put(slot)      # the worker will never release it
            exc = self.death_error()
            for inflight in group:
                inflight.shard_error(exc)
            return
        self._server.stats.record_ring_flush(len(group))

    def _acquire_free_slot(self) -> int:
        while True:
            if self._dead:
                raise _ShardUnavailable(str(self.death_error()))
            if self._server.stopping.is_set():
                raise _ShardUnavailable(
                    "server stopped before the batch was shipped to the "
                    "worker")
            try:
                return self._free.get(timeout=0.05)
            except queue.Empty:
                continue

    def _reallocate_ring(self, demod: np.ndarray,
                         min_capacity: int) -> None:
        """Swap in a ring sized for this traffic (first batch, or growth).

        Claims every slot first so no in-flight batch still references
        the old segment, then publishes the new geometry on the ordered
        command pipe — the worker attaches before it can see any batch
        message that uses the new slots. Capacity covers a full coalesced
        group, so coalescing is never defeated by slot size.
        """
        claimed = [self._acquire_free_slot() for _ in range(self._n_slots)]
        old = self._ring
        capacity = max(self._server.max_batch_traces * self._coalesce,
                       int(min_capacity))
        ring = TraceRing.create(
            n_slots=self._n_slots, capacity=capacity,
            trace_shape=demod.shape[1:], dtype=demod.dtype,
            n_designs=len(self._design_names))
        try:
            with self._send_lock:
                self._commands.send(("ring", ring.spec.as_dict()))  # repro-lint: ignore[RPA002] serializing pipe writes is _send_lock's sole purpose; nothing else is held under it
        except (BrokenPipeError, OSError):
            ring.close()
            ring.unlink()
            for slot in claimed:
                self._free.put(slot)
            raise _ShardUnavailable(str(self.death_error())) from None
        self._ring = ring
        if old is not None:
            old.close()
            old.unlink()
        for slot in claimed:
            self._free.put(slot)

    # ------------------------------------------------------------------
    # Results (receiver thread)
    # ------------------------------------------------------------------
    def _receive_loop(self) -> None:
        sentinel = self._proc.sentinel
        while True:
            try:
                ready = _connection_wait([self._results, sentinel])
            except OSError:
                self._on_death()
                return
            if self._results in ready:
                try:
                    message = self._results.recv()
                except (EOFError, OSError):
                    self._on_death()
                    return
                if not self._dispatch_message(message):
                    return
            else:
                # The worker died. Drain results it flushed before the
                # crash, then fail whatever is still pending.
                while self._results.poll(0.01):
                    try:
                        message = self._results.recv()
                    except (EOFError, OSError):
                        break
                    if not self._dispatch_message(message):
                        return
                self._on_death()
                return

    def _dispatch_message(self, message) -> bool:
        """Route one worker message; False ends the receive loop."""
        if message[0] == "stopped":
            return False
        if message[0] == "ready":
            self._ready.set()
            log_event("worker", "worker_ready", shard=self.index,
                      pid=self._proc.pid)
            return True
        self._handle_result(message)
        return True

    #: hot-path
    def _handle_result(self, message) -> None:
        kind, seq, slot = message[0], message[1], message[2]
        with self._lock:
            segments = self._pending.pop(seq, None)
            sent_at = self._sent_at.pop(seq, None)
        worker_span = None
        if kind == "done":
            self.last_engine_stats = message[3]
            if len(message) > 4:
                worker_span = message[4]
        failure: Optional[BaseException] = None
        if kind == "skipped":
            failure = ServerClosedError(
                "server stopped before the batch reached the engine")
        elif kind == "err":
            failure = message[3]
        try:
            if segments is None:
                return
            if failure is not None:
                for inflight, _, _ in segments:
                    inflight.shard_error(failure)
                return
            recv_at = (time.perf_counter() if sent_at is not None
                       else None)
            span_ids = frozenset(worker_span[0]) if worker_span else None
            for inflight, offset, n in segments:
                # Zero-copy handback: hand views into the slot's response
                # block straight to deliver(), which scatters them into
                # the batch's response slab before returning — the slot
                # is only freed (finally) after every segment consumed it.
                try:
                    if inflight.traced:
                        self._stitch_spans(inflight, sent_at, recv_at,
                                           worker_span, span_ids)
                    bits = {name: self._ring.response_view(slot, d,
                                                           offset, n)
                            for d, name in enumerate(self._design_names)}
                    mirror_start = (time.perf_counter()
                                    if inflight.traced else 0.0)
                    self._mirror_hooks(inflight, bits)
                    if inflight.traced:
                        inflight.add_span(
                            f"hook_mirror/shard{self.index}",
                            mirror_start, time.perf_counter())
                    inflight.deliver(self.shard.feedline, bits)
                except Exception as exc:  # noqa: BLE001 — never hang a client
                    inflight.shard_error(exc)
        finally:
            # The slot is always freed — even on a failed read/scatter —
            # or the ring would leak capacity and stall.
            self._free.put(slot)

    def _stitch_spans(self, inflight, sent_at: Optional[float],
                      recv_at: Optional[float], worker_span,
                      span_ids: Optional[frozenset]) -> None:
        """Attach ring-transit and worker-side spans to traced requests.

        ``worker_span`` is the worker's ``(trace_ids, start, end)``
        inference timing, valid on the parent's clock because
        ``perf_counter`` is system-wide monotonic; requests whose id
        fell past the slot header's cap simply miss the worker span.
        """
        if sent_at is not None and recv_at is not None:
            inflight.add_span(f"ring_transit/shard{self.index}",
                              sent_at, recv_at)
        if worker_span and span_ids:
            _, start, end = worker_span
            name = f"worker_inference/shard{self.index}"
            for request in inflight.traced:
                if request.trace.trace_id in span_ids:
                    request.trace.add_span(name, start, end)

    def _mirror_hooks(self, inflight,
                      bits: Dict[str, np.ndarray]) -> None:
        """Replay a remotely computed batch through the replica's hooks.

        Keeps parent-side observers (score drift monitors, any
        ``add_batch_hook`` consumer) fed even though inference ran in the
        worker. The chunk is built from the parent's own copy of the
        batch, so a slow hook never pins a ring slot.
        """
        engine = self.shard.engine
        if not engine.has_batch_hooks:
            return
        demod = inflight.demod[:, self._columns]
        chunk = ReadoutDataset(
            demod=demod,
            labels=np.zeros((demod.shape[0], self._n_qubits),
                            dtype=np.int64),
            basis=np.zeros(demod.shape[0], dtype=np.int64),
            device=self.shard.device)
        engine.run_batch_hooks(chunk, bits)

    def _on_death(self) -> None:
        with self._lock:
            if self._dead:
                return
            self._dead = True
            pending = list(self._pending.values())
            self._pending.clear()
        self._proc.join(timeout=1.0)
        self.exit_code = self._proc.exitcode
        self._server.stats.record_worker_death()
        log_event("worker", "worker_death", level=logging.WARNING,
                  shard=self.index, pid=self._proc.pid,
                  exit_code=self.exit_code)
        self._ready.set()             # wake any startup waiter to the error
        exc = self.death_error()
        for segments in pending:
            for inflight, _, _ in segments:
                inflight.shard_error(exc)
        # Batches still queued for submission can never ship; fail them
        # now rather than waiting for the submitter to trip over each one.
        with self._submit_cond:
            queued = [item for item in self._submit_q if item is not None]
            sentinels = [item for item in self._submit_q if item is None]
            self._submit_q.clear()
            self._submit_q.extend(sentinels)
            self._submit_cond.notify_all()
        for inflight in queued:
            inflight.shard_error(exc)

    def health(self) -> Dict[str, object]:
        """Liveness + queue depth for :meth:`ShardBackend.shard_health`."""
        alive = not self._dead and self._proc.is_alive()
        # Batches the backend still owes the worker: queued at the
        # submitter plus shipped-but-unanswered ring groups. Each count
        # is read under its own lock (they are guarded state); the sum
        # is a diagnostic, not a transaction.
        with self._submit_cond:
            queued = len(self._submit_q)
        with self._lock:
            shipped = len(self._pending)
        return {
            "alive": alive,
            "pid": self._proc.pid,
            "exit_code": self.exit_code,
            "backlog": queued + shipped,
        }

    # ------------------------------------------------------------------
    # Swap and teardown
    # ------------------------------------------------------------------
    def send_swap(self, spec: EngineSpec, device) -> None:
        if self._dead:
            return        # requests are failing anyway; parent state holds
        try:
            with self._send_lock:
                self._commands.send(("swap", spec, device))  # repro-lint: ignore[RPA002] serializing pipe writes is _send_lock's sole purpose; nothing else is held under it
        except (BrokenPipeError, OSError):
            pass          # receiver notices the death via the sentinel

    def begin_stop(self) -> None:
        """Make batches the worker has not started computing fail fast."""
        self._stopping.set()

    def send_stop(self) -> None:
        if self._dead:
            return
        try:
            with self._send_lock:
                self._commands.send(("stop",))  # repro-lint: ignore[RPA002] serializing pipe writes is _send_lock's sole purpose; nothing else is held under it
        except (BrokenPipeError, OSError):
            pass

    def finish_stop(self) -> None:
        """Reap the worker: join, escalate on timeout, record exit code."""
        if self._finished:
            return
        self._finished = True
        # Retire the submitter first: anything it still ships was already
        # queued before stop, and its stopping-check fails those fast.
        with self._submit_cond:
            self._submit_q.append(None)
            self._submit_cond.notify_all()
        self._submitter.join(timeout=self._join_timeout_s)
        self._proc.join(self._join_timeout_s)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(2.0)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
        self.exit_code = self._proc.exitcode
        log_event("worker", "worker_exit", shard=self.index,
                  pid=self._proc.pid, exit_code=self.exit_code)
        self._receiver.join(timeout=self._join_timeout_s)
        with self._lock:
            self._dead = True
            pending = list(self._pending.values())
            self._pending.clear()
        closed = ServerClosedError(
            "server stopped before the request was scheduled")
        for segments in pending:
            for inflight, _, _ in segments:
                inflight.shard_error(closed)
        for conn in (self._commands, self._results):
            try:
                conn.close()
            except OSError:
                pass
        if self._ring is not None:
            self._ring.close()
            self._ring.unlink()
            self._ring = None


class ProcessShardBackend(ShardBackend):
    """One spawned worker process per shard; batches via shared memory.

    Parameters
    ----------
    ring_slots:
        Request/response slots per worker ring. Two (the default) double-
        buffers: the parent fills the next batch while the worker computes
        the current one. More slots deepen the per-worker queue at the
        cost of shared memory.
    coalesce_batches:
        Micro-batches the submitter may pack into one ring slot (and one
        IPC round-trip) when its queue runs deep; rings are sized
        ``max_batch_traces * coalesce_batches`` so packing never waits on
        capacity. ``1`` disables coalescing.
    join_timeout_s:
        How long :meth:`stop` waits for a worker to exit cleanly before
        escalating to ``terminate()`` (then ``kill()``).
    start_method:
        ``multiprocessing`` start method; ``spawn`` (the default) is the
        portable, state-clean choice and the one the spawn-safety tests
        pin.

    Serves only :class:`~repro.engine.ReadoutEngine` engines, whose fitted
    pipelines it ships to the workers (see :func:`engine_to_spec`); any
    other engine is rejected at :meth:`start` or at the swap. After
    :meth:`stop`, :attr:`exit_codes` holds each worker's recorded exit
    code, keyed by shard index — ``0`` is a clean reap, negative values
    are the fatal signal.
    """

    name = "process"

    def __init__(self, *, ring_slots: int = DEFAULT_RING_SLOTS,
                 coalesce_batches: int = DEFAULT_COALESCE_BATCHES,
                 join_timeout_s: float = DEFAULT_JOIN_TIMEOUT_S,
                 startup_timeout_s: float = DEFAULT_STARTUP_TIMEOUT_S,
                 start_method: str = "spawn"):
        if ring_slots < 1:
            raise ValueError(
                f"ring_slots must be positive, got {ring_slots}")
        if coalesce_batches < 1:
            raise ValueError(
                f"coalesce_batches must be positive, "
                f"got {coalesce_batches}")
        if join_timeout_s <= 0:
            raise ValueError(
                f"join_timeout_s must be positive, got {join_timeout_s}")
        if startup_timeout_s <= 0:
            raise ValueError(
                f"startup_timeout_s must be positive, "
                f"got {startup_timeout_s}")
        self._ring_slots = int(ring_slots)
        self._coalesce_batches = int(coalesce_batches)
        self._join_timeout_s = float(join_timeout_s)
        self._startup_timeout_s = float(startup_timeout_s)
        self._start_method = start_method
        self._handles: List[_ProcessShard] = []
        self._server = None

    def start(self, server) -> None:
        if self._server is not None:
            raise RuntimeError(
                "a ShardBackend instance serves exactly one server; "
                "build a fresh backend for a new server")
        self._server = server
        ctx = mp.get_context(self._start_method)
        # Serialize every engine before spawning anything: a shard whose
        # engine cannot ship must fail the whole start, not leave a
        # half-started worker pool behind.
        specs = [(shard, engine_to_spec(shard.engine))
                 for shard in server.shards]
        # Workers boot concurrently; block until every one reports ready.
        # Any failure — a spawn that cannot even fork or a worker that
        # never comes up — reaps whatever was already started, so a
        # failed start leaves no orphans (and no stale handles behind
        # for a later submit to trip over).
        try:
            # Cap the workers' BLAS pools for the duration of the spawn
            # batch (spawn snapshots the environment at Process.start());
            # operator-set values are respected, and the lock keeps a
            # concurrently starting backend from seeing — or tearing down
            # — a half-applied environment.
            with _SPAWN_ENV_LOCK:
                capped = {key: value
                          for key, value in _WORKER_THREAD_CAPS.items()
                          if key not in os.environ}
                os.environ.update(capped)
                try:
                    for shard, spec in specs:
                        self._handles.append(_ProcessShard(
                            server, shard, spec, ctx, self._ring_slots,
                            self._join_timeout_s,
                            coalesce_batches=self._coalesce_batches))
                finally:
                    for key in capped:
                        os.environ.pop(key, None)
            for handle in self._handles:
                handle.wait_ready(self._startup_timeout_s)
        except Exception:
            self.request_stop()
            self.stop()
            self._handles = []
            self._server = None     # a failed start may be retried
            raise

    def submit(self, inflight) -> None:
        for handle in self._handles:
            if handle.dead:
                # One dead shard makes the whole batch unservable; fail it
                # up front instead of burning the healthy workers on it.
                # No worker will see it, so report for every shard here.
                exc = handle.death_error()
                for _ in self._handles:
                    inflight.shard_error(exc)
                return
        # Per-shard handoff: each shard's submitter thread owns the slot
        # wait and the shared-memory copy, so the dispatcher returns
        # immediately and a backlogged shard only delays itself.
        for handle in self._handles:
            handle.enqueue(inflight)

    def request_stop(self) -> None:
        for handle in self._handles:
            handle.begin_stop()

    def stop(self) -> None:
        for handle in self._handles:
            handle.send_stop()
        for handle in self._handles:
            handle.finish_stop()

    def prepare_swap(self, shard: ServeShard, engine) -> EngineSpec:
        return engine_to_spec(engine)

    def commit_swap(self, shard: ServeShard, payload: EngineSpec) -> None:
        for handle in self._handles:
            if handle.shard is shard:
                handle.send_swap(payload, shard.device)
                return

    def engine_stats(self) -> Dict[int, Dict[str, float]]:
        return {handle.index: dict(handle.last_engine_stats)
                for handle in self._handles
                if handle.last_engine_stats is not None}

    def shard_health(self) -> Dict[int, Dict[str, object]]:
        return {handle.index: handle.health()
                for handle in self._handles}

    @property
    def exit_codes(self) -> Dict[int, Optional[int]]:
        """Recorded worker exit codes by shard index (None: still alive)."""
        return {handle.index: handle.exit_code for handle in self._handles}

    @property
    def worker_pids(self) -> Dict[int, Optional[int]]:
        """Live worker process ids by shard index (observability/tests)."""
        return {handle.index: handle.pid for handle in self._handles}
