"""Shared-memory trace rings for the process serving backend.

A :class:`TraceRing` is one ``multiprocessing.shared_memory`` segment laid
out as ``n_slots`` paired request/response slots:

* the **request block** holds up to ``capacity`` demodulated traces per
  slot (``(capacity, n_qubits, 2, n_bins)`` in the traffic dtype) — the
  parent writes a micro-batch's shard columns here with one ``memcpy``
  instead of pickling the array through a pipe;
* the **response block** holds the worker's predicted bits per slot
  (``(n_designs, capacity, n_qubits)`` int64), written in place by the
  worker and copied out by the parent when the result message arrives;
* a small **header block** (``(n_slots, 1 + MAX_TRACE_IDS)`` int64,
  laid out first) carries the trace ids of the requests riding each
  slot — ``[count, id0, id1, ...]`` — so request traces stitch across
  the spawn boundary: the worker reads the ids, times its inference,
  and ships the span back keyed by id (see :mod:`repro.obs.trace`).

The ring itself is just typed views over the segment; slot ownership (who
may write which slot when) is the
:class:`~.procshard.ProcessShardBackend`'s job — the parent only reuses a
slot after the worker's ``done``/``skipped``/``err`` message for it, so no
locks live in shared memory. Geometry travels as a plain :class:`RingSpec`
dict so the worker can attach with :meth:`TraceRing.attach`.

Rings are sized lazily from real traffic (trace geometry is only known at
the first batch) and reallocated — never resized in place — when a batch
outgrows them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from multiprocessing import shared_memory
from typing import Dict, Sequence, Tuple

import numpy as np

#: Trace ids a slot header can carry. Under heavy sampling a coalesced
#: slot may hold more traced requests than this; the overflow simply
#: loses its worker-side span (the parent-side spans still record), so
#: the cap bounds header size without ever failing a batch.
MAX_TRACE_IDS = 32


@dataclass(frozen=True)
class RingSpec:
    """Picklable geometry of one :class:`TraceRing` segment."""

    name: str
    n_slots: int
    capacity: int
    trace_shape: Tuple[int, int, int]   # (n_qubits, 2, n_bins)
    dtype: str
    n_designs: int

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


class TraceRing:
    """Typed request/response slot views over one shared-memory segment.

    Construct with :meth:`create` (owner side — allocates and later
    unlinks) or :meth:`attach` (worker side — maps an existing segment by
    name). Both sides address slots by index; payload sizes are carried in
    the control messages, not in shared memory.
    """

    def __init__(self, spec: RingSpec, *, create: bool):
        if spec.n_slots < 1:
            raise ValueError(f"n_slots must be positive, got {spec.n_slots}")
        if spec.capacity < 1:
            raise ValueError(
                f"capacity must be positive, got {spec.capacity}")
        if len(spec.trace_shape) != 3 or spec.trace_shape[1] != 2:
            raise ValueError(
                f"trace_shape must be (n_qubits, 2, n_bins), "
                f"got {spec.trace_shape}")
        if spec.n_designs < 1:
            raise ValueError(
                f"n_designs must be positive, got {spec.n_designs}")
        self.spec = spec
        self._owner = bool(create)
        dtype = np.dtype(spec.dtype)
        hdr_shape = (spec.n_slots, 1 + MAX_TRACE_IDS)
        req_shape = (spec.n_slots, spec.capacity) + tuple(spec.trace_shape)
        res_shape = (spec.n_slots, spec.n_designs, spec.capacity,
                     spec.trace_shape[0])
        hdr_nbytes = int(np.prod(hdr_shape)) * np.dtype(np.int64).itemsize
        req_nbytes = int(np.prod(req_shape)) * dtype.itemsize
        res_nbytes = int(np.prod(res_shape)) * np.dtype(np.int64).itemsize
        if create:
            self._shm = shared_memory.SharedMemory(
                create=True, size=hdr_nbytes + req_nbytes + res_nbytes)
            self.spec = RingSpec(name=self._shm.name, n_slots=spec.n_slots,
                                 capacity=spec.capacity,
                                 trace_shape=tuple(spec.trace_shape),
                                 dtype=spec.dtype, n_designs=spec.n_designs)
        else:
            self._shm = shared_memory.SharedMemory(name=spec.name)
        # Fresh segments are zero-filled, so headers start at count 0.
        self._headers = np.ndarray(hdr_shape, dtype=np.int64,
                                   buffer=self._shm.buf)
        self._requests = np.ndarray(req_shape, dtype=dtype,
                                    buffer=self._shm.buf,
                                    offset=hdr_nbytes)
        self._responses = np.ndarray(res_shape, dtype=np.int64,
                                     buffer=self._shm.buf,
                                     offset=hdr_nbytes + req_nbytes)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, *, n_slots: int, capacity: int,
               trace_shape: Sequence[int], dtype,
               n_designs: int) -> "TraceRing":
        """Allocate a fresh segment (owner side; name is auto-assigned)."""
        spec = RingSpec(name="", n_slots=int(n_slots), capacity=int(capacity),
                        trace_shape=tuple(int(d) for d in trace_shape),
                        dtype=np.dtype(dtype).str, n_designs=int(n_designs))
        return cls(spec, create=True)

    @classmethod
    def attach(cls, spec: Dict[str, object]) -> "TraceRing":
        """Map an existing segment from its :meth:`RingSpec.as_dict`."""
        fields = dict(spec)
        fields["trace_shape"] = tuple(int(d) for d in fields["trace_shape"])
        return cls(RingSpec(**fields), create=False)

    # ------------------------------------------------------------------
    # Capacity query
    # ------------------------------------------------------------------
    def fits(self, demod: np.ndarray, n_traces: int) -> bool:
        """Whether ``n_traces`` traces shaped and typed like ``demod``'s
        ``(m, n_qubits, 2, n_bins)`` rows fit one slot."""
        return (n_traces <= self.spec.capacity
                and tuple(demod.shape[1:]) == tuple(self.spec.trace_shape)
                and demod.dtype == self._requests.dtype)

    # ------------------------------------------------------------------
    # Request side
    # ------------------------------------------------------------------
    #: hot-path
    def write_request_at(self, slot: int, offset: int,
                         demod: np.ndarray) -> int:
        """Copy a batch into a request slot starting at ``offset``.

        The coalescing submit path packs several micro-batches into one
        slot back to back; each segment lands at its own offset and the
        worker sees them as a single contiguous batch. The assignment
        casts, so a float64 batch flows into a float16 ring without an
        intermediate ``astype`` copy. Returns the trace count written.
        """
        n = int(demod.shape[0])
        if (offset < 0 or offset + n > self.spec.capacity
                or tuple(demod.shape[1:]) != tuple(self.spec.trace_shape)):
            raise ValueError(
                f"batch {demod.shape} at offset {offset} does not fit ring "
                f"slot ({self.spec.capacity} x {self.spec.trace_shape})")
        self._requests[slot, offset:offset + n] = demod
        return n

    #: hot-path
    def request_view(self, slot: int, n_traces: int) -> np.ndarray:
        """Zero-copy view of the first ``n_traces`` of a request slot."""
        return self._requests[slot, :n_traces]

    # ------------------------------------------------------------------
    # Trace-id headers (spawn-boundary trace stitching)
    # ------------------------------------------------------------------
    #: hot-path
    def write_trace_ids(self, slot: int, trace_ids: Sequence[int]) -> None:
        """Publish the trace ids riding a slot (parent side, pre-send).

        Always called — with an empty sequence for untraced traffic — so
        a recycled slot never leaks the previous batch's ids. Ids beyond
        :data:`MAX_TRACE_IDS` are dropped (bounded header, see above).
        """
        ids = list(trace_ids)[:MAX_TRACE_IDS]
        self._headers[slot, 0] = len(ids)
        if ids:
            self._headers[slot, 1:1 + len(ids)] = ids

    #: hot-path
    def read_trace_ids(self, slot: int) -> Tuple[int, ...]:
        """The trace ids riding a slot (worker side, on batch arrival)."""
        count = int(self._headers[slot, 0])
        if count <= 0:
            return ()
        return tuple(int(i) for i in self._headers[slot, 1:1 + count])

    # ------------------------------------------------------------------
    # Response side
    # ------------------------------------------------------------------
    #: hot-path
    def response_view(self, slot: int, design_index: int, offset: int,
                      n_traces: int) -> np.ndarray:
        """Zero-copy ``(n_traces, n_qubits)`` view into a response slot.

        Both sides of the zero-copy result path use this: the worker hands
        these views to ``predict_traces_into`` so the engine writes bits
        straight into shared memory, and the parent scatters them into the
        response slab *before* freeing the slot (the view dies with the
        free — consume it first).
        """
        return self._responses[slot, design_index,
                               offset:offset + n_traces]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping (both sides; idempotent)."""
        # The ndarray views hold exported pointers into the mmap; they
        # must be dropped before close() or BufferError fires.
        self._headers = None
        self._requests = None
        self._responses = None
        try:
            self._shm.close()
        except BufferError:     # a view escaped; leak rather than crash
            pass

    def unlink(self) -> None:
        """Destroy the segment (owner side only; idempotent)."""
        if not self._owner:
            return
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass
