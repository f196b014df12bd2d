"""Recycled ndarray slabs: the serve hot path's allocation backstop.

The dispatcher rework (per-shard dispatch, zero-copy submit) moves every
per-batch allocation — the trace array a micro-batch is assembled into and
the response array its bits are stitched into — onto pooled, recycled
slabs. A :class:`SlabPool` keeps a small free list per ``(shape, dtype)``
geometry; in steady state every batch reuses a previously released slab
and the hot path performs **zero** array allocations (and zero
``np.concatenate`` calls) per flush.

Two deliberate design points keep the pool safe on failure paths:

* **Release is advisory.** A slab that is never released (a batch failed
  mid-flight, a worker died holding it) is simply reclaimed by the garbage
  collector — the pool tracks lent slabs through weak references, so a
  leaked slab never wedges the accounting.
* **Acquisition is bounded.** Under a deep backlog, capacity-sized slabs
  for every queued batch could dwarf the traffic they carry.
  :meth:`acquire` returns ``None`` once ``max_outstanding`` slabs are
  lent, and the caller falls back to a per-batch exact-size allocation —
  slower, counted, and off the steady-state path.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Default free slabs kept per geometry (beyond this, release discards).
DEFAULT_MAX_FREE = 8

#: Default bound on simultaneously lent slabs before acquire degrades.
DEFAULT_MAX_OUTSTANDING = 64


class SlabPool:
    """Thread-safe pool of reusable ndarrays, keyed by ``(shape, dtype)``.

    Parameters
    ----------
    max_free:
        Free slabs retained per geometry; further releases drop the array
        (bounding idle memory after a traffic spike).
    max_outstanding:
        Lent-slab ceiling across all geometries; at the ceiling
        :meth:`acquire` returns ``None`` (caller allocates per batch).
        ``None`` disables the bound.

    Every acquire counts once, under the pool lock, as ``allocated``
    (fresh array), ``reused`` (recycled, the steady state) or
    ``fallbacks`` (at the bound; the caller allocates exact-size).
    :meth:`counts` reads all three for :class:`~.stats.ServerStats`.
    """

    def __init__(self, *, max_free: int = DEFAULT_MAX_FREE,
                 max_outstanding: Optional[int] = DEFAULT_MAX_OUTSTANDING):
        if max_free < 1:
            raise ValueError(f"max_free must be positive, got {max_free}")
        if max_outstanding is not None and max_outstanding < 1:
            raise ValueError(
                f"max_outstanding must be positive or None, "
                f"got {max_outstanding}")
        self.max_free = int(max_free)
        self.max_outstanding = (None if max_outstanding is None
                                else int(max_outstanding))
        self._lock = threading.Lock()
        self._free: Dict[Tuple[Tuple[int, ...], np.dtype],
                         List[np.ndarray]] = {}
        # Weak references keyed by array id (ndarrays are weakref-able but
        # unhashable): a slab the caller leaks (failure path) falls out of
        # the outstanding count on collection instead of pinning it. The
        # reaper callback mutates the dict without the pool lock — dict
        # pop is GIL-atomic, and a GC fired inside acquire/release must
        # not deadlock on our own non-reentrant lock.
        self._lent: Dict[int, "weakref.ref"] = {}  #: guarded-by: _lock
        self.allocated = 0  #: guarded-by: _lock
        self.reused = 0  #: guarded-by: _lock
        self.fallbacks = 0  #: guarded-by: _lock

    def _track_locked(self, slab: np.ndarray) -> None:
        key = id(slab)
        lent = self._lent
        lent[key] = weakref.ref(
            slab, lambda _ref, key=key, lent=lent: lent.pop(key, None))

    #: hot-path
    def acquire(self, shape: Tuple[int, ...],
                dtype) -> Optional[np.ndarray]:
        """A pooled (or fresh) uninitialized array; None at the bound."""
        key = (tuple(int(d) for d in shape), np.dtype(dtype))
        with self._lock:
            stack = self._free.get(key)
            if stack:
                slab = stack.pop()
                self._track_locked(slab)
                self.reused += 1
            elif (self.max_outstanding is not None
                    and len(self._lent) >= self.max_outstanding):
                self.fallbacks += 1
                slab = None
            else:
                slab = np.empty(key[0], dtype=key[1])
                self._track_locked(slab)
                self.allocated += 1
        return slab

    #: hot-path
    def release(self, slab: np.ndarray) -> None:
        """Return a slab for reuse (advisory — skipping it only costs GC)."""
        key = (slab.shape, slab.dtype)
        with self._lock:
            self._lent.pop(id(slab), None)
            stack = self._free.setdefault(key, [])
            if len(stack) < self.max_free:
                stack.append(slab)

    def counts(self) -> Dict[str, int]:
        """``{"allocated", "reused", "fallbacks"}`` acquire outcomes so far."""
        with self._lock:
            return {"allocated": self.allocated, "reused": self.reused,
                    "fallbacks": self.fallbacks}

    @property
    def outstanding(self) -> int:
        """Currently lent slabs (weakly tracked: leaks self-correct)."""
        with self._lock:
            return len(self._lent)

    def free_count(self) -> int:
        """Idle slabs currently pooled across all geometries."""
        with self._lock:
            return sum(len(stack) for stack in self._free.values())
