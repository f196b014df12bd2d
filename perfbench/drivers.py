"""Load drivers: due-time open loops and a closed loop with engine swaps.

Every driver returns a :class:`Phase` holding, per request, when it was
due, when it was sent, when the caller held the bits, which traffic-set rows
it carried and the bits it got back. Latency is timed from the due time
in the open loops, so a generator that falls behind charges its stall to
the requests it delays, and from the send in the closed loop.

The open loops sleep until each due time and never spin: the server's
threads share this interpreter, and a spinning generator would hold the
GIL against them.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.engine import ReadoutEngine
from repro.net import ReadoutClient, RemoteError
from repro.serve import ServerClosedError, ServerOverloadedError

OK, REJECTED, FAILED = 0, 1, 2

#: Distinct request stacks each closed-loop client cycles through.
STACKS_PER_CLIENT = 8

#: Consecutive completion blocks a phase is cut into for its throughput,
#: which is the median over blocks: a noisy stretch of a shared host then
#: cannot decide the whole run's figure.
BLOCKS = 10


@dataclass
class Phase:
    """Per-request outcomes of one load phase."""

    due: np.ndarray          # scheduled send time (closed loop: send time)
    sent: np.ndarray
    done: np.ndarray         # caller holds the bits; NaN unless OK
    lag: np.ndarray          # open: sent - due; closed: idle gap before send
    rows: np.ndarray         # (n, m) traffic-set rows per request
    packed: np.ndarray       # (n, k) uint8: each request's bits, packed
    bit_shape: Tuple[int, int, int]   # (n_designs, m, n_qubits)
    status: np.ndarray
    started: float
    swaps_s: List[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return int(self.status.size)

    @property
    def ok(self) -> np.ndarray:
        return self.status == OK

    def bits(self) -> np.ndarray:
        """``(n, n_designs, m, n_qubits)`` int8 bits per request."""
        size = int(np.prod(self.bit_shape))
        flat = np.unpackbits(self.packed, axis=1, count=size)
        return flat.reshape((-1,) + self.bit_shape).astype(np.int8)

    def latencies_s(self) -> np.ndarray:
        """Completed requests' latencies, in send order."""
        return (self.done - self.due)[self.ok]

    def throughput_traces_per_s(self) -> float:
        """Median over ``BLOCKS`` consecutive completion blocks of the rate.

        Each block runs from the previous block's last completion (the
        phase start for the first) to its own last completion.
        """
        done = np.sort(self.done[self.ok])
        blocks = np.array_split(done, int(np.clip(done.size, 1, BLOCKS)))
        bounds = [self.started] + [block[-1] for block in blocks]
        rates = [block.size / (end - begin)
                 for block, begin, end in zip(blocks, bounds, bounds[1:])]
        return float(np.median(rates)) * int(self.rows.shape[1])


def _pack(bits: np.ndarray) -> np.ndarray:
    """Pack ``(n, ...)`` 0/1 bits into ``(n, k)`` bytes."""
    return np.packbits(bits.reshape(bits.shape[0], -1), axis=1)


def _stack_bits(response, design_names: Sequence[str]) -> Optional[np.ndarray]:
    """A response's bits stacked in design order; None unless all are 0 or 1.

    Checked on receipt: packing (and the int8 store) would read any other
    value as a bit, so a response carrying one would pass the oracle.
    """
    bits = np.stack([response.bits[name] for name in design_names])
    return bits if bits.min() >= 0 and bits.max() <= 1 else None


def _sleep_until(t: float) -> None:
    delay = t - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def paced_tcp(address, demod: np.ndarray, rows: np.ndarray, period_s: float,
              design_names: Sequence[str]) -> Phase:
    """One ReadoutClient connection sending requests at a uniform pace.

    ``rows`` is ``(n, m)``: one trace per request (``predict``) when
    ``m == 1``, else an ``m``-trace stack (``predict_many``).
    """
    n, m = rows.shape
    n_qubits = demod.shape[1]
    bits = np.zeros((n, len(design_names), m, n_qubits), dtype=np.int8)
    sent = np.zeros(n)
    done = np.full(n, np.nan)
    status = np.full(n, OK, dtype=np.int8)
    with ReadoutClient(*address) as client:
        client.info()                    # connect + handshake before t0
        start = time.perf_counter() + 0.005
        due = start + period_s * np.arange(n)
        for i in range(n):
            _sleep_until(due[i])
            sent[i] = time.perf_counter()
            try:
                if m == 1:
                    response = client.predict(demod[rows[i, 0]])
                else:
                    response = client.predict_many(demod[rows[i]])
            except ServerOverloadedError:
                status[i] = REJECTED
                continue
            except (ServerClosedError, RemoteError, ConnectionError,
                    TimeoutError):
                status[i] = FAILED
                continue
            held = time.perf_counter()
            stacked = _stack_bits(response, design_names)
            if stacked is None:
                status[i] = FAILED
                continue
            done[i] = held
            bits[i] = stacked.reshape(len(design_names), m, n_qubits)
    return Phase(due=due, sent=sent, done=done, lag=sent - due, rows=rows,
                 packed=_pack(bits), bit_shape=bits.shape[1:], status=status,
                 started=start)


def uniform_tcp(deployment, duration_s: float, rng: np.random.Generator,
                design_names: Sequence[str]) -> Phase:
    """The workload's paced single-connection TCP loop."""
    workload = deployment.workload
    demod = deployment.traffic.demod
    n = max(1, int(duration_s * workload.rate_per_s))
    rows = rng.integers(0, demod.shape[0],
                        (n, workload.traces_per_request))
    return paced_tcp(deployment.service.address, demod, rows,
                     1.0 / workload.rate_per_s, design_names)


def poisson_submit(deployment, duration_s: float, rng: np.random.Generator,
                   design_names: Sequence[str]) -> Phase:
    """One generator thread calling ``server.submit`` at Poisson arrivals.

    Completion is stamped by a done-callback, which runs on the thread
    that resolves the future, the moment the bits exist.
    """
    workload = deployment.workload
    server = deployment.server
    demod = deployment.traffic.demod
    offsets = np.cumsum(rng.exponential(1.0 / workload.rate_per_s,
                                        int(duration_s * workload.rate_per_s
                                            * 1.2) + 16))
    offsets = offsets[offsets < duration_s]
    n = offsets.size
    rows = rng.integers(0, demod.shape[0], (n, 1))
    n_qubits = demod.shape[1]
    bits = np.zeros((n, len(design_names), 1, n_qubits), dtype=np.int8)
    sent = np.zeros(n)
    done = np.full(n, np.nan)
    status = np.full(n, OK, dtype=np.int8)
    # Futures are not kept: a resolved response pins its batch's response
    # slab, and holding every one would inflate peak RSS.
    settled = np.zeros(n, dtype=bool)

    def resolved(i: int, future) -> None:
        t = time.perf_counter()
        try:
            response = future.result()
        except ServerOverloadedError:
            status[i] = REJECTED
        except ServerClosedError:
            status[i] = FAILED
        else:
            stacked = _stack_bits(response, design_names)
            if stacked is None:
                status[i] = FAILED
            else:
                done[i] = t
                bits[i, :, 0] = stacked
        settled[i] = True

    start = time.perf_counter() + 0.005
    due = start + offsets
    for i in range(n):
        _sleep_until(due[i])
        sent[i] = time.perf_counter()
        try:
            future = server.submit(demod[rows[i, 0]])
        except ServerOverloadedError:
            status[i] = REJECTED
            settled[i] = True
            continue
        future.add_done_callback(partial(resolved, i))
    deadline = time.perf_counter() + 60.0
    while not settled.all():
        if time.perf_counter() > deadline:
            raise TimeoutError(f"{int((~settled).sum())} requests unresolved")
        time.sleep(0.001)
    return Phase(due=due, sent=sent, done=done, lag=sent - due, rows=rows,
                 packed=_pack(bits), bit_shape=bits.shape[1:], status=status,
                 started=start)


class Swapper:
    """Hot-swaps shards in turn, alternating two engines per shard.

    Both engines of a shard are built over the shard's fitted pipelines,
    so every decision stays checkable against the same oracle.
    """

    def __init__(self, server, shards) -> None:
        self._server = server
        self._targets = [
            (shard.feedline.index,
             [ReadoutEngine(shard.engine.pipelines,
                            chunk_size=shard.engine.chunk_size,
                            dtype=shard.engine.dtype) for _ in range(2)])
            for shard in shards]
        self._count = 0
        self.durations_s: List[float] = []

    def swap(self) -> None:
        index, engines = self._targets[self._count % len(self._targets)]
        engine = engines[(self._count // len(self._targets)) % 2]
        start = time.perf_counter()
        self._server.swap_engine(index, engine)
        self.durations_s.append(time.perf_counter() - start)
        self._count += 1


def closed_loop(deployment, duration_s: float, rng: np.random.Generator,
                design_names: Sequence[str],
                swapper: Optional[Swapper] = None) -> Phase:
    """Client threads each sending multi-trace stacks back to back.

    Client 0 calls ``swapper.swap()`` after every ``swap_every``-th of its
    own requests.
    """
    workload = deployment.workload
    server = deployment.server
    demod = deployment.traffic.demod
    m = workload.traces_per_request
    pool = rng.integers(0, demod.shape[0],
                        (workload.clients, STACKS_PER_CLIENT, m))
    stacks = demod[pool]
    logs = [[] for _ in range(workload.clients)]
    errors: List[BaseException] = []
    swaps_before = 0 if swapper is None else len(swapper.durations_s)
    start = time.perf_counter() + 0.02
    end = start + duration_s

    def client(c: int) -> None:
        log = logs[c]
        try:
            _sleep_until(start)
            idle_from = start
            k = 0
            while time.perf_counter() < end:
                s = k % STACKS_PER_CLIENT
                sent = time.perf_counter()
                try:
                    response = server.predict(stacks[c, s])
                except ServerOverloadedError:
                    log.append((sent, np.nan, sent - idle_from, c, s,
                                REJECTED, None))
                except ServerClosedError:
                    log.append((sent, np.nan, sent - idle_from, c, s,
                                FAILED, None))
                else:
                    done = time.perf_counter()
                    stacked = _stack_bits(response, design_names)
                    if stacked is None:
                        log.append((sent, np.nan, sent - idle_from, c, s,
                                    FAILED, None))
                    else:
                        log.append((sent, done, sent - idle_from, c, s, OK,
                                    np.packbits(stacked)))
                k += 1
                if (swapper is not None and c == 0
                        and k % workload.swap_every == 0):
                    swapper.swap()
                idle_from = time.perf_counter()
        except BaseException as exc:  # noqa: BLE001 — re-raised by the caller
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(c,),
                                name=f"perfbench-client{c}")
               for c in range(workload.clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    entries = sorted((e for log in logs for e in log), key=lambda e: e[0])
    n = len(entries)
    bit_shape = (len(design_names), m, demod.shape[1])
    packed = np.zeros((n, (int(np.prod(bit_shape)) + 7) // 8), dtype=np.uint8)
    for i, entry in enumerate(entries):
        if entry[6] is not None:
            packed[i] = entry[6]
    sent = np.array([e[0] for e in entries])
    return Phase(
        due=sent, sent=sent, done=np.array([e[1] for e in entries]),
        lag=np.array([e[2] for e in entries]),
        rows=np.array([pool[e[3], e[4]] for e in entries]).reshape(n, m),
        packed=packed, bit_shape=bit_shape,
        status=np.array([e[5] for e in entries], dtype=np.int8),
        started=start,
        swaps_s=[] if swapper is None else swapper.durations_s[swaps_before:])


DRIVERS = {"uniform": uniform_tcp, "poisson": poisson_submit,
           "closed-loop": closed_loop}
