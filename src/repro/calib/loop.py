"""The synchronous calibration loop over a live readout server.

:class:`CalibrationLoop` serves labeled traffic windows through the
:class:`~repro.serve.ReadoutServer` and drives a
:class:`~.worker.CalibrationWorker` by hand: each window's scored
predictions go to :meth:`~.worker.CalibrationWorker.observe_labeled`,
then the worker ticks once, with no thread. One tick is one window, so a
worker built with ``poll_interval_s=1.0`` counts its ``cooldown_s`` in
windows, and the whole run is deterministic. That determinism is what
lets the ``drift_recovery`` experiment replay the identical drifting
timeline with and without maintenance and attribute every fidelity delta
to the worker's policy — the same policy the worker's thread runs in
deployment. The loop records a :class:`WindowRecord` per window.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core import metrics
from repro.obs.log import log_event
from repro.readout.dataset import ReadoutDataset
from repro.serve.server import ReadoutServer

from .drift import DriftingSimulator
from .recalibrator import resolve_design
from .worker import CalibrationWorker, MaintenanceRecord


def serve_window(server: ReadoutServer, traffic: ReadoutDataset,
                 design: str, n_requests: int):
    """Submit one labeled window as ``n_requests`` concurrent requests.

    Returns ``(predicted, rows, failures)``: every future is awaited,
    each failed request is counted, and ``rows`` holds the trace indices
    the surviving predictions cover — a mid-window failure drops its
    slice from scoring without misaligning the rest. Shared by the
    synchronous loop and the ``async_recovery`` experiment, so both score
    served traffic through identical stitching.
    """
    bounds = np.linspace(0, traffic.n_traces, n_requests + 1, dtype=int)
    ranges = [(int(start), int(stop))
              for start, stop in zip(bounds, bounds[1:]) if stop > start]
    futures = [server.submit(traffic.demod[start:stop])
               for start, stop in ranges]
    parts, rows = [], []
    failures = 0
    for (start, stop), future in zip(ranges, futures):
        try:
            parts.append(future.result(timeout=60).bits_for(design))
        except Exception:  # noqa: BLE001 — count, keep the run honest
            failures += 1
            continue
        rows.append(np.arange(start, stop))
    predicted = (np.concatenate(parts) if parts
                 else np.zeros((0, traffic.n_qubits), dtype=np.int64))
    rows = (np.concatenate(rows) if rows
            else np.zeros(0, dtype=np.int64))
    return predicted, rows, failures


@dataclass
class WindowRecord:
    """What happened during one traffic window."""

    window: int
    end_shot: int
    n_traces: int
    #: Mean per-qubit assignment fidelity of the scored design's served
    #: predictions against the window's ground truth.
    fidelity: float
    #: Requests whose futures raised (must stay 0 for a clean run — hot
    #: swaps are required to be invisible to traffic).
    request_failures: int
    #: Shards with a queued alarm on this window's tick. Those without a
    #: maintenance record were suppressed by their shard's cooldown.
    alarms: int = 0
    #: The refit cycles the tick ran, one per repaired shard.
    maintenance: List[MaintenanceRecord] = field(default_factory=list)

    @property
    def swapped(self) -> int:
        """Shards whose candidate was promoted on this window's tick."""
        return sum(1 for record in self.maintenance
                   if record.report is not None and record.report.promoted)


class CalibrationLoop:
    """Serve traffic windows and tick a maintenance worker once per window.

    Parameters
    ----------
    server / simulator:
        The live server and the drifting traffic source.
    worker:
        A :class:`~.worker.CalibrationWorker` over ``server`` that is
        not running: the loop ticks it. None serves and scores only
        (the experiment's no-recalibration arm).
    design:
        Which served design's bits are scored; None means the server's
        sole design.
    requests_per_window:
        Each window's traces are submitted as this many concurrent
        multi-trace requests, so swaps are exercised under real
        micro-batched traffic rather than one monolithic batch.
    """

    def __init__(self, server: ReadoutServer, simulator: DriftingSimulator,
                 worker: Optional[CalibrationWorker] = None, *,
                 design: Optional[str] = None,
                 requests_per_window: int = 4):
        if requests_per_window < 1:
            raise ValueError("requests_per_window must be positive")
        if worker is not None and worker.server is not server:
            raise ValueError("worker maintains a different server")
        if worker is not None and worker.running:
            raise ValueError("worker is running its own thread")
        self.server = server
        self.simulator = simulator
        self.worker = worker
        self.design = resolve_design(server, design)
        self.requests_per_window = int(requests_per_window)
        self.records: List[WindowRecord] = []

    def process_window(self, traffic: ReadoutDataset) -> WindowRecord:
        """Serve one labeled traffic window, then tick the worker once."""
        predicted, rows, failures = serve_window(
            self.server, traffic, self.design, self.requests_per_window)
        labels = traffic.labels[rows]
        fidelity = (float(metrics.per_qubit_accuracy(predicted,
                                                     labels).mean())
                    if len(rows) else float("nan"))
        record = WindowRecord(
            window=len(self.records), end_shot=self.simulator.shot,
            n_traces=traffic.n_traces, fidelity=fidelity,
            request_failures=failures)
        if self.worker is not None:
            if len(rows):
                self.worker.observe_labeled(predicted, labels)
            alarms_before = self.worker.stats.alarms_seen
            records_before = len(self.worker.records)
            self.worker.tick()
            record.alarms = self.worker.stats.alarms_seen - alarms_before
            record.maintenance = self.worker.records[records_before:]
        self.records.append(record)
        log_event("calib", "window", level=logging.DEBUG,
                  window=record.window, n_traces=record.n_traces,
                  fidelity=round(fidelity, 6), alarms=record.alarms,
                  refits=len(record.maintenance), swapped=record.swapped)
        return record

    def run(self, n_windows: int, traces_per_window: int,
            rng: np.random.Generator) -> List[WindowRecord]:
        """Generate and process ``n_windows`` drifting traffic windows."""
        for _ in range(n_windows):
            self.process_window(
                self.simulator.generate_traffic(traces_per_window, rng))
        return self.records

    @property
    def swap_count(self) -> int:
        """Total promoted hot swaps across the loop's lifetime."""
        return sum(record.swapped for record in self.records)

    @property
    def request_failures(self) -> int:
        return sum(r.request_failures for r in self.records)

    def fidelity_series(self) -> List[float]:
        """Per-window served fidelity, in window order."""
        return [r.fidelity for r in self.records]
