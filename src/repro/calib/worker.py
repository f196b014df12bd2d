"""Calibration upkeep: the one per-shard maintenance policy.

A real feedline discriminator must stay calibrated while traffic never
stops. This module holds the policy that keeps it so, and the thread that
runs it:

* :class:`ProbeScheduler` interleaves *labeled probe shots* into live
  traffic at a configurable duty cycle (in production: calibration pulses
  the control stack schedules between circuits) and hands each probe
  batch's outcomes back to its caller;
* :class:`CalibrationWorker` watches a live
  :class:`~repro.serve.ReadoutServer` through per-shard alarm queues —
  fed by the engines' batch hooks (label-free
  :class:`~.monitors.ScoreDriftMonitor`\\ s) and by labeled outcomes
  routed to per-shard :class:`~.monitors.FidelityMonitor`\\ s — and
  repairs **each shard independently** via
  :meth:`~.recalibrator.Recalibrator.recalibrate_shard`, with a per-shard
  cooldown so one noisy shard cannot storm the refit budget. Promotions
  ride the lock-free :meth:`~repro.serve.ReadoutServer.swap_engine`, so
  traffic on healthy shards never notices a neighbour being repaired.

One :meth:`CalibrationWorker.tick` is one pass of the policy, and the
cooldown counts ticks. The background thread ticks every
``poll_interval_s`` (:meth:`~CalibrationWorker.start` /
:meth:`~CalibrationWorker.stop`, joining, idempotent, no restart; or use
the worker as a context manager) and never dies to an exception — probe
and refit failures are counted, not raised. The synchronous
:class:`~.loop.CalibrationLoop` ticks a thread-less worker once per
traffic window instead, which makes the same policy deterministic.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.obs.log import log_event
from repro.obs.metrics import MetricsRegistry
from repro.serve.server import ReadoutServer

from .monitors import DriftAlarm, FidelityMonitor, ScoreDriftMonitor
from .recalibrator import (Recalibrator, ShardRecalibration,
                           attach_score_monitors, resolve_design)


@dataclass
class MaintenanceRecord:
    """One maintenance action: what fired and what it did."""

    shard_index: int
    #: The alarm that triggered the cycle.
    alarm: DriftAlarm
    #: The per-shard cycle outcome, or None when the refit itself failed.
    report: Optional[ShardRecalibration]
    #: Monotonic timestamp the cycle finished at: a wall-clock ordering
    #: aid only. Policy decisions count ticks, never this clock.
    finished_at: float
    error: Optional[str] = None


@dataclass
class WorkerStats:
    """Counters for one worker's lifetime (single-writer, reads racy-ok)."""

    ticks: int = 0
    probe_batches: int = 0
    probe_traces: int = 0
    probe_errors: int = 0
    alarms_seen: int = 0
    alarms_suppressed: int = 0
    refits: int = 0
    promotions: int = 0
    refit_errors: int = 0
    tick_errors: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


#: Default traces per probe submission; also sizes the worker's default
#: fidelity monitors when it has no probe scheduler.
DEFAULT_PROBE_BATCH = 16


class ProbeScheduler:
    """Interleave labeled probe shots into live traffic at a duty cycle.

    The scheduler watches the server's completed-trace counter; for every
    ``1 / duty_cycle`` traffic traces served it owes one probe trace, and
    once a whole ``probe_batch`` is owed it collects that many labeled
    probes from ``source`` and submits them through the **live serve
    path** (``server.predict``), so probe outcomes measure exactly what
    traffic experiences — batching, current engine version and all. Probe
    traces are excluded from their own duty-cycle accounting and counted
    here (``batches`` / ``traces``); the worker reports them as
    ``probe_batches`` / ``probe_traces``.

    Parameters
    ----------
    server:
        The live server probes ride through.
    source:
        Fresh labeled shots at the current device truth:
        ``source.generate_traffic(n, rng)`` (a
        :class:`~.drift.DriftingSimulator` — probes are traffic, they
        advance the shot clock) or any callable with that signature.
    duty_cycle:
        Probe traces per traffic trace, in (0, 1] — the probe bandwidth
        budget (e.g. 0.02 spends 2% of throughput on maintenance).
    probe_batch:
        Traces per probe submission; also the granularity of fidelity
        evidence.
    design:
        Which served design's bits :meth:`poll` returns; None means the
        server's sole design.
    """

    def __init__(self, server: ReadoutServer, source, *,
                 duty_cycle: float = 0.02,
                 probe_batch: int = DEFAULT_PROBE_BATCH,
                 design: Optional[str] = None,
                 rng: Optional[np.random.Generator] = None,
                 timeout_s: float = 30.0):
        if not 0 < duty_cycle <= 1:
            raise ValueError(
                f"duty_cycle must be in (0, 1], got {duty_cycle}")
        if probe_batch < 1:
            raise ValueError(
                f"probe_batch must be positive, got {probe_batch}")
        self.server = server
        self._collect = getattr(source, "generate_traffic", source)
        self.duty_cycle = float(duty_cycle)
        self.probe_batch = int(probe_batch)
        self.design = resolve_design(server, design)
        self.timeout_s = float(timeout_s)
        self._rng = rng or np.random.default_rng(0)
        #: Probe submissions and the traces they carried.
        self.batches = 0
        self.traces = 0
        (self._accounted,) = server.stats.read_counters("traces_done")
        self._unaccounted_probe = 0
        self._owed = 0.0

    def owed_traces(self) -> float:
        """Probe traces currently owed by the duty-cycle accounting."""
        return self._owed

    def poll(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Account traffic since the last poll; serve a probe batch if due.

        Returns the batch's ``(predicted_bits, labels)``, both
        ``(probe_batch, n_qubits)``, or None when no batch was due. Called
        from the worker thread only.
        """
        # Locked read: traces_done is _lock-guarded ServerStats state and
        # duty-cycle accounting must never see a torn/stale counter.
        (done,) = self.server.stats.read_counters("traces_done")
        delta = done - self._accounted
        self._accounted = done
        # Probe traces complete through the same counter; don't owe
        # probes for probes.
        probe_part = min(delta, self._unaccounted_probe)
        self._unaccounted_probe -= probe_part
        self._owed += (delta - probe_part) * self.duty_cycle
        if self._owed < self.probe_batch:
            return None
        self._owed -= self.probe_batch
        probes = self._collect(self.probe_batch, self._rng)
        self.batches += 1
        self.traces += probes.n_traces
        response = self.server.predict(probes.demod, timeout=self.timeout_s)
        self._unaccounted_probe += probes.n_traces
        return response.bits_for(self.design), probes.labels


class CalibrationWorker:
    """The per-shard maintenance policy over a live readout server.

    Wires per-shard :class:`~.monitors.ScoreDriftMonitor`\\ s into the
    serving engines' batch hooks and routes labeled outcomes — from an
    optional :class:`ProbeScheduler`, or handed in through
    :meth:`observe_labeled` — to per-shard
    :class:`~.monitors.FidelityMonitor`\\ s. Every alarm lands in its
    shard's queue; each :meth:`tick` drains the queues, honours an
    independent cooldown per shard, and repairs exactly the alarmed shard
    via :meth:`~.recalibrator.Recalibrator.recalibrate_shard` — one
    drifting feedline never forces a whole-device refit, and traffic keeps
    flowing throughout (promotion is the server's lock-free engine swap).

    Drive it with :meth:`start` (a thread ticking every
    ``poll_interval_s``) or by calling :meth:`tick` by hand, never both.

    Parameters
    ----------
    server / recalibrator / source:
        The live server, its maintenance engine, and the fresh-shot
        source handed to per-shard cycles (see
        :meth:`Recalibrator.recalibrate_shard`).
    probes:
        A configured :class:`ProbeScheduler` polled on every tick, or
        None to take labeled evidence only through :meth:`observe_labeled`.
    fidelity_monitors:
        Per-shard-index :class:`~.monitors.FidelityMonitor` map covering
        every shard; by default one per shard with a window of ``4 *
        probe_batch``, ``min_observations=2 * probe_batch`` and
        ``drop_tolerance=0.04`` (``probe_batch`` is
        :data:`DEFAULT_PROBE_BATCH` without probes).
    score_monitoring:
        Attach per-shard label-free monitors to the shard engines.
    poll_interval_s:
        Worker tick period: how often the thread polls probes and drains
        alarm queues.
    cooldown_s:
        Per-shard quiet period after a refit attempt (promoted or not) —
        the refit's settling time and the alarm-storm guard — counted as
        ``ceil(cooldown_s / poll_interval_s)`` ticks, so a hand-ticked
        worker is deterministic. Alarms arriving during it are counted as
        suppressed, never silently dropped.
    warmup_batches / score_delta / score_lam:
        Knobs for the internally built score monitors (ignored when
        ``score_monitoring=False``).
    rng:
        Generator for recalibration collections (kept separate from
        traffic generators so live load stays reproducible).
    """

    def __init__(self, server: ReadoutServer, recalibrator: Recalibrator,
                 source, *, probes: Optional[ProbeScheduler] = None,
                 fidelity_monitors: Optional[
                     Dict[int, FidelityMonitor]] = None,
                 score_monitoring: bool = True,
                 poll_interval_s: float = 0.01, cooldown_s: float = 0.25,
                 warmup_batches: int = 8, score_delta: float = 0.5,
                 score_lam: float = 12.0,
                 rng: Optional[np.random.Generator] = None):
        if poll_interval_s <= 0:
            raise ValueError(
                f"poll_interval_s must be positive, got {poll_interval_s}")
        if cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0, got {cooldown_s}")
        if recalibrator.server is not server:
            raise ValueError(
                "recalibrator is bound to a different server")
        self.server = server
        self.recalibrator = recalibrator
        self.source = source
        self.probes = probes
        self.poll_interval_s = float(poll_interval_s)
        self.cooldown_s = float(cooldown_s)
        self._cooldown_ticks = math.ceil(self.cooldown_s
                                         / self.poll_interval_s)
        self._rng = rng or np.random.default_rng(0)
        self.stats = WorkerStats()
        self.records: List[MaintenanceRecord] = []
        self._columns = {shard.feedline.index:
                         list(shard.feedline.qubit_indices)
                         for shard in server.shards}
        if fidelity_monitors is None:
            batch = (probes.probe_batch if probes is not None
                     else DEFAULT_PROBE_BATCH)
            fidelity_monitors = {
                i: FidelityMonitor(window=4 * batch, drop_tolerance=0.04,
                                   min_observations=2 * batch)
                for i in self._columns}
        missing = sorted(set(self._columns) - set(fidelity_monitors))
        if missing:
            raise ValueError(
                f"fidelity_monitors must cover every shard; "
                f"missing {missing}")
        self.fidelity_monitors = fidelity_monitors
        # Per-shard alarm queues. deque appends/popleft are atomic under
        # the GIL, so serving threads (hooks) feed them lock-free.
        self._alarms: Dict[int, Deque[DriftAlarm]] = {
            i: deque() for i in self._columns}
        self._last_queued: Dict[int, Optional[DriftAlarm]] = {
            i: None for i in self._columns}
        #: Last tick of each shard's cooldown (0: none yet).
        self._cooldown_until: Dict[int, int] = {i: 0 for i in self._columns}
        self.score_monitors: Dict[int, ScoreDriftMonitor] = {}
        if score_monitoring:
            self.score_monitors = {
                shard.feedline.index: ScoreDriftMonitor(
                    n_qubits=shard.feedline.n_qubits, delta=score_delta,
                    lam=score_lam, warmup_batches=warmup_batches)
                for shard in server.shards
            }
            self._attach_hooks()
        self._state_lock = threading.Lock()
        self._stop_event = threading.Event()
        #: guarded-by: _state_lock
        self._thread: Optional[threading.Thread] = None
        self._started = False  #: guarded-by: _state_lock
        self._stopped = False  #: guarded-by: _state_lock

    # ------------------------------------------------------------------
    # Lifecycle (mirrors ReadoutServer.start/stop)
    # ------------------------------------------------------------------
    def start(self) -> "CalibrationWorker":
        with self._state_lock:
            if self._stopped:
                raise RuntimeError("worker cannot be restarted after stop()")
            if self._started:
                return self
            self._started = True
            # The worker's counters join the server's registry, so one
            # telemetry sampler (and the alert rules riding it) sees the
            # maintenance loop alongside serving traffic.
            self.register_into(self.server.metrics)
            self._thread = threading.Thread(
                target=self._run, name="calib-worker", daemon=True)
            self._thread.start()
        log_event("calib", "worker_start",
                  shards=len(self._columns),
                  poll_interval_s=self.poll_interval_s,
                  cooldown_s=self.cooldown_s,
                  probes=self.probes is not None,
                  score_monitoring=bool(self.score_monitors))
        return self

    def stop(self) -> None:
        """Stop and join: an in-flight refit cycle completes, then the
        thread exits. Idempotent; the worker cannot be restarted."""
        with self._state_lock:
            if self._stopped:
                return
            self._stopped = True
            thread = self._thread
        self._stop_event.set()
        if thread is not None:
            thread.join()
        log_event("calib", "worker_stop",
                  ticks=self.stats.ticks, refits=self.stats.refits,
                  promotions=self.stats.promotions,
                  tick_errors=self.stats.tick_errors)

    def __enter__(self) -> "CalibrationWorker":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        with self._state_lock:
            thread = self._thread
        return thread is not None and thread.is_alive()

    # ------------------------------------------------------------------
    # Alarm plumbing
    # ------------------------------------------------------------------
    def _attach_hooks(self) -> None:
        monitors = [self.score_monitors[shard.feedline.index]
                    for shard in self.server.shards]
        attach_score_monitors(self.server, monitors,
                              on_alarm=self._enqueue_alarm)

    def _enqueue_alarm(self, shard_index: int, alarm: DriftAlarm) -> None:
        """Queue an alarm for the worker thread (serving-thread safe).

        Sticky monitors re-report the same alarm object every batch;
        queue each distinct alarm once so the queue depth stays bounded
        by real detections, not by traffic volume.
        """
        if self._last_queued.get(shard_index) is alarm:
            return
        self._last_queued[shard_index] = alarm
        self._alarms[shard_index].append(alarm)

    def _next_alarm(self, shard_index: int) -> Optional[DriftAlarm]:
        queue = self._alarms[shard_index]
        alarm = None
        while queue:
            alarm = queue.popleft()     # newest evidence wins
        return alarm

    def observe_labeled(self, predicted: np.ndarray,
                        labels: np.ndarray) -> None:
        """Feed labeled outcomes to the per-shard fidelity monitors.

        ``predicted`` / ``labels`` are full-device ``(m, n_qubits)`` bits
        (a probe batch, or a scored traffic window); each shard's monitor
        sees its own columns, and its first trusted estimate becomes its
        baseline. Alarms queue for the next :meth:`tick`. Call from the
        thread that ticks.
        """
        for shard_index, columns in self._columns.items():
            monitor = self.fidelity_monitors[shard_index]
            alarm = monitor.observe(predicted[:, columns],
                                    labels[:, columns])
            if monitor.baseline is None and monitor.n_observations >= (
                    monitor.min_observations):
                # First trusted estimate defines the post-calibration
                # normal for this shard.
                monitor.set_baseline(monitor.fidelity())
            if alarm is not None:
                self._enqueue_alarm(shard_index, alarm)

    # ------------------------------------------------------------------
    # The maintenance policy
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while not self._stop_event.wait(self.poll_interval_s):
            try:
                self.tick()
            except Exception:  # noqa: BLE001 — the worker thread never dies
                self.stats.tick_errors += 1

    def tick(self) -> None:
        """One pass of the policy: poll probes, then per shard take the
        newest queued alarm and either count it suppressed (inside the
        shard's cooldown) or recalibrate the shard."""
        self.stats.ticks += 1
        if self.probes is not None:
            try:
                outcome = self.probes.poll()
                if outcome is not None:
                    self.observe_labeled(*outcome)
            except Exception:  # noqa: BLE001 — a dead probe must not kill us
                self.stats.probe_errors += 1
            self.stats.probe_batches = self.probes.batches
            self.stats.probe_traces = self.probes.traces
        for shard_index in self._columns:
            alarm = self._next_alarm(shard_index)
            if alarm is None:
                continue
            self.stats.alarms_seen += 1
            if self.stats.ticks <= self._cooldown_until[shard_index]:
                self.stats.alarms_suppressed += 1
                log_event("calib", "cooldown_suppressed",
                          shard=shard_index, monitor=alarm.monitor,
                          cooldown_ticks_left=(
                              self._cooldown_until[shard_index]
                              - self.stats.ticks))
                # A sticky monitor re-reports the same alarm *object*, and
                # the enqueue dedup keys on identity — forget it here or
                # the re-reports after cooldown would be deduped against a
                # suppressed alarm forever and the shard never repaired.
                if self._last_queued.get(shard_index) is alarm:
                    self._last_queued[shard_index] = None
                continue
            self._repair(shard_index, alarm)
            if self._stop_event.is_set():
                return

    def _repair(self, shard_index: int, alarm: DriftAlarm) -> None:
        self.stats.refits += 1
        report: Optional[ShardRecalibration] = None
        error: Optional[str] = None
        try:
            report = self.recalibrator.recalibrate_shard(
                shard_index, self.source, self._rng)
        except Exception as exc:  # noqa: BLE001 — count, never die
            self.stats.refit_errors += 1
            error = f"{type(exc).__name__}: {exc}"
        log_event("calib", "recalibration",
                  level=logging.WARNING if error else logging.INFO,
                  shard=shard_index, monitor=alarm.monitor,
                  promoted=bool(report is not None and report.promoted),
                  error=error)
        self.records.append(MaintenanceRecord(
            shard_index=shard_index, alarm=alarm, report=report,
            finished_at=time.monotonic(), error=error))
        self._cooldown_until[shard_index] = (self.stats.ticks
                                             + self._cooldown_ticks)
        self._settle(shard_index, report)

    def _settle(self, shard_index: int,
                report: Optional[ShardRecalibration]) -> None:
        """Re-baseline this shard's monitors after a refit attempt."""
        if report is not None and report.promoted:
            self.stats.promotions += 1
        monitor = self.score_monitors.get(shard_index)
        if monitor is not None:
            # New model (or re-affirmed incumbent): whatever traffic
            # looks like now is the normal to watch from, and a promoted
            # replacement engine needs its hook moved over.
            monitor.reset()
            self._attach_hooks()
        if report is not None:
            # Labeled evidence restarts from the validated fidelity of
            # whichever model now serves the shard.
            fidelity_monitor = self.fidelity_monitors[shard_index]
            fidelity_monitor.reset()
            fidelity_monitor.set_baseline(
                report.candidate_fidelity if report.promoted
                else report.incumbent_fidelity)
        # Evidence gathered against the pre-refit model is stale.
        self._alarms[shard_index].clear()
        self._last_queued[shard_index] = None

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def register_into(self, registry: MetricsRegistry,
                      component: str = "calib") -> None:
        """Expose this worker's counters through a metrics registry.

        Registers a collector returning the :class:`WorkerStats` snapshot
        plus maintenance-record and liveness gauges, so one
        ``registry.export_dict()`` covers serving and calibration alike
        (pair with :meth:`repro.serve.ServerStats.register_into`).
        """

        def collect() -> Dict[str, object]:
            snapshot: Dict[str, object] = dict(self.stats.as_dict())
            snapshot["maintenance_records"] = len(self.records)
            snapshot["running"] = self.running
            return snapshot

        registry.register_collector(component, collect, replace=True)

    @property
    def promotions(self) -> int:
        return self.stats.promotions
