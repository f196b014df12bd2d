"""Closed-loop calibration maintenance for the readout service.

The layer above :mod:`repro.serve` that keeps sharded discriminators
accurate while the device drifts underneath them:

* :mod:`~repro.calib.drift` — :class:`ParameterDrift` /
  :class:`DriftSchedule` inject linear/step/sinusoidal/random-walk drift
  into :class:`~repro.readout.DeviceParams`; :class:`DriftingSimulator`
  generates time-varying traffic and ground-truth-at-``t`` calibration
  sets over a shot clock;
* :mod:`~repro.calib.monitors` — streaming detection:
  :class:`FidelityMonitor` (labeled probe shots) and
  :class:`ScoreDriftMonitor` (label-free Page–Hinkley over per-batch IQ
  statistics, fed by engine batch hooks);
* :mod:`~repro.calib.recalibrator` — :class:`Recalibrator` refits one
  shard's designs on fresh shots (warm-started envelopes/centroids),
  validates candidate vs incumbent on held-out probes, and promotes via
  the zero-downtime :meth:`~repro.serve.ReadoutServer.swap_engine`;
* :mod:`~repro.calib.worker` — :class:`CalibrationWorker` is the one
  maintenance policy: per-shard monitors and alarm queues, a per-shard
  cooldown counted in ticks, and per-shard refit-validate-promote cycles.
  Its background thread ticks it against live traffic, with
  :class:`ProbeScheduler` interleaving labeled probe shots at a duty
  cycle, so one drifting feedline is repaired while the others keep
  serving undisturbed;
* :mod:`~repro.calib.loop` — :class:`CalibrationLoop` ticks a worker by
  hand once per labeled traffic window, which makes the same policy
  deterministic (the experiment harness).
"""

from .drift import (DRIFT_KINDS, DRIFTABLE_PARAMETERS, DriftingSimulator,
                    DriftSchedule, ParameterDrift)
from .loop import CalibrationLoop, WindowRecord
from .monitors import (DriftAlarm, FidelityMonitor, PageHinkley,
                       ScoreDriftMonitor)
from .recalibrator import (Recalibrator, ShardRecalibration,
                           attach_score_monitors)
from .worker import (CalibrationWorker, MaintenanceRecord, ProbeScheduler,
                     WorkerStats)

__all__ = [
    "CalibrationLoop", "CalibrationWorker", "DRIFT_KINDS",
    "DRIFTABLE_PARAMETERS", "DriftAlarm", "DriftSchedule",
    "DriftingSimulator", "FidelityMonitor", "MaintenanceRecord",
    "PageHinkley", "ParameterDrift", "ProbeScheduler",
    "Recalibrator", "ScoreDriftMonitor",
    "ShardRecalibration", "WindowRecord", "WorkerStats",
    "attach_score_monitors",
]
