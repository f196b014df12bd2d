"""Background recalibration with validation-gated hot promotion.

On a drift alarm the :class:`Recalibrator` runs the full maintenance cycle
for every shard of a live :class:`~repro.serve.ReadoutServer`:

1. collect a fresh labeled calibration dataset at the *current* device
   truth (from a :class:`~.drift.DriftingSimulator` or any compatible
   source);
2. refit each served design per shard, warm-started from the incumbent
   pipeline where stages support it (matched-filter envelopes, centroids
   — see :meth:`repro.core.Stage.warm_start`);
3. score the candidate engine against the incumbent on held-out probe
   shots — the incumbent through the live serve path (so its score
   reflects exactly what traffic experiences), the candidate offline;
4. promote only on improvement, via the lock-free
   :meth:`~repro.serve.ReadoutServer.swap_engine` — zero downtime, and a
   per-shard model-version bump in :class:`~repro.serve.ServerStats`.

A candidate that fails validation is discarded: a noisy refit must never
replace a healthy incumbent.
"""

from __future__ import annotations

import pathlib
import weakref
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core import TrainingConfig, make_design, metrics
from repro.core.model_io import save_pipeline
from repro.engine import ReadoutEngine
from repro.obs.log import log_event
from repro.readout.dataset import ReadoutDataset
from repro.serve.server import ReadoutServer


@dataclass(frozen=True)
class ShardRecalibration:
    """Outcome of one shard's refit-validate-promote cycle."""

    shard_index: int
    promoted: bool
    incumbent_fidelity: float
    candidate_fidelity: float
    #: Model version after the cycle (unchanged when not promoted).
    model_version: int


@dataclass
class RecalibrationReport:
    """Outcome of one full recalibration cycle across every shard."""

    shards: List[ShardRecalibration] = field(default_factory=list)
    calibration_traces: int = 0
    probe_traces: int = 0

    @property
    def swapped(self) -> int:
        """How many shards promoted their candidate."""
        return sum(1 for shard in self.shards if shard.promoted)

    def fidelity(self) -> float:
        """Serving fidelity after the cycle: candidate where promoted,
        incumbent elsewhere (unweighted shard mean)."""
        if not self.shards:
            return float("nan")
        return float(np.mean([
            s.candidate_fidelity if s.promoted else s.incumbent_fidelity
            for s in self.shards]))


def _mean_accuracy(predicted: np.ndarray, labels: np.ndarray) -> float:
    """Mean per-qubit assignment accuracy (the monitors' fidelity metric)."""
    return float(metrics.per_qubit_accuracy(predicted, labels).mean())


class Recalibrator:
    """Refit, validate, and hot-swap a server's shard engines.

    Parameters
    ----------
    server:
        The live server whose engines are maintained: fitted
        :class:`~repro.engine.ReadoutEngine` shards, whose ``pipelines``
        warm-start each candidate.
    calibration_shots_per_state:
        Fresh shots per basis state collected per cycle; split
        ``fit_fraction`` / ``val_fraction`` / probe holdout.
    training:
        Hyper-parameters for designs with trainable heads (None: each
        design's defaults).
    warm_blend:
        Incumbent weight for warm-startable stages (see
        :meth:`repro.core.PipelineDiscriminator.fit_warm`). 0 disables
        warm starting.
    min_improvement:
        A candidate must beat the incumbent's probe fidelity by *more*
        than this margin to be promoted (exact ties keep the incumbent
        even at the default 0.0) — the hysteresis that keeps statistical
        ties from churning model versions.
    dtype / chunk_size:
        Engine knobs for the candidate engines (match the serving
        configuration).
    snapshot_dir:
        When set, every *promoted* pipeline is persisted there via
        :func:`repro.core.model_io.save_pipeline` as
        ``shard{index}_{design}_v{version}.npz`` — the deployment
        audit trail.
    """

    def __init__(self, server: ReadoutServer, *,
                 calibration_shots_per_state: int = 40,
                 training: Optional[TrainingConfig] = None,
                 warm_blend: float = 0.25,
                 min_improvement: float = 0.0,
                 fit_fraction: float = 0.6, val_fraction: float = 0.15,
                 dtype=np.float32, chunk_size: Optional[int] = None,
                 snapshot_dir: Optional[str] = None):
        if calibration_shots_per_state < 4:
            raise ValueError("calibration_shots_per_state must be >= 4")
        if min_improvement < 0:
            raise ValueError(
                f"min_improvement must be >= 0, got {min_improvement}")
        self.server = server
        self.calibration_shots_per_state = int(calibration_shots_per_state)
        self.training = training
        self.warm_blend = float(warm_blend)
        self.min_improvement = float(min_improvement)
        self.fit_fraction = float(fit_fraction)
        self.val_fraction = float(val_fraction)
        self._engine_kwargs = {"dtype": dtype}
        if chunk_size is not None:
            self._engine_kwargs["chunk_size"] = chunk_size
        self.snapshot_dir = snapshot_dir

    # ------------------------------------------------------------------
    # The maintenance cycle
    # ------------------------------------------------------------------
    def recalibrate(self, source, rng: np.random.Generator, *,
                    shard_indices: Optional[Sequence[int]] = None,
                    ) -> RecalibrationReport:
        """Run one refit-validate-promote cycle against ``source``.

        ``source`` provides fresh ground truth:
        ``source.calibration_set(shots_per_state, rng)`` (a
        :class:`~.drift.DriftingSimulator`) or a plain callable with the
        same signature returning a labeled
        :class:`~repro.readout.ReadoutDataset` for the full device.

        ``shard_indices`` scopes the cycle to a subset of feedline shards
        (default: every shard). One calibration collection is shared by
        all cycled shards; each shard still fits, validates, and promotes
        independently — the deterministic multi-shard harness over the
        same per-shard primitive :meth:`recalibrate_shard` exercises one
        shard at a time.
        """
        shards = self._select_shards(shard_indices)
        fit_set, val_set, probe = self._collect(source, rng)
        incumbent_bits = self._incumbent_bits(probe)
        report = RecalibrationReport(
            calibration_traces=(fit_set.n_traces + val_set.n_traces
                                + probe.n_traces),
            probe_traces=probe.n_traces)
        for shard in shards:
            report.shards.append(self._shard_cycle(
                shard, fit_set, val_set, probe, incumbent_bits))
        return report

    def recalibrate_shard(self, shard_index: int, source,
                          rng: np.random.Generator) -> ShardRecalibration:
        """One *independent* per-shard cycle: collect, refit, validate, swap.

        Unlike :meth:`recalibrate`, this collects and splits its own fresh
        calibration set (sliced to the shard's qubit group for fitting),
        so one drifting shard can be repaired without forcing a
        whole-device refit — the primitive the background
        :class:`~.worker.CalibrationWorker` schedules per shard. Probe
        shots still cover the full device because the incumbent is scored
        through the live serve path, exactly as traffic experiences it.
        """
        [shard] = self._select_shards([shard_index])
        fit_set, val_set, probe = self._collect(source, rng)
        incumbent_bits = self._incumbent_bits(probe)
        return self._shard_cycle(shard, fit_set, val_set, probe,
                                 incumbent_bits)

    # ------------------------------------------------------------------
    # Cycle internals
    # ------------------------------------------------------------------
    def _select_shards(self, shard_indices: Optional[Sequence[int]]):
        shards = {s.feedline.index: s for s in self.server.shards}
        if shard_indices is None:
            return list(shards.values())
        unknown = sorted(set(shard_indices) - set(shards))
        if unknown:
            raise ValueError(
                f"no shard with feedline index {unknown}; "
                f"have {sorted(shards)}")
        return [shards[i] for i in sorted(set(shard_indices))]

    def _collect(self, source, rng: np.random.Generator):
        collect = getattr(source, "calibration_set", source)
        fresh = collect(self.calibration_shots_per_state, rng)
        return fresh.split(rng, self.fit_fraction, self.val_fraction)

    def _incumbent_bits(self, probe: ReadoutDataset):
        # Incumbent scored through the live serve path: micro-batched, on
        # whatever engine version traffic is currently hitting.
        return self.server.predict(probe.demod).bits

    def _shard_cycle(self, shard, fit_set: ReadoutDataset,
                     val_set: ReadoutDataset, probe: ReadoutDataset,
                     incumbent_bits) -> ShardRecalibration:
        idx = list(shard.feedline.qubit_indices)
        shard_train = fit_set.select_qubits(idx)
        shard_val = val_set.select_qubits(idx)
        shard_probe = probe.select_qubits(idx)
        incumbent_pipelines = shard.engine.pipelines

        designs = {}
        for name in self.server.design_names:
            design = (make_design(name) if self.training is None
                      else make_design(name, self.training))
            design.fit_warm(shard_train, shard_val,
                            incumbent=incumbent_pipelines.get(name),
                            blend=self.warm_blend)
            designs[name] = design
        candidate = ReadoutEngine(designs, **self._engine_kwargs)

        candidate_bits = candidate.predict_bits(shard_probe)
        candidate_fidelity = float(np.mean([
            _mean_accuracy(candidate_bits[name], shard_probe.labels)
            for name in self.server.design_names]))
        incumbent_fidelity = float(np.mean([
            _mean_accuracy(incumbent_bits[name][:, idx], shard_probe.labels)
            for name in self.server.design_names]))

        shard_index = shard.feedline.index
        version = self.server.stats.model_versions.get(shard_index, 0)
        # Strictly better: an exact tie keeps the incumbent, so spurious
        # alarms on a healthy device never churn model versions.
        promoted = (candidate_fidelity
                    > incumbent_fidelity + self.min_improvement)
        if promoted:
            version = self.server.swap_engine(
                shard_index, candidate, device=shard_train.device)
            self._snapshot(shard_index, version, designs)
        log_event("calib",
                  "swap_promoted" if promoted else "candidate_rejected",
                  shard=shard_index, version=version,
                  incumbent_fidelity=round(incumbent_fidelity, 6),
                  candidate_fidelity=round(candidate_fidelity, 6),
                  min_improvement=self.min_improvement)
        return ShardRecalibration(
            shard_index=shard_index, promoted=promoted,
            incumbent_fidelity=incumbent_fidelity,
            candidate_fidelity=candidate_fidelity,
            model_version=version)

    def _snapshot(self, shard_index: int, version: int, designs) -> None:
        if self.snapshot_dir is None:
            return
        directory = pathlib.Path(self.snapshot_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for name, design in designs.items():
            save_pipeline(design.pipeline,
                          directory / f"shard{shard_index}_{name}"
                                      f"_v{version}.npz")


def resolve_design(server: ReadoutServer, design: Optional[str]) -> str:
    """The scored design name: validate ``design``, or infer the sole one.

    Shared by every consumer that scores one served design's bits (the
    synchronous loop, the probe scheduler).
    """
    if design is None:
        if len(server.design_names) != 1:
            raise ValueError(
                f"server hosts {sorted(server.design_names)}; pass "
                f"design= to choose the scored one")
        return server.design_names[0]
    if design not in server.design_names:
        raise ValueError(
            f"unknown design {design!r}; server hosts "
            f"{sorted(server.design_names)}")
    return design


def attach_score_monitors(server: ReadoutServer, monitors: Sequence,
                          on_alarm=None) -> None:
    """Wire one :class:`~.monitors.ScoreDriftMonitor` per shard engine.

    ``monitors[i]`` observes shard ``i``'s chunks via the engine's batch
    hook. Call again after a promotion to hook the replacement engine
    (the :class:`~.loop.CalibrationLoop` does this automatically); an
    engine this monitor already hooks is left alone, and a monitor moving
    to a replacement engine detaches its hook from the old one first, so
    a retired incumbent never keeps feeding the monitor.

    Hooked state is tracked by *object identity through a weak reference*
    held on the monitor — never by ``id()``, which CPython reuses as soon
    as the incumbent is freed: a replacement engine allocated at the old
    address must still be hooked, or drift detection for that shard dies
    silently.

    ``on_alarm`` (optional) is called as ``on_alarm(shard_index, alarm)``
    from the serving thread whenever a hooked monitor is in the alarmed
    state after a batch — the feed for the background worker's per-shard
    alarm queues. Like the monitors themselves, it must never raise for
    long (hook errors are counted by the engine, not propagated).
    """
    shards = list(server.shards)
    if len(monitors) != len(shards):
        raise ValueError(
            f"need one monitor per shard: {len(monitors)} monitors for "
            f"{len(shards)} shards")
    for shard, monitor in zip(shards, monitors):
        engine = shard.engine
        previous_ref = getattr(monitor, "_hooked_engine", None)
        previous = previous_ref() if previous_ref is not None else None
        if previous is engine:
            continue
        if previous is not None:
            previous.remove_batch_hook(monitor._hook)

        def hook(chunk, bits, monitor=monitor,
                 shard_index=shard.feedline.index):
            alarm = monitor.observe_batch(chunk.demod)
            if alarm is not None and on_alarm is not None:
                on_alarm(shard_index, alarm)

        engine.add_batch_hook(hook)
        monitor._hook = hook
        monitor._hooked_engine = weakref.ref(engine)
