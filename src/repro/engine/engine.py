"""Batched streaming inference over fitted discrimination pipelines.

The :class:`ReadoutEngine` serves many designs over the same demodulated
trace stream the way the FPGA deployment does: traces arrive in fixed-size
chunks, land in preallocated float32 buffers, flow through each design's
stage pipeline, and per-stage intermediate features are computed **once**
per chunk and shared across designs whose upstream stages are
value-identical (content-addressed via :meth:`Stage.fingerprint`). The five
MF-based Table 1 designs, for example, need only two filter-bank passes per
chunk (one per MF/RMF flavour) instead of five.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Union)

import numpy as np

from repro.core import metrics
from repro.obs.log import log_event
from repro.core.discriminators import EvaluationResult
from repro.core.pipeline import KIND_FEATURES, Pipeline
from repro.readout.dataset import ReadoutDataset

#: Default number of traces per processing chunk.
DEFAULT_CHUNK_SIZE = 2048


@dataclass
class EngineStats:
    """Counters describing one engine's lifetime of work.

    ``stage_evals`` counts every stage application actually computed;
    ``shareable_evals`` is the subset that was cacheable (fingerprinted
    feature stages), and ``stage_hits`` the cacheable applications served
    from the per-chunk memo instead.
    """

    traces: int = 0
    chunks: int = 0
    stage_evals: int = 0
    shareable_evals: int = 0
    stage_hits: int = 0
    hook_errors: int = 0

    def sharing_ratio(self) -> float:
        """Fraction of shareable stage applications served from cache."""
        total = self.shareable_evals + self.stage_hits
        return 0.0 if total == 0 else self.stage_hits / total

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict snapshot (for server stats and JSON benchmark files)."""
        return {
            "traces": self.traces,
            "chunks": self.chunks,
            "stage_evals": self.stage_evals,
            "shareable_evals": self.shareable_evals,
            "stage_hits": self.stage_hits,
            "hook_errors": self.hook_errors,
            "sharing_ratio": self.sharing_ratio(),
        }


@dataclass
class _Served:
    """One design served by the engine."""

    name: str
    pipeline: Pipeline
    #: Cumulative fingerprint per stage prefix (None once unshareable).
    prefix_keys: List[Optional[str]] = field(default_factory=list)


def _prefix_keys(pipeline: Pipeline) -> List[Optional[str]]:
    """Cumulative content keys for each stage prefix of a pipeline.

    A prefix key identifies the *value* of the features after that stage,
    so designs with different objects but identical fitted parameters share
    work. The chain degrades to ``None`` (unshareable) at the first stage
    without a fingerprint.
    """
    keys: List[Optional[str]] = []
    accumulated: Optional[str] = ""
    for stage in pipeline.stages:
        fingerprint = stage.fingerprint()
        if accumulated is None or fingerprint is None:
            accumulated = None
        else:
            accumulated = f"{accumulated}/{fingerprint}"
        keys.append(accumulated)
    return keys


class ReadoutEngine:
    """Shared-feature batched inference over a set of fitted designs.

    Parameters
    ----------
    designs:
        Mapping of design name to a *fitted* pipeline-based discriminator
        (anything exposing a fitted ``pipeline`` attribute, e.g. every
        ``make_design`` product).
    chunk_size:
        Traces per processing chunk; bounds peak memory and sets the
        streaming granularity.
    dtype:
        Floating dtype of the demodulation buffer. The default float32
        halves memory traffic relative to the training path; pass
        ``np.float64`` for bit-exact parity with per-design prediction.
    """

    def __init__(self, designs: Mapping[str, object],
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 dtype=np.float32):
        if not designs:
            raise ValueError("engine needs at least one design")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.chunk_size = int(chunk_size)
        self.dtype = np.dtype(dtype)
        if not np.issubdtype(self.dtype, np.floating):
            raise ValueError(f"dtype must be floating, got {self.dtype}")
        self.stats = EngineStats()
        self._served: List[_Served] = []
        for name, design in designs.items():
            pipeline = getattr(design, "pipeline", design)
            if not isinstance(pipeline, Pipeline) or not pipeline.fitted:
                raise ValueError(
                    f"design {name!r} is not a fitted pipeline discriminator; "
                    f"fit it before constructing the engine")
            self._served.append(_Served(name=name, pipeline=pipeline,
                                        prefix_keys=_prefix_keys(pipeline)))
        self._demod_buffer: Optional[np.ndarray] = None
        self._batch_hooks: List[Callable[
            [ReadoutDataset, Dict[str, np.ndarray]], None]] = []
        # Hooks whose failure has already been logged — hooks run per
        # chunk, so a persistently broken observer would otherwise spam
        # one event per chunk. The counter still ticks every time.
        self._hooks_logged: set = set()

    @property
    def design_names(self) -> List[str]:
        return [served.name for served in self._served]

    @property
    def pipelines(self) -> Dict[str, Pipeline]:
        """The fitted pipeline served under each design name.

        Read-only access for observers and the recalibration path (warm
        starts read incumbent stage parameters through this).
        """
        return {served.name: served.pipeline for served in self._served}

    def add_batch_hook(self, hook: Callable[
            [ReadoutDataset, Dict[str, np.ndarray]], None]) -> None:
        """Observe every processed chunk: ``hook(chunk, name_to_bits)``.

        Hooks run synchronously on the inference thread after each chunk —
        the attachment point for streaming drift monitors
        (:mod:`repro.calib`). The chunk's demod array may be a view into
        the engine's reusable buffer, so hooks must consume it before
        returning, not retain it. A raising hook is counted in
        ``stats.hook_errors`` and never fails the inference call.
        """
        self._batch_hooks.append(hook)

    @property
    def has_batch_hooks(self) -> bool:
        """Whether any batch hook is attached (worth building a chunk for)."""
        return bool(self._batch_hooks)

    def remove_batch_hook(self, hook) -> None:
        """Detach a previously added batch hook (no-op if absent)."""
        if hook in self._batch_hooks:
            self._batch_hooks.remove(hook)
            self._hooks_logged.discard(id(hook))

    def run_batch_hooks(self, chunk: ReadoutDataset,
                        bits: Dict[str, np.ndarray]) -> None:
        """Feed one processed batch to every hook, counting errors.

        The inference path calls this per chunk; the process serving
        backend calls it from the parent process with batches its worker
        computed remotely, so observers (drift monitors) keep seeing
        traffic even though the engine object itself never ran the
        prediction. Hook errors are counted, never raised.
        """
        for hook in self._batch_hooks:
            try:
                hook(chunk, bits)
            except Exception as exc:  # noqa: BLE001 — observers must not fail serving
                self.stats.hook_errors += 1
                if id(hook) not in self._hooks_logged:
                    self._hooks_logged.add(id(hook))
                    log_event("engine", "hook_error",
                              level=logging.WARNING,
                              hook=getattr(hook, "__qualname__",
                                           repr(hook)),
                              error=repr(exc))

    # ------------------------------------------------------------------
    # Chunking
    # ------------------------------------------------------------------
    def _buffer(self, shape) -> np.ndarray:
        """The preallocated chunk buffer, (re)allocated on shape change."""
        want = (self.chunk_size,) + tuple(shape)
        if self._demod_buffer is None or self._demod_buffer.shape != want:
            self._demod_buffer = np.empty(want, dtype=self.dtype)
        return self._demod_buffer

    def _chunk_datasets(self,
                        dataset: ReadoutDataset) -> Iterator[ReadoutDataset]:
        """Fixed-size chunks of ``dataset``, demod downcast into the buffer.

        The preallocated buffer exists for the downcast; when the dataset
        already carries the engine dtype the chunks are zero-copy views.
        """
        needs_cast = dataset.demod.dtype != self.dtype
        buffer = self._buffer(dataset.demod.shape[1:]) if needs_cast else None
        for start in range(0, dataset.n_traces, self.chunk_size):
            stop = min(start + self.chunk_size, dataset.n_traces)
            m = stop - start
            if needs_cast:
                np.copyto(buffer[:m], dataset.demod[start:stop])
                demod = buffer[:m]
            else:
                demod = dataset.demod[start:stop]
            yield ReadoutDataset(
                demod=demod,
                labels=dataset.labels[start:stop],
                basis=dataset.basis[start:stop],
                device=dataset.device,
                raw=None if dataset.raw is None else dataset.raw[start:stop],
            )

    # ------------------------------------------------------------------
    # Shared-feature chunk execution
    # ------------------------------------------------------------------
    #: hot-path
    def _process_chunk(self,
                       chunk: ReadoutDataset) -> Dict[str, np.ndarray]:
        memo: Dict[str, np.ndarray] = {}
        out: Dict[str, np.ndarray] = {}
        for served in self._served:
            x: Optional[np.ndarray] = None
            for i, stage in enumerate(served.pipeline.stages):
                key = served.prefix_keys[i]
                if key is not None and key in memo:
                    x = memo[key]
                    self.stats.stage_hits += 1
                    continue
                in_dtype = None if x is None else x.dtype
                x = stage.transform(chunk, x)
                self.stats.stage_evals += 1
                if stage.output_kind == KIND_FEATURES:
                    self._check_dtype(stage, in_dtype, x)
                if key is not None:
                    self.stats.shareable_evals += 1
                    memo[key] = x
            out[served.name] = x
        self.stats.chunks += 1
        self.stats.traces += chunk.n_traces
        self.run_batch_hooks(chunk, out)
        return out

    def _check_dtype(self, stage, in_dtype, out: np.ndarray) -> None:
        """Dtype-stability contract of the float32 streaming hot path.

        Dtype-stable stages must preserve the engine dtype: the first
        feature stage consumes the float32 chunk buffer, every later one
        consumes the previous stage's output. A silent upcast here would
        double memory traffic for the rest of the chain.
        """
        if not getattr(stage, "dtype_stable", True):
            return
        if not np.issubdtype(out.dtype, np.floating):
            return
        expected = self.dtype if in_dtype is None else in_dtype
        if not np.issubdtype(expected, np.floating):
            return
        if out.dtype != expected:
            raise TypeError(
                f"stage {stage.name!r} broke dtype stability: expected "
                f"{np.dtype(expected)} features, got {out.dtype}")

    # ------------------------------------------------------------------
    # Public inference surface
    # ------------------------------------------------------------------
    def predict_bits(self, dataset: ReadoutDataset,
                     out: Optional[Dict[str, np.ndarray]] = None,
                     ) -> Dict[str, np.ndarray]:
        """Per-design ``(n, n_qubits)`` bit predictions for a dataset.

        ``out`` optionally supplies preallocated per-design destination
        arrays of at least ``(n_traces, n_qubits)`` rows; chunk results
        are written at their offsets and the returned dict holds
        ``out[name][:n_traces]`` views — no concatenation, no result
        allocation. Without ``out`` each design's chunks are concatenated
        into a fresh array as before.
        """
        if dataset.n_traces == 0:
            empty = np.zeros((0, dataset.n_qubits), dtype=np.int64)
            return {served.name: empty for served in self._served}
        if out is not None:
            for served in self._served:
                dest = out.get(served.name)
                if dest is None or dest.shape[0] < dataset.n_traces:
                    raise ValueError(
                        f"out[{served.name!r}] must hold at least "
                        f"{dataset.n_traces} rows")
            offset = 0
            for chunk in self._chunk_datasets(dataset):
                m = chunk.n_traces
                for name, bits in self._process_chunk(chunk).items():
                    out[name][offset:offset + m] = bits
                offset += m
            return {served.name: out[served.name][:dataset.n_traces]
                    for served in self._served}
        parts: Dict[str, List[np.ndarray]] = {s.name: [] for s in self._served}
        for chunk in self._chunk_datasets(dataset):
            for name, bits in self._process_chunk(chunk).items():
                parts[name].append(bits)
        return {name: np.concatenate(chunks) for name, chunks in parts.items()}

    def predict_traces(self, demod: np.ndarray, device,
                       out: Optional[Dict[str, np.ndarray]] = None,
                       ) -> Dict[str, np.ndarray]:
        """Batch-submission hook: bits for a raw demod array.

        Wraps a ``(n, n_qubits, 2, n_bins)`` demodulated array (no labels
        needed) in an unlabeled dataset and predicts, so a caller holding
        only traces (the serving layer, through
        :meth:`predict_traces_into`) never materializes label arrays per
        request. ``out`` passes through to :meth:`predict_bits` for
        allocation-free results.
        """
        n = demod.shape[0]
        dataset = ReadoutDataset(
            demod=demod,
            labels=np.zeros((n, demod.shape[1]), dtype=np.int64),
            basis=np.zeros(n, dtype=np.int64),
            device=device,
        )
        return self.predict_bits(dataset, out=out)

    #: hot-path
    def predict_traces_into(self, demod: np.ndarray, device,
                            out: Dict[str, np.ndarray],
                            ) -> Dict[str, np.ndarray]:
        """Allocation-free serving entry point: bits into caller buffers.

        The call :class:`~repro.serve.ShardEngine` names: shard workers keep
        recycled per-design output buffers (thread backend) or hand views
        straight into a shared-memory ring's response block (process
        backend) so a steady-state batch allocates nothing on the result
        side. Semantically ``predict_traces(demod, device, out=out)``.
        """
        return self.predict_traces(demod, device, out=out)

    def predict_stream(
        self, batches: Iterable[Union[ReadoutDataset, np.ndarray]],
        device=None,
    ) -> Iterator[Dict[str, np.ndarray]]:
        """Lazily predict over a stream of trace batches.

        Each element may be a :class:`ReadoutDataset` or a raw
        ``(n, n_qubits, 2, n_bins)`` demod array (``device`` required for
        arrays). Yields one name-to-bits dict per input batch, in order.
        """
        for batch in batches:
            if isinstance(batch, np.ndarray):
                if device is None:
                    raise ValueError(
                        "pass device= when streaming raw demod arrays")
                yield self.predict_traces(batch, device)
            else:
                yield self.predict_bits(batch)

    def evaluate(self, dataset: ReadoutDataset) -> Dict[str, EvaluationResult]:
        """Per-design evaluation bundles (same shape as ``design.evaluate``)."""
        evaluations: Dict[str, EvaluationResult] = {}
        for name, pred in self.predict_bits(dataset).items():
            accs = metrics.per_qubit_accuracy(pred, dataset.labels)
            precision, recall = metrics.precision_recall(pred, dataset.labels)
            evaluations[name] = EvaluationResult(
                design=name,
                per_qubit=accs,
                cumulative=metrics.cumulative_accuracy(accs),
                precision=precision,
                recall=recall,
                misclassifications=metrics.misclassification_counts(
                    pred, dataset.labels),
                cross_fidelity=metrics.cross_fidelity_matrix(
                    pred, dataset.labels),
            )
        return evaluations
