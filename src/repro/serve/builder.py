"""Convenience construction of a sharded :class:`ReadoutServer`.

Fits one discriminator set per feedline shard on qubit-sliced views of the
training data and wires the per-shard engines into a server — the whole
"calibrate then deploy per feedline" flow in one call.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core import TrainingConfig, make_design
from repro.engine import ReadoutEngine
from repro.readout.dataset import ReadoutDataset
from repro.readout.sharding import plan_feedlines

from .config import ServerConfig
from .server import ReadoutServer, ServeShard


def fit_serve_shards(design_names: Sequence[str], train: ReadoutDataset,
                     val: Optional[ReadoutDataset] = None, *,
                     n_shards: int = 1,
                     training: Optional[TrainingConfig] = None,
                     dtype=np.float32,
                     chunk_size: Optional[int] = None) -> List[ServeShard]:
    """Fit one engine per feedline shard; the servable building blocks.

    The fitting half of :func:`build_sharded_server`, exposed separately
    so fitted shards can be reused — e.g. served by both execution
    backends in the scaling sweeps without recalibrating per backend
    (parameters are documented there).
    """
    if not design_names:
        raise ValueError("need at least one design name")
    engine_kwargs = {"dtype": dtype}
    if chunk_size is not None:
        engine_kwargs["chunk_size"] = chunk_size
    shards = []
    for feedline in plan_feedlines(train.n_qubits, n_shards):
        shard_train = train.select_qubits(feedline.qubit_indices)
        shard_val = (None if val is None
                     else val.select_qubits(feedline.qubit_indices))
        designs = {}
        for name in design_names:
            design = (make_design(name) if training is None
                      else make_design(name, training))
            designs[name] = design.fit(shard_train, shard_val)
        shards.append(ServeShard(
            feedline=feedline,
            engine=ReadoutEngine(designs, **engine_kwargs),
            device=shard_train.device,
        ))
    return shards


def build_sharded_server(design_names: Sequence[str], train: ReadoutDataset,
                         val: Optional[ReadoutDataset] = None, *,
                         n_shards: int = 1,
                         training: Optional[TrainingConfig] = None,
                         dtype=np.float32,
                         chunk_size: Optional[int] = None,
                         config: Optional[ServerConfig] = None,
                         ) -> ReadoutServer:
    """Fit per-shard designs and assemble the serving facade.

    Parameters
    ----------
    design_names:
        Designs every shard serves (e.g. ``("mf", "mf-rmf-nn")``).
    train / val:
        Full-device calibration splits; each shard fits on its
        :meth:`~repro.readout.dataset.ReadoutDataset.select_qubits` view.
    n_shards:
        Feedline groups to partition the device into (see
        :func:`~repro.readout.sharding.plan_feedlines`).
    training:
        Training hyper-parameters for NN/SVM heads; defaults to each
        design's defaults.
    dtype / chunk_size:
        Engine knobs; the float32 default is the streaming hot path, pass
        ``np.float64`` for bit-exact parity with per-design prediction.
    config:
        The :class:`~repro.serve.config.ServerConfig` of the server
        (backend, batching, ``trace_dtype`` and monitoring knobs; see
        :class:`~.server.ReadoutServer`); omitted, every default.
    """
    shards = fit_serve_shards(design_names, train, val, n_shards=n_shards,
                              training=training, dtype=dtype,
                              chunk_size=chunk_size)
    return ReadoutServer(shards, config)
