"""Grouped construction knobs for :class:`~repro.serve.ReadoutServer`.

:class:`ServerConfig` is the one object that carries every server knob —
batching, backpressure, trace dtype, backend selection, and the
observability/monitoring stack — so builders, benches, examples, and the
network front end all program against a single façade instead of
re-plumbing a 13-keyword constructor by hand. ``ReadoutServer(shards,
config)`` is the one construction spelling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass
class ServerConfig:
    """Every :class:`~repro.serve.ReadoutServer` knob, in one place.

    Defaults are pinned by ``tests/serve/test_config.py``. Field groups:

    * batching/backpressure — ``max_batch_traces``, ``max_wait_ms``,
      ``max_queue_requests``, ``overload`` (``"reject"`` or ``"shed"``);
      ``max_wait_ms`` caps how long a request waits behind a batch still
      computing, and an idle server dispatches at once;
    * hot-path dtype — ``trace_dtype`` (``None`` inherits each stream's
      dtype; ``np.float16`` is the opt-in quantized slab/ring path);
    * execution — ``backend``: ``"thread"``, ``"process"``, or a prebuilt
      :class:`~repro.serve.ShardBackend` instance, which is where
      backend options live (e.g.
      ``ProcessShardBackend(ring_slots=4, coalesce_batches=1)``);
    * observability — ``trace_sample_rate``, ``flight_recorder``,
      ``metrics``, ``latency_window``;
    * monitoring — ``telemetry_interval_s``, ``alert_rules``,
      ``bundle_dir`` (the latter two require the former).

    The semantics of each knob are documented on
    :class:`~repro.serve.ReadoutServer`, which validates the combination
    at construction; the config itself is a dumb record, cheap to build
    and compare. A backend instance serves one server only, so a config
    carrying one builds one server.
    """

    max_batch_traces: int = 256
    max_wait_ms: float = 2.0
    max_queue_requests: int = 1024
    overload: str = "reject"
    trace_dtype: object = None
    latency_window: int = 8192
    backend: object = "thread"
    trace_sample_rate: float = 0.0
    flight_recorder: object = None
    metrics: object = None
    telemetry_interval_s: Optional[float] = None
    alert_rules: Optional[Sequence[object]] = None
    bundle_dir: Optional[str] = None
