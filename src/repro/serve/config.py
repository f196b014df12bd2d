"""Grouped construction knobs for :class:`~repro.serve.ReadoutServer`.

:class:`ServerConfig` is the one object that carries every server knob —
batching, backpressure, trace dtype, backend selection, and the
observability/monitoring stack — so builders, benches, examples, and the
network front end all program against a single façade instead of
re-plumbing a 14-keyword constructor by hand. ``ReadoutServer(shards,
config)`` is the redesigned construction path; the legacy keyword form
(``ReadoutServer(shards, max_wait_ms=...)``) still works through a
deprecation shim that folds the keywords into an equivalent config.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from typing import Dict, Optional, Sequence


@dataclass
class ServerConfig:
    """Every :class:`~repro.serve.ReadoutServer` knob, in one place.

    Defaults are identical to the historical keyword defaults (pinned by
    ``tests/serve/test_config.py``). Field groups:

    * batching/backpressure — ``max_batch_traces``, ``max_wait_ms``,
      ``max_queue_requests``, ``overload`` (``"reject"`` or ``"shed"``);
      ``max_wait_ms`` caps how long a request waits behind a batch still
      computing, and an idle server dispatches at once;
    * hot-path dtype — ``trace_dtype`` (``None`` inherits each stream's
      dtype; ``np.float16`` is the opt-in quantized slab/ring path);
    * execution — ``backend`` (``"thread"``, ``"process"``, or a prebuilt
      :class:`~repro.serve.ShardBackend` instance) and
      ``backend_options`` (constructor kwargs for a named backend);
    * observability — ``trace_sample_rate``, ``flight_recorder``,
      ``metrics``, ``latency_window``;
    * monitoring — ``telemetry_interval_s``, ``alert_rules``,
      ``bundle_dir`` (the latter two require the former).

    The semantics of each knob are documented on
    :class:`~repro.serve.ReadoutServer`, which validates the combination
    at construction; the config itself is a dumb record, cheap to build,
    compare, and share across servers.
    """

    max_batch_traces: int = 256
    max_wait_ms: float = 2.0
    max_queue_requests: int = 1024
    overload: str = "reject"
    trace_dtype: object = None
    latency_window: int = 8192
    backend: object = "thread"
    backend_options: Optional[Dict[str, object]] = None
    trace_sample_rate: float = 0.0
    flight_recorder: object = None
    metrics: object = None
    telemetry_interval_s: Optional[float] = None
    alert_rules: Optional[Sequence[object]] = None
    bundle_dir: Optional[str] = None

    @classmethod
    def resolve(cls, config: Optional["ServerConfig"],
                legacy_kwargs: Dict[str, object]) -> "ServerConfig":
        """The effective config for a server construction call.

        Exactly one spelling is allowed per call: a :class:`ServerConfig`
        (the redesigned path), legacy keywords (folded into an equivalent
        config under a :class:`DeprecationWarning`), or nothing (all
        defaults). Mixing the two raises ``TypeError`` — a keyword
        silently overriding or being overridden by a config field is the
        exact ambiguity this façade removes. Unknown keywords raise
        ``TypeError`` just as the old constructor did.
        """
        if config is not None:
            if not isinstance(config, cls):
                raise TypeError(
                    f"config must be a ServerConfig, got "
                    f"{type(config).__name__}; legacy knobs go through "
                    f"keyword arguments, not positionally")
            if legacy_kwargs:
                raise TypeError(
                    f"pass either config= or legacy keyword arguments, "
                    f"not both (got config and "
                    f"{sorted(legacy_kwargs)})")
            return config
        if not legacy_kwargs:
            return cls()
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(legacy_kwargs) - known)
        if unknown:
            raise TypeError(
                f"unexpected keyword argument(s) {unknown}; "
                f"ServerConfig fields are {sorted(known)}")
        warnings.warn(
            "ReadoutServer(**knobs) is deprecated; pass "
            "ReadoutServer(shards, ServerConfig(...)) instead",
            DeprecationWarning, stacklevel=3)
        return cls(**legacy_kwargs)
