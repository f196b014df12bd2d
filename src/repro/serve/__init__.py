"""Async micro-batching readout service over sharded inference engines.

The traffic-facing layer above :mod:`repro.engine`:

* :class:`ReadoutServer` — sync/future/``asyncio`` submission of single-
  and multi-trace requests, micro-batched and fanned out to one worker
  per feedline shard (each owning a :class:`ShardEngine`, the three-member
  engine contract a fitted :class:`~repro.engine.ReadoutEngine`
  implements);
* :class:`ShardBackend` — where those workers run:
  :class:`ThreadShardBackend` (in-process threads, default) or
  :class:`ProcessShardBackend` (one spawned process per shard, trace
  batches through :class:`~repro.serve.shm.TraceRing` shared memory —
  true parallel shards);
* :class:`MicroBatcher` — the size/deadline coalescing scheduler with
  reject/shed backpressure, assembling batches by copying request traces
  into recycled :class:`SlabPool` slabs at submit time (the zero-copy
  dispatch hot path — flushes are :class:`FlushedBatch` slab views, never
  concatenations);
* :class:`ServerStats` — p50/p95/p99/p999 latency and throughput
  counters, registered into a :class:`~repro.obs.MetricsRegistry`;
* :meth:`ReadoutServer.healthcheck` — end-to-end per-shard liveness
  probes (:class:`HealthReport` / :class:`ShardHealth`), backed by the
  forced-trace path of :mod:`repro.obs`;
* :mod:`repro.serve.loadgen` — deterministic open- and closed-loop load
  generation (:func:`open_loop`, :func:`closed_loop`), plus
  :func:`network_closed_loop` driving the same workload over TCP through
  :mod:`repro.net`;
* :class:`ServerConfig` — every server knob as one dataclass façade
  (``ReadoutServer(shards, ServerConfig(...))``, the one construction
  spelling);
* :func:`build_sharded_server` — fit-per-shard construction helper.
"""

from .batcher import (OVERLOAD_POLICIES, FlushedBatch, MicroBatcher,
                      ServeRequest, ServerClosedError,
                      ServerOverloadedError)
from .builder import build_sharded_server, fit_serve_shards
from .config import ServerConfig
from .loadgen import LoadReport, closed_loop, network_closed_loop, open_loop
from .procshard import ProcessShardBackend
from .server import (BACKENDS, HealthReport, ReadoutResponse, ReadoutServer,
                     ServeShard, ShardBackend, ShardEngine, ShardHealth,
                     ThreadShardBackend)
from .shm import TraceRing
from .slab import SlabPool
from .stats import LATENCY_PERCENTILES, ServerStats, percentile_key

__all__ = [
    "BACKENDS", "FlushedBatch", "HealthReport", "LATENCY_PERCENTILES",
    "LoadReport", "MicroBatcher", "OVERLOAD_POLICIES",
    "ProcessShardBackend", "ReadoutResponse", "ReadoutServer",
    "ServeRequest", "ServeShard", "ServerClosedError", "ServerConfig",
    "ServerOverloadedError", "ServerStats", "ShardBackend", "ShardEngine",
    "ShardHealth", "SlabPool", "ThreadShardBackend", "TraceRing",
    "build_sharded_server", "closed_loop", "fit_serve_shards",
    "network_closed_loop", "open_loop", "percentile_key",
]
