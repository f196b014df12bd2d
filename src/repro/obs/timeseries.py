"""Continuous telemetry: periodic metric samples in bounded ring buffers.

PR 7's :class:`~repro.obs.metrics.MetricsRegistry` answers *point-in-time*
questions — how many requests ever completed, what is the latency window's
p99 right now. Operators live on the derivative: did throughput just fall
off a cliff, is the reject rate climbing, how many workers died in the
last 30 seconds. This module closes that gap:

- :class:`TelemetryStore` keeps one bounded ring buffer of
  ``(timestamp, value)`` samples per numeric metric leaf, and computes
  windowed **deltas** and **rates** from the cumulative counters on
  demand — "what changed in the last 30 s" becomes a lookup instead of a
  derivative the operator computes by hand. Histogram bucket series
  support windowed quantiles (:meth:`TelemetryStore.quantile_from_buckets`)
  so a p99-over-the-last-minute exists even though the underlying
  histogram is cumulative.
- :class:`TelemetrySampler` is a background thread that polls a
  registry's ``export_dict()`` at a configurable interval, flattens every
  numeric leaf (the same dotted-path scheme ``export_text`` uses), ingests
  the sample into a store, and hands the store to an optional
  :class:`~repro.obs.alerts.AlertManager` for rule evaluation — the layer
  that turns the flight recorder into flight *control*.

Everything is stdlib-only, thread-safe, and JSON-safe via
:meth:`TelemetryStore.dump` / :meth:`TelemetryStore.from_dump`, so a
saved telemetry history renders in the ops console exactly like a live
one. Sampling overhead is benchmark-gated like PR 7's span gate
(``data.obs.sampler_overhead_ratio`` must stay ~1.0).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.obs.log import log_event
from repro.obs.metrics import MetricsRegistry

__all__ = ["TelemetrySampler", "TelemetryStore", "flatten_numeric"]

#: Default per-series ring-buffer bound. At a 1 s sampling interval this
#: retains ~8.5 minutes of history per metric; memory is O(series x
#: max_samples) floats, independent of server lifetime.
DEFAULT_MAX_SAMPLES = 512

Sample = Tuple[float, float]


def flatten_numeric(payload: object, prefix: str = "",
                    out: Optional[Dict[str, float]] = None
                    ) -> Dict[str, float]:
    """Every numeric leaf of a nested export, by dotted path.

    The same traversal ``MetricsRegistry.export_text`` renders — bools
    become 0/1, lists index numerically, strings and ``None`` are skipped
    — so telemetry series names line up with the flat text export.
    """
    if out is None:
        out = {}
    if isinstance(payload, bool):
        out[prefix] = float(payload)
    elif isinstance(payload, (int, float)):
        out[prefix] = float(payload)
    elif isinstance(payload, dict):
        for key, value in payload.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            flatten_numeric(value, path, out)
    elif isinstance(payload, (list, tuple)):
        for i, value in enumerate(payload):
            flatten_numeric(value, f"{prefix}.{i}", out)
    return out


class TelemetryStore:
    """Bounded per-metric sample history with windowed delta/rate math.

    Timestamps are :func:`time.monotonic` readings (rate math must never
    jump with wall-clock adjustments); :meth:`dump` records a
    wall/monotonic anchor pair so saved histories can still be placed in
    wall-clock time. All methods are thread-safe — the sampler thread
    ingests while alert evaluation, console rendering, and bundle dumps
    read.
    """

    def __init__(self, max_samples: int = DEFAULT_MAX_SAMPLES) -> None:
        if max_samples < 2:
            raise ValueError(
                f"max_samples must be >= 2 (deltas need two points), "
                f"got {max_samples}")
        self.max_samples = int(max_samples)
        self._lock = threading.Lock()
        self._series: Dict[str, Deque[Sample]] = {}  #: guarded-by: _lock
        self._ingested = 0  #: guarded-by: _lock

    # -- writing ---------------------------------------------------------
    def ingest(self, flat: Dict[str, float],
               now: Optional[float] = None) -> None:
        """Append one sample of every series in ``flat`` at time ``now``."""
        t = time.monotonic() if now is None else float(now)
        with self._lock:
            self._ingested += 1
            for name, value in flat.items():
                series = self._series.get(name)
                if series is None:
                    series = deque(maxlen=self.max_samples)
                    self._series[name] = series
                series.append((t, float(value)))

    # -- reading ---------------------------------------------------------
    @property
    def ingested(self) -> int:
        with self._lock:
            return self._ingested

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._series)

    def series(self, name: str) -> List[Sample]:
        with self._lock:
            return list(self._series.get(name, ()))

    def latest(self, name: str) -> Optional[float]:
        with self._lock:
            series = self._series.get(name)
            return series[-1][1] if series else None

    def _bounds(self, name: str, window_s: float,
                now: Optional[float]) -> Optional[Tuple[Sample, Sample]]:
        """(baseline, latest) samples spanning the trailing window.

        The baseline is the newest sample at or before ``now - window_s``
        when one exists (so a sparse series still yields the full-window
        delta), else the oldest retained sample.
        """
        with self._lock:
            series = self._series.get(name)
            if not series:
                return None
            last = series[-1]
            horizon = (last[0] if now is None else float(now)) - window_s
            baseline = series[0]
            for sample in series:
                if sample[0] <= horizon:
                    baseline = sample
                else:
                    break
            return baseline, last

    def delta(self, name: str, window_s: float,
              now: Optional[float] = None) -> Optional[float]:
        """Change of a cumulative series over the trailing window.

        None when the series was never sampled; 0.0 when only one sample
        exists (no evidence of change yet). A counter reset (server
        replaced under the same registry) shows up as a negative delta —
        callers watching "did anything happen" should compare ``> 0``.
        """
        bounds = self._bounds(name, window_s, now)
        if bounds is None:
            return None
        (_, v0), (_, v1) = bounds
        return v1 - v0

    def rate(self, name: str, window_s: float,
             now: Optional[float] = None) -> Optional[float]:
        """Per-second rate of change over the trailing window (>= 1 sample
        pair required; 0.0 with a single sample)."""
        bounds = self._bounds(name, window_s, now)
        if bounds is None:
            return None
        (t0, v0), (t1, v1) = bounds
        if t1 <= t0:
            return 0.0
        return (v1 - v0) / (t1 - t0)

    def window(self, name: str, window_s: float,
               now: Optional[float] = None) -> List[Sample]:
        """Samples of one series inside the trailing window (oldest first)."""
        with self._lock:
            series = self._series.get(name)
            if not series:
                return []
            horizon = (series[-1][0] if now is None else float(now)) \
                - window_s
            return [sample for sample in series if sample[0] >= horizon]

    def quantile_from_buckets(self, prefix: str, q: float,
                              window_s: float,
                              now: Optional[float] = None
                              ) -> Optional[float]:
        """Windowed quantile from a histogram's cumulative bucket series.

        ``prefix`` names the histogram as flattened by the sampler (its
        bucket series are ``{prefix}.buckets.le_{bound}`` plus
        ``{prefix}.buckets.le_inf``). The quantile is interpolated from
        the *windowed deltas* of the cumulative per-bucket counts, i.e.
        the distribution of observations made during the window — a p99
        of the last 30 s, not of the process lifetime. None when no
        observation landed in the window. The overflow bucket has no
        upper bound; quantiles landing there report the highest finite
        bound (a floor, flagged by returning exactly that bound).
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {q}")
        bucket_prefix = f"{prefix}.buckets.le_"
        bounds: List[Tuple[float, float]] = []
        total = None
        for name in self.names():
            if not name.startswith(bucket_prefix):
                continue
            delta = self.delta(name, window_s, now)
            if delta is None:
                continue
            label = name[len(bucket_prefix):]
            if label == "inf":
                total = max(0.0, delta)
            else:
                try:
                    bound = float(label)
                except ValueError:
                    continue
                bounds.append((bound, max(0.0, delta)))
        if total is None or total <= 0:
            return None
        bounds.sort()
        target = q * total
        previous_bound = 0.0
        previous_count = 0.0
        for bound, cumulative in bounds:
            if cumulative >= target:
                in_bucket = cumulative - previous_count
                if in_bucket <= 0:
                    return bound
                fraction = (target - previous_count) / in_bucket
                return previous_bound + fraction * (bound - previous_bound)
            previous_bound = bound
            previous_count = cumulative
        # Landed in the overflow bucket: the finite bounds are a floor.
        return bounds[-1][0] if bounds else None

    # -- persistence -----------------------------------------------------
    def dump(self) -> Dict[str, object]:
        """JSON-safe history: every series' (t, v) pairs + a clock anchor.

        ``anchor`` maps one monotonic instant to wall-clock time, taken
        at dump time, so consumers can rebase sample timestamps onto the
        wall clock (``wall = anchor_wall - (anchor_mono - t)``).
        """
        with self._lock:
            series = {name: [[t, v] for t, v in samples]
                      for name, samples in sorted(self._series.items())}
            ingested = self._ingested
        return {
            "max_samples": self.max_samples,
            "ingested": ingested,
            "anchor_mono": time.monotonic(),
            "anchor_wall": time.time(),
            "series": series,
        }

    @classmethod
    def from_dump(cls, payload: Dict[str, object]) -> "TelemetryStore":
        """Rebuild a (read-mostly) store from :meth:`dump` output."""
        store = cls(max_samples=int(payload.get("max_samples",
                                                DEFAULT_MAX_SAMPLES)))
        for name, samples in payload.get("series", {}).items():
            series: Deque[Sample] = deque(maxlen=store.max_samples)
            for t, v in samples:
                series.append((float(t), float(v)))
            store._series[str(name)] = series
        store._ingested = int(payload.get("ingested", 0))
        return store

    def end_time(self) -> Optional[float]:
        """The newest sample timestamp across all series (None if empty)."""
        with self._lock:
            newest = None
            for series in self._series.values():
                if series:
                    t = series[-1][0]
                    newest = t if newest is None else max(newest, t)
            return newest


class TelemetrySampler:
    """Background thread polling a registry into a :class:`TelemetryStore`.

    Each tick takes one ``registry.export_dict()`` snapshot, flattens its
    numeric leaves, ingests them, and (when an
    :class:`~repro.obs.alerts.AlertManager` is attached) evaluates the
    alert rules against the updated store. A broken collector is already
    reported in-band by the registry; a broken *rule* is counted here and
    never kills the thread — the monitoring layer must outlive the
    components it monitors.

    Lifecycle mirrors the server: :meth:`start` / :meth:`stop` (joining,
    idempotent, no restart), or use as a context manager. The sampler
    registers its own counters as the ``telemetry`` collector, so its
    health (ticks, errors, poll cost) is visible in the very exports it
    takes.
    """

    def __init__(self, registry: MetricsRegistry, *,
                 interval_s: float = 1.0,
                 store: Optional[TelemetryStore] = None,
                 alerts=None,
                 max_samples: int = DEFAULT_MAX_SAMPLES) -> None:
        if interval_s <= 0:
            raise ValueError(
                f"interval_s must be positive, got {interval_s}")
        self.registry = registry
        self.interval_s = float(interval_s)
        self.store = store if store is not None else TelemetryStore(
            max_samples=max_samples)
        self.alerts = alerts
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started = False
        self._stopped = False
        self.samples = 0
        self.sample_errors = 0
        self.rule_errors = 0
        self.last_poll_ms = 0.0
        registry.register_collector("telemetry", self._collect,
                                    replace=True)

    def _collect(self) -> Dict[str, object]:
        return {
            "samples": self.samples,
            "sample_errors": self.sample_errors,
            "rule_errors": self.rule_errors,
            "last_poll_ms": round(self.last_poll_ms, 4),
            "interval_s": self.interval_s,
            "running": self.running,
        }

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "TelemetrySampler":
        with self._lock:
            if self._stopped:
                raise RuntimeError(
                    "sampler cannot be restarted after stop()")
            if self._started:
                return self
            self._started = True
            # A synchronous baseline sample before the thread exists:
            # delta/rate rules need a "before" point, and anything that
            # happens in the instant after start() (a worker killed the
            # moment the server is up) must register as a change from
            # this baseline, not be baked into the first sample.
            self.sample_once()
            self._thread = threading.Thread(
                target=self._run, name="obs-telemetry-sampler", daemon=True)
            self._thread.start()
        log_event("obs", "telemetry_start", interval_s=self.interval_s,
                  rules=0 if self.alerts is None else len(self.alerts.rules))
        return self

    def stop(self) -> None:
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            thread = self._thread
        self._stop_event.set()
        if thread is not None:
            thread.join()
        log_event("obs", "telemetry_stop", samples=self.samples,
                  sample_errors=self.sample_errors,
                  rule_errors=self.rule_errors)

    def __enter__(self) -> "TelemetrySampler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    # -- sampling --------------------------------------------------------
    def sample_once(self, now: Optional[float] = None) -> Dict[str, float]:
        """Take one sample synchronously (the thread's tick; also the
        deterministic test/console hook). Returns the flattened sample."""
        started = time.perf_counter()
        flat: Dict[str, float] = {}
        try:
            flat = flatten_numeric(self.registry.export_dict())
            self.store.ingest(flat, now=now)
            self.samples += 1
        except Exception:  # noqa: BLE001 — the sampler must never die
            self.sample_errors += 1
            return flat
        finally:
            self.last_poll_ms = 1e3 * (time.perf_counter() - started)
        if self.alerts is not None:
            try:
                self.alerts.evaluate(self.store, now=now)
            except Exception:  # noqa: BLE001 — a broken rule is counted
                self.rule_errors += 1
        return flat

    def _run(self) -> None:
        while not self._stop_event.wait(self.interval_s):
            self.sample_once()
        # One final sample so the store's last window covers the moments
        # right before shutdown — exactly the ones a postmortem wants.
        self.sample_once()
