"""Postmortem debug bundles: everything triage needs, one directory.

When something goes wrong the evidence is scattered — cumulative
counters in the :class:`~repro.obs.metrics.MetricsRegistry`, rate
history in the :class:`~repro.obs.timeseries.TelemetryStore`, slow
traces in the :class:`~repro.obs.trace.FlightRecorder`, lifecycle edges
in the JSONL event log, and the last
:class:`~repro.serve.health.HealthReport`. :func:`write_debug_bundle`
snapshots all of it into one directory of small JSON files:

- ``manifest.json`` — wall time, host/python/numpy versions, pid, a
  server summary, and the list of files written.
- ``metrics.json`` — ``registry.export_dict()``.
- ``telemetry.json`` — ``TelemetryStore.dump()`` (rate history).
- ``alerts.json`` — per-rule alert state.
- ``flight_recorder.json`` — slowest + sampled traces.
- ``health.json`` — the most recent healthcheck report (never a live
  probe: bundles are written mid-failure, possibly from an alert
  callback on the sampler thread, and must not generate traffic).
- ``events_tail.jsonl`` — the tail of the configured event-log file.

Bundles are written on demand (ops, tests, CI ``if: failure()`` steps)
and automatically by the worker-death alert. :func:`load_bundle` reads
one back for the ops console, so a CI artifact triages on a laptop
exactly like a live server. Everything here duck-types against the
server (``metrics`` / ``telemetry`` / ``alerts`` / ``flight_recorder``
/ ``last_health`` attributes) — no import of ``repro.serve``.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from typing import Dict, List, Optional

from repro.obs.log import event_log_paths, log_event

__all__ = ["load_bundle", "write_debug_bundle"]

#: How many trailing event-log lines a bundle keeps.
DEFAULT_EVENT_TAIL = 200


def _json_default(value: object) -> object:
    return repr(value)


def _write_json(path: str, payload: object) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True,
                  default=_json_default)
        fh.write("\n")


def _tail_lines(path: str, limit: int) -> List[str]:
    try:
        with open(path, "r", errors="replace") as fh:
            lines = fh.readlines()
    except OSError:
        return []
    return [line.rstrip("\n") for line in lines[-limit:]]


def _server_summary(server: object) -> Dict[str, object]:
    """Best-effort identity of what the bundle describes.

    A network service is described by the server behind it (its
    ``server`` attribute). Process backends add their worker pids by
    shard index.
    """
    server = getattr(server, "server", server)
    summary: Dict[str, object] = {"type": type(server).__name__}
    shards = getattr(server, "shards", None)
    if shards is not None:
        summary["n_shards"] = len(shards)
    max_batch_traces = getattr(server, "max_batch_traces", None)
    if isinstance(max_batch_traces, int):
        summary["max_batch_traces"] = max_batch_traces
    backend = getattr(server, "backend", None)
    if backend is not None:
        summary["backend"] = type(backend).__name__
        pids = getattr(backend, "worker_pids", None)
        if pids:
            summary["worker_pids"] = dict(pids)
    return summary


def write_debug_bundle(bundle_dir: str, server: object = None, *,
                       registry=None, telemetry=None, alerts=None,
                       flight_recorder=None, health=None,
                       event_log_path: Optional[str] = None,
                       event_tail: int = DEFAULT_EVENT_TAIL,
                       reason: str = "on_demand") -> str:
    """Capture a postmortem bundle into ``bundle_dir``; returns the path.

    Pass a server (its ``metrics`` / ``telemetry`` / ``alerts`` /
    ``flight_recorder`` / ``last_health`` attributes supply the
    sources) or any subset of sources explicitly — explicit arguments
    win. Missing sources are skipped, never fatal: a bundle written
    mid-failure captures whatever is still standing. The directory is
    created if needed; existing files are overwritten (a re-captured
    bundle is the fresher one).
    """
    explicit = {"registry": registry, "telemetry": telemetry,
                "alerts": alerts, "flight_recorder": flight_recorder,
                "health": health}
    if server is not None:
        if registry is None:
            registry = getattr(server, "metrics", None)
        if telemetry is None:
            sampler = getattr(server, "telemetry", None)
            telemetry = getattr(sampler, "store", sampler)
        if alerts is None:
            alerts = getattr(server, "alerts", None)
        if flight_recorder is None:
            flight_recorder = getattr(server, "flight_recorder", None)
        if health is None:
            health = getattr(server, "last_health", None)

    os.makedirs(bundle_dir, exist_ok=True)
    written: List[str] = []

    def capture(filename: str, produce) -> None:
        try:
            payload = produce()
        except Exception as exc:  # noqa: BLE001 - partial bundles are fine
            payload = {"error": repr(exc)}
        if payload is None:
            return
        _write_json(os.path.join(bundle_dir, filename), payload)
        written.append(filename)

    if registry is not None:
        capture("metrics.json", registry.export_dict)
    if telemetry is not None:
        capture("telemetry.json", telemetry.dump)
    if alerts is not None:
        capture("alerts.json", alerts.snapshot)
    if flight_recorder is not None:
        capture("flight_recorder.json", flight_recorder.dump)
    if health is not None:
        capture("health.json",
                lambda: health.as_dict() if hasattr(health, "as_dict")
                else health)

    log_paths = ([event_log_path] if event_log_path
                 else event_log_paths())
    if log_paths:
        tail = _tail_lines(log_paths[-1], event_tail)
        if tail:
            tail_path = os.path.join(bundle_dir, "events_tail.jsonl")
            with open(tail_path, "w") as fh:
                fh.write("\n".join(tail) + "\n")
            written.append("events_tail.jsonl")

    try:
        numpy_version = __import__("numpy").__version__
    except Exception:  # noqa: BLE001 - manifest survives without numpy
        numpy_version = None
    manifest = {
        "reason": reason,
        "wall_time": time.time(),
        "wall_time_iso": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "pid": os.getpid(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": numpy_version,
        "argv": list(sys.argv),
        "server": (_server_summary(server)
                   if server is not None else None),
        "explicit_sources": sorted(k for k, v in explicit.items()
                                   if v is not None),
        "files": sorted(written),
    }
    _write_json(os.path.join(bundle_dir, "manifest.json"), manifest)
    log_event("obs", "debug_bundle_written", path=bundle_dir,
              reason=reason, files=len(written) + 1)
    return bundle_dir


def load_bundle(bundle_dir: str) -> Dict[str, object]:
    """Read a bundle directory back into one nested dict.

    Keys mirror the filenames (``manifest``, ``metrics``, ``telemetry``,
    ``alerts``, ``flight_recorder``, ``health``, plus ``events_tail``
    as a list of parsed JSON objects). Missing files are absent keys;
    a bundle is whatever survived the failure that produced it.
    """
    if not os.path.isdir(bundle_dir):
        raise FileNotFoundError(f"no bundle directory at {bundle_dir!r}")
    out: Dict[str, object] = {"path": os.path.abspath(bundle_dir)}
    for filename in ("manifest", "metrics", "telemetry", "alerts",
                     "flight_recorder", "health"):
        path = os.path.join(bundle_dir, filename + ".json")
        if not os.path.exists(path):
            continue
        try:
            with open(path, "r") as fh:
                out[filename] = json.load(fh)
        except (OSError, ValueError):
            continue
    tail_path = os.path.join(bundle_dir, "events_tail.jsonl")
    if os.path.exists(tail_path):
        events: List[object] = []
        for line in _tail_lines(tail_path, 10 ** 6):
            if not line.strip():
                continue
            try:
                events.append(json.loads(line))
            except ValueError:
                events.append({"raw": line})
        out["events_tail"] = events
    return out


def _probe_bundle(bundle_dir: str) -> str:
    """Build a tiny simulated server, serve a little traffic, bundle it.

    This is the CI diagnostic path (``python -m repro.obs.bundle <dir>
    --probe``): when a bench or smoke job fails, this captures what the
    serving stack looks like *on that runner*. Imports live here so the
    module itself stays serve-free.
    """
    import numpy as np

    from repro.readout import five_qubit_paper_device, generate_dataset
    from repro.serve import ServerConfig, build_sharded_server
    from repro.serve.loadgen import closed_loop

    device = five_qubit_paper_device()
    rng = np.random.default_rng(7)
    train, val, test = generate_dataset(
        device, shots_per_state=20, rng=rng).split(rng, 0.5, 0.1)
    server = build_sharded_server(
        ("mf",), train, val, n_shards=2,
        config=ServerConfig(telemetry_interval_s=0.05,
                            trace_sample_rate=0.5))
    with server:
        closed_loop(server, test, n_clients=2, requests_per_client=5,
                    traces_per_request=1)
        server.healthcheck()
        server.telemetry.sample_once()
        return write_debug_bundle(bundle_dir, server, reason="probe")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: ``python -m repro.obs.bundle <dir> [--probe]``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.bundle",
        description="write a debug bundle (use --probe to capture a "
                    "fresh simulated-serving snapshot, e.g. from CI)")
    parser.add_argument("bundle_dir", help="directory to write into")
    parser.add_argument("--probe", action="store_true",
                        help="spin up a small simulated server and "
                             "bundle its state")
    args = parser.parse_args(argv)
    if args.probe:
        path = _probe_bundle(args.bundle_dir)
    else:
        path = write_debug_bundle(args.bundle_dir, reason="cli")
    sys.stdout.write(path + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
