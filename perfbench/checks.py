"""Correctness: a bit-exact oracle, F_NQ, and accounting reconciliation.

All of it runs after the timed phase. The oracle is an in-process float32
:class:`~repro.engine.ReadoutEngine` per shard over the same fitted
pipelines the server serves; a served response that differs from it in
any bit is a failed operation.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core import metrics
from repro.engine import ReadoutEngine
from repro.serve import ProcessShardBackend

from workloads import FIDELITY_DESIGN

#: An open-loop phase keeps up with its offered load when its completion
#: rate is within this share of the offered rate...
RATE_TOLERANCE = 0.05
#: ...and its last request finishes within this many batching deadlines
#: of its due time (50 ms on the default 2 ms deadline). A server short by
#: 1% of the offered rate is 0.2 s behind by the end of a 20 s phase.
DRAIN_DEADLINES = 25


def oracle_bits(deployment, design_names: Sequence[str]) -> np.ndarray:
    """``(n_traffic_traces, n_designs, n_qubits)`` int8 reference bits."""
    traffic = deployment.traffic
    out = np.zeros((traffic.n_traces, len(design_names), traffic.n_qubits),
                   dtype=np.int8)
    for shard in deployment.shards:
        columns = list(shard.feedline.qubit_indices)
        engine = ReadoutEngine(shard.engine.pipelines, dtype=np.float32)
        bits = engine.predict_traces(traffic.demod[:, columns], shard.device)
        for d, name in enumerate(design_names):
            out[:, d, columns] = bits[name]
    return out


def wrong_requests(phase, oracle: np.ndarray) -> np.ndarray:
    """Mask of completed requests whose bits differ from the oracle."""
    expected = oracle[phase.rows].transpose(0, 2, 1, 3)   # (n, D, m, Q)
    differs = (phase.bits() != expected).any(axis=(1, 2, 3))
    return differs & phase.ok


def served_fidelity(phases, traffic, design_names: Sequence[str]) -> float:
    """F_NQ of the served fidelity-design bits against simulator labels."""
    d = list(design_names).index(FIDELITY_DESIGN)
    preds, labels = [], []
    for phase in phases:
        ok = phase.ok
        preds.append(phase.bits()[ok, d].reshape(-1, traffic.n_qubits))
        labels.append(traffic.labels[phase.rows[ok].ravel()])
    accuracy = metrics.per_qubit_accuracy(np.concatenate(preds),
                                          np.concatenate(labels))
    return metrics.cumulative_accuracy(accuracy)


def _served_groups(traffic, phases):
    """Served traces as ``(traffic rows, times served)`` groups.

    Multi-trace requests cycle through a few fixed stacks, so each
    distinct stack is a group. Single traces are grouped by how often
    their row was served, which keeps groups few and large.
    """
    rows = np.concatenate([phase.rows[phase.ok] for phase in phases])
    if rows.shape[1] > 1:
        stacks, counts = np.unique(rows, axis=0, return_counts=True)
        return list(zip(stacks, counts))
    counts = np.bincount(rows.ravel(), minlength=traffic.n_traces)
    return [(np.flatnonzero(counts == count), count)
            for count in np.unique(counts[counts > 0])]


def evaluate_fidelity(deployment, phases) -> float:
    """What ``ReadoutEngine.evaluate`` reports on the served traces.

    The served traces repeat traffic rows, so each group of rows is
    evaluated once and its per-qubit accuracy weighted by the traces it
    stands for — the accuracy over the whole served multiset without
    materialising it.
    """
    traffic = deployment.traffic
    engines = [(list(shard.feedline.qubit_indices),
                ReadoutEngine(shard.engine.pipelines, dtype=np.float32))
               for shard in deployment.shards]
    weighted = np.zeros(traffic.n_qubits)
    total = 0
    for rows, count in _served_groups(traffic, phases):
        subset = traffic.subset(rows)
        total += count * subset.n_traces
        for columns, engine in engines:
            result = engine.evaluate(subset.select_qubits(columns))
            weighted[columns] += (count * subset.n_traces
                                  * result[FIDELITY_DESIGN].per_qubit)
    return metrics.cumulative_accuracy(weighted / total)


def reconcile(server=None, service=None) -> List[str]:
    """Accounting problems of a stopped server and/or service."""
    problems = []
    if server is not None:
        stats = server.stats.snapshot()
        outcomes = (stats["completed"] + stats["failed"] + stats["rejected"]
                    + stats["shed"])
        if stats["submitted"] != outcomes:
            problems.append(f"server submitted {stats['submitted']} != "
                            f"completed+failed+rejected+shed {outcomes}")
        if isinstance(server.backend, ProcessShardBackend):
            dirty = {i: code for i, code in server.backend.exit_codes.items()
                     if code != 0}
            if dirty:
                problems.append(f"worker exit codes {dirty}")
    if service is not None:
        net = service.net_stats.snapshot()
        if net["requests_in"] != net["responses_out"]:
            problems.append(f"net requests_in {net['requests_in']} != "
                            f"responses_out {net['responses_out']}")
    return problems


def open_loop_problems(workload, phase, max_wait_ms: float) -> List[str]:
    """Backlog in a measured open-loop phase: the server fell behind."""
    offered = workload.rate_per_s * workload.traces_per_request
    served = phase.throughput_traces_per_s()
    problems = []
    if abs(served / offered - 1.0) > RATE_TOLERANCE:
        problems.append(f"served {served:.1f} traces/s against an offered "
                        f"{offered:.1f}")
    late_s = float(np.nanmax(phase.done) - phase.due[-1])
    if late_s > DRAIN_DEADLINES * max_wait_ms / 1e3:
        problems.append(f"last request finished {1e3 * late_s:.1f} ms after "
                        f"its due time")
    return problems


def check_phases(deployment, phases, design_names) -> Dict[str, object]:
    """Oracle-check every phase; returns counts and F_NQ figures."""
    oracle = oracle_bits(deployment, design_names)
    attempted = sum(p.attempted for p in phases)
    not_ok = sum(int((~p.ok).sum()) for p in phases)
    wrong = sum(int(wrong_requests(p, oracle).sum()) for p in phases)
    return {
        "attempted": attempted,
        "failed": not_ok + wrong,
        "wrong_bits": wrong,
        "fidelity": served_fidelity(phases, deployment.traffic, design_names),
        "evaluate_fidelity": evaluate_fidelity(deployment, phases),
    }
