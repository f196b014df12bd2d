"""Load generator tests: determinism, accounting, arrival disciplines."""

import numpy as np
import pytest

from repro.serve import ServerConfig, closed_loop, open_loop
from repro.serve.loadgen import LoadReport, _payloads


@pytest.fixture(scope="module")
def served(request):
    from repro.serve import build_sharded_server
    train, val, test = request.getfixturevalue("small_splits")
    server = build_sharded_server(("mf",), train, val, n_shards=1,
                                  config=ServerConfig(max_wait_ms=0.5))
    with server:
        yield server, test


class TestPayloads:
    def test_deterministic_given_seed(self, small_splits):
        _, _, test = small_splits
        a = _payloads(test.demod, 10, 2, np.random.default_rng(7))
        b = _payloads(test.demod, 10, 2, np.random.default_rng(7))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_single_trace_payloads_are_unbatched(self, small_splits):
        _, _, test = small_splits
        payloads = _payloads(test.demod, 4, 1, np.random.default_rng(0))
        assert all(p.ndim == 3 for p in payloads)

    def test_multi_trace_payloads(self, small_splits):
        _, _, test = small_splits
        payloads = _payloads(test.demod, 4, 3, np.random.default_rng(0))
        assert all(p.shape[0] == 3 for p in payloads)


class TestClosedLoop:
    def test_accounting(self, served):
        server, test = served
        report = closed_loop(server, test, n_clients=3,
                             requests_per_client=10, traces_per_request=2,
                             seed=1)
        assert report.requests == 30
        assert report.completed == 30
        assert report.rejected == 0
        assert report.traces_done == 60
        assert report.latencies_s.shape == (30,)
        assert report.throughput_rps() > 0
        assert report.traces_per_s() == pytest.approx(
            2 * report.throughput_rps())

    def test_summary_keys(self, served):
        server, test = served
        report = closed_loop(server, test, n_clients=2,
                             requests_per_client=5, seed=2)
        summary = report.summary()
        for key in ("throughput_rps", "traces_per_s", "p50_ms", "p99_ms"):
            assert key in summary
        assert summary["p50_ms"] <= summary["p99_ms"]


class TestOpenLoop:
    def test_uniform_pacing_completes_all(self, served):
        server, test = served
        report = open_loop(server, test, rate_rps=2000.0, n_requests=40,
                           pattern="uniform", seed=3)
        assert report.completed == 40
        assert report.pattern == "open-loop/uniform"
        # 40 requests paced 0.5 ms apart occupy at least ~20 ms.
        assert report.elapsed_s >= 0.015

    def test_poisson_arrivals(self, served):
        server, test = served
        report = open_loop(server, test, rate_rps=3000.0, n_requests=30,
                           pattern="poisson", seed=4)
        assert report.completed + report.rejected == 30

    def test_unknown_pattern_rejected(self, served):
        server, test = served
        with pytest.raises(ValueError, match="pattern"):
            open_loop(server, test, pattern="bursty")


class TestFailureAccounting:
    def test_engine_failures_are_counted_not_fatal(self, small_splits):
        from repro.engine import EngineStats
        from repro.readout import plan_feedlines
        from repro.serve import ReadoutServer, ServeShard

        train, _, test = small_splits

        class _FailingEngine:
            design_names = ["mf"]
            stats = EngineStats()

            def predict_traces_into(self, demod, device, out):
                raise RuntimeError("shard exploded")

        shard = ServeShard(feedline=plan_feedlines(test.n_qubits, 1)[0],
                           engine=_FailingEngine(), device=test.device)
        with ReadoutServer([shard], ServerConfig(max_wait_ms=0.0)) as server:
            report = closed_loop(server, test, n_clients=2,
                                 requests_per_client=4, seed=6)
        assert report.completed == 0
        assert report.failed == 8
        assert report.summary()["failed"] == 8


class TestReportMath:
    def test_empty_latencies(self):
        report = LoadReport(pattern="x", requests=0, completed=0,
                            rejected=0, traces_done=0, elapsed_s=0.0)
        assert np.isnan(report.latency_ms(50))
        assert report.throughput_rps() == 0.0

    def test_percentile_math_pinned(self):
        # 2000 known latencies: every percentile is an exact function of
        # np.percentile over the full (unwindowed) retained array, so
        # p999 is a real order statistic, not an extrapolation.
        latencies_s = np.arange(1, 2001) / 1000.0   # 1ms .. 2000ms
        report = LoadReport(pattern="x", requests=2000, completed=2000,
                            rejected=0, traces_done=2000, elapsed_s=2.0,
                            latencies_s=latencies_s)
        for percentile in (50, 95, 99, 99.9):
            expected = 1000.0 * float(np.percentile(latencies_s, percentile))
            assert report.latency_ms(percentile) == pytest.approx(expected)
        assert report.latency_ms(99.9) == pytest.approx(1998.001)

    def test_summary_reports_full_tail(self):
        report = LoadReport(pattern="x", requests=4, completed=4,
                            rejected=0, traces_done=4, elapsed_s=1.0,
                            latencies_s=np.array([0.001, 0.002, 0.003, 0.1]))
        summary = report.summary()
        assert (summary["p50_ms"] <= summary["p95_ms"]
                <= summary["p99_ms"] <= summary["p999_ms"])
        assert summary["p999_ms"] == pytest.approx(100.0, rel=0.01)
