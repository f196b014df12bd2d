"""TraceRing tests: layout, round-trips, attach, and lifecycle."""

import numpy as np
import pytest

from repro.serve.shm import RingSpec, TraceRing


@pytest.fixture
def ring():
    ring = TraceRing.create(n_slots=2, capacity=8, trace_shape=(3, 2, 10),
                            dtype=np.float64, n_designs=2)
    yield ring
    ring.close()
    ring.unlink()


class TestRoundTrip:
    def test_request_round_trip_is_bit_exact(self, ring):
        batch = np.random.default_rng(0).normal(size=(5, 3, 2, 10))
        n = ring.write_request_at(1, 0, batch)
        assert n == 5
        np.testing.assert_array_equal(ring.request_view(1, 5), batch)

    def test_response_round_trip_per_design(self, ring):
        # The worker writes each design's bits through response views (as
        # predict_traces_into does); the parent reads them back the same way.
        rng = np.random.default_rng(1)
        bits = {"mf": rng.integers(0, 2, (5, 3)),
                "centroid": rng.integers(0, 2, (5, 3))}
        for d, name in enumerate(("mf", "centroid")):
            ring.response_view(0, d, 0, 5)[:] = bits[name]
        for d, name in enumerate(("mf", "centroid")):
            np.testing.assert_array_equal(ring.response_view(0, d, 0, 5),
                                          bits[name])

    def test_slots_do_not_alias(self, ring):
        a = np.zeros((8, 3, 2, 10))
        b = np.ones((8, 3, 2, 10))
        ring.write_request_at(0, 0, a)
        ring.write_request_at(1, 0, b)
        np.testing.assert_array_equal(ring.request_view(0, 8), a)
        np.testing.assert_array_equal(ring.request_view(1, 8), b)
        ring.response_view(0, 0, 0, 8)[:] = 1
        ring.response_view(1, 0, 0, 8)[:] = 0
        np.testing.assert_array_equal(ring.response_view(0, 0, 0, 8), 1)

    def test_segmented_writes_compose_one_contiguous_batch(self, ring):
        # The coalescing submit path: two micro-batches packed back to
        # back into one slot read back as a single contiguous batch.
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 3, 2, 10))
        b = rng.normal(size=(4, 3, 2, 10))
        assert ring.write_request_at(0, 0, a) == 3
        assert ring.write_request_at(0, 3, b) == 4
        combined = ring.request_view(0, 7)
        np.testing.assert_array_equal(combined[:3], a)
        np.testing.assert_array_equal(combined[3:], b)

    def test_offset_write_casts_into_ring_dtype(self, ring):
        batch = np.ones((2, 3, 2, 10), dtype=np.float32)
        ring.write_request_at(1, 4, batch)     # ring is float64
        np.testing.assert_array_equal(ring.request_view(1, 6)[4:], 1.0)

    def test_offset_write_past_capacity_rejected(self, ring):
        with pytest.raises(ValueError, match="does not fit"):
            ring.write_request_at(0, 6, np.zeros((3, 3, 2, 10)))
        with pytest.raises(ValueError, match="does not fit"):
            ring.write_request_at(0, -1, np.zeros((1, 3, 2, 10)))

    def test_response_view_is_zero_copy_per_segment(self, ring):
        ring.response_view(0, 0, 0, 5)[:] = np.arange(15).reshape(5, 3)
        view = ring.response_view(0, 0, 2, 3)      # design 0, rows 2..4
        np.testing.assert_array_equal(view, np.arange(6, 15).reshape(3, 3))
        view[:] = -1                                # writes through
        np.testing.assert_array_equal(ring.response_view(0, 0, 0, 5)[2:], -1)
        np.testing.assert_array_equal(ring.response_view(0, 0, 0, 2),
                                      np.arange(6).reshape(2, 3))


class TestAttach:
    def test_attached_ring_shares_memory(self, ring):
        batch = np.random.default_rng(2).normal(size=(3, 3, 2, 10))
        ring.write_request_at(0, 0, batch)
        other = TraceRing.attach(ring.spec.as_dict())
        try:
            np.testing.assert_array_equal(other.request_view(0, 3), batch)
            other.response_view(0, 0, 0, 3)[:] = 1
            other.response_view(0, 1, 0, 3)[:] = 0
            np.testing.assert_array_equal(ring.response_view(0, 0, 0, 3), 1)
            np.testing.assert_array_equal(ring.response_view(0, 1, 0, 3), 0)
        finally:
            other.close()

    def test_attach_side_never_unlinks(self, ring):
        other = TraceRing.attach(ring.spec.as_dict())
        other.unlink()               # non-owner: must be a no-op
        other.close()
        # The segment is still usable by the owner.
        ring.write_request_at(0, 0, np.zeros((1, 3, 2, 10)))


class TestFit:
    def test_fits_checks_count_shape_and_dtype(self, ring):
        batch = np.zeros((4, 3, 2, 10))
        assert ring.fits(batch, 8)                  # a coalesced group
        assert not ring.fits(batch, 9)              # too many traces
        assert not ring.fits(np.zeros((4, 3, 2, 12)), 4)      # wrong bins
        assert not ring.fits(np.zeros((4, 3, 2, 10), dtype=np.float32), 4)


class TestValidation:
    @pytest.mark.parametrize("kwargs, match", [
        (dict(n_slots=0, capacity=4, trace_shape=(2, 2, 5),
              dtype=np.float64, n_designs=1), "n_slots"),
        (dict(n_slots=1, capacity=0, trace_shape=(2, 2, 5),
              dtype=np.float64, n_designs=1), "capacity"),
        (dict(n_slots=1, capacity=4, trace_shape=(2, 3, 5),
              dtype=np.float64, n_designs=1), "trace_shape"),
        (dict(n_slots=1, capacity=4, trace_shape=(2, 2, 5),
              dtype=np.float64, n_designs=0), "n_designs"),
    ])
    def test_bad_geometry_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            TraceRing.create(**kwargs)

    def test_close_is_idempotent(self):
        ring = TraceRing.create(n_slots=1, capacity=1, trace_shape=(1, 2, 4),
                                dtype=np.float32, n_designs=1)
        ring.close()
        ring.close()
        ring.unlink()
        ring.unlink()

    def test_spec_survives_dict_round_trip(self, ring):
        spec = RingSpec(**ring.spec.as_dict())
        assert spec == ring.spec
