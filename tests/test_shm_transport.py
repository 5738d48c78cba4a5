"""The shared-memory data plane: codec round-trips, segment lifecycle,
and crash hygiene (leak detection + sweep).

The codec tests are property-based: any mix of cuboids and cells —
including the >63-bit tuple-key fallback and adversarial float measures
— must decode to exactly the dict the worker encoded, bit for bit.
"""

import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import KeyPacking
from repro.parallel.shm import (
    DEV_SHM,
    MAGIC,
    Segment,
    ShmTransport,
    decode_result,
    encode_result,
)

#: Finite float64 values, including signed zeros and subnormals —
#: every one must survive the segment round-trip bit-exactly.
finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


def assert_items_bit_identical(got, want):
    """Cuboid items equal, with float sums compared by their bits.

    Plain ``==`` would let ``-0.0`` pass for ``0.0``; the transport
    promises the exact bytes back.
    """
    assert len(got) == len(want)
    for (g_cuboid, g_cells), (w_cuboid, w_cells) in zip(got, want):
        assert g_cuboid == w_cuboid
        assert set(g_cells) == set(w_cells)
        for cell, (w_count, w_sum) in w_cells.items():
            g_count, g_sum = g_cells[cell]
            assert g_count == w_count
            assert struct.pack("<d", g_sum) == struct.pack("<d", w_sum)


@st.composite
def packed_payloads(draw):
    """(items, dims, packing) whose cardinalities fit the 63-bit budget."""
    cards = draw(st.lists(st.integers(1, 50), min_size=1, max_size=4))
    dims = tuple("d%d" % i for i in range(len(cards)))
    packing = KeyPacking.plan(cards)
    assert packing is not None
    items = []
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(cards)))
        positions = draw(st.permutations(range(len(cards))))[:k]
        cells = draw(st.dictionaries(
            st.tuples(*[st.integers(0, cards[p] - 1) for p in positions]),
            st.tuples(st.integers(1, 2 ** 40), finite_floats),
            max_size=15,
        ))
        items.append((tuple(dims[p] for p in positions), cells))
    return items, dims, packing


@st.composite
def overflow_payloads(draw):
    """(items, dims) for relations past the packed-key budget: codes are
    arbitrary int64-range values and the frame has ``packing=None``."""
    n_dims = draw(st.integers(1, 3))
    dims = tuple("d%d" % i for i in range(n_dims))
    items = []
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, n_dims))
        positions = draw(st.permutations(range(n_dims)))[:k]
        cells = draw(st.dictionaries(
            st.tuples(*[st.integers(0, 2 ** 62 - 1) for _ in positions]),
            st.tuples(st.integers(1, 2 ** 60), finite_floats),
            max_size=15,
        ))
        items.append((tuple(dims[p] for p in positions), cells))
    return items, dims


class TestCodecRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(payload=packed_payloads())
    def test_packed_mode_round_trips_exactly(self, payload):
        items, dims, packing = payload
        buf = encode_result(items, dims, packing)
        got = decode_result(buf, dims, packing)
        assert_items_bit_identical(got, items)

    @settings(max_examples=150, deadline=None)
    @given(payload=overflow_payloads())
    def test_tuple_key_overflow_mode_round_trips_exactly(self, payload):
        # packing=None is what a frame whose cardinalities blow the
        # 63-bit budget carries: every coordinate rides as its own int64.
        items, dims = payload
        buf = encode_result(items, dims, packing=None)
        got = decode_result(buf, dims, packing=None)
        assert_items_bit_identical(got, items)

    def test_adversarial_floats_survive(self):
        # Signed zero, subnormal, huge, and ulp-adjacent sums must all
        # come back on the *right* cells, in the writer's order.
        dims = ("A", "B")
        packing = KeyPacking.plan([4, 4])
        cells = {
            (0, 0): (1, -0.0),
            (1, 2): (2, 5e-324),
            (2, 1): (3, 1.7976931348623157e308),
            (3, 3): (4, 1.0 + 2 ** -52),
        }
        items = [(("A", "B"), cells), (("B",), {(2,): (7, -1.5)})]
        got = decode_result(encode_result(items, dims, packing),
                            dims, packing)
        assert_items_bit_identical(got, items)
        # Order inside each cuboid is preserved (dict insertion order).
        assert list(got[0][1]) == list(cells)

    def test_empty_items(self):
        assert decode_result(encode_result([], ("A",), None), ("A",),
                             None) == []

    def test_empty_cuboid_cells(self):
        packing = KeyPacking.plan([3])
        items = [(("A",), {})]
        got = decode_result(encode_result(items, ("A",), packing),
                            ("A",), packing)
        assert got == items

    def test_bad_magic_rejected(self):
        buf = bytearray(encode_result([], ("A",), None))
        buf[0] ^= 0xFF
        with pytest.raises(ValueError):
            decode_result(bytes(buf), ("A",), None)

    def test_packed_segment_needs_packing_to_decode(self):
        packing = KeyPacking.plan([3, 3])
        buf = encode_result([(("A", "B"), {(1, 2): (1, 1.0)})],
                            ("A", "B"), packing)
        with pytest.raises(ValueError):
            decode_result(buf, ("A", "B"), None)
        assert MAGIC == struct.unpack_from("<I", buf)[0]


class TestSegments:
    def test_create_attach_round_trip(self):
        transport = ShmTransport("t-rt")
        try:
            payload = bytes(range(256)) * 4
            segment = transport.create(len(payload), tag="x")
            segment.buf[:] = payload
            descriptor = segment.descriptor
            segment.close()
            # The descriptor is all that crosses the pipe.
            other = transport.attach(descriptor)
            assert bytes(other.buf) == payload
            other.unlink()
            assert transport.leaked_segments() == []
        finally:
            transport.sweep()

    def test_empty_segment_is_inline(self):
        transport = ShmTransport("t-empty")
        try:
            segment = transport.create(0)
            assert segment.descriptor == ("empty", "", 0)
            attached = transport.attach(segment.descriptor)
            assert bytes(attached.buf) == b""
        finally:
            transport.sweep()

    def test_create_without_shared_memory_is_an_oserror(self, monkeypatch):
        # The one signal callers fall back to the pipe on, whether the
        # platform lacks the module or the OS refuses the segment.
        from repro.parallel import shm

        monkeypatch.setattr(shm, "_shared_memory", None)
        transport = ShmTransport("t-none")
        with pytest.raises(OSError):
            transport.create(64)
        assert transport.create(0).descriptor == ("empty", "", 0)
        assert transport.leaked_segments() == []
        assert transport.sweep() == 0

    def test_transport_pickles_for_initargs(self):
        transport = ShmTransport("t-pkl")
        clone = pickle.loads(pickle.dumps(transport))
        assert (clone.run_id, clone.prefix) == ("t-pkl", transport.prefix)
        # Names stay unique across processes: the pid is baked into
        # every segment name (clones are unpickled in other processes).
        import os
        segment = clone.create(8, tag="a")
        assert segment.kind == "shm"
        assert "-%d-" % os.getpid() in segment.name
        # A clone attaches what the original created, and the other way
        # round: only names cross the pipe.
        attached = transport.attach(segment.descriptor)
        assert attached.nbytes == 8
        attached.close()
        segment.unlink()
        assert transport.sweep() == 0

    def test_unknown_descriptor_kind_rejected(self):
        transport = ShmTransport("t-kind")
        try:
            with pytest.raises(ValueError):
                transport.attach(("smoke-signal", "x", 8))
        finally:
            transport.sweep()

    def test_unlink_tolerates_already_gone(self):
        # Sweeps race the parent's own unlink; second removal is a no-op.
        transport = ShmTransport("t-gone")
        try:
            segment = transport.create(16)
            descriptor = segment.descriptor
            segment.unlink()
            again = Segment(descriptor[0], descriptor[1], 0, None)
            again.unlink()  # already gone: must not raise
            assert transport.sweep() == 0
        finally:
            transport.sweep()


class TestCrashHygiene:
    """A writer SIGKILLed mid-write leaks a half-written segment; the
    supervisor's sweep must find and reclaim exactly it."""

    def test_leak_detect_and_sweep(self):
        transport = ShmTransport("t-leak")
        try:
            orphan = transport.create(128, tag="orphan")
            orphan.buf[:4] = b"dead"  # half-written, descriptor lost
            orphan.close()
            keep = transport.create(128, tag="frame")
            leaked = transport.leaked_segments(exclude=(keep.name,))
            assert leaked != []
            assert keep.name not in leaked
            assert transport.sweep(exclude=(keep.name,)) == len(leaked)
            # The excluded (live) segment survived the sweep.
            survivor = transport.attach(keep.descriptor)
            assert survivor.nbytes == 128
            survivor.close()
            keep.unlink()
        finally:
            transport.sweep()

    def test_sweep_reclaims_a_segment_killed_before_it_was_sized(self):
        # A creator SIGKILLed/terminated between shm_open and ftruncate
        # leaves a zero-length segment: it cannot be mapped (so not
        # attached), but the sweep must still remove it, not raise.
        import os
        if not os.path.isdir(DEV_SHM):
            pytest.skip("no %s on this platform" % DEV_SHM)
        transport = ShmTransport("t-zero")
        path = os.path.join(DEV_SHM, transport.prefix + "b2-1-1")
        try:
            open(path, "wb").close()
            assert transport.leaked_segments() == [os.path.basename(path)]
            assert transport.sweep() == 1
            assert not os.path.exists(path)
        finally:
            if os.path.exists(path):
                os.unlink(path)
            transport.sweep()

    def test_sweep_ignores_other_runs(self):
        ours = ShmTransport("t-mine")
        theirs = ShmTransport("t-theirs")
        try:
            foreign = theirs.create(64)
            assert ours.sweep() == 0
            assert bytes(foreign.buf) == b"\x00" * 64
            foreign.unlink()
        finally:
            ours.sweep()
            theirs.sweep()
