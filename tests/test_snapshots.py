import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fttpde import snapshots
from fttpde.ftt import to_full
from fttpde.grids import torus_domain

from conftest import random_ftt


def test_round_trip_bit_identical(tmp_path, rng):
    dom = torus_domain(3, 9)
    u = random_ftt(dom, (1, 3, 2, 1), rng)
    path = tmp_path / "u.fttsnap"
    snapshots.save(u, path)
    v = snapshots.load(path)
    assert v.ranks == u.ranks
    for a, b in zip(u.cores, v.cores):
        assert a.tobytes() == b.tobytes()
    snapshots.save(v, tmp_path / "v.fttsnap")
    assert (tmp_path / "u.fttsnap").read_bytes() == (tmp_path / "v.fttsnap").read_bytes()


def test_magic_header(tmp_path, rng):
    dom = torus_domain(2, 7)
    u = random_ftt(dom, (1, 2, 1), rng)
    path = tmp_path / "u.fttsnap"
    snapshots.save(u, path)
    assert path.read_bytes()[:8] == b"FTTSNAP1"


def test_values_preserved(tmp_path, rng):
    dom = torus_domain(2, 7)
    u = random_ftt(dom, (1, 2, 1), rng)
    path = tmp_path / "u.fttsnap"
    snapshots.save(u, path)
    assert np.array_equal(to_full(snapshots.load(path)), to_full(u))


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.fttsnap"
    path.write_bytes(b"NOTASNAP" + b"\x00" * 64)
    with pytest.raises(snapshots.SnapshotFormatError):
        snapshots.load(path)


def test_truncated_file_rejected(tmp_path, rng):
    dom = torus_domain(2, 7)
    u = random_ftt(dom, (1, 2, 1), rng)
    path = tmp_path / "u.fttsnap"
    snapshots.save(u, path)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(snapshots.SnapshotFormatError):
        snapshots.load(path)


def test_describe(tmp_path, rng):
    dom = torus_domain(3, 9)
    u = random_ftt(dom, (1, 2, 3, 1), rng)
    path = tmp_path / "u.fttsnap"
    snapshots.save(u, path)
    info = snapshots.describe(path)
    assert info["d"] == 3
    assert info["ranks"] == [1, 2, 3, 1]
    assert info["axes"][0]["n"] == 9


def header(axes, ranks):
    """FTTSNAP1 header for (n, a, b) axes and the given ranks."""
    out = snapshots.MAGIC + struct.pack("<q", len(axes))
    for n, a, b in axes:
        out += struct.pack("<qdd", n, a, b)
    return out + struct.pack(f"<{len(ranks)}q", *ranks)


TWO_PI = 2 * np.pi
GOOD_AXES = [(5, 0.0, TWO_PI), (5, 0.0, TWO_PI)]
GOOD_CORES = b"\x00" * 8 * (5 + 5)


@pytest.mark.parametrize(
    "data",
    [
        b"FTTSNAP1\x02\x00",
        header([(5, 0.0, 1.0)], (1, 1)) + b"\x00" * 40,
        header([(-5, 0.0, 1.0), (5, 0.0, 1.0)], (1, 1, 1)),
        header([(5, 1.0, 1.0), (5, 0.0, 1.0)], (1, 1, 1)) + GOOD_CORES,
        header([(5, -1e308, 1e308), (5, 0.0, 1.0)], (1, 1, 1)) + GOOD_CORES,
        header(GOOD_AXES, (2, 1, 1)) + GOOD_CORES,
        header(GOOD_AXES, (1, 0, 1)),
        header(GOOD_AXES, (1, 1, 1)) + GOOD_CORES + b"\x00",
        header(GOOD_AXES, (1, 1, 1)) + GOOD_CORES[:-8],
    ],
    ids=["short", "d=1", "n<3", "empty-interval", "infinite-length",
         "r0!=1", "zero-rank", "trailing-bytes", "missing-bytes"],
)
def test_malformed_header_rejected(tmp_path, data):
    path = tmp_path / "bad.fttsnap"
    path.write_bytes(data)
    for read in (snapshots.load, snapshots.describe):
        with pytest.raises(snapshots.SnapshotFormatError):
            read(path)


def test_huge_declared_grid_rejected_before_allocation(tmp_path, monkeypatch):
    def no_grid(*args):
        raise AssertionError("grid built before the length check")

    monkeypatch.setattr(snapshots, "make_periodic_grid", no_grid)
    path = tmp_path / "huge.fttsnap"
    path.write_bytes(header([(10**9, 0.0, TWO_PI)] * 2, (1, 1, 1)) + GOOD_CORES)
    with pytest.raises(snapshots.SnapshotFormatError):
        snapshots.load(path)


def test_load_memory_is_linear_in_file_size(tmp_path):
    # a rank-1 file with n = 1000 on both axes is ~16 KB; n x n grid
    # matrices would take 8 MB each
    n = 1000
    path = tmp_path / "wide.fttsnap"
    path.write_bytes(header([(n, 0.0, TWO_PI)] * 2, (1, 1, 1)) + b"\x00" * 8 * 2 * n)
    tracemalloc.start()
    try:
        u = snapshots.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u.ranks == (1, 1, 1)
    assert peak < 2 * 2**20


# near-valid headers reach the checks past d; arbitrary bytes rarely do
near_valid = st.builds(
    lambda axes, ranks, tail: header(axes, ranks)[8:] + tail,
    st.lists(st.tuples(st.integers(-2, 7), st.floats(), st.floats()), max_size=3),
    st.lists(st.integers(-1, 3), min_size=1, max_size=4),
    st.binary(max_size=200),
)


@given(body=st.one_of(st.binary(max_size=400), near_valid))
@settings(max_examples=300, deadline=None)
def test_loader_raises_only_format_error(tmp_path_factory, body):
    path = tmp_path_factory.mktemp("fuzz") / "x.fttsnap"
    path.write_bytes(snapshots.MAGIC + body)
    try:
        snapshots.load(path)
    except snapshots.SnapshotFormatError:
        pass
