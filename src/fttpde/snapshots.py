"""Self-describing binary container for tensor-train snapshots.

FTTSNAP1 byte layout (all integers int64 little-endian, floats IEEE-754
float64 little-endian):

    bytes 0..7      magic b"FTTSNAP1"
    int64           d (number of axes)
    d * (int64 n, float64 a, float64 b)     per-axis node count and interval
    (d+1) * int64   interface ranks r_0..r_d
    d core arrays   float64 values in C (row-major) order, core k having
                    shape (r_{k-1}, n_k, r_k)

The loader accepts only d >= 2, n >= 3, a finite interval a < b, ranks
r_0 = r_d = 1 and all >= 1, and exactly the declared core bytes; anything
else raises SnapshotFormatError before core data is allocated.

Round trips are bit-identical: load(save(u)) reproduces the exact core
bytes that were written.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .ftt import FttTensor
from .grids import Domain, make_periodic_grid

MAGIC = b"FTTSNAP1"


class SnapshotFormatError(ValueError):
    """File is not a valid FTTSNAP1 container."""


def save(u: FttTensor, path) -> None:
    d = u.ndim
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<q", d))
        for g in u.domain.axes:
            fh.write(struct.pack("<qdd", g.n, g.a, g.b))
        fh.write(struct.pack(f"<{d + 1}q", *u.ranks))
        for core in u.cores:
            fh.write(np.ascontiguousarray(core, dtype="<f8").tobytes())


def _read(fh, size: int) -> bytes:
    buf = fh.read(size)
    if len(buf) != size:
        raise SnapshotFormatError("truncated file")
    return buf


def _read_header(fh):
    """Parse and check the header, leaving fh at the first core byte.

    Returns the per-axis (n, a, b) triples and the ranks.  Every declared
    size is checked against the file length before anything is allocated.
    """
    size = os.fstat(fh.fileno()).st_size
    magic = fh.read(8)
    if magic != MAGIC:
        raise SnapshotFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    (d,) = struct.unpack("<q", _read(fh, 8))
    if d < 2:
        raise SnapshotFormatError(f"need d >= 2 axes, got d={d}")
    header_bytes = 16 + 24 * d + 8 * (d + 1)
    if header_bytes > size:
        raise SnapshotFormatError(f"file of {size} bytes is too short for d={d}")
    axes = [struct.unpack("<qdd", _read(fh, 24)) for _ in range(d)]
    for n, a, b in axes:
        if n < 3:
            raise SnapshotFormatError(f"need n >= 3 nodes per axis, got n={n}")
        if not (b > a and math.isfinite(b - a)):
            raise SnapshotFormatError(f"bad interval [{a}, {b})")
    ranks = struct.unpack(f"<{d + 1}q", _read(fh, 8 * (d + 1)))
    if ranks[0] != 1 or ranks[-1] != 1 or min(ranks) < 1:
        raise SnapshotFormatError(f"bad ranks {list(ranks)}: need r_0 = r_d = 1, all >= 1")
    core_bytes = 8 * sum(ranks[k] * axes[k][0] * ranks[k + 1] for k in range(d))
    if core_bytes != size - header_bytes:
        raise SnapshotFormatError(
            f"header declares {core_bytes} core bytes, file holds {size - header_bytes}"
        )
    return axes, ranks


def load(path) -> FttTensor:
    with open(path, "rb") as fh:
        axes, ranks = _read_header(fh)
        grids = tuple(make_periodic_grid(n, a, b) for n, a, b in axes)
        cores = []
        for k, g in enumerate(grids):
            shape = (ranks[k], g.n, ranks[k + 1])
            buf = _read(fh, 8 * shape[0] * shape[1] * shape[2])
            cores.append(np.frombuffer(buf, dtype="<f8").reshape(shape).copy())
    return FttTensor(cores, Domain(axes=grids))


def describe(path) -> dict:
    """Header summary; reads and checks the header only."""
    with open(path, "rb") as fh:
        axes, ranks = _read_header(fh)
    return {
        "d": len(axes),
        "axes": [{"n": n, "interval": [a, b]} for n, a, b in axes],
        "ranks": list(ranks),
    }
