"""Deterministic random-number streams for reproducible simulation.

Every unit of simulation work (a realized world, a sampled dataset, a Monte
Carlo replicate) draws from its own counter-keyed Philox stream, so results
are bit-for-bit reproducible and any replicate can be rebuilt on its own.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_BYTE = np.uint64(0xFF)


def substream(seed: int, lane: int, index: int = 0) -> np.random.Generator:
    """Return an independent generator keyed by (seed, lane, index).

    ``lane`` separates purposes (world realization, dataset sampling, harness
    checks, ...) and ``index`` separates replicates within a purpose. The
    mapping is pure, so any replicate can be rebuilt on its own from its
    ``index``.
    """
    if lane < 0 or index < 0:
        raise ValueError("lane and index must be nonnegative")
    key = np.array(
        [seed & _MASK64, ((lane & _MASK32) << 32) | (index & _MASK32)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def split_uniform(u: np.ndarray, streams: int) -> np.ndarray:
    """Split one uniform draw into ``streams`` independent uniform draws.

    The 53 mantissa bits of each value are dealt round-robin (most
    significant first) to the output streams. Because the streams read
    disjoint bit sets of a uniform variable, they are exactly independent;
    each is uniform on a centered dyadic grid of 53 // streams or more bits.

    Stream s collects ``width[s]`` bits into an integer ``acc`` and returns
    ``(acc + 0.5) / 2**width[s]``. The dealing is a fixed permutation of the
    53 bits, so it runs as seven lookups, one per byte of the input, in
    per-byte tables (:func:`_split_tables`) whose entries place each bit
    at its destination in one packed word holding every stream's ``acc``
    side by side. The output is bit-for-bit that of dealing the bits one
    at a time.

    Returns an array of shape ``(streams,) + u.shape`` with values in (0, 1).
    """
    if streams < 1:
        raise ValueError("streams must be >= 1")
    u = np.asarray(u, dtype=np.float64)
    if streams == 1:
        return u[None, ...]
    width, offset, tables = _split_tables(streams)
    bits = (u.reshape(-1) * float(1 << 53)).astype(np.uint64)
    packed = tables[0].take(bits & _BYTE)
    for c in range(1, 7):
        packed |= tables[c].take((bits >> np.uint64(8 * c)) & _BYTE)
    out = np.empty((streams, bits.size), dtype=np.float64)
    for s in range(streams):
        acc = (packed >> np.uint64(offset[s])) & np.uint64((1 << width[s]) - 1)
        np.add(acc, 0.5, out=out[s])
        out[s] /= float(1 << width[s])
    return out.reshape((streams,) + u.shape)


@lru_cache(maxsize=16)
def _split_tables(streams: int) -> tuple[tuple[int, ...], tuple[int, ...], np.ndarray]:
    """Bit widths, packed-word offsets and (7, 256) byte tables for
    :func:`split_uniform`.

    Bit b of the 53 (b = 0 most significant, at position 52 - b of the
    integer) is the (b // streams)-th most significant of stream
    ``b % streams``'s ``width`` bits. ``tables[c][v]`` is the packed word
    holding, at their destinations, the bits of byte value v read as
    positions 8c..8c+7 of the input; bits above position 52 are dropped.
    """
    width = tuple(len(range(s, 53, streams)) for s in range(streams))
    offset = tuple(sum(width[s + 1 :]) for s in range(streams))
    values = np.arange(256, dtype=np.uint64)
    tables = np.zeros((7, 256), dtype=np.uint64)
    for b in range(53):
        s = b % streams
        byte, shift = divmod(52 - b, 8)
        dest = offset[s] + width[s] - 1 - b // streams
        tables[byte] |= ((values >> np.uint64(shift)) & np.uint64(1)) << np.uint64(dest)
    tables.flags.writeable = False  # shared by every caller through the cache
    return width, offset, tables
