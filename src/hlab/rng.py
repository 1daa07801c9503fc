"""Deterministic counter-based 64-bit PRNG with indexed substreams.

The generator is a keyed counter design built from the SplitMix64
finalizer ``mix64``:

    key(seed, stream) = mix64(seed XOR mix64(stream * GAMMA_STREAM))
    output(counter)   = mix64(key XOR mix64(counter * GAMMA_COUNTER))

with counter = 1, 2, 3, ... and all arithmetic mod 2**64.  Constants:

    GAMMA_STREAM  = 0x9E3779B97F4A7C15
    GAMMA_COUNTER = 0xD1B54A32D192ED03
    mix64: z ^= z>>30; z *= 0xBF58476D1CE4E5B9; z ^= z>>27;
           z *= 0x94D049BB133111EB; z ^= z>>31

The full generator state is the triple (seed, stream, counter).  For a
fixed seed the map stream -> key is injective, so two substreams never
share a state: substreams are non-overlapping by construction.  Every
output is a closed form of (key, counter), so the vectorised APIs are
bit-identical to repeated scalar calls: ``raw_u64_rows`` evaluates many
streams at one run of counters, ``shuffle_targets`` draws the
Fisher-Yates swap targets of many streams at once, and
``bernoulli_columns`` evaluates counters lo+1 .. hi
across many streams at once, one bit column of the sampled masks at a
time, without materialising the (streams x draws) output matrix.  A
caller may draw a mask's columns in several ranges, on fewer streams
each time, and get the same bits as in one pass.  A Steiner search
(``steiner.search_system``) draws a chunk of restarts in one pass, on
stream 0 of each seed (``seed_keys``); each seed's targets equal those
of ``Rng.shuffle``, which draws one stream, bit for bit.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import ParameterError

_M64 = (1 << 64) - 1
GAMMA_STREAM = 0x9E3779B97F4A7C15
GAMMA_COUNTER = 0xD1B54A32D192ED03
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finalizer; a bijection on 64-bit words."""
    z &= _M64
    z = ((z ^ (z >> 30)) * _MIX_A) & _M64
    z = ((z ^ (z >> 27)) * _MIX_B) & _M64
    return z ^ (z >> 31)


_MIX_STEPS = tuple((np.uint64(shift), np.uint64(mult))
                   for shift, mult in ((30, _MIX_A), (27, _MIX_B)))
_LAST_SHIFT = np.uint64(31)


def _mix64_np(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """``mix64`` of each element of the uint64 array z, in place; tmp is
    scratch space of z's shape."""
    if tmp is None:
        tmp = np.empty_like(z)
    for shift, mult in _MIX_STEPS:
        np.right_shift(z, shift, out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        np.multiply(z, mult, out=z)
    np.right_shift(z, _LAST_SHIFT, out=tmp)
    return np.bitwise_xor(z, tmp, out=z)


def stream_key(seed: int, stream: int) -> int:
    return mix64((seed & _M64) ^ mix64((stream * GAMMA_STREAM) & _M64))


def stream_keys(seed: int, streams: np.ndarray, out: np.ndarray | None = None,
                tmp: np.ndarray | None = None) -> np.ndarray:
    """Vectorised ``stream_key`` for an array of stream indices.  Given
    out and tmp, uint64 arrays of streams' shape (out may be streams
    itself), the keys are written into out and no array is allocated."""
    s = np.multiply(streams.astype(np.uint64, copy=False),
                    np.uint64(GAMMA_STREAM), out=out)
    _mix64_np(s, tmp)
    np.bitwise_xor(s, np.uint64(seed & _M64), out=s)
    return _mix64_np(s, tmp)


def seed_keys(seed: int, count: int) -> np.ndarray:
    """``stream_key(seed + i, 0)`` for i = 0 .. count-1, vectorised; stream
    0 mixes to 0, so each key is mix64 of its seed."""
    return _mix64_np(np.arange(count, dtype=np.uint64)
                     + np.uint64(seed & _M64))


def raw_u64(key: int, counter: int) -> int:
    return mix64(key ^ mix64((counter * GAMMA_COUNTER) & _M64))


def raw_u64_rows(keys: np.ndarray, first_counter: int, count: int) -> np.ndarray:
    """Row i: outputs of the stream keyed keys[i] for counters
    first_counter .. first_counter+count-1."""
    ctr = np.arange(first_counter, first_counter + count, dtype=np.uint64)
    ctr *= np.uint64(GAMMA_COUNTER)
    out = keys[:, None] ^ _mix64_np(ctr)
    del ctr  # one block fewer at the peak of a long draw
    return _mix64_np(out)


def shuffle_targets(keys: np.ndarray, counter: int, count: int) -> tuple:
    """Fisher-Yates swap targets of `count` items for each stream keyed
    keys[i], every stream at `counter` (its next draw is output counter+1).

    Returns (targets, ends): targets[i, t] is the index swapped with
    position count-1-t, the next output u below the largest multiple of
    m = count - t under 2^64 (an unbiased rejection draw), taken mod m,
    and ends[i] is row i's counter after its last draw.  All rows
    are drawn in one block; a row whose draw is rejected is redrawn
    alone from the counter just past the rejected one.
    """
    width = max(count - 1, 0)
    u = raw_u64_rows(keys, counter + 1, width)
    bounds = np.arange(count, 1, -1, dtype=np.uint64)
    # A draw u for bound m is rejected when u >= 2^64 - (2^64 mod m); as
    # 2^64 mod m < m, only a draw with 2^64 - 1 - u < m can be.
    first_rejected: dict = {}
    for i, t in zip(*(a.tolist() for a in np.nonzero(~u < bounds))):
        m = count - t
        if i not in first_rejected and int(u[i, t]) >= (1 << 64) // m * m:
            first_rejected[i] = t
    targets = np.remainder(u, bounds, out=u)
    ends = [counter + width] * len(keys)
    for i, t in first_rejected.items():
        rest, end = shuffle_targets(keys[i:i + 1], counter + t + 1, count - t)
        targets[i, t:], ends[i] = rest[0], end[0]
    return targets, ends


def _swap(items: list, targets) -> None:
    """Apply one row of ``shuffle_targets`` to items, in place."""
    for pos, j in zip(range(len(items) - 1, 0, -1), targets.tolist()):
        items[pos], items[j] = items[j], items[pos]


def bernoulli_columns(keys: np.ndarray, masks: np.ndarray, lo: int, hi: int,
                      threshold: int, scratch: tuple | None = None
                      ) -> np.ndarray:
    """OR bits lo .. hi-1 into masks, in place, and return masks: bit j of
    masks[i] is set when output j+1 of the substream keyed keys[i] is
    below `threshold`, for 0 <= lo <= hi <= 64.

    Works column by column on length-len(keys) buffers: scratch is
    (z, tmp, below), two uint64 arrays and a bool array of keys' shape,
    allocated here when None.  A threshold of 2**64 or more sets every
    bit without drawing.
    """
    if threshold >= 1 << 64:
        masks |= np.uint64(((1 << hi) - 1) ^ ((1 << lo) - 1))
        return masks
    thr = np.uint64(threshold)
    z, tmp, below = scratch or (np.empty_like(keys), np.empty_like(keys),
                                np.empty(keys.shape, dtype=bool))
    for j in range(lo, hi):
        np.bitwise_xor(keys, np.uint64(mix64((j + 1) * GAMMA_COUNTER)), out=z)
        np.less(_mix64_np(z, tmp), thr, out=below)
        tmp[:] = below
        np.left_shift(tmp, np.uint64(j), out=tmp)
        np.bitwise_or(masks, tmp, out=masks)
    return masks


def bernoulli_threshold(p) -> int:
    """Integer threshold T with Pr[u64 < T] = p up to 2**-64 quantisation.

    Exact for any dyadic p with denominator <= 2**64, in particular 0,
    1/2 and 1.
    """
    p = Fraction(p)
    if p < 0 or p > 1:
        raise ParameterError(f"probability {p} outside [0, 1]")
    return (p.numerator << 64) // p.denominator


class Rng:
    """One substream of the documented counter-based generator."""

    __slots__ = ("_key", "_counter")

    def __init__(self, seed: int, stream: int = 0):
        self._key = stream_key(seed, stream)
        self._counter = 0

    def next_u64(self) -> int:
        self._counter += 1
        return raw_u64(self._key, self._counter)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by this stream, from the top
        position down, each swap index one unbiased rejection draw of
        ``shuffle_targets``."""
        key = np.array([self._key], dtype=np.uint64)
        targets, ends = shuffle_targets(key, self._counter, len(items))
        _swap(items, targets[0])
        self._counter = ends[0]
