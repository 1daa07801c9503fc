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
bit-identical to repeated scalar calls: ``raw_u64_block`` evaluates one
stream at a run of counters, and ``bernoulli_columns`` evaluates counters
lo+1 .. hi across many streams at once, one bit column of the sampled
masks at a time, without materialising the (streams x draws) output
matrix.  A caller may draw a mask's columns in several ranges, on fewer
streams each time, and get the same bits as in one pass.
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


def _mix64_np(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """``mix64`` of each element of the uint64 array z, in place; tmp is
    scratch space of z's shape."""
    if tmp is None:
        tmp = np.empty_like(z)
    for shift, mult in ((30, _MIX_A), (27, _MIX_B)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        np.multiply(z, np.uint64(mult), out=z)
    np.right_shift(z, np.uint64(31), out=tmp)
    return np.bitwise_xor(z, tmp, out=z)


def stream_key(seed: int, stream: int) -> int:
    return mix64((seed & _M64) ^ mix64((stream * GAMMA_STREAM) & _M64))


def stream_keys(seed: int, streams: np.ndarray) -> np.ndarray:
    """Vectorised ``stream_key`` for an array of stream indices."""
    s = streams.astype(np.uint64) * np.uint64(GAMMA_STREAM)
    return _mix64_np(np.uint64(seed & _M64) ^ _mix64_np(s))


def raw_u64(key: int, counter: int) -> int:
    return mix64(key ^ mix64((counter * GAMMA_COUNTER) & _M64))


def raw_u64_block(key: int, first_counter: int, count: int) -> np.ndarray:
    """Outputs for counters first_counter .. first_counter+count-1."""
    ctr = np.arange(first_counter, first_counter + count, dtype=np.uint64)
    return _mix64_np(np.uint64(key) ^ _mix64_np(ctr * np.uint64(GAMMA_COUNTER)))


def bernoulli_columns(keys: np.ndarray, masks: np.ndarray, lo: int, hi: int,
                      threshold: int) -> np.ndarray:
    """OR bits lo .. hi-1 into masks, in place, and return masks: bit j of
    masks[i] is set when output j+1 of the substream keyed keys[i] is
    below `threshold`, for 0 <= lo <= hi <= 64.

    Works column by column on length-len(keys) buffers; a threshold of
    2**64 or more sets every bit without drawing.
    """
    if threshold >= 1 << 64:
        masks |= np.uint64(((1 << hi) - 1) ^ ((1 << lo) - 1))
        return masks
    thr = np.uint64(threshold)
    z = np.empty_like(keys)
    tmp = np.empty_like(keys)
    below = np.empty(keys.shape, dtype=bool)
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

    __slots__ = ("seed", "stream", "_key", "_counter")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = seed & _M64
        self.stream = stream & _M64
        self._key = stream_key(self.seed, self.stream)
        self._counter = 0

    def next_u64(self) -> int:
        self._counter += 1
        return raw_u64(self._key, self._counter)

    def u64_block(self, count: int) -> np.ndarray:
        """Next ``count`` outputs as uint64; identical to scalar calls."""
        out = raw_u64_block(self._key, self._counter + 1, count)
        self._counter += count
        return out

    def random_below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection; unbiased."""
        if n <= 0:
            raise ParameterError("random_below needs n >= 1")
        lim = ((1 << 64) // n) * n
        while True:
            u = self.next_u64()
            if u < lim:
                return u % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by this stream.

        Same permutation and counter as drawing each swap index with
        ``random_below``: the draws for positions i..1 come in one block,
        and a rejected draw restarts the block just past it.
        """
        pos = len(items) - 1
        while pos > 0:
            for u in raw_u64_block(self._key, self._counter + 1, pos).tolist():
                self._counter += 1
                m = pos + 1
                if u >= ((1 << 64) // m) * m:
                    break
                j = u % m
                items[pos], items[j] = items[j], items[pos]
                pos -= 1
