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
share a state: substreams are non-overlapping by construction.  The
same closed form drives the vectorised block API, which is therefore
bit-identical to repeated scalar calls.
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


def _mix64_np(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


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


def substream_blocks(seed: int, first_stream: int, count: int,
                     draws: int) -> np.ndarray:
    """Row i: the first `draws` outputs of substream first_stream + i.

    Bit-identical to count separate Rng(seed, stream) instances, so
    batch consumers are independent of how work is split.
    """
    keys = stream_keys(seed, np.arange(first_stream, first_stream + count))
    ctr = np.arange(1, draws + 1, dtype=np.uint64) * np.uint64(GAMMA_COUNTER)
    return _mix64_np(keys[:, None] ^ _mix64_np(ctr)[None, :])


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
        """In-place Fisher-Yates shuffle driven by this stream."""
        for i in range(len(items) - 1, 0, -1):
            j = self.random_below(i + 1)
            items[i], items[j] = items[j], items[i]
