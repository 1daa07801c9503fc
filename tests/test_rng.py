from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hlab.rng as rng_module
from hlab.errors import ParameterError
from hlab.rng import (Rng, _swap, bernoulli_columns, bernoulli_threshold,
                      column_keys, raw_u64, raw_u64_rows, seed_keys,
                      shuffle_targets, stream_key, stream_keys)

from oracles import (bernoulli_masks, random_below, shuffle_scalar,
                     substream_blocks)


def row(seed: int, stream: int, first: int, count: int) -> list:
    """Outputs first .. first+count-1 of one stream, as a raw_u64_rows row."""
    key = np.array([stream_key(seed, stream)], dtype=np.uint64)
    return raw_u64_rows(key, first, count)[0].tolist()


def scalar(rng: Rng, count: int) -> list:
    """The next `count` outputs of rng, one next_u64 call each."""
    return [rng.next_u64() for _ in range(count)]


def test_same_seed_same_sequence():
    a = [Rng(7, 3).next_u64() for _ in range(5)]
    b = [Rng(7, 3).next_u64() for _ in range(5)]
    assert a == b


def test_block_matches_scalar():
    assert row(123, 9, 1, 257) == scalar(Rng(123, 9), 257)


def test_block_then_scalar_continues():
    # A row that starts past the draws a stream has made continues it.
    rng = Rng(5, 0)
    head = scalar(rng, 10)
    assert head + row(5, 0, 11, 3) == scalar(Rng(5, 0), 13)
    assert rng.next_u64() == row(5, 0, 11, 1)[0]


def test_raw_matches_generator():
    key = stream_key(42, 6)
    assert raw_u64(key, 1) == Rng(42, 6).next_u64()
    assert [raw_u64(key, c) for c in range(1, 5)] == scalar(Rng(42, 6), 4)


def test_rows_match_blocks():
    keys = stream_keys(17, np.arange(5))
    rows = raw_u64_rows(keys, 9, 40)
    assert rows.shape == (5, 40)
    for stream, got in enumerate(rows.tolist()):
        rng = Rng(17, stream)
        scalar(rng, 8)
        assert got == scalar(rng, 40)


@pytest.mark.parametrize("seed", [0, -40, 2**64 - 20, 2**70 + 3])
@pytest.mark.parametrize("stream", [0, 5, -1])
def test_seed_keys_match_stream_key(seed, stream):
    # Seeds and streams are taken mod 2^64, as Rng takes them.  seed_keys
    # gives stream 0 of each seed, a key no other stream of them shares.
    want = [Rng(seed + i, stream)._key for i in range(64)]
    assert want == [stream_key(seed + i, stream) for i in range(64)]
    keys = seed_keys(seed, 64).tolist()
    if stream == 0:
        assert keys == want
    else:
        assert not set(keys) & set(want)


def test_substream_blocks_rows():
    rows = substream_blocks(99, first_stream=10, count=8, draws=12)
    for i in range(8):
        assert rows[i].tolist() == scalar(Rng(99, 10 + i), 12)


@pytest.mark.parametrize("draws", [0, 1, 55, 64])
@pytest.mark.parametrize("threshold", [0, 1, 1 << 62, (1 << 64) - 1, 1 << 64])
def test_bernoulli_masks_match_row_oracle(draws, threshold):
    masks = bernoulli_masks(99, 10, 300, draws, threshold)
    rows = substream_blocks(99, first_stream=10, count=300, draws=draws)
    want = [sum(1 << j for j, u in enumerate(row) if u < threshold)
            for row in rows.tolist()]
    assert masks.dtype == np.uint64
    assert masks.tolist() == want


@pytest.mark.parametrize("threshold", [0, 1 << 62, (1 << 64) - 1, 1 << 64])
def test_bernoulli_columns_by_range_match_one_pass(threshold):
    # Columns drawn range by range, on fewer streams each time, give the
    # one-pass bits, and bits outside a range stay as they were.
    whole = bernoulli_masks(99, 10, 300, 64, threshold)
    keys = column_keys(stream_keys(99, np.arange(10, 310)))
    masks = np.zeros(300, dtype=np.uint64)
    alive = np.arange(300)
    for lo, hi in [(0, 0), (0, 1), (1, 5), (5, 5), (5, 28), (28, 64)]:
        sub = masks[alive]
        bernoulli_columns(keys[alive], sub, lo, hi, threshold)
        masks[alive] = sub
        low = np.uint64((1 << hi) - 1)
        assert (masks[alive] == whole[alive] & low).all()
        alive = alive[::2]
    outside = np.uint64(0xF0F0F0F0F0F0F0F0 & ~(((1 << 40) - 1) ^ 0xFF))
    masks = np.full(300, outside, dtype=np.uint64)
    got = bernoulli_columns(keys, masks, 8, 40, threshold)
    assert got is masks
    assert masks.tolist() == (
        outside | (whole & np.uint64(((1 << 40) - 1) ^ 0xFF))).tolist()


@pytest.mark.parametrize("threshold", [0, 1 << 62, (1 << 64) - 1, 1 << 64])
def test_bernoulli_columns_with_scratch_match_without(threshold):
    # Scratch columns are overwritten, whatever they held before.
    keys = column_keys(stream_keys(5, np.arange(300)))
    want = bernoulli_columns(keys, np.zeros(300, dtype=np.uint64), 3, 50,
                             threshold)
    block = np.full((3, 400), 0xFFFF, dtype=np.uint64)
    scratch = (block[0, :300], block[1, :300],
               np.ones(400, dtype=bool)[:300],
               np.full(400, 0xFFFF, dtype=np.uint16)[:300])
    got = bernoulli_columns(keys, np.zeros(300, dtype=np.uint64), 3, 50,
                            threshold, scratch)
    assert got.tolist() == want.tolist()


def test_stream_keys_into_their_streams():
    seed = (1 << 64) - 3
    buf = np.arange(1000, 1300, dtype=np.uint64)
    tmp = np.full(300, 7, dtype=np.uint64)
    got = stream_keys(seed, buf, out=buf, tmp=tmp)
    assert got is buf
    assert got.tolist() == [stream_key(seed, s) for s in range(1000, 1300)]
    assert got.tolist() == stream_keys(seed, np.arange(1000, 1300)).tolist()


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**32), st.integers(0, 2**32))
def test_distinct_streams_disagree(seed, s1, s2):
    if s1 == s2:
        return
    a = scalar(Rng(seed, s1), 4)
    b = scalar(Rng(seed, s2), 4)
    assert a != b


@given(st.integers(1, 10**6), st.integers(0, 2**64 - 1))
def test_random_below_in_range(bound, seed):
    v = random_below(Rng(seed), bound)
    assert 0 <= v < bound


@given(st.lists(st.integers(), max_size=40), st.integers(0, 2**32))
def test_shuffle_is_permutation(items, seed):
    shuffled = list(items)
    Rng(seed).shuffle(shuffled)
    assert sorted(shuffled) == sorted(items)


def test_shuffle_deterministic():
    a = list(range(30))
    b = list(range(30))
    Rng(8, 2).shuffle(a)
    Rng(8, 2).shuffle(b)
    assert a == b


@pytest.mark.parametrize("size", [0, 1, 2, 3, 7, 35, 455])
def test_shuffle_matches_scalar_oracle(size):
    for seed in range(20):
        fast, slow = Rng(seed, size), Rng(seed, size)
        a, b = list(range(size)), list(range(size))
        fast.shuffle(a)
        shuffle_scalar(slow, b)
        assert a == b
        assert fast.next_u64() == slow.next_u64()


@pytest.mark.parametrize("size", [0, 1, 2, 3, 7, 35, 455])
@pytest.mark.parametrize("seed", [-30, 2**64 - 33, 2**65 + 9])
def test_shuffle_targets_match_scalar_oracle_by_row(size, seed):
    # Stream 0 of each seed seed..seed+63, each 3 draws in; the seeds
    # cross 0 or 2^64 and are taken mod 2^64, as Rng takes them.
    targets, ends = shuffle_targets(seed_keys(seed, 64), 3, size)
    assert targets.shape == (64, max(size - 1, 0))
    for i in range(64):
        slow = Rng(seed + i)
        scalar(slow, 3)
        a, b = list(range(size)), list(range(size))
        _swap(a, targets[i])
        shuffle_scalar(slow, b)
        assert a == b
        assert ends[i] == slow._counter


@pytest.mark.parametrize("bad", [{1}, {1, 2}, {3, 4, 5}, {1, 4, 9}, {6, 11}])
def test_shuffle_rejections_match_scalar_oracle(monkeypatch, bad):
    # Counter c of a 10-item shuffle draws for bound m = 11 - c when no
    # draw before it was rejected; it is set to the least draw that m
    # rejects, 2^64 - (2^64 mod m), or to 2^64 - 1 when m is a power of
    # two and rejects none; a real draw is rejected with probability
    # (2^64 mod m) / 2^64 < 2^-60.  The injections hit rows 0, 3 and 6 of
    # an 8-stream batch; the other rows draw as they would without them.
    def least_rejected(c):
        m = 11 - c
        return (1 << 64) - (1 << 64) % m if m & (m - 1) else (1 << 64) - 1

    raw, rows = rng_module.raw_u64, rng_module.raw_u64_rows
    keys = seed_keys(3, 8)
    hit = set(keys[::3].tolist())

    def patched_raw(key, counter):
        if key in hit and counter in bad:
            return least_rejected(counter)
        return raw(key, counter)

    def patched_rows(keys, first, count):
        out = rows(keys, first, count)
        for i, key in enumerate(keys.tolist()):
            for c in bad:
                if key in hit and first <= c < first + count:
                    out[i, c - first] = np.uint64(least_rejected(c))
        return out

    monkeypatch.setattr(rng_module, "raw_u64", patched_raw)
    monkeypatch.setattr(rng_module, "raw_u64_rows", patched_rows)
    targets, ends = shuffle_targets(keys, 0, 10)
    for i, key in enumerate(keys.tolist()):
        slow = Rng(3 + i)
        a, b = list(range(10)), list(range(10))
        _swap(a, targets[i])
        shuffle_scalar(slow, b)
        assert a == b
        assert ends[i] == slow._counter
        assert (slow._counter > 9) == (key in hit)
    fast, slow = Rng(3), Rng(3)
    a, b = list(range(10)), list(range(10))
    fast.shuffle(a)
    shuffle_scalar(slow, b)
    assert a == b
    assert fast._counter == slow._counter > 9
    assert fast.next_u64() == slow.next_u64()


def test_bernoulli_threshold_exact_dyadic():
    assert bernoulli_threshold(Fraction(1, 2)) == 1 << 63
    assert bernoulli_threshold(Fraction(0)) == 0
    assert bernoulli_threshold(Fraction(1)) == 1 << 64
    assert bernoulli_threshold(Fraction(3, 8)) == 3 << 61


@given(st.fractions(min_value=0, max_value=1))
def test_bernoulli_threshold_rounds_down(p):
    th = bernoulli_threshold(p)
    # th/2^64 <= p < (th+1)/2^64
    assert th <= p * 2**64 < th + 1


def test_bernoulli_threshold_rejects_outside():
    with pytest.raises(ParameterError):
        bernoulli_threshold(Fraction(3, 2))
    with pytest.raises(ParameterError):
        bernoulli_threshold(Fraction(-1, 2))


def test_block_is_uint64_and_fullwidth():
    block = raw_u64_rows(stream_keys(0, np.arange(1)), 1, 4096)[0]
    assert block.tolist() == scalar(Rng(0), 4096)
    assert block.dtype == np.uint64
    # top bit must be exercised; a stuck-at-zero high bit means a
    # truncation bug somewhere in the mixing
    assert (block >> np.uint64(63)).max() == 1
