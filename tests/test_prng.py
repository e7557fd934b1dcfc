import hashlib

import pytest
from sha256_oracle import sha256 as oracle_sha256

from bootforge.prng import TABLE_BLOCKS, ByteStream, stream_blocks

SEED = b"prng-test-seed"


def reference_blocks(seed, first, stop, sha256=hashlib.sha256):
    """Blocks first..stop-1 as SHA-256(seed || be64(i)), one hash each."""
    return b"".join(sha256(seed + i.to_bytes(8, "big")).digest() for i in range(first, stop))


def test_split_takes_concatenate_to_one_take():
    stream = ByteStream(SEED)
    parts = [stream.take(n) for n in (5, 59, 0x10000 - 64)]
    assert [len(p) for p in parts] == [5, 59, 0x10000 - 64]
    assert b"".join(parts) == ByteStream(SEED).take(0x10000)


def test_block_zero_is_sha256_of_seed_and_counter():
    expected = hashlib.sha256(SEED + (0).to_bytes(8, "big")).digest()
    assert ByteStream(SEED).take(32) == expected
    block1 = hashlib.sha256(SEED + (1).to_bytes(8, "big")).digest()
    assert ByteStream(SEED).take(40) == expected + block1[:8]


def test_blocks_are_reachable_out_of_order():
    in_order = ByteStream(SEED).take(9 * 32)
    assert stream_blocks(SEED, 5, 9) == in_order[5 * 32 :]
    assert stream_blocks(SEED, 0, 1) + stream_blocks(SEED, 1, 5) == in_order[: 5 * 32]
    assert stream_blocks(SEED, 3, 3) == b""


def test_zero_take_leaves_the_stream_in_place():
    stream = ByteStream(SEED)
    assert stream.take(0) == b""
    stream.take(3)
    assert stream.take(0) == b""
    assert stream.take(29) == ByteStream(SEED).take(32)[3:]


def test_negative_take_is_refused():
    with pytest.raises(ValueError):
        ByteStream(SEED).take(-1)


# Spans at the start, across the counter table's end (block 2048), and
# at counters whose be64 encoding carries into a higher byte.
SPANS = [(0, 3), (2046, 2050), (2047, 2048), (2048, 2049), (0, 2049),
         (2**16 - 2, 2**16 + 2), (2**32 + 3, 2**32 + 7)]


@pytest.mark.parametrize("first, stop", SPANS)
@pytest.mark.parametrize("seed", [SEED, bytes(32), b"\xff" * 64])
def test_blocks_are_sha256_of_seed_and_counter(seed, first, stop):
    assert TABLE_BLOCKS == 2048
    assert stream_blocks(seed, first, stop) == reference_blocks(seed, first, stop)


@pytest.mark.parametrize("index", [0, 2047, 2048, 2049, 2**16, 2**32 + 5])
def test_blocks_match_the_independent_sha256(index):
    message = SEED + index.to_bytes(8, "big")
    assert stream_blocks(SEED, index, index + 1) == oracle_sha256(message)


@pytest.mark.parametrize("head", [2048 * 32 - 7, 2047 * 32, 2048 * 32, 2048 * 32 + 1])
def test_takes_across_the_table_end_equal_split_takes(head):
    whole = ByteStream(SEED).take(head + 100)
    stream = ByteStream(SEED)
    parts = [stream.take(head), stream.take(3), stream.take(97)]
    assert b"".join(parts) == whole == reference_blocks(SEED, 0, 2052)[: head + 100]
