import hashlib

import pytest

from bootforge.prng import ByteStream, stream_blocks

SEED = b"prng-test-seed"


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
