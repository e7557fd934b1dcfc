"""Deterministic seeded byte streams.

Every randomized operation in this package draws from a counter-mode
SHA-256 stream so that identical seeds reproduce identical artifacts:
block i of the stream is SHA-256(seed || be64(i)).  Because each block
depends only on the seed and its index, the stream is random-access:
`stream_blocks` derives any run of blocks directly, without the ones
before it.  `ByteStream` reads the stream in order; the simulator's ROM
store reads it by page, on first use.  Sub-streams are derived by
hashing a label into a fresh seed, which keeps independent consumers
(key generation, block filler, simulator ROM contents, search workers)
from sharing state.

`stream_blocks` hashes the seed once and derives each block from a copy
of that keyed state, updated with the block's 8-byte counter.  SHA-256
is a streaming hash, so the copy updated with be64(i) digests exactly
the bytes seed || be64(i).  The counters of the first `TABLE_BLOCKS`
blocks, enough for a 64 KiB boot ROM, come from a table built at
import; blocks past it (long key-generation streams) encode their own.
"""

from __future__ import annotations

import hashlib

__all__ = ["ByteStream", "derive_seed", "parse_seed", "stream_blocks"]

BLOCK_SIZE = 32  # one SHA-256 digest
TABLE_BLOCKS = 0x10000 // BLOCK_SIZE  # one 64 KiB ROM
_COUNTERS = [i.to_bytes(8, "big") for i in range(TABLE_BLOCKS)]


def parse_seed(seed: bytes | str) -> bytes:
    """Normalize a seed given as raw bytes or a hex string."""
    if isinstance(seed, str):
        seed = bytes.fromhex(seed)
    if not isinstance(seed, bytes) or len(seed) == 0:
        raise ValueError("seed must be non-empty bytes or hex")
    return seed


def derive_seed(seed: bytes | str, *labels: str | int) -> bytes:
    """Derive an independent 32-byte sub-seed from a seed and labels."""
    h = hashlib.sha256()
    h.update(parse_seed(seed))
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode())
    return h.digest()


def stream_blocks(seed: bytes, first: int, stop: int) -> bytes:
    """Blocks first..stop-1 of the stream keyed by `seed`, joined."""
    if stop <= TABLE_BLOCKS:
        counters = _COUNTERS[first:stop]
    else:
        counters = [i.to_bytes(8, "big") for i in range(first, stop)]
    copy = hashlib.sha256(seed).copy
    blocks = []
    for counter in counters:
        block = copy()
        block.update(counter)
        blocks.append(block.digest())
    return b"".join(blocks)


class ByteStream:
    """Counter-mode SHA-256 pseudorandom byte stream."""

    def __init__(self, seed: bytes | str):
        self._seed = parse_seed(seed)
        self._counter = 0
        self._buf = b""
        self._pos = 0

    def take(self, count: int) -> bytes:
        """Return the next `count` bytes of the stream."""
        if count < 0:
            raise ValueError("count must be non-negative")
        head = self._buf[self._pos : self._pos + count]
        self._pos += len(head)
        missing = count - len(head)
        if not missing:
            return head
        first = self._counter
        self._counter += -(-missing // BLOCK_SIZE)
        blocks = stream_blocks(self._seed, first, self._counter)
        self._buf = blocks[-BLOCK_SIZE:]
        self._pos = missing - (len(blocks) - BLOCK_SIZE)
        return head + blocks[:missing]

    def take_nonzero(self, count: int) -> bytes:
        """Return `count` stream bytes with zero bytes filtered out."""
        out = bytearray()
        while len(out) < count:
            out += bytes(b for b in self.take(count - len(out)) if b != 0)
        return bytes(out)

    def take_int(self, bits: int) -> int:
        """Return an integer built from the next ceil(bits/8) bytes, masked to `bits`."""
        nbytes = (bits + 7) // 8
        value = int.from_bytes(self.take(nbytes), "big")
        return value & ((1 << bits) - 1)

    def int_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        bits = bound.bit_length()
        while True:
            value = self.take_int(bits)
            if value < bound:
                return value
