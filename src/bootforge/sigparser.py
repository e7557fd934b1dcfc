"""Models of the two signature-plaintext parsers and the stack they walk.

A decoded signature block (``v = s^e mod n``, encoded big-endian to the
key's block length) is parsed one of two ways:

* `flawed_parse` reproduces the permissive boot-ROM-style walk: block
  type 2 is allowed, padding content is never inspected, and the chained
  one-byte length fields are added to the cursor without bounds checks,
  so the final "embedded hash" read can land beyond the block, out on
  the surrounding stack.
* `strict_parse` is the fixed firmware-style walk: block type 1 only,
  padding must be 0xFF and at least 8 bytes, the header must equal the
  fixed SHA-256 DigestInfo, and the hash must sit flush against the end
  of the block (RFC 8017 section 8.2.2 verifies by this compare).

The walk shape is: flag bytes ``00 01|02``, padding up to the first
``0x00`` terminator at offset ``t``, an outer header at ``t+1`` (type
and length bytes both ignored by the flawed walk), an inner header at
``t+3`` whose length byte ``L`` advances the cursor past ``L`` content
bytes, a final two-byte header, and then the hash.  The landing offset
is therefore ``t + 7 + L``.  Only the inner length steers the walk; all
lengths are single bytes (no long-form encoding exists in this model).

`StackModel` describes the memory around the block: junk before it, junk
after it, and the offset where the verifier previously stored the hash
it computed itself.  That stored copy overlays whatever else is at that
offset, which is exactly why a landing offset equal to
`calc_hash_offset` compares the calculated hash against itself and can
never fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional

from .prng import ByteStream, derive_seed

__all__ = [
    "Verdict",
    "RejectReason",
    "ParseOutcome",
    "StackModel",
    "ParserMode",
    "ParserConfig",
    "FLAWED_BLOCK_TYPES",
    "flawed_parse",
    "strict_parse",
    "make_classifier",
    "exact_hit_probability",
    "pkcs1_digest_block",
    "SHA256_DIGEST_INFO",
    "HASH_LENGTH",
    "annotate_plaintext",
]

HASH_LENGTH = 0x20

# Fixed DER encoding of DigestInfo for SHA-256, up to the hash bytes:
# SEQUENCE(0x31) { SEQUENCE(0x0d) { OID sha256, NULL }, OCTET STRING(0x20)
SHA256_DIGEST_INFO = bytes.fromhex("3031300d060960864801650304020105000420")

# The block types the flawed walk accepts after the leading 00 flag byte.
FLAWED_BLOCK_TYPES = (0x01, 0x02)

# Walk geometry relative to the padding terminator at offset t.
_OUTER_TYPE, _OUTER_LEN = 1, 2
_INNER_TYPE, _INNER_LEN = 3, 4
_INNER_CONTENT = 5
_LANDING_AFTER_INNER = 7  # landing = t + 7 + inner_len


class Verdict(Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    OUT_OF_BOUNDS = "out_of_bounds"


class RejectReason(Enum):
    BAD_BLOCK_TYPE = "BadBlockType"
    NO_PADDING_TERMINATOR = "NoPaddingTerminator"
    BAD_ASN1 = "BadAsn1"
    HASH_MISMATCH = "HashMismatch"
    PADDING_NOT_FF = "PaddingNotFF"
    PADDING_TOO_SHORT = "PaddingTooShort"
    TRAILING_GARBAGE = "TrailingGarbage"


@dataclass(frozen=True)
class ParseOutcome:
    verdict: Verdict
    reason: Optional[RejectReason] = None
    landing_offset: Optional[int] = None

    @property
    def is_accept(self) -> bool:
        return self.verdict is Verdict.ACCEPT

    @classmethod
    def accept(cls, landing: int) -> "ParseOutcome":
        return cls(Verdict.ACCEPT, None, landing)

    @classmethod
    def reject(cls, reason: RejectReason, landing: Optional[int] = None) -> "ParseOutcome":
        return cls(Verdict.REJECT, reason, landing)

    @classmethod
    def out_of_bounds(cls, landing: int) -> "ParseOutcome":
        return cls(Verdict.OUT_OF_BOUNDS, None, landing)

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "reason": self.reason.value if self.reason else None,
            "landing_offset": self.landing_offset,
        }


@dataclass(frozen=True)
class StackModel:
    """Bytes around the signature block, plus the stored calculated hash.

    Offsets are relative to the block start: negative offsets index into
    `pre_gap`, offsets at or past the block length index into
    `post_bytes`.  `calc_hash_offset` is where the verifier's own hash
    copy lives; the boot-ROM layout puts it immediately after the block,
    the factory-firmware layout puts it somewhere else.
    """

    post_bytes: bytes
    calc_hash_offset: int
    pre_gap: bytes = b""

    @classmethod
    def boot9(cls, block_length: int, seed: bytes | str = b"boot9-stack") -> "StackModel":
        """Stack with the calculated hash flush against the block end.

        The modeled junk region past the block is deliberately short
        (0x40 bytes): landings further out dereference unmapped stack
        and surface as out-of-bounds, the simulator's halt condition.
        """
        stream = ByteStream(derive_seed(seed, "stack", block_length))
        return cls(
            post_bytes=stream.take(0x40),
            calc_hash_offset=block_length,
            pre_gap=stream.take(0x20),
        )

    @classmethod
    def factory_firmware(cls, block_length: int) -> "StackModel":
        """Stack whose stored hash is NOT at the block end.

        The true offset for that parser is unknown; 0x60 bytes past the
        block is this artifact's stand-in.
        """
        stream = ByteStream(derive_seed(b"factory-stack", "stack", block_length))
        return cls(
            post_bytes=stream.take(0xA0),
            calc_hash_offset=block_length + 0x60,
            pre_gap=stream.take(0x20),
        )

    def read_byte(self, offset: int, block: bytes, calc_hash: bytes) -> Optional[int]:
        """Effective stack byte at `offset`, or None if unmodeled.

        The stored calculated hash overlays every other source: it is a
        real write the verifier performed, so those 32 bytes are always
        present.
        """
        rel = offset - self.calc_hash_offset
        if 0 <= rel < len(calc_hash):
            return calc_hash[rel]
        if 0 <= offset < len(block):
            return block[offset]
        if offset >= len(block):
            post = offset - len(block)
            if post < len(self.post_bytes):
                return self.post_bytes[post]
            return None
        pre = len(self.pre_gap) + offset
        if pre >= 0:
            return self.pre_gap[pre]
        return None


class ParserMode(Enum):
    """Which walk checks a firmware signature: the boot ROM's or the fixed one."""

    FLAWED = "flawed"
    STRICT = "strict"


@dataclass(frozen=True)
class ParserConfig:
    """The hit predicate that search, estimation and classification test.

    A block is a hit when the flawed walk accepts its flag bytes and lands
    inside `target_window`; with `check_type_bytes` the two 0x30 type
    bytes and the 0x04 final type byte must also be present.  With
    `require_walk` false only the flag bytes count.  This is a predicate
    over plaintext blocks, not a parser choice: `flawed_parse` always runs
    the plain walk with no type-byte checks, and the boot and
    `validate_firm` pick their parser with a `ParserMode`.
    """

    target_window: frozenset = frozenset()
    require_walk: bool = True
    check_type_bytes: bool = False

    def __post_init__(self):
        object.__setattr__(self, "target_window", frozenset(self.target_window))

    @classmethod
    def flawed(
        cls,
        block_length: int,
        window: Optional[Iterable[int]] = None,
        check_type_bytes: bool = False,
    ) -> "ParserConfig":
        """The flawed walk's predicate.  The default window is the boot's
        landing: the one offset where `StackModel.boot9` stores the
        calculated hash, and so the only landing `flawed_parse` accepts
        against the boot's stack.  With `check_type_bytes` it also demands
        the two 0x30 type bytes and the 0x04 final type byte an honest
        digest carries, which makes it stricter than `flawed_parse` itself:
        random 0x100-byte blocks pass at the boot's landing with probability
        about 2^-47.7, the figure for extrapolating real-key search cost."""
        if window is None:
            window = {StackModel.boot9(block_length).calc_hash_offset}
        return cls(target_window=frozenset(window), check_type_bytes=check_type_bytes)


def _check_inputs(block: bytes, calc_hash: bytes) -> None:
    if len(calc_hash) != HASH_LENGTH:
        raise ValueError("calculated hash must be 32 bytes")
    if len(block) < 8:
        raise ValueError("signature block implausibly short")


def _walk(block: bytes) -> tuple[int, int] | RejectReason:
    """The boot ROM's walk: (terminator t, landing t + 7 + L), or the reason
    it stops.  It reads only block bytes, so a steering length byte L at
    t + 4 past the block end is a structural reject."""
    if block[0] != 0x00 or block[1] not in FLAWED_BLOCK_TYPES:
        return RejectReason.BAD_BLOCK_TYPE
    t = block.find(0, 2)
    if t < 0:
        return RejectReason.NO_PADDING_TERMINATOR
    if t + _INNER_LEN >= len(block):
        return RejectReason.BAD_ASN1
    return t, t + _LANDING_AFTER_INNER + block[t + _INNER_LEN]


def flawed_parse(block: bytes, calc_hash: bytes, stack: StackModel) -> ParseOutcome:
    """Run the permissive walk and compare 32 bytes at the landing offset.

    The final compare reads through `stack`, which is where an
    out-of-bounds landing turns into the simulator's data-abort analog.
    """
    _check_inputs(block, calc_hash)
    walk = _walk(block)
    if isinstance(walk, RejectReason):
        return ParseOutcome.reject(walk)
    landing = walk[1]
    for i in range(HASH_LENGTH):
        b = stack.read_byte(landing + i, block, calc_hash)
        if b is None:
            return ParseOutcome.out_of_bounds(landing)
        if b != calc_hash[i]:
            return ParseOutcome.reject(RejectReason.HASH_MISMATCH, landing)
    return ParseOutcome.accept(landing)


def strict_parse(block: bytes, calc_hash: bytes) -> ParseOutcome:
    """Run the fixed walk: every check precedes every dereference."""
    _check_inputs(block, calc_hash)
    if block[0] != 0x00 or block[1] != 0x01:
        return ParseOutcome.reject(RejectReason.BAD_BLOCK_TYPE)
    bl = len(block)
    t = block.find(0, 2)
    end = bl if t < 0 else t
    if block.count(0xFF, 2, end) != end - 2:
        return ParseOutcome.reject(RejectReason.PADDING_NOT_FF)
    if t < 0:
        return ParseOutcome.reject(RejectReason.NO_PADDING_TERMINATOR)
    if t - 2 < 8:
        return ParseOutcome.reject(RejectReason.PADDING_TOO_SHORT)
    # The DigestInfo fixes both 0x30 types, the lengths 0x31 and 0x0d, and
    # the 0x04 type with its 0x20 length; the hash follows it.
    landing = t + 1 + len(SHA256_DIGEST_INFO)
    if block[t + 1 : landing] != SHA256_DIGEST_INFO or landing + HASH_LENGTH > bl:
        return ParseOutcome.reject(RejectReason.BAD_ASN1)
    if landing + HASH_LENGTH != bl:
        return ParseOutcome.reject(RejectReason.TRAILING_GARBAGE, landing)
    if block[landing : landing + HASH_LENGTH] != calc_hash:
        return ParseOutcome.reject(RejectReason.HASH_MISMATCH, landing)
    return ParseOutcome.accept(landing)


def make_classifier(config: ParserConfig) -> Callable[[bytes], Optional[int]]:
    """Compile `config` into a fast block -> landing-offset predicate.

    The returned callable is the stack-independent validity check the
    brute-force search runs millions of times: it succeeds with landing
    offset L exactly when `flawed_parse` would accept the block against
    a stack whose calculated hash sits at L (provided there are no
    type-byte checks).
    """
    if not config.require_walk:
        raise ValueError("classification requires the structural walk")
    window = config.target_window
    check_types = config.check_type_bytes

    def classify(block: bytes) -> Optional[int]:
        if len(block) < 8:
            return None
        walk = _walk(block)
        if isinstance(walk, RejectReason):
            return None
        t, landing = walk
        if landing not in window:
            return None
        if check_types:
            if block[t + _OUTER_TYPE] != 0x30 or block[t + _INNER_TYPE] != 0x30:
                return None
            final_pos = landing - 2  # t + 5 + L
            if final_pos >= len(block) or block[final_pos] != 0x04:
                return None
        return landing

    return classify


def exact_hit_probability(block_length: int, config: ParserConfig) -> float:
    """Exact probability that `make_classifier(config)` accepts a block of
    independent uniform bytes.

    The flag bytes pass with probability len(FLAWED_BLOCK_TYPES) / 65536
    = 2 / 65536, and with `require_walk` false that is the whole
    predicate.  The walk then needs its terminator t (the first zero byte
    from offset 2 on) with the inner length byte at t + 4 inside the
    block; t is the first zero with probability (255/256)^(t-2) / 256,
    and the bytes after it stay uniform.  A hit needs an inner length L
    with t + 7 + L in the target window.  Under `check_type_bytes` the two 0x30 type bytes and the
    0x04 final type byte each pass with probability 1/256, and the final
    type byte at t + 5 + L must lie inside the block.
    """
    prefix = len(FLAWED_BLOCK_TYPES) / 65536
    if not config.require_walk:
        return prefix
    if block_length < 8:
        return 0.0
    window = config.target_window
    total = 0.0
    for t in range(2, block_length - _INNER_LEN):
        landings = range(t + _LANDING_AFTER_INNER, t + _LANDING_AFTER_INNER + 256)
        if config.check_type_bytes:
            # final_pos = t + _INNER_CONTENT + L < block_length
            stop = block_length - _INNER_CONTENT + _LANDING_AFTER_INNER
            landings = range(landings.start, min(landings.stop, stop))
        steering = len(window.intersection(landings))
        total += (255 / 256) ** (t - 2) / 256 * steering / 256
    if config.check_type_bytes:
        total /= 256**3
    return prefix * total


def pkcs1_digest_block(digest: bytes, block_length: int) -> bytes:
    """Honest EMSA-PKCS1-v1_5 encoding: 00 01 FF..FF 00 DigestInfo digest."""
    if len(digest) != HASH_LENGTH:
        raise ValueError("digest must be 32 bytes")
    pad_len = block_length - 3 - len(SHA256_DIGEST_INFO) - HASH_LENGTH
    if pad_len < 8:
        raise ValueError(f"block length {block_length} too small for an honest signature")
    return b"\x00\x01" + b"\xff" * pad_len + b"\x00" + SHA256_DIGEST_INFO + digest


# --- annotated hex dump -------------------------------------------------

_LEGEND = (
    ("F", "flag byte"),
    ("P", "padding"),
    ("0", "padding terminator"),
    ("T", "type field"),
    ("L", "length field"),
    ("A", "added length"),
    (".", "other"),
)


def _categorize(block: bytes) -> list[str]:
    tags = ["."] * len(block)
    tags[0] = tags[1] = "F"
    if block[0] != 0x00 or block[1] not in FLAWED_BLOCK_TYPES:
        return tags
    t = block.find(0, 2)
    if t < 0:
        for i in range(2, len(block)):
            tags[i] = "P"
        return tags
    for i in range(2, t):
        tags[i] = "P"
    tags[t] = "0"
    for pos, tag in (
        (t + _OUTER_TYPE, "T"),
        (t + _OUTER_LEN, "L"),
        (t + _INNER_TYPE, "T"),
        (t + _INNER_LEN, "L"),
    ):
        if pos < len(block):
            tags[pos] = tag
    if t + _INNER_LEN < len(block):
        inner_len = block[t + _INNER_LEN]
        for i in range(t + _INNER_CONTENT, min(t + _INNER_CONTENT + inner_len, len(block))):
            tags[i] = "A"
        for pos, tag in (
            (t + _INNER_CONTENT + inner_len, "T"),
            (t + _INNER_CONTENT + inner_len + 1, "L"),
        ):
            if pos < len(block):
                tags[pos] = tag
    return tags


def annotate_plaintext(block: bytes) -> str:
    """Hex dump of a plaintext block with per-byte walk categories."""
    tags = _categorize(block)
    lines = []
    for row in range(0, len(block), 16):
        chunk = block[row : row + 16]
        hexes = " ".join(f"{b:02x}" for b in chunk)
        marks = "  ".join(tags[row : row + len(chunk)])
        lines.append(f"{row:#06x}  {hexes}")
        lines.append(f"        {marks}")
    legend = "   ".join(f"{code}={name}" for code, name in _LEGEND)
    lines.append(f"legend: {legend}")
    return "\n".join(lines)
