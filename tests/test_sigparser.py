import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bootforge.forge import craft_exploit_plaintext
from bootforge.sigparser import (
    HASH_LENGTH,
    ParserConfig,
    RejectReason,
    SHA256_DIGEST_INFO,
    StackModel,
    Verdict,
    annotate_plaintext,
    flawed_parse,
    make_classifier,
    pkcs1_digest_block,
    strict_parse,
)

# A known-good 0x100-byte exploit plaintext: padding terminator at 0xDF,
# length fields walking the parser to landing offset 0x100, one byte past
# the block.  The tail shape (30 62 30 1A ... C8 14) is the normative
# fixture for the walk arithmetic.
KNOWN_EXPLOIT_BLOCK = bytes.fromhex(
    "0002b31331c710412333a587890f9cf0"
    "b6a86e71c8a78f96b76082903b3e54ea"
    "9ab935978bbf2493bb829e9a5a6060b0"
    "c7811881176bcf9fe8b1c5c5e0a95327"
    "db8b52ec178a884ad9cf28db8bbf2922"
    "c05fd034ac81bd231aeb0cbef6f7de6f"
    "3a30812b9f9a83bf33251891bfa18fa3"
    "8a64c6ff5f77dbe11c3780c23ea9f6d0"
    "0f9c01d6fc8a878591d36c4f64aca6b8"
    "d11bbeb21476103c6e86ff2196d465ba"
    "4db78f81f1d3bcca186bddd56739a12d"
    "d36122f3f5b3dd518ddac4fa29395ea4"
    "cd9dfd80af8a399990f4fdd3cd6b07ec"
    "2122437ccfc3b62b1d1493a7dbb44200"
    "3062301ac0a5d87e1e31a4020f0beaec"
    "26994d2580324e60c6ceaba6539ac814"
)

BL = 0x100


def boot9_stack(block_length=BL):
    return StackModel.boot9(block_length)


def any_hash(tag=b"x"):
    return hashlib.sha256(tag).digest()


# Byte values the strict walk compares against, and a few others.
EDIT_BYTES = st.one_of(st.sampled_from([0x00, 0x01, 0x02, 0x04, 0x20, 0x30, 0x31, 0xFF]),
                       st.integers(0, 255))


class TestKnownExploitBlock:
    def test_transcription_shape(self):
        assert len(KNOWN_EXPLOIT_BLOCK) == BL
        assert KNOWN_EXPLOIT_BLOCK[:2] == b"\x00\x02"
        assert KNOWN_EXPLOIT_BLOCK.find(0, 2) == 0xDF
        assert KNOWN_EXPLOIT_BLOCK[0xE0:0xE4] == bytes.fromhex("3062301a")
        assert KNOWN_EXPLOIT_BLOCK[0xFE:] == bytes.fromhex("c814")

    def test_flawed_accepts_with_hash_after_block(self):
        for tag in (b"a", b"b", b"c"):
            outcome = flawed_parse(KNOWN_EXPLOIT_BLOCK, any_hash(tag), boot9_stack())
            assert outcome.verdict is Verdict.ACCEPT
            assert outcome.landing_offset == 0x100

    def test_rejects_when_stored_hash_is_elsewhere(self):
        stack = StackModel.factory_firmware(BL)  # stored hash not at 0x100
        outcome = flawed_parse(KNOWN_EXPLOIT_BLOCK, any_hash(), stack)
        assert outcome.verdict is Verdict.REJECT
        assert outcome.reason is RejectReason.HASH_MISMATCH

    def test_strict_rejects_block_type(self):
        outcome = strict_parse(KNOWN_EXPLOIT_BLOCK, any_hash())
        assert outcome.verdict is Verdict.REJECT
        assert outcome.reason is RejectReason.BAD_BLOCK_TYPE

    def test_classify_lands_at_0x100(self):
        config = ParserConfig.flawed(BL)
        assert make_classifier(config)(KNOWN_EXPLOIT_BLOCK) == 0x100


class TestHonestBlock:
    def test_both_parsers_accept(self):
        digest = any_hash(b"header")
        block = pkcs1_digest_block(digest, BL)
        strict = strict_parse(block, digest)
        assert strict.verdict is Verdict.ACCEPT
        assert strict.landing_offset == BL - HASH_LENGTH
        flawed = flawed_parse(block, digest, boot9_stack())
        assert flawed.verdict is Verdict.ACCEPT
        assert flawed.landing_offset == BL - HASH_LENGTH

    def test_hand_walk_arithmetic(self):
        # terminator at bl-52-1, then the 19 fixed bytes, then the hash
        digest = any_hash(b"h2")
        block = pkcs1_digest_block(digest, BL)
        t = block.find(0, 2)
        assert t == BL - len(SHA256_DIGEST_INFO) - HASH_LENGTH - 1
        assert block[t + 1 : t + 1 + len(SHA256_DIGEST_INFO)] == SHA256_DIGEST_INFO
        assert t + 7 + block[t + 4] == BL - HASH_LENGTH

    def test_honest_works_at_small_blocks(self):
        digest = any_hash(b"h3")
        block = pkcs1_digest_block(digest, 64)
        assert strict_parse(block, digest).verdict is Verdict.ACCEPT
        with pytest.raises(ValueError):
            pkcs1_digest_block(digest, 60)  # below the 8-byte padding floor


class TestStrictRejections:
    def setup_method(self):
        self.digest = any_hash(b"strict")
        self.block = bytearray(pkcs1_digest_block(self.digest, BL))

    def test_padding_mutation(self):
        self.block[10] = 0xFE
        outcome = strict_parse(bytes(self.block), self.digest)
        assert outcome.reason is RejectReason.PADDING_NOT_FF

    def test_block_type_two(self):
        self.block[1] = 0x02
        assert strict_parse(bytes(self.block), self.digest).reason is RejectReason.BAD_BLOCK_TYPE

    def test_no_terminator(self):
        block = b"\x00\x01" + b"\xff" * (BL - 2)
        assert strict_parse(block, self.digest).reason is RejectReason.NO_PADDING_TERMINATOR

    def test_padding_too_short(self):
        tail = SHA256_DIGEST_INFO + self.digest
        pad = BL - 3 - len(tail)
        block = b"\x00\x01" + b"\xff" * 4 + b"\x00" + tail + b"\xff" * (pad - 4)
        # terminator after only 4 FF bytes
        assert strict_parse(block, self.digest).reason is RejectReason.PADDING_TOO_SHORT

    def test_digest_info_mutation(self):
        t = self.block.index(0, 2)
        self.block[t + 5] ^= 0x01  # corrupt the fixed encoding
        assert strict_parse(bytes(self.block), self.digest).reason is RejectReason.BAD_ASN1

    def test_trailing_garbage(self):
        inner = pkcs1_digest_block(self.digest, BL - 1)
        block = inner + b"\xaa"
        assert strict_parse(block, self.digest).reason is RejectReason.TRAILING_GARBAGE

    def test_hash_cut_short_by_the_block_end(self):
        # The DigestInfo is whole but the block ends 3 bytes into its hash.
        outcome = strict_parse(bytes(self.block[:-3]), self.digest)
        assert (outcome.reason, outcome.landing_offset) == (RejectReason.BAD_ASN1, None)

    def test_length_beyond_block(self):
        t = self.block.index(0, 2)
        self.block[t + 4] = 0xF0  # inner length now points outside
        assert strict_parse(bytes(self.block), self.digest).reason is RejectReason.BAD_ASN1

    def test_hash_mismatch(self):
        assert strict_parse(bytes(self.block), any_hash(b"other")).reason is RejectReason.HASH_MISMATCH

    def test_never_out_of_bounds(self):
        rng = random.Random(5)
        for _ in range(500):
            block = bytes([0x00, 0x01]) + bytes(rng.randrange(256) for _ in range(BL - 2))
            assert strict_parse(block, self.digest).verdict is not Verdict.OUT_OF_BOUNDS


class TestFlawedWalk:
    def test_bad_block_type(self):
        block = b"\x01\x02" + b"\x11" * (BL - 2)
        assert flawed_parse(block, any_hash(), boot9_stack()).reason is RejectReason.BAD_BLOCK_TYPE
        block = b"\x00\x03" + b"\x11" * (BL - 2)
        assert flawed_parse(block, any_hash(), boot9_stack()).reason is RejectReason.BAD_BLOCK_TYPE

    def test_block_type_one_allowed(self):
        block = bytearray(craft_exploit_plaintext(BL, BL, b"bt1"))
        block[1] = 0x01
        outcome = flawed_parse(bytes(block), any_hash(), boot9_stack())
        assert outcome.verdict is Verdict.ACCEPT

    def test_no_terminator(self):
        block = b"\x00\x02" + b"\xff" * (BL - 2)
        assert (
            flawed_parse(block, any_hash(), boot9_stack()).reason
            is RejectReason.NO_PADDING_TERMINATOR
        )

    def test_terminator_too_late_is_structural_reject(self):
        # inner length byte would sit outside the block
        block = b"\x00\x02" + b"\x11" * (BL - 5) + b"\x00" + b"\x11\x11"
        assert len(block) == BL
        assert block.find(0, 2) == BL - 3
        assert flawed_parse(block, any_hash(), boot9_stack()).reason is RejectReason.BAD_ASN1

    def test_out_of_bounds_landing(self):
        block = craft_exploit_plaintext(BL, BL + 0x60, b"deep")
        stack = boot9_stack()  # covers only 0x40 bytes past the block
        outcome = flawed_parse(block, any_hash(), stack)
        assert outcome.verdict is Verdict.OUT_OF_BOUNDS
        assert outcome.landing_offset == BL + 0x60

    def test_self_comparison_trap(self):
        # landing == stored-hash offset compares the hash against itself
        rng = random.Random(11)
        block = craft_exploit_plaintext(BL, BL, b"trap")
        stack = boot9_stack()
        for _ in range(50):
            calc = bytes(rng.randrange(256) for _ in range(32))
            assert flawed_parse(block, calc, stack).verdict is Verdict.ACCEPT

    def test_determinism(self):
        block = craft_exploit_plaintext(BL, BL + 3, b"det")
        a = flawed_parse(block, any_hash(), boot9_stack())
        b = flawed_parse(block, any_hash(), boot9_stack())
        assert a == b


class TestClassify:
    def test_all_ff_block(self):
        assert make_classifier(ParserConfig.flawed(BL))(b"\xff" * BL) is None

    def test_empty_window_never_hits(self):
        config = ParserConfig.flawed(BL, window=[])
        assert make_classifier(config)(KNOWN_EXPLOIT_BLOCK) is None

    def test_type_byte_checks(self):
        config = ParserConfig.flawed(BL, check_type_bytes=True)
        # the known block has a junk final type byte, so the stricter
        # search predicate refuses it even though the walk completes
        assert make_classifier(config)(KNOWN_EXPLOIT_BLOCK) is None
        block = bytearray(KNOWN_EXPLOIT_BLOCK)
        block[0xFE] = 0x04
        assert make_classifier(config)(bytes(block)) == 0x100

    @given(seed=st.binary(min_size=1, max_size=8), offset=st.integers(0, 127))
    @settings(max_examples=120, deadline=None)
    def test_oracle_agreement_with_flawed_parse(self, seed, offset):
        # classify says L exactly when the flawed parser accepts a stack
        # whose stored hash sits at L (stack coverage permitting)
        landing = BL + offset
        block = craft_exploit_plaintext(BL, landing, seed)
        config = ParserConfig.flawed(BL, window=range(BL, BL + 128))
        got = make_classifier(config)(block)
        assert got == landing
        stack = StackModel(
            post_bytes=bytes(range(256)) * 2, calc_hash_offset=landing, pre_gap=b""
        )
        assert flawed_parse(block, any_hash(seed), stack).verdict is Verdict.ACCEPT
        # and a stack with the hash elsewhere must not accept
        other = StackModel(
            post_bytes=bytes(range(256)) * 2, calc_hash_offset=landing + 32, pre_gap=b""
        )
        assert flawed_parse(block, any_hash(seed), other).verdict is not Verdict.ACCEPT

    @pytest.mark.parametrize("block_length", [64, 0x100])
    def test_default_predicate_is_the_boot_landing(self, block_length):
        # The search's default target is where the boot stores its own hash:
        # of every reachable landing, classify takes exactly those the flawed
        # walk accepts against the boot's stack.
        stack = StackModel.boot9(block_length)
        config = ParserConfig.flawed(block_length)
        assert config.target_window == {stack.calc_hash_offset}
        classify = make_classifier(config)
        rng = random.Random(block_length)
        hashes = [rng.randbytes(HASH_LENGTH) for _ in range(3)]
        for landing in range(block_length, block_length + 128):
            block = craft_exploit_plaintext(block_length, landing, bytes([landing & 0xFF]))
            hit = classify(block) == landing
            for calc_hash in hashes:
                assert flawed_parse(block, calc_hash, stack).is_accept == hit, landing
            assert hit == (landing == block_length)

    @given(data=st.binary(min_size=BL, max_size=BL))
    @settings(max_examples=300, deadline=None)
    def test_classify_success_implies_flawed_accept(self, data):
        config = ParserConfig.flawed(BL)
        landing = make_classifier(config)(data)
        if landing is None:
            return
        stack = StackModel(post_bytes=b"\x55" * 0x200, calc_hash_offset=landing)
        assert flawed_parse(data, any_hash(), stack).verdict is Verdict.ACCEPT

    @given(
        seed=st.binary(min_size=1, max_size=8),
        offset=st.integers(0, 127),
        block_type=st.sampled_from([0x01, 0x02]),
        edits=st.lists(st.tuples(st.integers(0, BL - 1), EDIT_BYTES), max_size=4),
        follow_walk=st.booleans(),
        window=st.one_of(st.just((BL, 128)), st.tuples(st.integers(0, BL + 300), st.integers(1, 300))),
    )
    @settings(max_examples=400, deadline=None)
    def test_flawed_accept_implies_classify_landing(
        self, seed, offset, block_type, edits, follow_walk, window
    ):
        # The search's soundness premise, the converse of the test above: a
        # block the flawed parser accepts against a stack whose stored hash
        # sits at L classifies as L whenever L is in the window.  Edited
        # crafted blocks make accepts common; with `follow_walk` the hash is
        # stored where the edited block's walk now lands.
        block = bytearray(craft_exploit_plaintext(BL, BL + offset, seed))
        block[1] = block_type
        for pos, value in edits:
            block[pos] = value
        block = bytes(block)
        stored_at = BL + offset
        if follow_walk:
            probe = StackModel(post_bytes=bytes(0x200), calc_hash_offset=stored_at)
            stored_at = flawed_parse(block, any_hash(seed), probe).landing_offset or stored_at
        stack = StackModel(post_bytes=bytes(range(256)) * 2, calc_hash_offset=stored_at)
        config = ParserConfig.flawed(BL, window=range(window[0], window[0] + window[1]))
        if flawed_parse(block, any_hash(seed), stack).is_accept and stored_at in config.target_window:
            assert make_classifier(config)(block) == stored_at


class TestStrictSubsetOfFlawed:
    @given(tag=st.binary(min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_strict_accept_implies_flawed_accept(self, tag):
        digest = hashlib.sha256(tag).digest()
        block = pkcs1_digest_block(digest, BL)
        assert strict_parse(block, digest).verdict is Verdict.ACCEPT
        assert flawed_parse(block, digest, boot9_stack()).verdict is Verdict.ACCEPT

    def test_converse_fails_for_exploit_blocks(self):
        assert flawed_parse(KNOWN_EXPLOIT_BLOCK, any_hash(), boot9_stack()).is_accept
        assert not strict_parse(KNOWN_EXPLOIT_BLOCK, any_hash()).is_accept


BLOCK_EDITS = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.integers(0, 0x110), EDIT_BYTES),
        st.tuples(st.just("insert"), st.integers(0, 0x110), EDIT_BYTES),
        st.tuples(st.just("delete"), st.integers(0, 0x110)),
        st.tuples(st.just("truncate"), st.integers(8, 0x110)),
        st.tuples(st.just("extend"), st.binary(min_size=1, max_size=4)),
    ),
    max_size=4,
)


class TestEncodeAndCompare:
    """RFC 8017 section 8.2.2 verifies by encoding the hash and comparing the
    blocks; `strict_parse` must accept exactly the blocks that encoding gives."""

    @given(
        tag=st.binary(max_size=4),
        other_hash=st.booleans(),
        block_length=st.sampled_from([62, 64, 0x100]),
        edits=BLOCK_EDITS,
    )
    @settings(max_examples=400, deadline=None)
    def test_strict_accepts_exactly_the_encoded_block(self, tag, other_hash, block_length, edits):
        digest = hashlib.sha256(tag).digest()
        block = bytearray(pkcs1_digest_block(digest, block_length))
        for kind, *args in edits:
            if kind == "set":
                block[args[0] % len(block)] = args[1]
            elif kind == "insert":
                block.insert(args[0] % (len(block) + 1), args[1])
            elif kind == "delete" and len(block) > 8:  # strict_parse refuses shorter blocks
                del block[args[0] % len(block)]
            elif kind == "truncate":
                del block[args[0]:]
            elif kind == "extend":
                block += args[0]
        calc_hash = any_hash(tag + b"other") if other_hash else digest
        try:
            encoded = pkcs1_digest_block(calc_hash, len(block))
        except ValueError:  # too short for 8 bytes of padding
            encoded = None
        assert strict_parse(bytes(block), calc_hash).is_accept == (block == encoded)


def test_annotated_dump_mentions_legend():
    text = annotate_plaintext(KNOWN_EXPLOIT_BLOCK)
    assert "legend:" in text
    assert "flag byte" in text and "added length" in text
    assert "length field" in text and "type field" in text
    # 16 hex rows + 16 tag rows + legend
    assert len(text.splitlines()) == 33


def test_stack_model_reads():
    stack = StackModel(post_bytes=b"\xaa\xbb", calc_hash_offset=100, pre_gap=b"\x01\x02")
    block = bytes(range(64))
    calc = bytes(range(100, 132))
    assert stack.read_byte(-1, block, calc) == 0x02
    assert stack.read_byte(-2, block, calc) == 0x01
    assert stack.read_byte(-3, block, calc) is None
    assert stack.read_byte(0, block, calc) == 0
    assert stack.read_byte(63, block, calc) == 63
    assert stack.read_byte(64, block, calc) == 0xAA
    assert stack.read_byte(66, block, calc) is None
    assert stack.read_byte(100, block, calc) == 100  # stored-hash overlay
