import hashlib
import json
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bootforge.firm import (
    CopyMethod,
    FirmParseError,
    build_firm,
    fakesign_firm,
    header_digest,
    load_build_descriptor,
    parse,
    serialize,
    sign_firm,
    validate_firm,
)
from bootforge.forge import forge_with_private_key
from bootforge.sigparser import ParserMode, RejectReason, StackModel, Verdict
from sha256_oracle import sha256 as oracle_sha256

FLAWED = ParserMode.FLAWED
STRICT = ParserMode.STRICT


def boot9_stack():
    return StackModel.boot9(64)


class TestSha256KnownAnswers:
    # FIPS 180-4 vectors, checked against both the library hash and the
    # independent oracle implementation used by the digest tests.
    VECTORS = [
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
    ]

    @pytest.mark.parametrize("message,expected", VECTORS)
    def test_hashlib(self, message, expected):
        assert hashlib.sha256(message).hexdigest() == expected

    @pytest.mark.parametrize("message,expected", VECTORS)
    def test_oracle(self, message, expected):
        assert oracle_sha256(message).hex() == expected

    def test_oracle_agrees_on_random_lengths(self):
        rng = random.Random(3)
        for _ in range(40):
            data = rng.randbytes(rng.randrange(0, 300))
            assert oracle_sha256(data) == hashlib.sha256(data).digest()


class TestBuild:
    def test_layout_single_section(self):
        image = build_firm([(0x08006000, CopyMethod.CPU_MEMCPY, b"x" * 0x400)])
        assert image.sections[0].offset == 0x200
        assert image.sections[0].size == 0x400
        for section in image.sections[1:]:
            assert not section.used
            assert (section.offset, section.phys_addr, section.size) == (0, 0, 0)

    def test_layout_sequential_alignment(self):
        image = build_firm(
            [
                (0x08000000, CopyMethod.CPU_MEMCPY, b"a" * 0x201),
                (0x08001000, CopyMethod.NDMA, b"b" * 0x10),
                (0x08002000, CopyMethod.XDMA, b"c" * 0x10),
            ]
        )
        assert [s.offset for s in image.sections[:3]] == [0x200, 0x600, 0x800]

    def test_section_digest_matches_oracle(self):
        payload = b"firmware section payload" * 9
        image = build_firm([(0x08000000, CopyMethod.CPU_MEMCPY, payload)])
        assert image.sections[0].digest == oracle_sha256(payload)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            build_firm([])
        five = [(0x0, CopyMethod.NDMA, b"x")] * 5
        with pytest.raises(ValueError):
            build_firm(five)
        with pytest.raises(ValueError):
            build_firm([(0x0, CopyMethod.NDMA, b"")])

    def test_overlapping_phys_addrs_allowed(self):
        image = build_firm(
            [
                (0x08000000, CopyMethod.CPU_MEMCPY, b"a" * 8),
                (0x08000000, CopyMethod.CPU_MEMCPY, b"b" * 8),
            ]
        )
        assert image.sections[0].phys_addr == image.sections[1].phys_addr


class TestCodec:
    def test_round_trip_identity(self, plain_image):
        data = serialize(plain_image)
        assert serialize(parse(data)) == data
        assert parse(data) == plain_image

    def test_bad_magic_position(self):
        data = bytearray(serialize(build_firm([(0, CopyMethod.NDMA, b"x")])))
        data[:4] = b"FIRN"
        with pytest.raises(FirmParseError) as err:
            parse(bytes(data))
        assert err.value.offset == 0

    def test_short_header(self):
        with pytest.raises(FirmParseError):
            parse(b"FIRM" + b"\x00" * 0x100)

    def test_truncated_payload(self):
        data = serialize(build_firm([(0, CopyMethod.NDMA, b"x" * 0x100)]))
        with pytest.raises(FirmParseError):
            parse(data[:-1])

    def test_trailing_bytes_rejected(self):
        data = serialize(build_firm([(0, CopyMethod.NDMA, b"x" * 0x100)]))
        with pytest.raises(FirmParseError):
            parse(data + b"\x00")

    def test_nonzero_gap_rejected(self):
        data = bytearray(
            serialize(
                build_firm(
                    [
                        (0, CopyMethod.NDMA, b"x" * 0x10),
                        (0, CopyMethod.NDMA, b"y" * 0x10),
                    ]
                )
            )
        )
        data[0x300] = 0xFF  # inside the alignment gap
        with pytest.raises(FirmParseError):
            parse(bytes(data))

    def test_unused_section_with_fields_rejected(self):
        data = bytearray(serialize(build_firm([(0, CopyMethod.NDMA, b"x")])))
        struct.pack_into("<I", data, 0x40 + 0x30 + 4, 0x1234)  # phys on unused slot
        with pytest.raises(FirmParseError):
            parse(bytes(data))

    @given(
        payloads=st.lists(st.binary(min_size=1, max_size=700), min_size=1, max_size=4),
        entry=st.integers(0, 0xFFFFFFFF),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip_property(self, payloads, entry):
        image = build_firm(
            [(0x08000000 + i, CopyMethod(i % 3), p) for i, p in enumerate(payloads)],
            arm9_entry=entry,
        )
        data = serialize(image)
        assert serialize(parse(data)) == data


GOLDEN_SHA256 = "8ff8af346627c116d4c90e91a25677bb404418d6007347b11b8b78d03629aa88"


class TestGoldenImage:
    """One fixed image, frozen and audited against the layout table."""

    def build(self):
        return build_firm(
            [
                (0x08006000, CopyMethod.CPU_MEMCPY, bytes(range(16)) * 2),
                (0x10002000, CopyMethod.NDMA, b"\xa5" * 16),
            ],
            arm9_entry=0x08006000,
            arm11_entry=0x1FF80000,
            boot_priority=7,
        )

    def test_frozen_bytes(self):
        data = serialize(self.build())
        assert len(data) == 0x410
        assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256

    def test_field_audit_at_documented_offsets(self):
        data = serialize(self.build())
        assert data[0:4] == b"FIRM"
        assert struct.unpack_from("<I", data, 0x004)[0] == 7
        assert struct.unpack_from("<I", data, 0x008)[0] == 0x1FF80000
        assert struct.unpack_from("<I", data, 0x00C)[0] == 0x08006000
        assert data[0x010:0x040] == b"\x00" * 0x30
        off, phys, size, method = struct.unpack_from("<IIII", data, 0x040)
        assert (off, phys, size, method) == (0x200, 0x08006000, 0x20, 2)
        assert data[0x050:0x070] == hashlib.sha256(bytes(range(16)) * 2).digest()
        off2, phys2, size2, method2 = struct.unpack_from("<IIII", data, 0x070)
        assert (off2, phys2, size2, method2) == (0x400, 0x10002000, 0x10, 0)
        assert data[0x100:0x200] == b"\x00" * 0x100  # unsigned so far
        assert data[0x200:0x220] == bytes(range(16)) * 2
        assert data[0x400:0x410] == b"\xa5" * 16


class TestSignatures:
    def test_honest_sign_accepts_both(self, key512, plain_image):
        signed = sign_firm(plain_image, key512)
        strict = validate_firm(signed, key512.public, STRICT)
        flawed = validate_firm(signed, key512.public, FLAWED, boot9_stack())
        assert strict.accepted and strict.signature_outcome.is_accept
        assert flawed.accepted

    def test_fakesign_splits_the_parsers(self, key512, plain_image):
        forged = forge_with_private_key(key512, 64, b"fake-sig")
        faked = fakesign_firm(plain_image, forged.signature_bytes())
        flawed = validate_firm(faked, key512.public, FLAWED, boot9_stack())
        strict = validate_firm(faked, key512.public, STRICT)
        assert flawed.accepted
        assert strict.signature_outcome.reason is RejectReason.BAD_BLOCK_TYPE

    def test_random_signature_rejects_everywhere(self, key512, plain_image):
        rng = random.Random(9)
        faked = fakesign_firm(plain_image, rng.randbytes(64))
        flawed = validate_firm(faked, key512.public, FLAWED, boot9_stack())
        strict = validate_firm(faked, key512.public, STRICT)
        assert flawed.signature_outcome.verdict is Verdict.REJECT
        assert strict.signature_outcome.verdict is Verdict.REJECT

    def test_signature_covers_first_0x100_bytes_only(self, key512, plain_image):
        signed = sign_firm(plain_image, key512)
        baseline = serialize(signed)
        rng = random.Random(10)
        for _ in range(24):
            offset = rng.randrange(0x100)
            tampered = bytearray(baseline)
            tampered[offset] ^= 1 << rng.randrange(8)
            # a covered-byte flip either breaks structural parsing or the
            # signature check; it never survives as an accepted image
            try:
                outcome = validate_firm(parse(bytes(tampered)), key512.public, STRICT)
            except FirmParseError:
                continue
            assert not outcome.accepted, f"bit flip at {offset:#x} must break the signature"

    def test_payload_flip_breaks_section_not_signature(self, key512, plain_image):
        signed = sign_firm(plain_image, key512)
        tampered = bytearray(serialize(signed))
        tampered[0x200] ^= 0x80
        validation = validate_firm(parse(bytes(tampered)), key512.public, STRICT)
        assert validation.signature_outcome.is_accept
        assert validation.first_bad_section == 0
        assert validation.section_ok[0] is False
        assert not validation.accepted

    def test_header_digest_is_sha256_of_signed_span(self, plain_image):
        data = serialize(plain_image)
        assert header_digest(plain_image) == oracle_sha256(data[:0x100])


def test_build_descriptor_loader(tmp_path):
    (tmp_path / "payload.bin").write_bytes(b"descriptor payload")
    descriptor = {
        "sections": [
            {"phys_addr": "0x08006000", "copy_method": "cpu_memcpy", "payload_file": "payload.bin"}
        ],
        "arm9_entry": "0x08006000",
        "arm11_entry": 0,
        "boot_priority": 1,
    }
    path = tmp_path / "image.json"
    path.write_text(json.dumps(descriptor))
    image = load_build_descriptor(path)
    assert image.sections[0].phys_addr == 0x08006000
    assert image.sections[0].copy_method is CopyMethod.CPU_MEMCPY
    assert image.payloads[0] == b"descriptor payload"
    assert image.boot_priority == 1
