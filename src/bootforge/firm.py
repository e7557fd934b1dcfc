"""Bit-exact firmware image container: build, serialize, sign, validate.

Fixed little-endian layout, normative for this artifact:

    0x000  magic "FIRM"
    0x004  boot_priority   u32
    0x008  arm11_entry     u32
    0x00C  arm9_entry      u32
    0x010  reserved        0x30 zero bytes
    0x040  four section headers, 0x30 bytes each:
             +0x00 offset  +0x04 phys_addr  +0x08 size
             +0x0C copy_method  +0x10 SHA-256 of the payload
    0x100  signature field, 0x100 bytes
    0x200  payloads at their offsets (0x200-aligned by the builder)

The signature covers SHA-256 of header bytes 0x000-0x0FF.  Keys smaller
than 2048 bits left-justify their block in the signature field; the
remainder stays zero.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, replace
from enum import IntEnum
from pathlib import Path
from typing import Optional, Sequence

from .modmath import (
    RsaKeyPair, block_length_of, from_fixed_bytes, raw_sign, raw_verify, to_fixed_bytes,
)
from .sigparser import (
    HASH_LENGTH,
    ParseOutcome,
    ParserMode,
    StackModel,
    flawed_parse,
    pkcs1_digest_block,
    strict_parse,
)

__all__ = [
    "CopyMethod",
    "SectionHeader",
    "FirmImage",
    "FirmParseError",
    "FirmValidation",
    "HEADER_LENGTH",
    "SIGNATURE_FIELD_LENGTH",
    "build_firm",
    "serialize",
    "parse",
    "header_digest",
    "sign_firm",
    "fakesign_firm",
    "validate_firm",
    "load_build_descriptor",
]

MAGIC = b"FIRM"
HEADER_LENGTH = 0x200
SIGNATURE_FIELD_LENGTH = 0x100
SECTION_COUNT = 4
SECTION_ALIGN = 0x200
_SIGNED_SPAN = 0x100  # header bytes covered by the signature


class CopyMethod(IntEnum):
    NDMA = 0
    XDMA = 1
    CPU_MEMCPY = 2


@dataclass(frozen=True)
class SectionHeader:
    offset: int = 0
    phys_addr: int = 0
    size: int = 0
    copy_method: CopyMethod = CopyMethod.NDMA
    digest: bytes = b"\x00" * HASH_LENGTH

    @property
    def used(self) -> bool:
        return self.size > 0


@dataclass(frozen=True)
class FirmImage:
    boot_priority: int = 0
    arm11_entry: int = 0
    arm9_entry: int = 0
    sections: tuple[SectionHeader, ...] = ()
    signature: bytes = b"\x00" * SIGNATURE_FIELD_LENGTH
    payloads: tuple[bytes, ...] = (b"",) * SECTION_COUNT


class FirmParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset:#x})")
        self.offset = offset


def build_firm(
    entries: Sequence[tuple[int, CopyMethod, bytes]],
    arm9_entry: int = 0,
    arm11_entry: int = 0,
    boot_priority: int = 0,
) -> FirmImage:
    """Lay out 1-4 payloads from offset 0x200, each 0x200-aligned.

    Overlapping physical address ranges are allowed (hardware register
    targets legitimately repeat); overlapping file offsets are not,
    which the sequential layout guarantees.
    """
    if not 1 <= len(entries) <= SECTION_COUNT:
        raise ValueError("an image needs between 1 and 4 sections")
    u32_fields = [arm9_entry, arm11_entry, boot_priority] + [entry[0] for entry in entries]
    if not all(0 <= value < 1 << 32 for value in u32_fields):
        raise ValueError("entry points, boot_priority and phys_addr must be in [0, 2^32)")
    sections: list[SectionHeader] = []
    payloads: list[bytes] = []
    offset = HEADER_LENGTH
    for phys_addr, copy_method, payload in entries:
        if len(payload) == 0:
            raise ValueError("section payloads must be non-empty")
        sections.append(
            SectionHeader(
                offset=offset,
                phys_addr=phys_addr,
                size=len(payload),
                copy_method=CopyMethod(copy_method),
                digest=hashlib.sha256(payload).digest(),
            )
        )
        payloads.append(bytes(payload))
        offset = (offset + len(payload) + SECTION_ALIGN - 1) // SECTION_ALIGN * SECTION_ALIGN
    while len(sections) < SECTION_COUNT:
        sections.append(SectionHeader())
        payloads.append(b"")
    return FirmImage(
        boot_priority=boot_priority,
        arm11_entry=arm11_entry,
        arm9_entry=arm9_entry,
        sections=tuple(sections),
        payloads=tuple(payloads),
    )


def _pack_header(image: FirmImage) -> bytes:
    out = bytearray()
    out += struct.pack(
        "<4sIII", MAGIC, image.boot_priority, image.arm11_entry, image.arm9_entry
    )
    out += b"\x00" * 0x30
    for section in image.sections:
        out += struct.pack(
            "<IIII",
            section.offset,
            section.phys_addr,
            section.size,
            int(section.copy_method),
        )
        out += section.digest
    if len(image.signature) != SIGNATURE_FIELD_LENGTH:
        raise ValueError("signature field must be exactly 0x100 bytes")
    out += image.signature
    assert len(out) == HEADER_LENGTH
    return bytes(out)


def serialize(image: FirmImage) -> bytes:
    total = HEADER_LENGTH
    for section in image.sections:
        if section.used:
            total = max(total, section.offset + section.size)
    out = bytearray(total)
    out[:HEADER_LENGTH] = _pack_header(image)
    for section, payload in zip(image.sections, image.payloads):
        if section.used:
            out[section.offset : section.offset + section.size] = payload
    return bytes(out)


def parse(data: bytes) -> FirmImage:
    if len(data) < HEADER_LENGTH:
        raise FirmParseError("image shorter than the 0x200-byte header", len(data))
    if data[:4] != MAGIC:
        raise FirmParseError("bad magic", 0)
    boot_priority, arm11_entry, arm9_entry = struct.unpack_from("<III", data, 4)
    if any(data[0x10:0x40]):
        raise FirmParseError("reserved header bytes must be zero", 0x10)
    sections: list[SectionHeader] = []
    for i in range(SECTION_COUNT):
        base = 0x40 + 0x30 * i
        offset, phys_addr, size, method = struct.unpack_from("<IIII", data, base)
        digest = bytes(data[base + 0x10 : base + 0x30])
        if size == 0:
            if offset or phys_addr or method or digest != b"\x00" * HASH_LENGTH:
                raise FirmParseError(f"unused section {i} has nonzero fields", base)
            sections.append(SectionHeader())
            continue
        if method not in (0, 1, 2):
            raise FirmParseError(f"section {i} has unknown copy method {method}", base + 0x0C)
        if offset < HEADER_LENGTH:
            raise FirmParseError(f"section {i} payload overlaps the header", base)
        if offset + size > len(data):
            raise FirmParseError(f"section {i} payload is truncated", base + 0x08)
        sections.append(
            SectionHeader(
                offset=offset,
                phys_addr=phys_addr,
                size=size,
                copy_method=CopyMethod(method),
                digest=digest,
            )
        )
    used = sorted((s for s in sections if s.used), key=lambda s: s.offset)
    cursor = HEADER_LENGTH
    for section in used:
        if section.offset < cursor:
            raise FirmParseError("section payloads overlap", section.offset)
        if any(data[cursor : section.offset]):
            raise FirmParseError("nonzero bytes between payloads", cursor)
        cursor = section.offset + section.size
    if len(data) != cursor:
        raise FirmParseError("trailing bytes after the last payload", cursor)
    payloads = tuple(
        bytes(data[s.offset : s.offset + s.size]) if s.used else b"" for s in sections
    )
    return FirmImage(
        boot_priority=boot_priority,
        arm11_entry=arm11_entry,
        arm9_entry=arm9_entry,
        sections=tuple(sections),
        signature=bytes(data[SIGNATURE_FIELD_LENGTH:HEADER_LENGTH]),
        payloads=payloads,
    )


def header_digest(image: FirmImage) -> bytes:
    """SHA-256 over the signed span, header bytes 0x000-0x0FF."""
    return hashlib.sha256(_pack_header(image)[:_SIGNED_SPAN]).digest()


def sign_firm(image: FirmImage, key: RsaKeyPair) -> FirmImage:
    """Embed an honest strict-format signature over the header digest."""
    if key.block_length > SIGNATURE_FIELD_LENGTH:
        raise ValueError("key block exceeds the 0x100-byte signature field")
    plaintext = pkcs1_digest_block(header_digest(image), key.block_length)
    signature = raw_sign(from_fixed_bytes(plaintext), key)
    block = to_fixed_bytes(signature, key.block_length)
    return replace(image, signature=block.ljust(SIGNATURE_FIELD_LENGTH, b"\x00"))


def fakesign_firm(image: FirmImage, exploit_sig: bytes) -> FirmImage:
    """Embed an arbitrary signature block verbatim."""
    sig_bytes = bytes(exploit_sig)
    if len(sig_bytes) > SIGNATURE_FIELD_LENGTH:
        raise ValueError("signature exceeds the 0x100-byte field")
    return replace(image, signature=sig_bytes.ljust(SIGNATURE_FIELD_LENGTH, b"\x00"))


@dataclass(frozen=True)
class FirmValidation:
    signature_outcome: ParseOutcome
    section_ok: tuple[Optional[bool], ...]   # None for unused slots
    first_bad_section: Optional[int]
    accepted: bool

    def to_json_dict(self) -> dict:
        return {
            "signature": self.signature_outcome.to_json_dict(),
            "section_ok": list(self.section_ok),
            "first_bad_section": self.first_bad_section,
            "accepted": self.accepted,
        }


def validate_firm(
    image: FirmImage,
    pub: tuple[int, int],
    mode: ParserMode = ParserMode.FLAWED,
    stack: Optional[StackModel] = None,
) -> FirmValidation:
    """Header-signature check under the parser `mode` picks, then section hashes.

    `ParserMode.STRICT` runs `strict_parse`; anything else runs the boot
    ROM's `flawed_parse` against `stack` (default: the boot9 layout at
    the key's block length).  The signature integer is reduced modulo n
    before the verify exponentiation, as the RSA hardware would.
    """
    n, _ = pub
    block_length = block_length_of(n)
    if block_length > SIGNATURE_FIELD_LENGTH:
        raise ValueError("key block exceeds the 0x100-byte signature field")
    calc_hash = header_digest(image)
    sig_int = from_fixed_bytes(image.signature[:block_length]) % n
    block = to_fixed_bytes(raw_verify(sig_int, pub), block_length)
    if mode is ParserMode.STRICT:
        outcome = strict_parse(block, calc_hash)
    else:
        if stack is None:
            stack = StackModel.boot9(block_length)
        outcome = flawed_parse(block, calc_hash, stack)

    section_ok: list[Optional[bool]] = []
    first_bad: Optional[int] = None
    for i, (section, payload) in enumerate(zip(image.sections, image.payloads)):
        if not section.used:
            section_ok.append(None)
            continue
        ok = hashlib.sha256(payload).digest() == section.digest
        section_ok.append(ok)
        if not ok and first_bad is None:
            first_bad = i
    accepted = outcome.is_accept and all(ok is not False for ok in section_ok)
    return FirmValidation(
        signature_outcome=outcome,
        section_ok=tuple(section_ok),
        first_bad_section=first_bad,
        accepted=accepted,
    )


def _parse_number(value) -> int:
    if isinstance(value, int):
        return value
    return int(str(value), 0)


def load_build_descriptor(path: str | Path) -> FirmImage:
    """Build an image from a JSON sidecar descriptor.

    Schema: {"sections": [{"phys_addr", "copy_method", "payload_file"}],
    "arm9_entry", "arm11_entry", "boot_priority"}; payload paths resolve
    relative to the descriptor file.
    """
    path = Path(path)
    desc = json.loads(path.read_text())
    if not isinstance(desc, dict) or not isinstance(desc.get("sections"), list):
        raise ValueError("a build descriptor is an object with a list of sections")
    entries = []
    for section in desc["sections"]:
        if not isinstance(section, dict) or not isinstance(section.get("payload_file"), str):
            raise ValueError("each section is an object with a payload_file name")
        method = section["copy_method"]
        if isinstance(method, str):
            method = CopyMethod[method.upper()]
        else:
            method = CopyMethod(method)
        payload = (path.parent / section["payload_file"]).read_bytes()
        entries.append((_parse_number(section["phys_addr"]), method, payload))
    return build_firm(
        entries,
        arm9_entry=_parse_number(desc.get("arm9_entry", 0)),
        arm11_entry=_parse_number(desc.get("arm11_entry", 0)),
        boot_priority=_parse_number(desc.get("boot_priority", 0)),
    )
