"""Set-up: keys, registry, prebuilt images, the hostile corpus and exact p.

`build_corpus` is the work the benchmark counts as set-up time; it does
not construct a `Machine`, which every operation pays for itself.  It
derives everything with `prng.derive_seed` from `SETUP_SEED`, a constant,
not from the workload seed: key generation time depends on the key (one
2048-bit key takes 0.7-2.7 s), so seed-derived keys would make set-up
time vary with the seed.  Operations draw their own inputs from the
workload seed (`ops.py`).
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

from bootforge import bootsim, firm, forge, modmath
from bootforge.bootsim import NDMA_WINDOW_BASE, NdmaRequest
from bootforge.firm import CopyMethod
from bootforge.modmath import Console, KeyRegistry, SignatureType
from bootforge.prng import ByteStream, derive_seed

BL512 = 64
BL2048 = 256
# Criterion 3's window at 512 bits; the default 128-offset window at 2048.
WINDOW512 = range(BL512, BL512 + 32)
WINDOW2048 = range(BL2048, BL2048 + 128)

FCRAM_BASE = 0x20000000
FCRAM_END = 0x28000000
BIGCOPY_LEN = 32 << 20
OFFMAP_MAPPED = 16 << 20
PAYLOAD_ADDR = 0x08006000
SETUP_SEED = derive_seed(b"perfbench", "setup")


def exact_p_bytes(block_length: int, window: range) -> float:
    """Exact probability that uniform random bytes pass the flawed walk
    (block type 1 or 2) and land in `window`.

    Sum over terminator positions t of P(t is the first zero byte after
    the flag bytes) times the share of steering bytes L with
    t + 7 + L in the window; the walk needs t + 4 inside the block.
    """
    lo, hi = window[0], window[-1]
    total = 0.0
    for t in range(2, block_length - 4):
        count = max(0, min(255, hi - t - 7) - max(0, lo - t - 7) + 1)
        total += (255 / 256) ** (t - 2) / 256 * count / 256
    return total / 256 * 2 / 256


def exact_p_search(n: int, window: range) -> float:
    """Per-attempt hit probability of the chain search against modulus n.

    Chain values are uniform modulo n, not uniform bytes: the top byte is
    zero with probability 2^(8(bl-1))/n, and given that, the low bytes are
    exactly uniform.
    """
    bl = (n.bit_length() + 7) // 8
    return exact_p_bytes(bl, window) * 256 * ((1 << (8 * bl - 8)) / n)


def poisson_band(mean: float, tail: float = 1e-9) -> tuple[int, int]:
    """Smallest [lo, hi] with P(X < lo) and P(X > hi) each below `tail`."""
    pmf = math.exp(-mean)
    cdf = 0.0
    lo = None
    k = 0
    while True:
        if lo is None and cdf + pmf > tail:
            lo = k
        cdf += pmf
        if 1.0 - cdf < tail and lo is not None:
            return lo, k
        k += 1
        pmf *= mean / k


def _signed(entries, key) -> firm.FirmImage:
    image = firm.build_firm(entries, arm9_entry=PAYLOAD_ADDR, arm11_entry=PAYLOAD_ADDR)
    return firm.sign_firm(image, key)


def _patched(data: bytes, offset: int, value: bytes) -> bytes:
    return data[:offset] + value + data[offset + len(value):]


@dataclass
class Corpus:
    registry: KeyRegistry
    nand_key: modmath.RsaKeyPair
    cart_key: modmath.RsaKeyPair       # retail non-NAND slot, for the NTR path
    key2048: modmath.RsaKeyPair
    honest_bytes: bytes
    hostile: dict          # name -> image bytes
    reject_names: tuple    # the cheap-rejection images, in cycle order
    p_search: dict         # leg -> exact per-attempt hit probability


def build_corpus(tracer) -> Corpus:
    """One set-up; every call does the same work and returns the same corpus."""
    base = SETUP_SEED
    T = tracer
    registry = KeyRegistry()
    keys = {}
    for console, sig_type in modmath.REGISTRY_SLOTS:
        label = modmath.slot_label(console, sig_type)
        with T.span("modmath.generate_keypair", bits=512):
            key = modmath.generate_keypair(512, derive_seed(base, "slot", label))
        keys[(console, sig_type)] = key
        registry.assign(console, sig_type, key.public)
    with T.span("modmath.generate_keypair", bits=2048):
        key2048 = modmath.generate_keypair(2048, derive_seed(base, "search-2048"))
    nand_key = keys[(Console.RETAIL, SignatureType.NAND_BOOT)]

    payload = ByteStream(derive_seed(base, "payload")).take(0xF0)
    with T.span("firm.sign_firm"):
        honest = _signed([(PAYLOAD_ADDR, CopyMethod.CPU_MEMCPY, payload)], nand_key)
    with T.span("firm.serialize"):
        honest_bytes = firm.serialize(honest)

    hostile = {}
    # Garbage signature: seed-derived bytes whose decoded block fails the
    # flag-byte check, so the verdict is a plain reject.
    for attempt in range(64):
        junk = ByteStream(derive_seed(base, "garbage", attempt)).take(BL512)
        decoded = modmath.raw_verify(int.from_bytes(junk, "big") % nand_key.n, nand_key.public)
        if decoded >> (8 * BL512 - 16) not in (1, 2):
            break
    hostile["garbage_sig"] = firm.serialize(firm.fakesign_firm(honest, junk))
    with T.span("forge.forge_with_private_key"):
        off_stack = forge.forge_with_private_key(
            nand_key, BL512 + 0x50, derive_seed(base, "off-stack")
        )
    hostile["off_stack"] = firm.serialize(
        firm.fakesign_firm(honest, off_stack.signature_bytes())
    )

    two = firm.serialize(
        _signed(
            [
                (PAYLOAD_ADDR, CopyMethod.CPU_MEMCPY, payload),
                (PAYLOAD_ADDR + 0x1000, CopyMethod.CPU_MEMCPY, payload[::-1]),
            ],
            nand_key,
        )
    )
    section1 = 0x40 + 0x30
    hostile["truncated"] = two[:-0x10]
    hostile["bad_magic"] = _patched(two, 0, b"FIRX")
    hostile["overlap"] = _patched(two, section1, two[0x40:0x44])
    hostile["trailing"] = two + b"\x00" * 0x10
    hostile["bad_copy_method"] = _patched(two, 0x40 + 0x0C, struct.pack("<I", 7))

    # Exploit image without its ARM11 section: ARM11 never raises the
    # hand-off flag, so the scheduler spins until its watchdog trips.
    with T.span("forge.forge_with_private_key"):
        sig = forge.forge_with_private_key(
            nand_key, BL512, derive_seed(base, "stall-sig")
        ).signature_bytes()
    staged = bootsim.build_exploit_image(sig)
    gutted = firm.build_firm(
        [
            (bootsim.ARM9_SAFE_AREA, CopyMethod.CPU_MEMCPY, staged.payloads[1]),
            (NDMA_WINDOW_BASE, CopyMethod.NDMA, staged.payloads[2]),
            (0x00000000, CopyMethod.CPU_MEMCPY, staged.payloads[3]),
        ],
        arm9_entry=staged.arm9_entry,
        arm11_entry=staged.arm11_entry,
    )
    hostile["stall"] = firm.serialize(firm.fakesign_firm(gutted, sig))

    def ndma_image(src: int, dst: int, length: int) -> bytes:
        record = NdmaRequest(src=src, dst=dst, length=length).pack()
        return firm.serialize(
            _signed(
                [
                    (PAYLOAD_ADDR, CopyMethod.CPU_MEMCPY, payload),
                    (NDMA_WINDOW_BASE, CopyMethod.NDMA, record),
                ],
                nand_key,
            )
        )

    hostile["bigcopy"] = ndma_image(FCRAM_BASE, FCRAM_BASE + BIGCOPY_LEN, BIGCOPY_LEN)
    hostile["offmap"] = ndma_image(FCRAM_END - OFFMAP_MAPPED, FCRAM_BASE, BIGCOPY_LEN)

    p_search = {
        "search512": exact_p_search(nand_key.n, WINDOW512),
        "search2048": exact_p_search(key2048.n, WINDOW2048),
    }
    p_search["search512_2w"] = p_search["search512"]
    return Corpus(
        registry=registry,
        nand_key=nand_key,
        cart_key=keys[(Console.RETAIL, SignatureType.NON_NAND_BOOT)],
        key2048=key2048,
        honest_bytes=honest_bytes,
        hostile=hostile,
        reject_names=(
            "garbage_sig", "off_stack", "truncated", "bad_magic",
            "overlap", "trailing", "bad_copy_method",
        ),
        p_search=p_search,
    )


def digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
    return h.hexdigest()
