"""Modular arithmetic, RSA key generation, and the raw sign/verify primitives.

Python's built-in int already gives us arbitrary precision, so the "big
unsigned" type used throughout this package is plain `int` plus the
fixed-width big-endian codec below.  Byte order is big-endian everywhere;
that is a convention of this artifact, not a hardware fact.

Key generation is fully deterministic: prime candidates and Miller-Rabin
witnesses are drawn from a counter-mode SHA-256 stream (see `prng`), so a
seed pins down the whole keypair.

Most candidates that survive trial division are composite, and a round
on them is decided without the full modexp where possible.  m =
gcd(P mod c, c), with P the product of the primes from 53 to 10**4, is a
divisor of candidate c; when 1 < m < c, a round with witness a can pass
modulo c only if it passes modulo m (a**d = 1 or a**(d * 2**j) = -1 for
some j < r), because m divides c.  So a round that fails modulo m fails
outright, and any other round is run in full modulo c, as before.  Every
witness is still drawn before its round is decided, in the same order
and number, so the same candidates are accepted and the keys do not
change.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .prng import ByteStream, derive_seed

__all__ = [
    "mod_exp",
    "generate_keypair",
    "raw_sign",
    "raw_verify",
    "to_fixed_bytes",
    "from_fixed_bytes",
    "block_length_of",
    "RsaKeyPair",
    "Console",
    "SignatureType",
    "KeyRegistry",
    "REGISTRY_SLOTS",
    "write_key_file",
    "read_key_file",
    "write_registry",
    "read_registry",
]

MIN_BITS = 64
MAX_BITS = 4096

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_MILLER_RABIN_ROUNDS = 40


def _primes_below(bound: int) -> list[int]:
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, bound, i)))
    return [i for i, is_prime in enumerate(sieve) if is_prime]


# The product of the primes above _SMALL_PRIMES and below 10**4: one
# reduction and one gcd against it find a candidate's small divisor m.
_DIVISOR_PRODUCT = math.prod(p for p in _primes_below(10**4) if p > _SMALL_PRIMES[-1])


def mod_exp(base: int, exp: int, modulus: int) -> int:
    """base**exp mod modulus, refusing the moduli and exponents RSA never uses."""
    if modulus <= 1:
        raise ValueError("modulus must be > 1")
    if exp < 0:
        raise ValueError("exponent must be non-negative")
    return pow(base, exp, modulus)


def to_fixed_bytes(value: int, block_length: int) -> bytes:
    """Encode a non-negative integer as exactly `block_length` big-endian bytes."""
    if value < 0:
        raise ValueError("value must be non-negative")
    return value.to_bytes(block_length, "big")


def from_fixed_bytes(data: bytes) -> int:
    return int.from_bytes(data, "big")


def block_length_of(n: int) -> int:
    """Bytes in a signature block for modulus n: the byte length of n."""
    return (n.bit_length() + 7) // 8


@dataclass(frozen=True)
class RsaKeyPair:
    n: int
    e: int
    d: int

    @property
    def bit_length(self) -> int:
        return self.n.bit_length()

    @property
    def block_length(self) -> int:
        return block_length_of(self.n)

    @property
    def public(self) -> tuple[int, int]:
        return (self.n, self.e)


def _strong_round(a: int, d: int, r: int, modulus: int) -> bool:
    """Whether a**d = 1 or a**(d * 2**j) = -1 modulo `modulus` for some j < r.

    With modulus - 1 = d * 2**r this is one Miller-Rabin round.
    """
    x = pow(a, d, modulus)
    if x == 1 or x == modulus - 1:
        return True
    for _ in range(r - 1):
        x = pow(x, 2, modulus)
        if x == modulus - 1:
            return True
    return False


def _is_probable_prime(candidate: int, witnesses: ByteStream) -> bool:
    if candidate < 2:
        return False
    for p in _SMALL_PRIMES:
        if candidate == p:
            return True
        if candidate % p == 0:
            return False
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    m = math.gcd(_DIVISOR_PRODUCT % candidate, candidate)
    has_divisor = 1 < m < candidate
    for _ in range(_MILLER_RABIN_ROUNDS):
        a = 2 + witnesses.int_below(candidate - 3)
        if has_divisor and not _strong_round(a % m, d, r, m):
            return False
        if not _strong_round(a, d, r, candidate):
            return False
    return True


def _draw_prime(stream: ByteStream, bits: int, exponent: int) -> int:
    # Top two bits forced so p*q lands at exactly the requested size.
    window = 64 * max(bits, 64)
    for _ in range(window):
        candidate = stream.take_int(bits)
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if candidate % exponent == 1:
            continue
        if _is_probable_prime(candidate, stream):
            return candidate
    raise RuntimeError("prime search exhausted")


def generate_keypair(bit_length: int, seed: bytes | str, exponent: int = 65537) -> RsaKeyPair:
    """Deterministic RSA keypair: same (bit_length, seed, exponent) -> same key.

    `exponent` is normally 65537; pass 3 for the small-exponent variant.
    """
    if (
        bit_length < MIN_BITS
        or bit_length > MAX_BITS
        or bit_length % 8 != 0
    ):
        raise ValueError(
            f"bit_length must be a multiple of 8 in [{MIN_BITS}, {MAX_BITS}]"
        )
    if exponent not in (3, 65537):
        raise ValueError("exponent must be 3 or 65537")

    half = bit_length // 2
    for attempt in range(16):
        stream = ByteStream(derive_seed(seed, "rsa-keygen", bit_length, exponent, attempt))
        try:
            p = _draw_prime(stream, half, exponent)
            q = _draw_prime(stream, half, exponent)
            while q == p:
                q = _draw_prime(stream, half, exponent)
        except RuntimeError:
            # Retry the whole draw from a derived sub-seed.
            continue
        n = p * q
        lam = math.lcm(p - 1, q - 1)
        d = pow(exponent, -1, lam)
        assert n.bit_length() == bit_length
        return RsaKeyPair(n=n, e=exponent, d=d)
    raise RuntimeError("prime search exhausted after sub-seed retries")


def raw_sign(m: int, key: RsaKeyPair) -> int:
    """m**d mod n.  Requires 0 <= m < n."""
    if not 0 <= m < key.n:
        raise ValueError("message representative out of range")
    return mod_exp(m, key.d, key.n)


def raw_verify(s: int, pub: tuple[int, int]) -> int:
    """s**e mod n.  Requires 0 <= s < n."""
    n, e = pub
    if not 0 <= s < n:
        raise ValueError("signature representative out of range")
    return mod_exp(s, e, n)


class Console(Enum):
    RETAIL = "retail"
    DEVELOPER = "dev"


class SignatureType(Enum):
    NCSD_HEADER = "ncsd"
    NAND_BOOT = "nand"
    NON_NAND_BOOT = "nonnand"


REGISTRY_SLOTS: tuple[tuple[Console, SignatureType], ...] = tuple(
    (console, sig_type) for console in Console for sig_type in SignatureType
)


def slot_label(console: Console, sig_type: SignatureType) -> str:
    return f"{console.value}.{sig_type.value}"


def parse_slot_label(label: str) -> tuple[Console, SignatureType]:
    try:
        console_part, sig_part = label.strip().split(".")
        return Console(console_part), SignatureType(sig_part)
    except (ValueError, KeyError):
        raise ValueError(f"unknown key slot {label!r}") from None


class KeyRegistry:
    """The six public-key slots: (retail|dev) x (ncsd|nand|nonnand).

    Slots are write-once; a registry is complete when all six are filled.
    """

    def __init__(self) -> None:
        self._slots: dict[tuple[Console, SignatureType], tuple[int, int]] = {}

    def assign(self, console: Console, sig_type: SignatureType, pub: tuple[int, int]) -> None:
        slot = (console, sig_type)
        if slot in self._slots:
            raise ValueError(f"slot {slot_label(console, sig_type)} already assigned")
        n, e = pub
        if n <= 1 or e <= 1:
            raise ValueError("public key values out of range")
        self._slots[slot] = (n, e)

    def get(self, console: Console, sig_type: SignatureType) -> tuple[int, int]:
        try:
            return self._slots[(console, sig_type)]
        except KeyError:
            raise KeyError(
                f"slot {slot_label(console, sig_type)} not assigned"
            ) from None

    @property
    def is_complete(self) -> bool:
        return len(self._slots) == len(REGISTRY_SLOTS)

    def block_length(self, console: Console, sig_type: SignatureType) -> int:
        return block_length_of(self.get(console, sig_type)[0])


# --- key and registry files -------------------------------------------------
#
# Key file: one lowercase-hex field per line, `n=` padded to the block
# length, `e=` minimal width, `d=` present only for private keys.
# Registry file: one line per slot, `<console>.<type>=<n hex>:<e hex>`.


def write_key_file(path: str | Path, key: RsaKeyPair, private: bool = True) -> None:
    block = key.block_length
    lines = [
        f"n={key.n:0{2 * block}x}",
        f"e={key.e:x}",
    ]
    if private:
        lines.append(f"d={key.d:0{2 * block}x}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_key_file(path: str | Path) -> RsaKeyPair:
    fields: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if not re.fullmatch(r"[ned]=[0-9a-f]+", line):
            raise ValueError(f"malformed key file line: {line!r}")
        name, value = line.split("=", 1)
        fields[name] = value
    if "n" not in fields or "e" not in fields:
        raise ValueError("key file must contain n= and e=")
    n = int(fields["n"], 16)
    e = int(fields["e"], 16)
    d = int(fields["d"], 16) if "d" in fields else 0
    return RsaKeyPair(n=n, e=e, d=d)


def write_registry(path: str | Path, registry: KeyRegistry) -> None:
    if not registry.is_complete:
        raise ValueError("registry must have all six slots assigned")
    lines = []
    for console, sig_type in REGISTRY_SLOTS:
        n, e = registry.get(console, sig_type)
        lines.append(f"{slot_label(console, sig_type)}={n:0{2 * block_length_of(n)}x}:{e:x}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_registry(path: str | Path) -> KeyRegistry:
    registry = KeyRegistry()
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        label, _, value = line.partition("=")
        console, sig_type = parse_slot_label(label)
        n_hex, _, e_hex = value.partition(":")
        if not n_hex or not e_hex:
            raise ValueError(f"malformed registry line: {line!r}")
        registry.assign(console, sig_type, (int(n_hex, 16), int(e_hex, 16)))
    if not registry.is_complete:
        raise ValueError("registry file is missing slots")
    return registry
