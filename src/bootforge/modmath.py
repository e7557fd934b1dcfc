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

`raw_sign` computes m**d mod n through the Chinese remainder theorem
(Quisquater and Couvreur, 1982).  With n = p*q, dp = d mod (p - 1) and
dq = d mod (q - 1), Fermat's little theorem gives m**d = m**dp mod p and
m**d = m**dq mod q for every m, multiples of p and q included, because
e*dp = 1 mod (p - 1) makes dp positive.  Garner's recombination with
q**-1 mod p then yields the one residue mod n that has both, which is
the same integer as the full modexp: the bytes do not change, only the
cost, two half-size exponentiations instead of one full one.

The factors come from `generate_keypair`, which drew them.  A key built
from (n, e, d) alone, as `read_key_file` builds one, recovers them the
first time it signs: e*d - 1 = 2**t * r is a multiple of lcm(p-1, q-1),
so for a base g one of g**r, g**(2r), ... is a square root of 1, and a
non-trivial one splits n through a gcd (NIST SP 800-56B, Appendix C;
here g = 2, 3, ... in turn).  The result is kept on the key object, and
recovery refuses a d that does not invert e modulo p - 1 and q - 1.
Before a signature s is released, `raw_sign` checks s**e = m mod n, so a
fault in the CRT path cannot leak a signature that would give away a
factor (Boneh, DeMillo and Lipton, 1997).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import NamedTuple

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


class _CrtKey(NamedTuple):
    p: int
    q: int
    dp: int
    dq: int
    q_inv: int  # q**-1 mod p


@dataclass(frozen=True)
class RsaKeyPair:
    n: int
    e: int
    d: int
    # The CRT form of d: set by `generate_keypair`, or by `_crt_key` the
    # first time the key signs.  A cache, not part of the key's value.
    _crt: _CrtKey | None = field(default=None, init=False, repr=False, compare=False)

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
        key = RsaKeyPair(n=n, e=exponent, d=d)
        _keep_crt(key, p, q)
        return key
    raise RuntimeError("prime search exhausted after sub-seed retries")


# Bases tried for a non-trivial square root of 1, as many as NIST's 100
# tries.  For a valid key at least half of all bases split n.
_RECOVERY_BASES = range(2, 102)


def _keep_crt(key: RsaKeyPair, p: int, q: int) -> _CrtKey:
    """Store on `key` the CRT form of d for n = p*q, if d inverts e for it."""
    dp, dq = key.d % (p - 1), key.d % (q - 1)
    if key.e * dp % (p - 1) != 1 or key.e * dq % (q - 1) != 1:
        raise ValueError("private exponent does not invert e for this modulus")
    crt = _CrtKey(p, q, dp, dq, pow(q, -1, p))
    object.__setattr__(key, "_crt", crt)
    return crt


def _crt_key(key: RsaKeyPair) -> _CrtKey:
    """The key's CRT form, recovering p and q from (n, e, d) on first use."""
    if key._crt is not None:
        return key._crt
    n = key.n
    k = key.e * key.d - 1
    if k <= 0 or k % 2:
        raise ValueError("private exponent does not invert e for this modulus")
    t = (k & -k).bit_length() - 1
    r = k >> t
    for g in _RECOVERY_BASES:
        if math.gcd(g, n) > 1:
            continue  # only units satisfy g**(e*d - 1) = 1
        y = pow(g, r, n)
        for _ in range(t):
            if y in (1, n - 1):
                break
            x = y * y % n
            if x == 1:
                # y is a square root of 1 other than +-1: n divides (y-1)(y+1)
                # but neither factor, so the gcd is a proper divisor.
                p = math.gcd(y - 1, n)
                return _keep_crt(key, p, n // p)
            y = x
        else:
            # g**(e*d - 1) != 1, so e*d - 1 is no multiple of lcm(p-1, q-1).
            raise ValueError("private exponent does not invert e for this modulus")
    raise ValueError("no factor of the modulus found from (n, e, d)")


def raw_sign(m: int, key: RsaKeyPair) -> int:
    """m**d mod n by CRT, checked by s**e = m.  Requires 0 <= m < n."""
    if not 0 <= m < key.n:
        raise ValueError("message representative out of range")
    p, q, dp, dq, q_inv = _crt_key(key)
    s_q = pow(m, dq, q)
    s = s_q + (pow(m, dp, p) - s_q) * q_inv % p * q
    if raw_verify(s, key.public) != m:
        raise ValueError("CRT signature failed its s**e = m check")
    return s


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


def _checked_public(pub: tuple[int, int]) -> tuple[int, int]:
    n, e = pub
    if n <= 1 or e <= 1:
        raise ValueError("public key values out of range")
    return n, e


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
        self._slots[slot] = _checked_public(pub)

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
    n, e = _checked_public((int(fields["n"], 16), int(fields["e"], 16)))
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
