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

`raw_sign` computes m**d mod n in one exponentiation and checks s**e = m
mod n before it releases s, so a fault in the exponentiation cannot leak
a wrong signature (Boneh, DeMillo and Lipton, 1997).  That check alone
would let d = 0 or 1 sign the fixed points 0, 1 and n - 1, so a key
must also show 1 < d < n and g**(e*d) = g mod n for g = 2 and 3 before
it signs; the answer is cached per key.  The check is probabilistic (an
exact one needs the factors of n): a d that does not invert e modulo
lcm(p - 1, q - 1) can pass it, but each signature it makes must still
pass s**e = m.

The exponentiations whose exponent is as long as the modulus go to the
libcrypto that `hashlib` already links, through `ctypes`: a Miller-Rabin
round's a**d modulo the candidate, and `raw_sign`'s m**d and its check
of d.  OpenSSL's `BN_mod_exp` multiplies in Montgomery form (Montgomery,
1985) and is about 13x faster than builtin `pow` at 1024 bits and 5x at
256 bits, with the same result.  Each call has its own `BN_CTX`, so
forked search workers share no OpenSSL state.  Builtin `pow` keeps the
rest, where the ctypes call overhead would cost more
than it saves: the round modulo a small divisor m (64 us against 115 us
with a 1023-bit d), the public-exponent paths `raw_verify` and `mod_exp`
with e = 3 or 65537 (at 512 bits, 2.3 us against 14 us with e = 3; with
e = 65537, 20 us against 15 us, a saving too small to show in a boot)
and the rounds' squarings.

The search chain y <- y*k mod n (see `forge`) steps on libcrypto
bignums from `_MONTGOMERY_MIN_BITS` up.  With R the Montgomery radix,
k*R mod n is computed once (`BN_to_montgomery`); then each step is one
`BN_mod_mul_montgomery(y, y, k*R)`, which gives y*k*R*R**-1 = y*k mod n
in normal form, with no division and no conversion.  A step tests its
value against the candidate bound with `BN_num_bits` and `BN_cmp`, and
only candidates, about 1% of the steps, come back as `int`.  A 2048-bit
step with its test took 3.4 us against 18.8 us for CPython's
`y * k % n` (2-CPU Xeon, medians of 15 loops of 20000 steps).  Below
the cut-off the chain steps in CPython: a 512-bit libcrypto step is
three ctypes calls around little arithmetic, and its time swings with
the host's speed twice as far (1.17 us median, quartiles 57% of it
apart, against 1.34 us and 24% for CPython's step; 120 alternated loops
of 150000 steps on a shared 2-CPU Xeon).
Every OpenSSL object of a chain is made inside it, so after a search
worker forks, and freed however the chain ends.

The library is loaded as a `ctypes.PyDLL`, which keeps the GIL through
each call; a `CDLL` releases and re-takes it on every call, which made
those steps 3.8 us instead of 3.4 us at 2048 bits and 2.5 us instead of
2.1 us at 512.  If `_hashlib` or one of the BN functions cannot be
loaded, the key-length exponentiations use builtin `pow` and the chain
steps in CPython (`_python_chain`) at every size, decided once at
import.  Montgomery form cannot take an even modulus, and no RSA modulus
is even, so the search refuses one.
"""

from __future__ import annotations

import ctypes
import functools
import math
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from types import SimpleNamespace

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


_P = ctypes.c_void_p
# The BN functions this module calls, with their C (argtypes, restype).
_BN_SIGNATURES = {
    "BN_new": ([], _P),
    "BN_free": ([_P], None),
    "BN_bin2bn": ([ctypes.c_char_p, ctypes.c_int, _P], _P),
    "BN_bn2binpad": ([_P, ctypes.c_char_p, ctypes.c_int], ctypes.c_int),
    "BN_num_bits": ([_P], ctypes.c_int),
    "BN_cmp": ([_P, _P], ctypes.c_int),
    "BN_CTX_new": ([], _P),
    "BN_CTX_free": ([_P], None),
    "BN_mod_exp": ([_P] * 5, ctypes.c_int),
    "BN_MONT_CTX_new": ([], _P),
    "BN_MONT_CTX_free": ([_P], None),
    "BN_MONT_CTX_set": ([_P] * 3, ctypes.c_int),
    "BN_to_montgomery": ([_P] * 4, ctypes.c_int),
    "BN_mod_mul_montgomery": ([_P] * 5, ctypes.c_int),
}


def _load_bn():
    """The BN functions of the libcrypto that `hashlib` links, by name, with
    their C signatures declared; None when the library or one of them
    cannot be loaded.  A `PyDLL` keeps the GIL through each call, where a
    `CDLL` would release and re-take it (see the module docstring)."""
    try:
        import _hashlib

        lib = ctypes.PyDLL(_hashlib.__file__)
        bn = SimpleNamespace(**{name: getattr(lib, name) for name in _BN_SIGNATURES})
    except (ImportError, AttributeError, OSError):
        return None
    for name, (argtypes, restype) in _BN_SIGNATURES.items():
        func = getattr(bn, name)
        func.argtypes, func.restype = argtypes, restype
    return bn


def _bn_from_int(bn, value: int):
    """A new bignum holding the non-negative `value` (NULL when out of memory)."""
    data = value.to_bytes((value.bit_length() + 7) // 8, "big")
    return bn.BN_bin2bn(data, len(data), None)


def _bind_bn_mod_exp(bn):
    """OpenSSL's `BN_mod_exp` as pow(base, exp, modulus) for non-negative
    operands and a positive modulus."""

    def key_pow(base: int, exp: int, modulus: int) -> int:
        size = (modulus.bit_length() + 7) // 8
        # A context per call: forked search workers share no OpenSSL state.
        ctx = bn.BN_CTX_new()
        nums = [bn.BN_new()] + [_bn_from_int(bn, v) for v in (base, exp, modulus)]
        try:
            if not ctx or not all(nums):
                raise MemoryError("libcrypto could not allocate a bignum")
            if bn.BN_mod_exp(*nums, ctx) != 1:
                raise ArithmeticError("libcrypto BN_mod_exp failed")
            out = ctypes.create_string_buffer(size)
            if bn.BN_bn2binpad(nums[0], out, size) != size:
                raise ArithmeticError("libcrypto BN_bn2binpad failed")
            return int.from_bytes(out.raw, "big")
        finally:
            for num in nums:
                bn.BN_free(num)  # BN_free(NULL) is a no-op
            bn.BN_CTX_free(ctx)

    return key_pow


def _python_chain(k: int, n: int, top_bits: int, steps: int, tick_mask: int):
    """The chain y <- y*k mod n from y = 1 in CPython, for `steps` steps.

    After step z it yields (z, y) when y or n - y is below 2**top_bits,
    and then (z, None) when z & tick_mask is 0, as the libcrypto step does.
    """
    top = 1 << top_bits
    bottom = n - top
    y = 1
    for z in range(1, steps + 1):
        y = y * k % n
        if y < top or y > bottom:
            yield z, y
        if z & tick_mask == 0:
            yield z, None


def _bind_montgomery_chain(bn):
    """The chain y <- y*k mod n from y = 1, stepped by Montgomery
    multiplication on libcrypto bignums (see the module docstring).

    montgomery_chain(k, n, top_bits, steps, tick_mask) runs `steps` steps
    for an odd n > 1 and 0 <= k < n.  After step z it yields (z, y) when y
    or n - y is below 2**top_bits, which must be less than n, and then
    (z, None) when z & tick_mask is 0.  Every OpenSSL object is made when
    the generator starts and freed when it ends or is closed.
    """
    mul, num_bits, cmp = bn.BN_mod_mul_montgomery, bn.BN_num_bits, bn.BN_cmp

    def montgomery_chain(k: int, n: int, top_bits: int, steps: int, tick_mask: int):
        size = (n.bit_length() + 7) // 8
        ctx, mont = bn.BN_CTX_new(), bn.BN_MONT_CTX_new()
        nums = [_bn_from_int(bn, v) for v in (n, k, 1, n - (1 << top_bits))]
        try:
            if not ctx or not mont or not all(nums):
                raise MemoryError("libcrypto could not allocate a bignum")
            modulus, k_mont, y, bottom = nums
            # k_mont = k*R mod n, so that y*k_mont*R**-1 = y*k: y stays in
            # normal form and every step is one Montgomery product.
            if (
                bn.BN_MONT_CTX_set(mont, modulus, ctx) != 1
                or bn.BN_to_montgomery(k_mont, k_mont, mont, ctx) != 1
            ):
                raise ArithmeticError("libcrypto could not set up Montgomery form")
            out = ctypes.create_string_buffer(size)
            for z in range(1, steps + 1):
                if mul(y, y, k_mont, mont, ctx) != 1:
                    raise ArithmeticError("libcrypto BN_mod_mul_montgomery failed")
                # y < 2**top_bits, or y > n - 2**top_bits.
                if num_bits(y) <= top_bits or cmp(y, bottom) > 0:
                    if bn.BN_bn2binpad(y, out, size) != size:
                        raise ArithmeticError("libcrypto BN_bn2binpad failed")
                    yield z, int.from_bytes(out.raw, "big")
                if z & tick_mask == 0:
                    yield z, None
        finally:
            for num in nums:
                bn.BN_free(num)
            bn.BN_MONT_CTX_free(mont)  # a no-op on NULL, as are the others
            bn.BN_CTX_free(ctx)

    return montgomery_chain


# The smallest modulus whose search chain steps in libcrypto: seeded
# searches ran that step 1.7-2.0x as fast at 768 bits and 4.8-5.1x at
# 2048, and within 15% of CPython's at 576 to 640.
_MONTGOMERY_MIN_BITS = 640


def _bind_chain(bn):
    """The search chain: `_bind_montgomery_chain(bn)` from
    `_MONTGOMERY_MIN_BITS` up, `_python_chain` below; both yield the same
    values."""
    montgomery_chain = _bind_montgomery_chain(bn)

    def chain(k: int, n: int, top_bits: int, steps: int, tick_mask: int):
        step = montgomery_chain if n.bit_length() >= _MONTGOMERY_MIN_BITS else _python_chain
        return step(k, n, top_bits, steps, tick_mask)

    return chain


# Decided once, at import: pow for exponents as long as the modulus, and
# the search chain's step (see the module docstring).
_BN = _load_bn()
_key_pow = _bind_bn_mod_exp(_BN) if _BN else pow
_chain = _bind_chain(_BN) if _BN else _python_chain


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


def _strong_round(x: int, r: int, modulus: int) -> bool:
    """Whether x = 1 or x**(2**j) = -1 modulo `modulus` for some j < r.

    With modulus - 1 = d * 2**r and x = a**d mod modulus this is one
    Miller-Rabin round.
    """
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
        if has_divisor and not _strong_round(pow(a, d, m), r, m):
            return False
        if not _strong_round(_key_pow(a, d, candidate), r, candidate):
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


@functools.lru_cache(maxsize=128)
def _can_sign(key: RsaKeyPair) -> bool:
    """Whether 1 < d < n and g**(e*d) = g mod n for g = 2 and 3: a
    probabilistic check that d inverts e, kept for the last 128 keys."""
    return 1 < key.d < key.n and all(_key_pow(g, key.e * key.d, key.n) == g for g in (2, 3))


def raw_sign(m: int, key: RsaKeyPair) -> int:
    """m**d mod n, checked by s**e = m.  Requires 0 <= m < n."""
    if not 0 <= m < key.n:
        raise ValueError("message representative out of range")
    if not _can_sign(key):
        raise ValueError("private exponent does not invert e for this modulus")
    s = _key_pow(m, key.d, key.n)
    if raw_verify(s, key.public) != m:
        raise ValueError("signature failed its s**e = m check")
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


# RSA uses e = 3 or 65537.  At 4096 bits, a verify with a 4096-bit e takes
# about 0.2 s of CPU, 500 times one with e = 65537.
_MAX_E_BITS = 64


def _checked_public(pub: tuple[int, int]) -> tuple[int, int]:
    """(n, e) if n is odd with MIN_BITS to MAX_BITS bits and e is odd with
    1 < e < n and at most _MAX_E_BITS bits, as every RSA public key is."""
    n, e = pub
    if not (
        MIN_BITS <= n.bit_length() <= MAX_BITS
        and 1 < e < n
        and e.bit_length() <= _MAX_E_BITS
        and n & e & 1
    ):
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
