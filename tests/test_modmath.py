import hashlib
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bootforge import modmath
from bootforge.modmath import (
    MAX_BITS,
    MIN_BITS,
    REGISTRY_SLOTS,
    Console,
    KeyRegistry,
    RsaKeyPair,
    SignatureType,
    from_fixed_bytes,
    generate_keypair,
    mod_exp,
    raw_sign,
    raw_verify,
    read_key_file,
    read_registry,
    slot_label,
    to_fixed_bytes,
    write_key_file,
    write_registry,
)


def test_mod_exp_small_fixtures():
    assert mod_exp(2, 10, 1000) == 24
    assert mod_exp(5, 1, 7) == 5
    assert mod_exp(7, 0, 13) == 1


def test_mod_exp_matches_schoolbook_oracle():
    # Independent oracle: plain repeated multiplication.
    acc = 1
    for _ in range(17):
        acc = acc * 65 % 3233
    assert acc == 2790
    assert mod_exp(65, 17, 3233) == 2790


@given(
    base=st.integers(min_value=0, max_value=1 << 256),
    exp=st.integers(min_value=0, max_value=1 << 64),
    modulus=st.integers(min_value=2, max_value=1 << 256),
)
def test_mod_exp_matches_builtin_pow(base, exp, modulus):
    assert mod_exp(base, exp, modulus) == pow(base, exp, modulus)


def test_mod_exp_rejects_bad_modulus():
    with pytest.raises(ValueError):
        mod_exp(2, 3, 1)
    with pytest.raises(ValueError):
        mod_exp(2, 3, 0)
    with pytest.raises(ValueError):
        mod_exp(2, -1, 5)


BN = modmath._load_bn()
BN_MOD_EXP = modmath._bind_bn_mod_exp(BN) if BN else None
needs_libcrypto = pytest.mark.skipif(BN is None, reason="libcrypto BN functions not loadable")


def test_key_pow_is_decided_at_import():
    assert (modmath._key_pow is pow) == (BN_MOD_EXP is None)
    assert (modmath._chain is modmath._python_chain) == (BN is None)


@st.composite
def key_length_operands(draw):
    """An odd modulus from 3 to 2**2048, a base at or past its edges, and an
    exponent of 0, 1 or the modulus's length."""
    bits = draw(st.integers(2, 2048))
    modulus = draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) | 1
    base = draw(st.one_of(
        st.sampled_from([0, 1, modulus - 1]),
        st.integers(modulus, modulus << 64),
        st.integers(0, modulus - 1),
    ))
    exp = draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, (1 << bits) - 1)))
    return base, exp, modulus


M2048 = (1 << 2048) - 1


@needs_libcrypto
@settings(max_examples=300, deadline=None)
@given(operands=key_length_operands())
@example(operands=(0, 0, 3))
@example(operands=(2, 1, 3))
@example(operands=(5, 3, 3))
@example(operands=(M2048 - 1, M2048 - 2, M2048))
@example(operands=(M2048 << 3, 0, M2048))
def test_libcrypto_modexp_is_builtin_pow(operands):
    base, exp, modulus = operands
    assert BN_MOD_EXP(base, exp, modulus) == pow(base, exp, modulus)


def no_library(path):
    raise OSError("cannot open shared object file")


@pytest.mark.parametrize("cdll", [no_library, lambda path: object()], ids=["no library", "no symbols"])
def test_libcrypto_that_cannot_load_falls_back(monkeypatch, cdll):
    monkeypatch.setattr(modmath.ctypes, "PyDLL", cdll)
    assert modmath._load_bn() is None


def test_keypair_deterministic():
    a = generate_keypair(512, b"seed A")
    b = generate_keypair(512, b"seed A")
    assert (a.n, a.e, a.d) == (b.n, b.e, b.d)


# sha256 of "n:e:d" in hex for fixed seeds.  Determinism alone would not
# notice a change in which candidates are accepted or in how much of the
# witness stream each test consumes; these pins do.
PINNED_KEYS = [
    (512, b"seed A", 65537, "316fa9bdb51208b6a5a43d83c6d7288436db43771ad3b12c8c67e8252a818030"),
    (1024, b"pin 1024", 65537, "17dcd67b46c1d34f5925cdcc058c3c6ee98ed90a264f3311971dff345fe7f5e4"),
    (256, b"e3 seed", 3, "1d63177fc66bfce0bb9f37dbf1be671e01ee59b048b39e4c9559eedf44295cad"),
    (2048, b"pin 2048", 65537, "9e83c5270bdd0eee5b15ef5afd8fe57ca05da252585f49a558d3cf5cb593434a"),
]


@pytest.mark.parametrize("bits, seed, exponent, fingerprint", PINNED_KEYS)
def test_keypair_is_pinned(bits, seed, exponent, fingerprint):
    key = generate_keypair(bits, seed, exponent)
    assert key.bit_length == bits and key.e == exponent
    assert hashlib.sha256(f"{key.n:x}:{key.e:x}:{key.d:x}".encode()).hexdigest() == fingerprint


@pytest.mark.parametrize("bits, seed, exponent, fingerprint", PINNED_KEYS)
def test_keypair_is_pinned_on_builtin_pow(monkeypatch, bits, seed, exponent, fingerprint):
    monkeypatch.setattr(modmath, "_key_pow", pow)  # the fallback when libcrypto is missing
    test_keypair_is_pinned(bits, seed, exponent, fingerprint)


class ReplayWitnesses:
    """A witness stream that replays fixed bases, cyclically, and counts its draws."""

    def __init__(self, bases):
        self.bases = list(bases)
        self.draws = 0

    def int_below(self, bound):
        a = self.bases[self.draws % len(self.bases)]
        self.draws += 1
        assert 2 <= a < bound + 2
        return a - 2


def reference_is_probable_prime(c, witnesses):
    """Plain Miller-Rabin: trial division by the primes to 47, then 40 full rounds."""
    if c < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        if c == p:
            return True
        if c % p == 0:
            return False
    d, r = c - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for _ in range(40):
        x = pow(2 + witnesses.int_below(c - 3), d, c)
        if x in (1, c - 1):
            continue
        for _ in range(r - 1):
            x = x * x % c
            if x == c - 1:
                break
        else:
            return False
    return True


def verdict_and_draws(is_prime, c, bases):
    witnesses = ReplayWitnesses(bases)
    return is_prime(c, witnesses), witnesses.draws


def round_moduli(monkeypatch, c, bases):
    """The moduli of the rounds `_is_probable_prime` runs, in order."""
    moduli = []
    strong_round = modmath._strong_round

    def spy(x, r, modulus):
        moduli.append(modulus)
        return strong_round(x, r, modulus)

    monkeypatch.setattr(modmath, "_strong_round", spy)
    modmath._is_probable_prime(c, ReplayWitnesses(bases))
    monkeypatch.undo()
    return moduli


class TestDivisorShortcut:
    """The rounds decided modulo a small divisor agree with plain Miller-Rabin."""

    @staticmethod
    def random_bases(rng, c):
        return [rng.randrange(2, c - 1) for _ in range(40)]

    def assert_matches_reference(self, c, bases):
        expected = verdict_and_draws(reference_is_probable_prime, c, bases)
        assert verdict_and_draws(modmath._is_probable_prime, c, bases) == expected
        return expected

    @pytest.mark.parametrize("c", [53, 9973, 10007, 1_000_003, 2**61 - 1, 2**127 - 1, 2**521 - 1])
    def test_primes(self, c):
        bases = self.random_bases(random.Random(c), c)
        assert self.assert_matches_reference(c, bases) == (True, 40)

    def test_random_composites(self):
        rng = random.Random(9)
        small = [p for p in range(53, 10**4) if all(p % q for q in range(2, p))]
        verdicts = set()
        for _ in range(300):
            c = rng.choice(small) * (rng.getrandbits(rng.choice([16, 64, 512])) | 1)
            if rng.random() < 0.3:
                c = rng.getrandbits(256) | 1
            verdicts.add(self.assert_matches_reference(c, self.random_bases(rng, c)))
        assert (False, 1) in verdicts and (False, 0) in verdicts

    @pytest.mark.parametrize(
        "c, m, liars, witness, witness_moduli",
        [
            # 2251 * 11251.  Every base prime to 2251 passes modulo 2251, so
            # 7 needs the full round to fail; 2251 itself is refused at m.
            (25326001, 2251, [2, 3, 5], 7, [2251, 25326001]),
            (25326001, 2251, [2, 3, 5], 2251, [2251]),
            # 151 * 751 * 28351, with 28351 above the bound.
            (3215031751, 151 * 751, [2, 3, 5, 7], 11, [151 * 751]),
        ],
    )
    def test_strong_pseudoprimes_reach_the_full_round(
        self, monkeypatch, c, m, liars, witness, witness_moduli
    ):
        assert self.assert_matches_reference(c, liars) == (True, 40)
        assert self.assert_matches_reference(c, liars + [witness]) == (False, len(liars) + 1)
        # Each liar passes modulo m and then the full round modulo c.
        assert round_moduli(monkeypatch, c, liars) == [m, c] * 40
        assert round_moduli(monkeypatch, c, liars + [witness]) == [m, c] * len(liars) + witness_moduli

    def test_divisor_equal_to_the_candidate_runs_full_rounds(self, monkeypatch):
        # 829 * 1657, both below the bound: m == c, no shortcut.  2 and 3 are liars.
        c = 1373653
        assert self.assert_matches_reference(c, [2, 3]) == (True, 40)
        assert self.assert_matches_reference(c, [2, 3, 5]) == (False, 3)
        assert round_moduli(monkeypatch, c, [2, 3, 5]) == [c, c, c]


def test_keypair_seed_sensitivity():
    a = generate_keypair(512, b"seed A")
    b = generate_keypair(512, b"seed B")
    assert a.n != b.n


def test_keypair_shape(key512):
    assert key512.bit_length == 512
    assert key512.n.bit_length() == 512
    assert key512.e == 65537
    assert 0 < key512.d < key512.n
    assert key512.block_length == 64


def test_padded_key_file_has_the_registry_block_length(tmp_path, key512):
    # One extra leading zero byte in n= must not widen the block.
    path = tmp_path / "padded.key"
    path.write_text(f"n=00{key512.n:0128x}\ne={key512.e:x}\n")
    key = read_key_file(path)
    registry = KeyRegistry()
    registry.assign(Console.RETAIL, SignatureType.NAND_BOOT, key.public)
    assert key.n == key512.n and key.bit_length == 512
    assert key.block_length == registry.block_length(Console.RETAIL, SignatureType.NAND_BOOT) == 64


def test_keypair_exponent_three():
    key = generate_keypair(256, b"e3 seed", exponent=3)
    assert key.e == 3
    assert raw_verify(raw_sign(99, key), key.public) == 99


def test_keypair_roundtrip_oracle(key512):
    rng = random.Random(0xC0FFEE)
    for _ in range(100):
        x = rng.randrange(key512.n)
        assert mod_exp(mod_exp(x, key512.d, key512.n), key512.e, key512.n) == x


def test_keypair_rejects_bad_bit_length():
    for bits in (63, 60, 4104, 100):
        with pytest.raises(ValueError):
            generate_keypair(bits, b"x")
    with pytest.raises(ValueError):
        generate_keypair(512, b"x", exponent=17)


def test_raw_sign_fixed_points(key512):
    assert raw_sign(1, key512) == 1
    # d is odd, so (-1)^d = -1.
    assert raw_sign(key512.n - 1, key512) == key512.n - 1


SIGN_KEY_NAMES = ["64", "256-e3", "512", "512-alt", "2048"]


@pytest.fixture(scope="module")
def sign_keys(key512, key512_alt):
    """Generated keys, each paired with the same (n, e, d) built bare."""
    keys = {
        "64": generate_keypair(64, b"crt 64"),
        "256-e3": generate_keypair(256, b"e3 seed", exponent=3),
        "512": key512,
        "512-alt": key512_alt,
        "2048": generate_keypair(2048, b"pin 2048"),
    }
    return {name: (key, RsaKeyPair(key.n, key.e, key.d)) for name, key in keys.items()}


@pytest.mark.parametrize("name", SIGN_KEY_NAMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_raw_sign_is_the_full_modexp(sign_keys, name, data):
    key, bare = sign_keys[name]
    m = data.draw(st.one_of(st.sampled_from([0, 1, key.n - 1]), st.integers(0, key.n - 1)))
    assert raw_sign(m, key) == raw_sign(m, bare) == pow(m, key.d, key.n)


@pytest.mark.parametrize("name", SIGN_KEY_NAMES)
def test_key_file_round_trip_signs_the_same_bytes(tmp_path, sign_keys, name):
    key, _ = sign_keys[name]
    path = tmp_path / "k.key"
    write_key_file(path, key)
    loaded = read_key_file(path)
    assert loaded == key and hash(loaded) == hash(key) and repr(loaded) == repr(key)
    messages = [0, 1, 2, key.n - 1, key.n // 3]
    assert [raw_sign(m, loaded) for m in messages] == [raw_sign(m, key) for m in messages]


@pytest.mark.parametrize(
    "bad_d",
    [
        lambda key: 0,
        lambda key: 1,
        lambda key: key.d + 1,
        lambda key: key.d + 2,
        lambda key: key.n - key.d,
    ],
    ids=["zero", "one", "d+1", "d+2", "n-d"],
)
@pytest.mark.parametrize("m", [0, 1, 5, -1])
def test_raw_sign_refuses_a_private_exponent_that_cannot_sign(key512, bad_d, m):
    key = RsaKeyPair(key512.n, key512.e, bad_d(key512))
    with pytest.raises(ValueError):
        raw_sign(m % key.n, key)


def test_raw_sign_checks_the_signature(monkeypatch, key512):
    raw_sign(2, key512)  # the once-per-key check of d runs on the real exponentiation
    monkeypatch.setattr(modmath, "_key_pow", lambda m, d, n: (pow(m, d, n) + 1) % n)
    with pytest.raises(ValueError, match="s\\*\\*e"):
        raw_sign(12345, key512)


def test_raw_sign_verify_roundtrip(key512):
    rng = random.Random(7)
    for _ in range(20):
        m = rng.randrange(key512.n)
        assert raw_verify(raw_sign(m, key512), key512.public) == m


def test_raw_trivial_values(key512):
    assert raw_verify(0, key512.public) == 0
    assert raw_verify(1, key512.public) == 1


def test_raw_domain_errors(key512):
    with pytest.raises(ValueError):
        raw_sign(key512.n, key512)
    with pytest.raises(ValueError):
        raw_verify(key512.n, key512.public)


def test_negation_identity(key512):
    # (n - s)^e = n - s^e mod n for odd e; the search's "check -m" trick.
    n = key512.n
    rng = random.Random(21)
    for _ in range(200):
        s = rng.randrange(1, n)
        assert raw_verify(n - s, key512.public) == (n - raw_verify(s, key512.public)) % n


def test_multiplicativity(key512):
    n = key512.n
    rng = random.Random(22)
    for _ in range(200):
        a = rng.randrange(1, n)
        b = rng.randrange(1, n)
        lhs = raw_verify(a * b % n, key512.public)
        rhs = raw_verify(a, key512.public) * raw_verify(b, key512.public) % n
        assert lhs == rhs


@given(value=st.integers(min_value=0, max_value=(1 << 512) - 1))
@settings(max_examples=200)
def test_fixed_width_codec_roundtrip(value):
    assert from_fixed_bytes(to_fixed_bytes(value, 64)) == value


def test_fixed_width_codec_rejects_negative():
    with pytest.raises(ValueError):
        to_fixed_bytes(-1, 64)


def test_key_file_roundtrip(tmp_path, key512):
    path = tmp_path / "k.key"
    write_key_file(path, key512, private=True)
    loaded = read_key_file(path)
    assert loaded == key512

    pub_path = tmp_path / "k.pub"
    write_key_file(pub_path, key512, private=False)
    pub = read_key_file(pub_path)
    assert (pub.n, pub.e, pub.d) == (key512.n, key512.e, 0)
    assert "d=" not in pub_path.read_text()


def test_key_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.key"
    path.write_text("n=zznothex\n")
    with pytest.raises(ValueError):
        read_key_file(path)
    path.write_text("e=10001\n")
    with pytest.raises(ValueError):
        read_key_file(path)


def test_registry_roundtrip(tmp_path, registry):
    path = tmp_path / "registry.txt"
    write_registry(path, registry)
    loaded = read_registry(path)
    for console in Console:
        for sig_type in SignatureType:
            assert loaded.get(console, sig_type) == registry.get(console, sig_type)
    text = path.read_text()
    assert text.splitlines()[0].startswith("retail.ncsd=")
    assert len(text.splitlines()) == 6


def test_registry_slots_write_once(key512, key512_alt):
    reg = KeyRegistry()
    reg.assign(Console.RETAIL, SignatureType.NAND_BOOT, key512.public)
    with pytest.raises(ValueError):
        reg.assign(Console.RETAIL, SignatureType.NAND_BOOT, key512_alt.public)
    assert not reg.is_complete
    with pytest.raises(KeyError):
        reg.get(Console.DEVELOPER, SignatureType.NCSD_HEADER)


def test_registry_file_requires_all_slots(tmp_path, registry):
    path = tmp_path / "registry.txt"
    write_registry(path, registry)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:5]) + "\n")
    with pytest.raises(ValueError):
        read_registry(path)


def odd_of_bits(lo, hi):
    """An odd integer whose bit length is drawn from [lo, hi]."""
    return st.integers(lo, hi).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1)).map(
        lambda v: v | 1
    )


RSA_E = st.sampled_from([3, 65537])
FAIR_N = odd_of_bits(MIN_BITS, MAX_BITS)


@st.composite
def hostile_public_values(draw):
    """An (n, e) that no RSA public key has: n oversized, undersized or even,
    or e degenerate, even, at least n, or longer than 64 bits."""
    n = draw(FAIR_N)
    return draw(st.one_of(
        st.tuples(odd_of_bits(MAX_BITS + 1, 4 * MAX_BITS), RSA_E),
        st.tuples(st.integers(0, (1 << (MIN_BITS - 1)) - 1), RSA_E),
        st.tuples(st.just(n & ~1), RSA_E),
        st.tuples(st.just(n), st.sampled_from([0, 1, n, n + 2])),
        st.tuples(st.just(n), st.integers(1, min(n, 1 << 64) // 2).map(lambda k: 2 * k)),
        st.tuples(st.just(n), odd_of_bits(65, max(65, n.bit_length()))),
    ))


def refused_quickly(load):
    start = time.process_time()
    with pytest.raises(ValueError, match="public key values out of range"):
        load()
    # An accepted 16384-bit key would cost seconds in its first verify.
    assert time.process_time() - start < 0.5


@settings(max_examples=150, deadline=None)
@given(pub=hostile_public_values(), slot=st.sampled_from(REGISTRY_SLOTS))
@example(pub=((1 << (4 * MAX_BITS)) - 1, 65537), slot=REGISTRY_SLOTS[0]).via("a 16384-bit n")
@example(pub=((1 << 4095) + 1, (1 << 4095) - 1), slot=REGISTRY_SLOTS[5]).via("a 4095-bit e")
def test_hostile_key_material_is_refused(tmp_path_factory, registry, pub, slot):
    n, e = pub
    assert not (MIN_BITS <= n.bit_length() <= MAX_BITS and 1 < e < n
                and e.bit_length() <= 64 and n & e & 1)
    work = tmp_path_factory.mktemp("hostile")
    key_path = work / "hostile.key"
    key_path.write_text(f"n={n:x}\ne={e:x}\n")
    refused_quickly(lambda: read_key_file(key_path))
    registry_path = work / "registry.txt"
    registry_path.write_text("".join(
        f"{slot_label(*other)}={n:x}:{e:x}\n" if other == slot
        else f"{slot_label(*other)}={registry.get(*other)[0]:x}:{registry.get(*other)[1]:x}\n"
        for other in REGISTRY_SLOTS
    ))
    refused_quickly(lambda: read_registry(registry_path))
    refused_quickly(lambda: KeyRegistry().assign(*slot, pub))


@pytest.mark.parametrize(
    "pub",
    [
        ((1 << 63) + 1, 3),
        ((1 << MAX_BITS) - 1, 65537),
        ((1 << MAX_BITS) - 1, (1 << 64) - 1),
        ((1 << 63) + 1, (1 << 63) - 1),
    ],
    ids=["64-bit n", "4096-bit n", "64-bit e", "e = n - 2"],
)
def test_public_key_bounds_are_inclusive(tmp_path, pub):
    n, e = pub
    path = tmp_path / "edge.key"
    path.write_text(f"n={n:x}\ne={e:x}\n")
    assert read_key_file(path).public == pub
    KeyRegistry().assign(Console.RETAIL, SignatureType.NAND_BOOT, pub)
