import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bootforge.modmath import (
    Console,
    KeyRegistry,
    SignatureType,
    from_fixed_bytes,
    generate_keypair,
    mod_exp,
    raw_sign,
    raw_verify,
    read_key_file,
    read_registry,
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


def test_keypair_deterministic():
    a = generate_keypair(512, b"seed A")
    b = generate_keypair(512, b"seed A")
    assert (a.n, a.e, a.d) == (b.n, b.e, b.d)


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
