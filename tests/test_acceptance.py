"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

The statistical criteria (3, 4, 6) use frozen seeds; every expected
value below was produced by the stated independent route before being
pinned, never copied from the implementation under test.
"""

import hashlib
import math
import random
import statistics
import time

import pytest

from bootforge import bootsim
from bootforge.bootsim import (
    BlacklistPolicy,
    BootOutcome,
    DUMP_COMBO,
    Machine,
    build_exploit_image,
    run_boot,
    run_exploit_chain,
    run_ntr_install_scenario,
)
from bootforge.firm import (
    CopyMethod,
    build_firm,
    fakesign_firm,
    header_digest,
    parse,
    serialize,
    sign_firm,
    validate_firm,
)
from bootforge.forge import (
    brute_force_search,
    craft_exploit_plaintext,
    estimate_hit_probability,
    exact_hit_probability,
    exact_search_probability,
    forge_with_private_key,
)
from bootforge.modmath import (
    Console,
    SignatureType,
    from_fixed_bytes,
    generate_keypair,
    raw_verify,
    to_fixed_bytes,
)
from bootforge.prng import ByteStream, derive_seed
from bootforge.sigparser import (
    ParserConfig,
    RejectReason,
    StackModel,
    Verdict,
    flawed_parse,
    strict_parse,
)
from sha256_oracle import sha256 as oracle_sha256

BL = 64  # desk-scale keys are 512-bit

RELAXED_WINDOW = range(BL, BL + 32)
SEARCH_SEEDS = [f"runC-{i}".encode() for i in range(10)]
MEASURE_SEED = b"acceptance-phat"
MEASURE_SAMPLES = 20_000_000


def report_line(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def acceptance_key():
    return generate_keypair(512, b"acceptance-key")


@pytest.fixture(scope="module")
def relaxed_config():
    return ParserConfig.flawed(BL, window=RELAXED_WINDOW)


@pytest.fixture(scope="module")
def measured_p(relaxed_config):
    return estimate_hit_probability(BL, relaxed_config, MEASURE_SAMPLES, MEASURE_SEED)


@pytest.fixture(scope="module")
def search_results(acceptance_key, relaxed_config):
    results = []
    for seed in SEARCH_SEEDS:
        result = brute_force_search(
            acceptance_key.public, relaxed_config, 1, seed, 40_000_000
        )
        assert result is not None, f"search with seed {seed!r} exhausted"
        results.append(result)
    return results


def signed_header_image(key):
    image = build_firm(
        [(0x08006000, CopyMethod.CPU_MEMCPY, b"acceptance payload " * 12)],
        arm9_entry=0x08006000,
        arm11_entry=0x08006000,
    )
    return sign_firm(image, key)


def test_criterion_1_parser_differential(acceptance_key):
    started = time.perf_counter()
    stack = StackModel.boot9(BL)
    exploit = craft_exploit_plaintext(BL, BL, b"criterion-1")
    calc = hashlib.sha256(b"any header").digest()

    flawed = flawed_parse(exploit, calc, stack)
    strict = strict_parse(exploit, calc)
    ok = (
        flawed.verdict is Verdict.ACCEPT
        and flawed.landing_offset == BL
        and strict.verdict is Verdict.REJECT
        and strict.reason is RejectReason.BAD_BLOCK_TYPE
    )

    honest = signed_header_image(acceptance_key)
    digest = header_digest(honest)
    honest_block = to_fixed_bytes(
        raw_verify(from_fixed_bytes(honest.signature[:BL]), acceptance_key.public), BL
    )
    ok = ok and flawed_parse(honest_block, digest, stack).is_accept
    ok = ok and strict_parse(honest_block, digest).is_accept
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    report_line(
        1,
        ok,
        f"exploit plaintext: flawed=accept@{BL:#x} strict=BadBlockType; "
        f"honest: both accept ({elapsed:.2f}s)",
    )


def test_criterion_2_self_comparison_trap(acceptance_key):
    image = fakesign_firm(
        signed_header_image(acceptance_key),
        forge_with_private_key(acceptance_key, BL, b"criterion-2").signature_bytes(),
    )
    block = to_fixed_bytes(
        raw_verify(from_fixed_bytes(image.signature[:BL]), acceptance_key.public), BL
    )
    stack = StackModel.boot9(BL)
    rng = random.Random(2)
    accepted = sum(
        flawed_parse(block, bytes(rng.randrange(256) for _ in range(32)), stack).is_accept
        for _ in range(100)
    )
    report_line(2, accepted == 100, f"{accepted}/100 random calculated hashes accepted")


def test_criterion_3_desk_scale_search(measured_p, search_results, relaxed_config):
    started = time.perf_counter()
    p_hat = measured_p.p_hat
    in_band = 2**-22 <= p_hat <= 2**-18
    attempts = [r.attempts for r in search_results]
    median = statistics.median(attempts)
    lo, hi = 1 / (4 * p_hat), 4 / p_hat
    median_ok = lo <= median <= hi
    # Independent check: the closed-form p lies in the estimate's 95% CI.
    exact = exact_hit_probability(BL, relaxed_config)
    exact_ok = measured_p.ci_low <= exact <= measured_p.ci_high
    elapsed = time.perf_counter() - started
    report_line(
        3,
        in_band and median_ok and exact_ok and len(attempts) >= 10,
        f"p-hat={p_hat:.3e} (hits={measured_p.hits}/{measured_p.samples}), "
        f"exact p={exact:.3e} within CI [{measured_p.ci_low:.3e}, {measured_p.ci_high:.3e}], "
        f"median attempts={median:.0f} within [{lo:.0f}, {hi:.0f}] over {len(attempts)} runs",
    )


def _first_hits_tail(s: int, q: float, m: int) -> float:
    """P(Bin(s, q) < m): the chance that m first hits, each geometric with
    success probability q a step, need more than s steps in all."""
    return math.fsum(
        math.exp(math.lgamma(s + 1) - math.lgamma(i + 1) - math.lgamma(s - i + 1)
                 + i * math.log(q) + (s - i) * math.log1p(-q))
        for i in range(min(m, s + 1))
    )


def _least_s(predicate, high: int) -> int:
    low = 0
    while low < high:
        mid = (low + high) // 2
        low, high = (low, mid) if predicate(mid) else (mid + 1, high)
    return low


def test_first_hits_follow_the_exact_search_probability(
    acceptance_key, search_results, relaxed_config
):
    # For a modulus of exactly 8*BL bits, y and n - y cannot both have a
    # zero top byte, so a step hits with probability q = 2 * p_search and
    # the summed steps of the m searches are negative binomial:
    # P(sum <= s) = P(Bin(s, q) >= m).  Tails of 1e-6 each, fixed before
    # the run; the band is wide, so this catches only a gross rate error.
    n = acceptance_key.n
    assert n.bit_length() == 8 * BL
    q = 2 * exact_search_probability(n, relaxed_config)
    m = len(search_results)
    lo = _least_s(lambda s: 1 - _first_hits_tail(s, q, m) >= 1e-6, 10**9)
    hi = _least_s(lambda s: _first_hits_tail(s, q, m) <= 1e-6, 10**9)
    steps = sum(r.iterations for r in search_results)
    cdf = 1 - _first_hits_tail(steps, q, m)
    print(f"\nsummed first-hit steps {steps} in [{lo}, {hi}], cdf {cdf:.2f}")
    assert lo <= steps <= hi, (steps, lo, hi)


def test_criterion_4_extrapolated_claim():
    estimate = estimate_hit_probability(
        0x100, ParserConfig.flawed(0x100, check_type_bytes=True), 10**8, b"acceptance-extrapolate"
    )
    # Zero hits in 1e8 samples: direct sampling cannot see the real-key
    # rate, and the interval is consistent with it (upper bound well
    # above 2^-43, point estimate zero).
    ok = estimate.hits == 0 and estimate.p_hat == 0.0 and estimate.ci_high > 2**-43
    report_line(
        4,
        ok,
        f"hits={estimate.hits}/1e8, 95% CI upper bound {estimate.ci_high:.2e}",
    )


def test_criterion_5_algebraic_identities(acceptance_key):
    n, e = acceptance_key.public
    rng = random.Random(5)
    negation_ok = 0
    cases = 10_000
    for _ in range(cases):
        s = rng.randrange(1, n)
        if raw_verify(n - s, (n, e)) == (n - raw_verify(s, (n, e))) % n:
            negation_ok += 1
    multiplicativity_ok = 0
    for _ in range(cases):
        a = rng.randrange(1, n)
        b = rng.randrange(1, n)
        lhs = raw_verify(a * b % n, (n, e))
        rhs = raw_verify(a, (n, e)) * raw_verify(b, (n, e)) % n
        if lhs == rhs:
            multiplicativity_ok += 1
    ok = negation_ok == cases and multiplicativity_ok == cases
    report_line(
        5,
        ok,
        f"negation {negation_ok}/{cases}, multiplicativity {multiplicativity_ok}/{cases} at 512 bits",
    )


def test_criterion_6_negated_branch_consistency(acceptance_key, search_results):
    n, e = acceptance_key.public
    negated = [r for r in search_results if r.negated]
    checked = 0
    for result in negated:
        # independent recomputation of the chain value y = r^(e*z) mod n
        y = pow(result.root, e * result.iterations, n)
        assert raw_verify(result.signature, (n, e)) == n - y
        assert result.plaintext == to_fixed_bytes(n - y, BL)
        checked += 1
    report_line(
        6,
        checked >= 1 and checked == len(negated),
        f"{checked} negated-branch hits verified as n - y signatures",
    )


def test_criterion_7_exploit_chain_end_to_end(registry, nand_key):
    started = time.perf_counter()
    signature = forge_with_private_key(nand_key, BL, b"criterion-7").signature_bytes()
    staged = build_exploit_image(signature)

    machine = Machine(b"acceptance-machine", registry)
    report = run_exploit_chain(machine, staged, keys_held=DUMP_COMBO)
    machine_seed = derive_seed(b"acceptance-machine", "machine")
    rom9 = ByteStream(derive_seed(machine_seed, "boot9-rom")).take(0x10000)[0x8000:]
    rom11 = ByteStream(derive_seed(machine_seed, "boot11-rom")).take(0x10000)[0x8000:]
    dump_ok = (
        report.outcome is BootOutcome.SHUTDOWN
        and machine.sd_store["boot9_protected.bin"] == rom9
        and machine.sd_store["boot11_protected.bin"] == rom11
    )
    kinds = [e.kind for e in report.events]
    copies = [i for i, k in enumerate(kinds) if k.startswith("copy_protected")]
    locks = [i for i, k in enumerate(kinds) if k.startswith("lock_boot")]
    order_ok = len(copies) == 2 and all(c < min(locks, default=len(kinds)) for c in copies)

    # chain-continuation variant: the lock events exist and still follow
    # every protected copy
    m2 = Machine(b"acceptance-machine", registry)
    second = signed_header_image(nand_key)
    chain = run_exploit_chain(m2, staged, second_image=second)
    ckinds = [e.kind for e in chain.events]
    ccopies = [i for i, k in enumerate(ckinds) if k.startswith("copy_protected")]
    clocks = [i for i, k in enumerate(ckinds) if k.startswith("lock_boot")]
    chain_ok = (
        chain.reached_entry and len(ccopies) == 2 and clocks and max(ccopies) < min(clocks)
    )

    hardened = Machine(b"acceptance-machine", registry, policy=BlacklistPolicy.HARDENED)
    hreport = run_exploit_chain(hardened, staged, keys_held=DUMP_COMBO)
    hardened_ok = (
        hreport.outcome is BootOutcome.FAILURE
        and any(e.kind == "blacklist_reject" for e in hreport.events)
        and hreport.sections_loaded == [0, 1]
        and hreport.exfiltrated == {}
    )
    elapsed = time.perf_counter() - started
    report_line(
        7,
        dump_ok and order_ok and chain_ok and hardened_ok and elapsed < 5.0,
        f"dump matches seeded ROMs, copies precede locks, hardened fails at the "
        f"DMA-window load ({elapsed:.2f}s)",
    )


def test_criterion_8_black_screen_vs_blue_screen(registry, nand_key):
    machine = Machine(b"acceptance-machine", registry)
    base = signed_header_image(nand_key)

    off_stack = forge_with_private_key(nand_key, BL + 0x50, b"criterion-8")
    halt_report = run_boot(machine, serialize(fakesign_firm(base, off_stack.signature_bytes())))
    halt_ok = (
        halt_report.outcome is BootOutcome.HALT
        and halt_report.signature_verdict.verdict is Verdict.OUT_OF_BOUNDS
    )

    bad_report = run_boot(machine, serialize(fakesign_firm(base, b"\x99" * BL)))
    reject_ok = (
        bad_report.outcome is BootOutcome.FAILURE
        and bad_report.signature_verdict.verdict is Verdict.REJECT
    )
    report_line(
        8,
        halt_ok and reject_ok and halt_report.outcome != bad_report.outcome,
        f"off-stack landing -> {halt_report.outcome.value}, "
        f"garbage signature -> {bad_report.outcome.value}",
    )


def test_criterion_9_ntr_install_path(registry, slot_keys):
    nand_key = slot_keys[(Console.RETAIL, SignatureType.NAND_BOOT)]
    cart_key = slot_keys[(Console.RETAIL, SignatureType.NON_NAND_BOOT)]
    nand_sig = forge_with_private_key(nand_key, BL, b"criterion-9-nand").signature_bytes()
    cart_sig = forge_with_private_key(cart_key, BL, b"criterion-9-cart").signature_bytes()
    second = signed_header_image(nand_key)

    def flashcart(sig):
        return build_exploit_image(
            sig,
            stage2="install",
            install_nand_image=serialize(build_exploit_image(nand_sig)),
            install_sd_image=serialize(second),
        )

    machine = Machine(b"acceptance-machine", registry)
    good = run_ntr_install_scenario(machine, flashcart(cart_sig))
    good_ok = (
        good.reached_entry
        and good.boot_source is bootsim.BootSource.NAND
        and any(e.kind == "nand_install" for e in machine.event_log)
    )

    other = Machine(b"acceptance-machine", registry)
    wrong = run_ntr_install_scenario(other, flashcart(nand_sig))
    wrong_ok = (
        wrong.boot_source is bootsim.BootSource.NTR_CART
        and wrong.signature_verdict.verdict is Verdict.REJECT
    )
    report_line(
        9,
        good_ok and wrong_ok,
        "non-NAND-slot forging installs and reboots to entry; NAND-slot forging "
        "is rejected on the cartridge path",
    )


def test_criterion_10_format_fidelity(slot_keys):
    rng = random.Random(10)
    nand_key = slot_keys[(Console.RETAIL, SignatureType.NAND_BOOT)]
    round_trips = 0
    for i in range(1000):
        entries = [
            (
                rng.randrange(0, 0xFFFFFFFF),
                CopyMethod(rng.randrange(3)),
                rng.randbytes(rng.randrange(1, 1500)),
            )
            for _ in range(rng.randrange(1, 5))
        ]
        image = build_firm(
            entries,
            arm9_entry=rng.randrange(0, 0xFFFFFFFF),
            arm11_entry=rng.randrange(0, 0xFFFFFFFF),
            boot_priority=rng.randrange(0, 0xFFFFFFFF),
        )
        if i % 3 == 0:
            image = sign_firm(image, nand_key)
        elif i % 3 == 1:
            image = fakesign_firm(image, rng.randbytes(BL))
        data = serialize(image)
        if serialize(parse(data)) == data and parse(data) == image:
            round_trips += 1

    vectors_ok = (
        hashlib.sha256(b"").hexdigest()
        == oracle_sha256(b"").hex()
        == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        and hashlib.sha256(b"abc").hexdigest()
        == oracle_sha256(b"abc").hex()
        == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )
    report_line(
        10,
        round_trips == 1000 and vectors_ok,
        f"{round_trips}/1000 bit-identical round trips; SHA-256 known answers hold",
    )
