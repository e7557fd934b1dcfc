import contextlib
import hashlib
import io
import itertools
import json
import math
import multiprocessing
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bootforge import forge, modmath
from bootforge.forge import (
    SearchWorkerError,
    brute_force_search,
    craft_exploit_plaintext,
    draw_root,
    estimate_hit_probability,
    exact_hit_probability,
    exact_search_probability,
    forge_with_private_key,
    write_forge_result,
)
from bootforge.modmath import from_fixed_bytes, generate_keypair, raw_verify
from bootforge.prng import derive_seed
from bootforge.sigparser import (
    FLAWED_BLOCK_TYPES,
    ParserConfig,
    RejectReason,
    StackModel,
    Verdict,
    flawed_parse,
    make_classifier,
    strict_parse,
)

# The search mechanics are tested on the 128 landings past the block, a
# window hit far more often than the boot's one landing.
WINDOW_64 = range(64, 64 + 128)
WINDOW_256 = range(0x100, 0x100 + 128)
FLAWED_64 = ParserConfig.flawed(64, window=WINDOW_64)
# Can hit, but a block passes with probability about 2^-49: no test budget finds one.
UNLIKELY_64 = ParserConfig.flawed(64, window=[64], check_type_bytes=True)
# perfbench's 2048-bit predicate: 128 landing offsets, about 1.5e5 attempts a hit.
FLAWED_256 = ParserConfig.flawed(0x100, window=WINDOW_256)
UNLIKELY_256 = ParserConfig.flawed(0x100, window=[0x100], check_type_bytes=True)

needs_bn_chain = pytest.mark.skipif(
    modmath._BN is None, reason="libcrypto BN functions not loadable"
)


@pytest.fixture(scope="module")
def key2048():
    return generate_keypair(2048, b"pin 2048")  # pinned in test_modmath


def crash_worker(*args):
    os._exit(9)


def hang_worker(*args):
    time.sleep(60)


def crash_first_worker(*args):
    if args[5] == 0:  # the worker index
        os._exit(9)
    time.sleep(60)


def crash_first_worker_after_a_hit(*args):
    """Worker 0 exits 9 once a peer has shared its hit (3 if none does in
    30 s); the others search."""
    if args[5] != 0:
        return forge._worker_main(*args)
    least, deadline = args[8], time.monotonic() + 30
    unset = least.value
    while least.value == unset and time.monotonic() < deadline:
        time.sleep(0.01)
    os._exit(3 if least.value == unset else 9)


# The parent of a two-worker search whose chains write their pid into
# argv[1] and hang; argv[2] is the modulus.
SIGTERM_PARENT = """
import os, sys, time
from pathlib import Path
from bootforge import forge
from bootforge.sigparser import ParserConfig

def hang(*args):
    (Path(sys.argv[1]) / str(os.getpid())).touch()
    time.sleep(60)

forge._run_chain = hang
forge.brute_force_search((int(sys.argv[2]), 65537), ParserConfig.flawed(64), 2, b"s", 10_000)
"""


def is_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class FailingProgress:
    def write(self, text):
        raise RuntimeError("progress sink failed")

    def flush(self):
        pass


class TestCraft:
    def test_reproduces_reference_tail_shape(self):
        block = craft_exploit_plaintext(0x100, 0x100, b"fixed seed")
        assert block[:2] == b"\x00\x02"
        assert block.find(0, 2) == 0xDF
        assert block[0xE0] == 0x30 and block[0xE2] == 0x30
        assert block[0xE3] == 0x1A
        assert make_classifier(ParserConfig.flawed(0x100))(block) == 0x100

    def test_padding_freedom(self):
        a = craft_exploit_plaintext(0x100, 0x100, b"seed A")
        b = craft_exploit_plaintext(0x100, 0x100, b"seed B")
        assert a != b
        config = ParserConfig.flawed(0x100)
        assert make_classifier(config)(a) == make_classifier(config)(b) == 0x100

    def test_small_block_far_landing(self):
        block = craft_exploit_plaintext(64, 64 + 31, b"s")
        assert make_classifier(FLAWED_64)(block) == 95

    def test_every_window_offset_is_reachable_at_64(self):
        for offset in range(64, 64 + 128):
            block = craft_exploit_plaintext(64, offset, bytes([offset & 0xFF]))
            assert make_classifier(FLAWED_64)(block) == offset

    def test_determinism(self):
        assert craft_exploit_plaintext(96, 100, b"d") == craft_exploit_plaintext(96, 100, b"d")

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            craft_exploit_plaintext(0x100, 0x100 + 128, b"x")  # past the window
        with pytest.raises(ValueError):
            craft_exploit_plaintext(0x100, 0xFF, b"x")  # inside the block
        with pytest.raises(ValueError):
            craft_exploit_plaintext(8, 8, b"x")  # unsatisfiable terminator position


class TestPrivateKeyOracle:
    def test_accepts_for_any_calculated_hash(self, key512):
        result = forge_with_private_key(key512, 64, b"oracle-1")
        assert result.attempts == 1
        stack = StackModel.boot9(64)
        rng = random.Random(1)
        for _ in range(20):
            calc = bytes(rng.randrange(256) for _ in range(32))
            assert flawed_parse(result.plaintext, calc, stack).verdict is Verdict.ACCEPT

    def test_strict_rejects(self, key512):
        result = forge_with_private_key(key512, 64, b"oracle-2")
        outcome = strict_parse(result.plaintext, b"\x00" * 32)
        assert outcome.verdict is Verdict.REJECT
        assert outcome.reason is RejectReason.BAD_BLOCK_TYPE

    def test_verify_roundtrip(self, key512):
        result = forge_with_private_key(key512, 70, b"oracle-3")
        decoded = raw_verify(result.signature, key512.public)
        assert decoded.to_bytes(64, "big") == result.plaintext
        assert from_fixed_bytes(result.plaintext) < key512.n

    def test_requires_private_exponent(self, key512):
        public_only = type(key512)(n=key512.n, e=key512.e, d=0)
        with pytest.raises(ValueError):
            forge_with_private_key(public_only, 64, b"x")


class TestBruteForceSearch:
    def test_single_worker_hit(self, key512):
        result = brute_force_search(key512.public, FLAWED_64, 1, b"forge-test-1", 4_000_000)
        assert result is not None
        assert result.attempts == 58298
        assert not result.negated
        assert make_classifier(FLAWED_64)(result.plaintext) == result.landing_offset
        assert raw_verify(result.signature, key512.public) == from_fixed_bytes(result.plaintext)

    def test_deterministic_attempt_sequence(self, key512):
        a = brute_force_search(key512.public, FLAWED_64, 1, b"forge-test-3", 4_000_000)
        b = brute_force_search(key512.public, FLAWED_64, 1, b"forge-test-3", 4_000_000)
        assert (a.signature, a.attempts, a.landing_offset) == (
            b.signature,
            b.attempts,
            b.landing_offset,
        )

    def test_negated_branch_identity(self, key512):
        result = brute_force_search(key512.public, FLAWED_64, 1, b"forge-test-3", 4_000_000)
        assert result.negated
        n, e = key512.public
        # re-derive the chain independently: y = r^(e*z) mod n
        assert result.root == draw_root(b"forge-test-3", 0, n)
        y = pow(result.root, e * result.iterations, n)
        assert raw_verify(result.signature, key512.public) == n - y
        assert result.plaintext == (n - y).to_bytes(64, "big")

    def test_chain_matches_modexp_at_checkpoints(self, key512):
        result = brute_force_search(key512.public, FLAWED_64, 1, b"forge-test-0", 4_000_000)
        # the chain's state at the hit agrees with a direct exponentiation
        n, e = key512.public
        assert pow(result.root, e * result.iterations, n) in (
            from_fixed_bytes(result.plaintext),
            n - from_fixed_bytes(result.plaintext),
        )

    def test_multiprocess_search(self, key512):
        result = brute_force_search(key512.public, FLAWED_64, 3, b"forge-test-0", 12_000_000)
        assert result is not None
        assert raw_verify(result.signature, key512.public) == from_fixed_bytes(result.plaintext)
        assert make_classifier(FLAWED_64)(result.plaintext) == result.landing_offset

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("seed", [b"forge-test-0", b"forge-test-1", b"forge-test-3"])
    def test_worker_count_changes_no_result(self, key512, workers, seed):
        one = brute_force_search(key512.public, FLAWED_64, 1, seed, 4_000_000)
        for _ in range(2):
            assert brute_force_search(key512.public, FLAWED_64, workers, seed, 4_000_000) == one

    @pytest.mark.parametrize("workers", [2, 3])
    def test_slowed_worker_still_holds_the_least_hit(self, key512, monkeypatch, workers):
        # The worker that owns the one-worker hit's z ticks slowly, so its
        # peers reach later hits first; the search must still wait for it.
        one = brute_force_search(key512.public, FLAWED_64, 1, b"forge-test-1", 4_000_000)
        n, e = key512.public
        owner = (one.iterations - 1) % workers
        slow_start = pow(pow(one.root, e, n), owner + 1 - workers, n)
        chain = modmath._chain

        def slowed(start, *args):
            for item in chain(start, *args):
                if item[1] is None and start == slow_start:
                    time.sleep(0.02)
                yield item

        monkeypatch.setattr(modmath, "_chain", slowed)  # forked workers inherit it
        assert brute_force_search(key512.public, FLAWED_64, workers, b"forge-test-1",
                                  4_000_000) == one

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_budget_bounds_the_one_chain(self, key512, workers):
        one = brute_force_search(key512.public, FLAWED_64, 1, b"forge-test-1", 4_000_000)
        z = one.iterations
        for budget, expected in ((2 * z - 2, None), (2 * z - 1, one), (2 * z, one)):
            assert brute_force_search(
                key512.public, FLAWED_64, workers, b"forge-test-1", budget
            ) == expected

    def test_crash_beside_a_hit_is_an_error(self, key512, monkeypatch):
        # Worker 0's z may hold a lesser hit than worker 1's, so a hit
        # cannot be returned once a worker died.
        monkeypatch.setattr(forge, "_worker_main", crash_first_worker_after_a_hit)
        with pytest.raises(SearchWorkerError, match="worker 0 exited with code 9"):
            brute_force_search(key512.public, FLAWED_64, 2, b"forge-test-1", 4_000_000)
        assert multiprocessing.active_children() == []

    def test_exhaustion_returns_none(self, key512):
        assert brute_force_search(key512.public, UNLIKELY_64, 1, b"s", 10_000) is None
        assert brute_force_search(key512.public, UNLIKELY_64, 2, b"s", 10_000) is None

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "config",
        [ParserConfig.flawed(64, window=[]), ParserConfig.flawed(64, window=range(0, 6))],
    )
    def test_config_that_cannot_hit_is_refused_before_any_chain(
        self, key512, monkeypatch, config, workers
    ):
        def refuse(*args):
            raise AssertionError("a chain ran")

        monkeypatch.setattr(forge, "_run_chain", refuse)
        monkeypatch.setattr(forge, "_worker_main", refuse)
        with pytest.raises(ValueError, match="cannot hit"):
            brute_force_search(key512.public, config, workers, b"s", 50_000_000)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_even_modulus_is_refused_before_any_chain(self, key512, monkeypatch, workers):
        # Montgomery form cannot take an even modulus, and no RSA modulus is one.
        def refuse(*args):
            raise AssertionError("a chain ran")

        monkeypatch.setattr(forge, "_run_chain", refuse)
        monkeypatch.setattr(forge, "_worker_main", refuse)
        monkeypatch.setattr(modmath, "_chain", refuse)
        with pytest.raises(ValueError, match="modulus must be odd"):
            brute_force_search((key512.n + 1, key512.e), FLAWED_64, workers, b"s", 50_000_000)
        assert multiprocessing.active_children() == []

    def test_crashed_worker_is_an_error_not_exhaustion(self, key512, monkeypatch):
        monkeypatch.setattr(forge, "_worker_main", crash_worker)
        with pytest.raises(SearchWorkerError, match="worker 0 exited with code 9") as info:
            brute_force_search(key512.public, FLAWED_64, 2, b"s", 10_000)
        assert (info.value.worker, info.value.exitcode) == (0, 9)

    def test_crash_stops_the_search_at_once(self, key512, monkeypatch):
        monkeypatch.setattr(forge, "_worker_main", crash_first_worker)
        started = time.monotonic()
        with pytest.raises(SearchWorkerError, match="worker 0 exited with code 9"):
            brute_force_search(key512.public, FLAWED_64, 3, b"s", 10_000)
        assert time.monotonic() - started < 5
        assert multiprocessing.active_children() == []

    def test_parent_failure_terminates_live_workers(self, key512, monkeypatch):
        monkeypatch.setattr(forge, "_worker_main", hang_worker)
        with pytest.raises(RuntimeError, match="progress sink failed"):
            brute_force_search(
                key512.public, FLAWED_64, 2, b"s", 10_000, progress=FailingProgress()
            )
        assert multiprocessing.active_children() == []

    def test_sigterm_to_the_parent_stops_its_workers(self, key512, tmp_path):
        src = str(Path(forge.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        parent = subprocess.Popen(
            [sys.executable, "-c", SIGTERM_PARENT, str(tmp_path), str(key512.n)], env=env
        )
        pids = []
        try:
            deadline = time.monotonic() + 30
            while len(pids) < 2:
                assert parent.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
                pids = [int(path.name) for path in tmp_path.iterdir()]
            parent.send_signal(signal.SIGTERM)
            assert parent.wait(timeout=30) == -signal.SIGTERM
            assert [pid for pid in pids if is_alive(pid)] == []
        finally:
            parent.kill()
            for pid in pids:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)

    def test_search_restores_sigterm_and_runs_off_the_main_thread(self, key512):
        before = signal.getsignal(signal.SIGTERM)
        assert brute_force_search(key512.public, UNLIKELY_64, 2, b"s", 10_000) is None
        assert signal.getsignal(signal.SIGTERM) is before
        results = []
        thread = threading.Thread(
            target=lambda: results.append(
                brute_force_search(key512.public, UNLIKELY_64, 2, b"s", 10_000)
            )
        )
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive() and results == [None]

    def test_rejects_zero_workers(self, key512):
        with pytest.raises(ValueError):
            brute_force_search(key512.public, FLAWED_64, 0, b"s", 100)

    def test_progress_line_protocol(self, key512, monkeypatch):
        # Each clock reading advances a fake clock by 0.3 s, so the chain's
        # ten ticks span about three seconds.
        readings = itertools.count()
        fake_time = types.SimpleNamespace(perf_counter=lambda: 0.3 * next(readings))
        monkeypatch.setattr(forge, "time", fake_time)
        out = io.StringIO()
        brute_force_search(key512.public, UNLIKELY_64, 1, b"p", 20_000, progress=out)
        lines = out.getvalue().splitlines()
        assert len(lines) >= 2, "a multi-second run emits progress"
        assert all(re.fullmatch(r"attempts=\d+ rate=\d+ elapsed=\d+\.\d", l) for l in lines)
        elapsed = [float(line.rsplit("=", 1)[1]) for line in lines]
        assert all(later - earlier >= 1.0 for earlier, later in zip(elapsed, elapsed[1:]))

    def test_result_files(self, key512, tmp_path):
        result = brute_force_search(key512.public, FLAWED_64, 1, b"forge-test-1", 4_000_000)
        sig_path, json_path = write_forge_result(result, tmp_path / "out", b"forge-test-1")
        assert bytes.fromhex(sig_path.read_text().strip()) == result.signature_bytes()
        record = json.loads(json_path.read_text())
        assert set(record) == {"signature", "landing_offset", "attempts", "iterations", "seed"}
        assert record["attempts"] == result.attempts
        assert record["iterations"] == result.iterations
        assert record["seed"] == b"forge-test-1".hex()


def reference_chain(start, k, n, top_bits, steps, tick_mask):
    """What a chain yields, by plain y = y * k % n from y = start."""
    out, y = [], start
    for z in range(1, steps + 1):
        y = y * k % n
        if min(y, n - y) < 1 << top_bits:
            out.append((z, y))
        if z & tick_mask == 0:
            out.append((z, None))
    return out


@st.composite
def chain_operands(draw):
    """An odd modulus of 17 to 4096 bits, a start of 1 or any residue, k of
    1, n - 1 or any residue, a candidate bound from 2**(bits-16) up to
    2**(bits-1), a step count and a tick mask."""
    bits = draw(st.integers(17, 4096))
    n = draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) | 1
    start = draw(st.one_of(st.just(1), st.integers(0, n - 1)))
    k = draw(st.one_of(st.sampled_from([1, n - 1]), st.integers(0, n - 1)))
    top_bits = draw(st.integers(bits - 16, bits - 1))
    steps = draw(st.integers(0, 150))
    tick_mask = draw(st.sampled_from([0, 1, 7, 0x3FF]))
    return start, k, n, top_bits, steps, tick_mask


class CountingBn:
    """libcrypto's BN functions, recording each OpenSSL object made and freed."""

    def __init__(self, bn):
        self.made, self.freed = [], []
        for name in modmath._BN_SIGNATURES:
            setattr(self, name, getattr(bn, name))
        for name in ("BN_new", "BN_bin2bn", "BN_CTX_new", "BN_MONT_CTX_new"):
            setattr(self, name, self._making(getattr(bn, name)))
        for name in ("BN_free", "BN_CTX_free", "BN_MONT_CTX_free"):
            setattr(self, name, self._freeing(getattr(bn, name)))

    def _making(self, func):
        def make(*args):
            obj = func(*args)
            self.made.append(obj)
            return obj
        return make

    def _freeing(self, func):
        def free(obj):
            self.freed.append(obj)
            func(obj)
        return free


def failing_tick(attempts):
    raise RuntimeError("tick failed")


def recording_tick(ticks, stop_at=None):
    def tick(attempts):
        ticks.append(attempts)
        return attempts == stop_at
    return tick


class TestChain:
    """The search chain: its libcrypto step, its CPython step and its budget."""

    @needs_bn_chain
    @settings(max_examples=150, deadline=None)
    @given(operands=chain_operands())
    @example(operands=(1, 1, (1 << 16) + 1, 8, 40, 7))
    # y = 2**top_bits and n - y = 2**top_bits: neither is a candidate.
    @example(operands=(1, 1 << 8, (1 << 16) + 1, 8, 2, 7))
    @example(operands=(1, (1 << 16) + 1 - (1 << 8), (1 << 16) + 1, 8, 2, 7))
    @example(operands=(1, ((1 << 2048) - 1) - 1, (1 << 2048) - 1, 2040, 20, 1))
    @example(operands=(1, 3, (1 << 4095) + 3, 4094, 30, 0))
    def test_libcrypto_chain_yields_the_python_steps(self, operands):
        expected = reference_chain(*operands)
        assert list(modmath._bind_montgomery_chain(modmath._BN)(*operands)) == expected
        assert list(modmath._python_chain(*operands)) == expected
        assert list(modmath._chain(*operands)) == expected

    @needs_bn_chain
    @pytest.mark.parametrize("bits, on_libcrypto", [(17, False), (639, False), (640, True), (2048, True)])
    def test_step_is_selected_by_size(self, bits, on_libcrypto):
        bn = CountingBn(modmath._BN)
        n = (1 << (bits - 1)) + 1
        operands = (1, 3, n, bits - 8, 40, 7)
        assert list(modmath._bind_chain(bn)(*operands)) == reference_chain(*operands)
        assert bool(bn.made) == on_libcrypto

    @pytest.mark.parametrize(
        "bits, seed, attempts, landing_offset, negated, signature_sha256",
        [
            (512, b"search-512-a", 103164, 89, True,
             "ec82212538c9d07a54acecd4be6ade3b73ac325bc8357287f7e63d9fc16fae84"),
            (2048, b"search-2048-a", 76016, 273, True,
             "dbc05edec23e8a782d32536345099464e222af787ecd64cf48c2a4609b53fe7f"),
            (2048, b"search-2048-d", 13292, 377, False,
             "db4914581c6c15e0e7d9fd9ee802ade9a2e665eeb5ae5f035c8fc6ebf63846bf"),
        ],
    )
    def test_search_is_pinned(
        self, monkeypatch, key512, key2048, bits, seed, attempts, landing_offset, negated,
        signature_sha256,
    ):
        # The values the CPython step gives; the libcrypto step must give them too.
        key, config = (key512, FLAWED_64) if bits == 512 else (key2048, FLAWED_256)
        result = brute_force_search(key.public, config, 1, seed, 10_000_000)
        assert (result.attempts, result.landing_offset, result.negated) == (
            attempts, landing_offset, negated
        )
        assert hashlib.sha256(result.signature_bytes()).hexdigest() == signature_sha256
        assert raw_verify(result.signature, key.public) == from_fixed_bytes(result.plaintext)
        # The fallback when libcrypto is missing.
        monkeypatch.setattr(modmath, "_chain", modmath._python_chain)
        on_python = brute_force_search(key.public, config, 1, seed, 10_000_000)
        assert on_python == result

    @needs_bn_chain
    def test_libcrypto_chain_ticks_every_1024_steps(self, monkeypatch, key2048):
        calls = []

        def spy(*args):
            calls.append(args)
            return bn_chain(*args)

        bn_chain = modmath._chain
        monkeypatch.setattr(modmath, "_chain", spy)
        ticks = []
        n, e = key2048.public
        assert forge._run_chain(
            n, e, 0x100, UNLIKELY_256, b"t", 0, 1, 10_000, recording_tick(ticks)
        ) is None
        assert len(calls) == 1
        assert ticks == [2048, 4096, 6144, 8192, 10_000]

    def test_candidates_follow_the_mod_n_factor(self, key2048):
        # A value uniform mod n has a zero top byte with probability
        # 2^(8(bl-1)) / n, and the chain tests y and n - y, so a step yields
        # a candidate with probability 2 * 2^(8(bl-1)) / n: a mean of 2423.5
        # here, against 1562.5 (2 / 256 a step) for uniform bytes.
        n, e = key2048.public
        top_bits, steps = 8 * (key2048.block_length - 1), 200_000
        k = modmath.mod_exp(draw_root(b"cand", 0, n), e, n)
        chain = modmath._chain(1, k, n, top_bits, steps, forge._TICK_MASK)
        seen = sum(y is not None for _, y in chain)  # 2445 seen
        p = Fraction(2 << top_bits, n)
        mean, sigma = steps * p, math.sqrt(steps * p * (1 - p))
        assert abs(seen - mean) < 5 * sigma, (seen, float(mean))

    @pytest.mark.parametrize("bits", [512, 2048])
    @pytest.mark.parametrize("budget, expected", [(1, [2]), (2, [2]), (2049, [2048, 2050])])
    def test_odd_budget_ends_one_attempt_past_it(self, key512, key2048, bits, budget, expected):
        # The final count is 2 * ceil(budget / 2).
        key, config = (key512, UNLIKELY_64) if bits == 512 else (key2048, UNLIKELY_256)
        n, e = key.public
        ticks = []
        assert forge._run_chain(
            n, e, key.block_length, config, b"b", 0, 1, budget, recording_tick(ticks)
        ) is None
        assert ticks == expected

    @needs_bn_chain
    @pytest.mark.parametrize("end", ["hit", "spent budget", "stop", "tick raises"])
    def test_libcrypto_chain_frees_what_it_makes(self, monkeypatch, key2048, end):
        bn = CountingBn(modmath._BN)
        monkeypatch.setattr(modmath, "_chain", modmath._bind_montgomery_chain(bn))
        n, e = key2048.public
        seed, config, budget, tick = b"search-2048-d", FLAWED_256, 10_000_000, recording_tick([])
        if end == "spent budget":
            config, budget = UNLIKELY_256, 3000
        elif end == "stop":
            config, tick = UNLIKELY_256, recording_tick([], stop_at=2048)
        elif end == "tick raises":
            config, tick = UNLIKELY_256, failing_tick
        if end == "tick raises":
            with pytest.raises(RuntimeError, match="tick failed"):
                forge._run_chain(n, e, 0x100, config, seed, 0, 1, budget, tick)
        else:
            found = forge._run_chain(n, e, 0x100, config, seed, 0, 1, budget, tick)
            assert (found is not None) == (end == "hit")
        # The modulus, k, y and the bound; the BN_CTX and the BN_MONT_CTX.
        assert len(bn.made) == 6 and all(bn.made)
        assert sorted(bn.freed) == sorted(bn.made)


class TestHitProbability:
    def test_prefix_only_matches_analytic_value(self):
        config = ParserConfig(require_walk=False)
        estimate = estimate_hit_probability(64, config, 4_000_000, b"analytic-check")
        assert estimate.ci_low <= 2 / 65536 <= estimate.ci_high

    def test_impossible_predicate(self):
        config = ParserConfig.flawed(64, window=[])
        estimate = estimate_hit_probability(64, config, 100_000, b"none")
        assert estimate.hits == 0
        assert estimate.p_hat == 0.0
        assert estimate.ci_low == 0.0

    def test_rejects_tiny_sample_counts(self):
        with pytest.raises(ValueError):
            estimate_hit_probability(64, FLAWED_64, 99_999, b"s")

    def test_matches_pure_python_monte_carlo(self):
        # Same predicate, two independent sampling routes: the vectorized
        # estimator against a direct classify loop.  classify rejects any
        # block whose two flag bytes are not 00 and an allowed type, so
        # the loop draws the flag bytes of every sample up front and the
        # other 62 bytes only for the samples that pass them.
        samples = 10**7
        estimate = estimate_hit_probability(64, FLAWED_64, samples, b"mc-route-a")
        classify = make_classifier(FLAWED_64)
        rng = random.Random(0x5EED)
        flags = rng.randbytes(2 * samples)
        hits = 0
        pos = flags.find(0)
        while pos >= 0:
            if pos % 2 == 0 and flags[pos + 1] in FLAWED_BLOCK_TYPES:
                hits += classify(flags[pos : pos + 2] + rng.randbytes(62)) is not None
            pos = flags.find(0, pos + 1)
        p_direct = hits / samples
        assert estimate.hits > 0 and hits > 0
        # binomial two-sample z-test, generous 4-sigma gate
        pooled = (estimate.hits + hits) / (2 * samples)
        sigma = math.sqrt(pooled * (1 - pooled) * 2 / samples)
        assert abs(estimate.p_hat - p_direct) < 4 * sigma

    def test_deterministic(self):
        a = estimate_hit_probability(64, FLAWED_64, 200_000, b"det")
        b = estimate_hit_probability(64, FLAWED_64, 200_000, b"det")
        assert a == b

    def test_paper_size_estimate_contains_exact_p(self):
        # 2e7 samples at 0x100 bytes, about 133 expected hits: the estimator
        # at the paper's block size against the closed form.
        estimate = estimate_hit_probability(0x100, FLAWED_256, 2 * 10**7, b"paper-size")
        assert estimate.ci_low <= exact_hit_probability(0x100, FLAWED_256) <= estimate.ci_high

    @pytest.mark.parametrize("block_length, samples", [(61, 100_003), (0x100, 100_003)])
    def test_same_blocks_as_one_uint8_draw(self, block_length, samples, monkeypatch):
        # The estimator draws in pieces of about 1 MiB; its blocks must be
        # exactly those of a single uint8 draw from the same seed.  Half the
        # second flag bytes pass here, so enough blocks count to tell.
        monkeypatch.setattr(forge, "_FLAG_TYPE_OK", np.arange(256) < 0x80)
        config = ParserConfig(require_walk=False)
        rng = np.random.default_rng(int.from_bytes(derive_seed(b"one-draw", "estimate"), "big"))
        blocks = rng.integers(0, 256, size=(samples, block_length), dtype=np.uint8)
        expected = int(np.count_nonzero((blocks[:, 0] == 0) & (blocks[:, 1] < 0x80)))
        estimate = estimate_hit_probability(block_length, config, samples, b"one-draw")
        assert estimate.hits == expected

    def test_memory_stays_bounded(self):
        # One draw of every block at once would peak at 256 MiB here.
        tracemalloc.start()
        try:
            estimate_hit_probability(0x100, ParserConfig.flawed(0x100), 10**6, b"alloc")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


# The classifier compares each byte after the flag bytes only with 0x00
# (the terminator), 0x30 and 0x04 (the type bytes), except the inner length
# byte at t + 4, whose value steers the landing.  So one value, 0x01, can
# stand for the 253 others, and only the byte at t + 4 takes all 256 values.
BYTE_CLASSES = ((0x00, 1), (0x30, 1), (0x04, 1), (0x01, 253))


def weighted_tails(block_length):
    """The bytes at offsets 2 .. block_length - 1 of every class pattern, with
    the byte at t + 4 spelled out, as (bytes, number of blocks it stands for)."""
    tails = [(b"", 1, None)]  # (bytes so far, weight, terminator offset t)
    for offset in range(2, block_length):
        grown = []
        for tail, weight, t in tails:
            spelled_out = t is not None and offset == t + 4
            for value, w in [(v, 1) for v in range(256)] if spelled_out else BYTE_CLASSES:
                first_zero = offset if t is None and value == 0 else t
                grown.append((tail + bytes([value]), weight * w, first_zero))
        tails = grown
    return [(tail, weight) for tail, weight, _ in tails]


class TestExactHitProbability:
    @pytest.fixture(scope="class")
    def tails8(self):
        tails = weighted_tails(8)
        assert sum(weight for _, weight in tails) == 256**6
        return tails

    @pytest.mark.parametrize("check_type_bytes", [False, True], ids=["walk", "type bytes"])
    @pytest.mark.parametrize(
        "window", [None, range(8, 11), range(12, 200)], ids=["default", "[bl, bl+3)", "[12, 200)"]
    )
    def test_matches_every_eight_byte_block(self, tails8, window, check_type_bytes):
        # The flag bytes: 00 or another value (255 of them) first, then each
        # block type or another value.
        config = ParserConfig.flawed(8, window=window, check_type_bytes=check_type_bytes)
        other = min(set(range(256)) - set(FLAWED_BLOCK_TYPES))
        flags = [
            (bytes([first, second]), w1 * w2)
            for first, w1 in ((0x00, 1), (0x01, 255))
            for second, w2 in [(t, 1) for t in FLAWED_BLOCK_TYPES]
            + [(other, 256 - len(FLAWED_BLOCK_TYPES))]
        ]
        classify = make_classifier(config)
        hits = sum(
            w1 * w2 for head, w1 in flags for tail, w2 in tails8 if classify(head + tail) is not None
        )
        assert Fraction(exact_hit_probability(8, config)) == Fraction(hits, 256**8)

    def test_prefix_only_is_the_flag_byte_share(self):
        assert exact_hit_probability(64, ParserConfig(require_walk=False)) == 2 / 65536

    @pytest.mark.parametrize(
        "block_length, config, log2_p",
        [
            (64, ParserConfig.flawed(64, window=range(64, 96)), -20.30),
            (0x100, FLAWED_256, -17.20),
            (0x100, ParserConfig.flawed(0x100, window=WINDOW_256, check_type_bytes=True), -46.69),
        ],
    )
    def test_reference_values(self, block_length, config, log2_p):
        assert math.log2(exact_hit_probability(block_length, config)) == pytest.approx(
            log2_p, abs=0.005
        )

    def test_empty_window_and_short_block(self):
        assert exact_hit_probability(64, ParserConfig.flawed(64, window=[])) == 0.0
        assert exact_hit_probability(7, ParserConfig.flawed(7)) == 0.0


class TestExactSearchProbability:
    def test_paper_size_reference_value(self, key2048):
        # The boot's landing in a 0x100-byte block: p_bytes 7.40e-8 times
        # the key's mod-n factor 1.5510, about 8.71e6 attempts a hit.
        config = ParserConfig.flawed(0x100)
        p_bytes = exact_hit_probability(0x100, config)
        p_search = exact_search_probability(key2048.n, config)
        assert p_bytes == pytest.approx(7.40e-8, rel=1e-3)
        assert p_search / p_bytes == pytest.approx(1.5510, abs=5e-5)
        assert 1 / p_search == pytest.approx(8.71e6, rel=1e-3)

    @pytest.mark.parametrize("bits", [512, 2048])
    def test_factor_of_a_full_size_key_lies_in_one_to_two(self, key512, key2048, bits):
        key = key512 if bits == 512 else key2048
        assert key.n.bit_length() == bits
        config = ParserConfig.flawed(key.block_length)
        factor = exact_search_probability(key.n, config) / exact_hit_probability(
            key.block_length, config
        )
        assert 1 < factor <= 2
        assert factor == pytest.approx(float(Fraction(1 << bits, key.n)), rel=1e-12)

    def test_config_that_cannot_hit(self, key512):
        assert exact_search_probability(key512.n, ParserConfig.flawed(64, window=[])) == 0.0
