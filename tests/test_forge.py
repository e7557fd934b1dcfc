import contextlib
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
from pathlib import Path

import numpy as np
import pytest

from bootforge import forge
from bootforge.forge import (
    SearchWorkerError,
    brute_force_search,
    craft_exploit_plaintext,
    draw_root,
    estimate_hit_probability,
    exact_hit_probability,
    forge_with_private_key,
    write_forge_result,
)
from bootforge.modmath import from_fixed_bytes, raw_verify
from bootforge.prng import derive_seed
from bootforge.sigparser import (
    ParserConfig,
    RejectReason,
    StackModel,
    Verdict,
    flawed_parse,
    make_classifier,
    strict_parse,
)

FLAWED_64 = ParserConfig.flawed(64)
# Can hit, but a block passes with probability about 2^-49: no test budget finds one.
UNLIKELY_64 = ParserConfig.flawed(64, window=[64], check_type_bytes=True)


def crash_worker(*args):
    os._exit(9)


def hang_worker(*args):
    time.sleep(60)


def crash_first_worker(*args):
    if args[5] == 0:  # the worker index
        os._exit(9)
    time.sleep(60)


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

    def test_two_worker_hit_counts_every_worker(self, key512):
        result = brute_force_search(key512.public, FLAWED_64, 2, b"forge-test-1", 8_000_000)
        assert result is not None
        # The winner's final tick publishes its 2 * iterations; the other
        # worker's final count is added to it.
        assert 2 * result.iterations <= result.attempts <= 8_000_000

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
        assert set(record) == {"signature", "landing_offset", "attempts", "elapsed_ms", "seed"}
        assert record["attempts"] == result.attempts
        assert record["seed"] == b"forge-test-1".hex()


class TestHitProbability:
    def test_prefix_only_matches_analytic_value(self):
        config = ParserConfig(block_types=frozenset({0x02}), require_walk=False)
        estimate = estimate_hit_probability(64, config, 4_000_000, b"analytic-check")
        assert estimate.ci_low <= 1 / 65536 <= estimate.ci_high

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
            if pos % 2 == 0 and flags[pos + 1] in FLAWED_64.block_types:
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
        config = ParserConfig.flawed(0x100)
        estimate = estimate_hit_probability(0x100, config, 2 * 10**7, b"paper-size")
        assert estimate.ci_low <= exact_hit_probability(0x100, config) <= estimate.ci_high

    @pytest.mark.parametrize("block_length, samples", [(61, 100_003), (0x100, 100_003)])
    def test_same_blocks_as_one_uint8_draw(self, block_length, samples):
        # The estimator draws in pieces of about 1 MiB; its blocks must be
        # exactly those of a single uint8 draw from the same seed.
        config = ParserConfig(block_types=frozenset(range(0x80)), require_walk=False)
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


class TestExactHitProbability:
    def test_prefix_only_is_the_flag_byte_share(self):
        for types in ({0x02}, {0x01, 0x02}, {0x00, 0x01, 0x02, 0xFF}):
            config = ParserConfig(block_types=frozenset(types), require_walk=False)
            assert exact_hit_probability(64, config) == len(types) / 65536

    @pytest.mark.parametrize(
        "block_length, config, log2_p",
        [
            (64, ParserConfig.flawed(64, window=range(64, 96)), -20.30),
            (0x100, ParserConfig.flawed(0x100), -17.20),
            (0x100, ParserConfig.full_structure(0x100), -46.69),
        ],
    )
    def test_reference_values(self, block_length, config, log2_p):
        assert math.log2(exact_hit_probability(block_length, config)) == pytest.approx(
            log2_p, abs=0.005
        )

    def test_empty_window_and_short_block(self):
        assert exact_hit_probability(64, ParserConfig.flawed(64, window=[])) == 0.0
        assert exact_hit_probability(7, ParserConfig.flawed(7)) == 0.0
