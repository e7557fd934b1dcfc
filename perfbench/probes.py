"""Layer calls that no workload operation reaches on its own, timed directly.

Each probe repeats one public call a fixed number of times and reports
the median; a span wraps each batch so the probe's time is charged to
its layer.  Probes run only in the traced run.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import tracemalloc
from pathlib import Path

from bootforge import cli, firm, forge, modmath, sigparser
from bootforge.prng import ByteStream, derive_seed
from bootforge.sigparser import ParserConfig, StackModel

from clock import cpu_seconds
from corpus import BL2048, BL512, WINDOW2048, WINDOW512, Corpus, poisson_band
from ops import ESTIMATE_SAMPLES

CLASSIFY_BLOCKS = 2000


def _median_time(fn, repeats: int) -> float:
    times = []
    for i in range(repeats):
        start = cpu_seconds()
        fn(i)
        times.append(cpu_seconds() - start)
    return statistics.median(times)


def run_probes(corpus: Corpus, seed: bytes, tracer, workdir: Path) -> tuple[dict, bool]:
    """Returns ({metric: (value, unit)}, all probe outputs correct)."""
    T = tracer
    out: dict[str, tuple[float, str]] = {}
    ok = True
    key = corpus.nand_key
    pub = key.public

    with T.span("prng.ByteStream.take", bytes=9 * 0x10000):
        out["prng.take_64k_ms"] = 1e3 * _median_time(
            lambda i: ByteStream(derive_seed(seed, "probe-take", i)).take(0x10000), 9
        ), "ms"

    messages = [int.from_bytes(derive_seed(seed, "probe-m", i) * 2, "big") % key.n for i in range(101)]
    with T.span("modmath.raw_sign", calls=9):
        out["modmath.raw_sign_ms.512b"] = 1e3 * _median_time(
            lambda i: modmath.raw_sign(messages[i], key), 9
        ), "ms"
    signatures = [modmath.raw_sign(m, key) for m in messages[:11]]
    with T.span("modmath.raw_verify", calls=101):
        out["modmath.raw_verify_us.512b"] = 1e6 * _median_time(
            lambda i: modmath.raw_verify(signatures[i % 11], pub), 101
        ), "us"
    ok = ok and all(modmath.raw_verify(s, pub) == m for s, m in zip(signatures, messages))

    # Blocks as the search presents them: top byte zero, the rest uniform.
    for bits, bl, window in ((512, BL512, WINDOW512), (2048, BL2048, WINDOW2048)):
        stream = ByteStream(derive_seed(seed, "probe-classify", bits))
        blocks = [b"\x00" + stream.take(bl - 1) for _ in range(CLASSIFY_BLOCKS)]
        classify = sigparser.make_classifier(ParserConfig.flawed(bl, window=window))

        def batch(_):
            for block in blocks:
                classify(block)

        with T.span("sigparser.classify", calls=5 * CLASSIFY_BLOCKS):
            out[f"sigparser.classify_ns.{bits}b"] = 1e9 * _median_time(batch, 5) / CLASSIFY_BLOCKS, "ns"

    crafted = forge.craft_exploit_plaintext(BL512, BL512, derive_seed(seed, "probe-craft"))
    calc_hash = derive_seed(seed, "probe-calc")
    stack = StackModel.boot9(BL512)
    with T.span("sigparser.flawed_parse", calls=201):
        out["sigparser.flawed_parse_us"] = 1e6 * _median_time(
            lambda i: sigparser.flawed_parse(crafted, calc_hash, stack), 201
        ), "us"
    ok = ok and sigparser.flawed_parse(crafted, calc_hash, stack).landing_offset == BL512

    with T.span("forge.brute_force_search", workers=2, calls=3):
        out["forge.worker_overhead_ms.2w"] = 1e3 * _median_time(
            lambda i: forge.brute_force_search(
                pub, ParserConfig.flawed(BL512, window=WINDOW512), 2,
                derive_seed(seed, "probe-2w", i), 2,
            ),
            3,
        ), "ms"

    prefix_only = ParserConfig(require_walk=False)
    band = poisson_band(ESTIMATE_SAMPLES * 2 / 65536)
    for label, bl in (("64B", BL512), ("256B", BL2048)):
        hits = []

        def estimate(i):
            est = forge.estimate_hit_probability(
                bl, prefix_only, ESTIMATE_SAMPLES, derive_seed(seed, "probe-prefix", label, i)
            )
            hits.append(est.hits)

        with T.span("forge.estimate_hit_probability", samples=3 * ESTIMATE_SAMPLES):
            seconds = _median_time(estimate, 3)
        out[f"forge.estimate_prefix_only_samples_per_s.{label}"] = ESTIMATE_SAMPLES / seconds, "1/s"
        ok = ok and all(band[0] <= h <= band[1] for h in hits)

    tracemalloc.start()
    with T.span("forge.estimate_hit_probability", samples=ESTIMATE_SAMPLES):
        forge.estimate_hit_probability(
            BL2048, ParserConfig.flawed(BL2048, window=WINDOW2048), ESTIMATE_SAMPLES,
            derive_seed(seed, "probe-alloc"),
        )
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    out["forge.estimate_peak_alloc_mib.256B"] = peak / 2**20, "MiB"

    honest = corpus.honest_bytes
    image = firm.parse(honest)
    with T.span("firm.parse", calls=201):
        out["firm.parse_us"] = 1e6 * _median_time(lambda i: firm.parse(honest), 201), "us"
    with T.span("firm.validate_firm", calls=21):
        out["firm.validate_ms.512b"] = 1e3 * _median_time(
            lambda i: firm.validate_firm(image, pub, ParserConfig.flawed(BL512), StackModel.boot9(BL512)),
            21,
        ), "ms"
    ok = ok and firm.validate_firm(image, pub, ParserConfig.flawed(BL512)).accepted
    with T.span("firm.sign_firm", calls=9):
        out["firm.sign_ms.512b"] = 1e3 * _median_time(lambda i: firm.sign_firm(image, key), 9), "ms"

    malformed = [corpus.hostile[name] for name in corpus.reject_names[2:]]
    parsed = []

    def parse_reject(i):
        try:
            parsed.append(firm.parse(malformed[i % len(malformed)]))
        except firm.FirmParseError:
            pass

    with T.span("firm.parse", calls=5 * 41):
        out["firm.parse_reject_us"] = 1e6 * _median_time(parse_reject, 5 * 41), "us"
    ok = ok and not parsed

    cli_ms, cli_ok = _cli_exploit(seed, tracer, workdir)
    out["cli.main_ms.exploit"] = cli_ms, "ms"
    return out, ok and cli_ok


def _cli_exploit(seed: bytes, tracer, workdir: Path) -> tuple[float, bool]:
    """`bootforge exploit --dump-keys` in-process, against keys the CLI wrote."""
    hexseed = derive_seed(seed, "probe-cli").hex()
    key_dir = workdir / "keys"
    sink = io.StringIO()
    codes = []
    with contextlib.redirect_stdout(sink):
        codes.append(cli.main(["keygen", "--seed", hexseed, "--key-dir", str(key_dir), "--bits", "512"]))

        def exploit(i):
            codes.append(cli.main([
                "exploit", "--seed", derive_seed(seed, "probe-cli", i).hex(),
                "--key-dir", str(key_dir), "--dump-keys", "--workdir", str(workdir / "run"),
            ]))

        with tracer.span("cli.main", calls=5):
            seconds = _median_time(exploit, 5)
    return 1e3 * seconds, all(code == 0 for code in codes)
