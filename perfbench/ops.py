"""The benchmark's operation classes, each followed by its output check.

An operation is one closed-loop step: it starts when the previous one has
ended.  Its latency covers only the calls into bootforge; the check that
follows is timed apart and never counted as operation time.  Operation i
of a class draws its inputs from derive_seed(workload seed, class, i), so
the same seed gives the same inputs whatever the workload's mix.
"""

from __future__ import annotations

from dataclasses import dataclass

from bootforge import bootsim, firm, forge, modmath, sigparser
from bootforge.bootsim import BlacklistPolicy, BootOutcome, BootSource, DUMP_COMBO, Machine
from bootforge.firm import CopyMethod
from bootforge.prng import ByteStream, derive_seed
from bootforge.sigparser import ParserConfig, StackModel, Verdict

from clock import cpu_seconds
from corpus import (
    BIGCOPY_LEN, BL2048, BL512, FCRAM_BASE, FCRAM_END,
    WINDOW2048, WINDOW512, Corpus, digest, exact_p_bytes, poisson_band,
)

SEARCH_BUDGET = 40_000_000     # far beyond any first hit; exhaustion is a failure
ESTIMATE_SAMPLES = 1_000_000   # the CLI's default sample count
# Exact per-sample hit probability of each estimator leg, and the Poisson
# band on one operation's hits.  The band's floor is 0 for both legs (about
# 0.8 and 6.7 expected hits), so one operation's check catches only
# overcounting; `check_estimate_totals` catches undercounting.
P_ESTIMATE = {
    "estimate64": exact_p_bytes(BL512, WINDOW512),
    "estimate256": exact_p_bytes(BL2048, WINDOW2048),
}
ESTIMATE_BAND = {leg: poisson_band(ESTIMATE_SAMPLES * p) for leg, p in P_ESTIMATE.items()}

# Boot scenarios in a fixed weighted cycle (honest 3, dump 2, chain 2,
# ntr 2, hardened 1).  NTR, the slowest, is a fifth of the mix, so the
# tail percentile lands inside its cluster at every sample count used.
BOOT_CYCLE = (
    "honest", "dump", "ntr", "chain", "honest",
    "hardened", "dump", "ntr", "chain", "honest",
)
SCENARIOS = ("honest", "dump", "chain", "ntr", "hardened")

# sha256 of report JSON + event log for the first operation of each
# scenario under the default seed (operation seeds do not depend on the
# workload, so the pins hold on every workload).
DEFAULT_SEED = 1
GOLDEN = {
    "honest": "a8e5d508dfd342035721eafa42fd6a5fd03ff218a56377ab3300172f4b01d759",
    "dump": "5cc85b05eb260f5d3fb40d695edcad4b5a5bac38cff6879affcff92e77a5886d",
    "chain": "84d855d19528eecf22afde3b5bee5659a14e803cc8d26b44a0f9c081d9d893cb",
    "ntr": "ef256ef232076601a41822a4ec1c6a0de92f4144dda137f271df9d794177f5f1",
    "hardened": "af181216498e9ac68d1905bd7c0bc9d7c1683d26e76541fa34663ad70e21d398",
}


@dataclass
class Result:
    cls: str
    index: int
    seconds: float
    ok: bool
    work: int = 1                  # attempts, samples, or 1 operation
    hits: int = 0
    scenario: str = ""
    events: int = 0
    kernel: float = 0.0            # reference-kernel CPU seconds around it


def check_estimate_totals(results) -> dict:
    """Check each estimator leg's summed hits against the Poisson band on
    its summed samples; a leg outside its band marks all its operations
    failed.  Returns {leg: [hits, band floor, band ceiling]}."""
    totals = {}
    for leg, p in P_ESTIMATE.items():
        ops = [r for r in results if r.cls == leg]
        hits = sum(r.hits for r in ops)
        lo, hi = poisson_band(sum(r.work for r in ops) * p)
        if not lo <= hits <= hi:
            for r in ops:
                r.ok = False
        totals[leg] = [hits, lo, hi]
    return totals


def _copied_bytes(events) -> int:
    return sum(e.length for e in events if e.kind.startswith("copy"))


class Ops:
    def __init__(self, corpus: Corpus, seed: bytes, seed_number: int, tracer):
        self.c = corpus
        self.seed = seed
        self.tracer = tracer
        self.check_golden = seed_number == DEFAULT_SEED
        self.golden_seen: dict[str, str] = {}
        self.calc_hash = derive_seed(seed, "calc-hash")
        self.classes = {
            "search512": lambda i: self.search(i, "search512", 1),
            "search2048": lambda i: self.search(i, "search2048", 1),
            "search512_2w": lambda i: self.search(i, "search512_2w", 2),
            "estimate64": lambda i: self.estimate(i, "estimate64"),
            "estimate256": lambda i: self.estimate(i, "estimate256"),
            "boot": self.boot,
            "reject": lambda i: self.hostile(i, "reject"),
            "stall": lambda i: self.hostile(i, "stall"),
            "bigcopy": lambda i: self.hostile(i, "bigcopy"),
            "offmap": lambda i: self.hostile(i, "offmap"),
        }

    # -- forge -----------------------------------------------------------

    def _search_target(self, leg: str):
        if leg == "search2048":
            return self.c.key2048.public, ParserConfig.flawed(BL2048, window=WINDOW2048)
        return self.c.nand_key.public, ParserConfig.flawed(BL512, window=WINDOW512)

    def search(self, i: int, leg: str, workers: int) -> Result:
        T = self.tracer
        pub, config = self._search_target(leg)
        seed = derive_seed(self.seed, leg, i)
        with T.op(f"bench.op.{leg}"):
            with T.span("forge.brute_force_search", workers=workers) as span:
                start = cpu_seconds()
                result = forge.brute_force_search(pub, config, workers, seed, SEARCH_BUDGET)
                seconds = cpu_seconds() - start
                attempts = result.attempts if result else SEARCH_BUDGET
                span.count(attempts=attempts, hits=int(result is not None))
        with T.span(f"bench.check.{leg}"):
            ok = result is not None and self._hit_ok(result, pub, config, seed, workers)
        return Result(leg, i, seconds, ok, work=attempts, hits=int(result is not None))

    def _hit_ok(self, result, pub, config, seed, workers) -> bool:
        T = self.tracer
        n, e = pub
        value = modmath.from_fixed_bytes(result.plaintext)
        with T.span("modmath.raw_verify"):
            verified = modmath.raw_verify(result.signature, pub) == value
        stack = StackModel(post_bytes=b"", calc_hash_offset=result.landing_offset)
        with T.span("sigparser.flawed_parse"):
            outcome = sigparser.flawed_parse(result.plaintext, self.calc_hash, stack)
        chain = pow(result.root, e * result.iterations, n)
        roots = {forge.draw_root(seed, k, n) for k in range(workers)}
        ok = (
            verified
            and outcome.is_accept
            and outcome.landing_offset == result.landing_offset
            and result.landing_offset in config.target_window
            and value == (n - chain if result.negated else chain)
            and result.root in roots
        )
        if workers == 1:
            ok = ok and result.attempts == 2 * result.iterations
        return ok

    def estimate(self, i: int, leg: str) -> Result:
        T = self.tracer
        bl, window = (BL512, WINDOW512) if leg == "estimate64" else (BL2048, WINDOW2048)
        config = ParserConfig.flawed(bl, window=window)
        seed = derive_seed(self.seed, leg, i)
        with T.op(f"bench.op.{leg}"):
            with T.span("forge.estimate_hit_probability", samples=ESTIMATE_SAMPLES) as span:
                start = cpu_seconds()
                est = forge.estimate_hit_probability(bl, config, ESTIMATE_SAMPLES, seed)
                seconds = cpu_seconds() - start
                span.count(hits=est.hits)
        lo, hi = ESTIMATE_BAND[leg]
        ok = est.samples == ESTIMATE_SAMPLES and lo <= est.hits <= hi
        return Result(leg, i, seconds, ok, work=ESTIMATE_SAMPLES, hits=est.hits)

    # -- boot scenarios ----------------------------------------------------

    def _oracle(self, key, seed: bytes) -> bytes:
        with self.tracer.span("forge.forge_with_private_key"):
            return forge.forge_with_private_key(key, key.block_length, seed).signature_bytes()

    def _serialize(self, image) -> bytes:
        with self.tracer.span("firm.serialize"):
            return firm.serialize(image)

    def boot(self, i: int) -> Result:
        """What `boot`, `exploit` and `ntr-install` do, minus argparse and files."""
        T = self.tracer
        scenario = BOOT_CYCLE[i % len(BOOT_CYCLE)]
        seed = derive_seed(self.seed, "boot", i)
        registry = self.c.registry
        with T.op(f"bench.op.boot.{scenario}"):
            start = cpu_seconds()
            policy = (
                BlacklistPolicy.HARDENED if scenario == "hardened"
                else BlacklistPolicy.BOOT9_DATA_ONLY
            )
            with T.span("bootsim.Machine"):
                machine = Machine(seed, registry, policy=policy)
            if scenario == "honest":
                with T.span("bootsim.run_boot") as span:
                    report = bootsim.run_boot(machine, self.c.honest_bytes)
            elif scenario == "ntr":
                nand_sig = self._oracle(self.c.nand_key, derive_seed(seed, "nand-sig"))
                cart_sig = self._oracle(self.c.cart_key, derive_seed(seed, "cart-sig"))
                with T.span("bootsim.build_exploit_image"):
                    nand_staged = bootsim.build_exploit_image(nand_sig)
                with T.span("firm.build_firm"):
                    second = firm.build_firm(
                        [(0x08030000, CopyMethod.CPU_MEMCPY, b"second-stage payload")],
                        arm9_entry=0x08030000,
                    )
                nand_bytes = self._serialize(nand_staged)
                sd_bytes = self._serialize(second)
                with T.span("bootsim.build_exploit_image"):
                    flashcart = bootsim.build_exploit_image(
                        cart_sig, stage2="install",
                        install_nand_image=nand_bytes, install_sd_image=sd_bytes,
                    )
                cart_bytes = self._serialize(flashcart)
                with T.span("bootsim.run_ntr_install_scenario") as span:
                    report = bootsim.run_ntr_install_scenario(machine, cart_bytes)
            else:
                sig = self._oracle(self.c.nand_key, derive_seed(seed, "exploit-sig"))
                with T.span("bootsim.build_exploit_image"):
                    staged = bootsim.build_exploit_image(sig)
                staged_bytes = self._serialize(staged)
                second = self.c.honest_bytes if scenario == "chain" else None
                keys = frozenset() if scenario == "chain" else DUMP_COMBO
                with T.span("bootsim.run_exploit_chain") as span:
                    report = bootsim.run_exploit_chain(machine, staged_bytes, second, keys)
            seconds = cpu_seconds() - start
            events = len(machine.event_log)
            span.count(events=events, bytes_copied=_copied_bytes(machine.event_log))
        with T.span("bench.check.boot"):
            ok = self._boot_ok(scenario, i, seed, machine, report)
        return Result("boot", i, seconds, ok, scenario=scenario, events=events)

    def _boot_ok(self, scenario, i, seed, machine, report) -> bool:
        kinds = [e.kind for e in machine.event_log]
        if scenario == "honest":
            ok = (
                report.outcome is BootOutcome.REACHED_ENTRY
                and report.signature_verdict.verdict is Verdict.ACCEPT
                and "entry" in kinds
            )
        elif scenario == "dump":
            mseed = derive_seed(seed, "machine")
            rom9 = ByteStream(derive_seed(mseed, "boot9-rom")).take(0x10000)[0x8000:]
            rom11 = ByteStream(derive_seed(mseed, "boot11-rom")).take(0x10000)[0x8000:]
            ok = (
                report.outcome is BootOutcome.SHUTDOWN
                and "power_off" in kinds
                and machine.sd_store.get(bootsim.SD_BOOT9_NAME) == rom9
                and machine.sd_store.get(bootsim.SD_BOOT11_NAME) == rom11
                and report.exfiltrated.get("boot9_protected") == rom9
                and report.exfiltrated.get("boot11_protected") == rom11
            )
        elif scenario == "chain":
            ok = (
                report.outcome is BootOutcome.REACHED_ENTRY
                and "chain_load" in kinds
                and sum(k.startswith("copy_protected") for k in kinds) == 2
            )
        elif scenario == "ntr":
            ok = (
                report.outcome is BootOutcome.REACHED_ENTRY
                and report.boot_source is BootSource.NAND
                and "nand_install" in kinds
            )
        else:
            ok = (
                report.outcome is BootOutcome.FAILURE
                and "blacklist_reject" in kinds
                and report.sections_loaded == [0, 1]
                and report.exfiltrated == {}
            )
        if self.check_golden and i == BOOT_CYCLE.index(scenario):
            seen = digest(report.to_json(), "".join(e.line() + "\n" for e in machine.event_log))
            self.golden_seen[scenario] = seen
            ok = ok and GOLDEN.get(scenario) == seen
        return ok

    # -- hostile images ------------------------------------------------------

    def hostile(self, i: int, cls: str) -> Result:
        T = self.tracer
        if cls == "reject":
            name = self.c.reject_names[i % len(self.c.reject_names)]
        else:
            name = cls
        data = self.c.hostile[name]
        seed = derive_seed(self.seed, cls, i)
        with T.op(f"bench.op.{cls}.{name}"):
            start = cpu_seconds()
            with T.span("bootsim.Machine"):
                machine = Machine(seed, self.c.registry)
            if name == "stall":
                with T.span("bootsim.run_exploit_chain") as span:
                    report = bootsim.run_exploit_chain(machine, data, None, DUMP_COMBO)
            else:
                with T.span("bootsim.run_boot") as span:
                    report = bootsim.run_boot(machine, data)
            seconds = cpu_seconds() - start
            events = len(machine.event_log)
            span.count(events=events, bytes_copied=_copied_bytes(machine.event_log))
        with T.span("bench.check.hostile"):
            ok = self._hostile_ok(name, machine, report)
        return Result(cls, i, seconds, ok, scenario=name, events=events)

    @staticmethod
    def _hostile_ok(name, machine, report) -> bool:
        events = machine.event_log
        kinds = [e.kind for e in events]
        verdict = report.signature_verdict
        if name == "garbage_sig":
            return (
                report.outcome is BootOutcome.FAILURE
                and verdict is not None and verdict.verdict is Verdict.REJECT
            )
        if name == "off_stack":
            return (
                report.outcome is BootOutcome.HALT
                and verdict is not None and verdict.verdict is Verdict.OUT_OF_BOUNDS
            )
        if name == "stall":
            return report.outcome is BootOutcome.HALT and "watchdog" in kinds
        if name == "bigcopy":
            return report.outcome is BootOutcome.REACHED_ENTRY and any(
                e.kind == "copy" and e.addr == FCRAM_BASE + BIGCOPY_LEN and e.length == BIGCOPY_LEN
                for e in events
            )
        if name == "offmap":
            return (
                report.outcome is BootOutcome.HALT
                and report.aborts == [(FCRAM_END, False)]
                and any(e.kind == "data_abort" and e.addr == FCRAM_END for e in events)
            )
        # malformed headers
        return report.outcome is BootOutcome.FAILURE and "image_parse_error" in kinds
