"""The benchmark loop, its metrics and its output; `run.py` is the entry."""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import time
import traceback
from pathlib import Path

import numpy

from bootforge.prng import derive_seed

from clock import cpu_seconds, kernel_seconds, scaled
from corpus import BIGCOPY_LEN, build_corpus, poisson_band
from ops import ESTIMATE_SAMPLES, P_ESTIMATE, SCENARIOS, Ops, Result, check_estimate_totals
from probes import run_probes
from spans import Tracer

# CPU seconds of operation time each class gets in a 55-second run, per
# workload; the loop uses them as shares.  The 2-worker search counts the
# CPU time of both workers.  The gate checks every metric on every
# workload, so every class runs on every workload, with enough operations
# spread over the run to give a steady median (three or more watchdog
# stalls, several searches per leg); a workload's own classes get the
# rest of the time.  `boot` carries the hostile images as well as the
# boot scenarios: both drive the same bootsim and firm entry points.
CLASS_SECONDS = {
    "forge": {
        "search512": 9.0, "search2048": 9.0, "search512_2w": 10.0,
        "estimate64": 4.0, "estimate256": 7.0,
        "boot": 3.0, "reject": 1.5, "stall": 9.0, "bigcopy": 1.2, "offmap": 0.8,
    },
    "boot": {
        "search512": 4.0, "search2048": 4.0, "search512_2w": 6.0,
        "estimate64": 2.0, "estimate256": 5.0,
        "boot": 12.0, "reject": 3.0, "stall": 12.0, "bigcopy": 3.0, "offmap": 1.5,
    },
}
SETUP_REPEATS = 3
# Operations a class must have run when the loop ends; it is topped up if
# its share fell short.  Six estimate256 operations expect about 40 hits
# in sum, enough for the Poisson band on the sum to have a floor above 0,
# so an estimator that undercounts fails every run.
MIN_OPS = {"estimate256": 6}
assert poisson_band(MIN_OPS["estimate256"] * ESTIMATE_SAMPLES * P_ESTIMATE["estimate256"])[0] > 0
# Metrics of the simulator's short interpreter-bound operations, reported
# in kernel-scaled time (clock.scaled): their unscaled spread across runs
# follows the host's speed, which the kernel tracks.  The other timed
# metrics are dominated by bigint or bulk memory work, whose speed the
# kernel does not track, and stay in plain CPU time.
SCALED = ("boot.ops_per_s", "boot.p50_ms", "hostile.reject_p50_ms", "hostile.stall_s", "hostile.offmap_ms")
LAYERS = ("prng", "modmath", "sigparser", "forge", "firm", "bootsim", "cli")
OVERHEAD_PAIRS = 60


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="bootforge benchmark: one workload, one seed, one result line",
    )
    parser.add_argument("--workload", required=True, choices=sorted(CLASS_SECONDS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_sha(root: Path) -> str:
    """HEAD of the checkout at `root`; git may not look above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile, capped at p99, with at
    least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    beyond = max(10, math.ceil(n / 100))
    index = max(0, n - beyond - 1)
    return ordered[index], 100.0 * (index + 1) / n


def run_loop(ops, shares: dict, seconds: float) -> list:
    """Closed loop: every class once, then always the class whose operation
    time is furthest behind its share, until `seconds` of wall time pass.
    The reference kernel runs after every operation; an operation keeps the
    mean of the kernel times just before and just after it."""
    results = []
    spent = {cls: 0.0 for cls in shares}
    count = {cls: 0 for cls in shares}
    last_kernel = [kernel_seconds()]

    def step(cls):
        index = count[cls]
        count[cls] += 1
        started = cpu_seconds()
        try:
            result = ops.classes[cls](index)
        except Exception:
            # A raising operation is a failed one; its time still counts.
            traceback.print_exc()
            result = Result(cls, index, cpu_seconds() - started, ok=False, work=0)
        spent[cls] += result.seconds
        results.append(result)
        kernel = kernel_seconds()
        result.kernel = (last_kernel[0] + kernel) / 2
        last_kernel[0] = kernel

    start = time.perf_counter()
    for cls in shares:
        step(cls)
    while time.perf_counter() - start < seconds:
        step(min(shares, key=lambda c: spent[c] / shares[c]))
    # Topped up at the end, not run first: front-loaded estimates run
    # before the hostile copies have grown the heap, which makes peak RSS
    # depend on whether a later estimate follows them.
    for cls, least in MIN_OPS.items():
        while count[cls] < least:
            step(cls)
    return results


def _by_class(results) -> dict:
    by = {}
    for r in results:
        by.setdefault(r.cls, []).append(r)
    return by


def end_to_end(results, setup_times, peak_rss_mib) -> tuple[dict, dict]:
    """Gated metrics, and notes printed beside them."""
    by = _by_class(results)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    metrics.update(_timed_metrics(by, scale=True)[0])
    raw, percentile = _timed_metrics(by, scale=False)
    kernels = [r.kernel for r in results]
    notes = {
        "boot.p99_ms": f"p{percentile:.2f} of {len(by['boot'])} boot operations",
        "operations": {cls: len(rs) for cls, rs in by.items()},
        "op_seconds": {cls: round(sum(r.seconds for r in rs), 3) for cls, rs in by.items()},
        "kernel_ms": [round(1e3 * min(kernels), 4), round(1e3 * statistics.median(kernels), 4)],
        "unscaled": {name: raw[name][0] for name in SCALED},
    }
    return metrics, notes


def _timed_metrics(by, scale: bool) -> tuple[dict, float]:
    """Metrics from operation times; with `scale`, those named in SCALED
    use kernel-scaled times."""
    def times(cls, metric):
        if scale and metric in SCALED:
            return [scaled(r.seconds, r.kernel) for r in by[cls]]
        return [r.seconds for r in by[cls]]

    def rate(cls, metric):
        return sum(r.work for r in by[cls]) / sum(times(cls, metric))

    def median(cls, metric):
        return statistics.median(times(cls, metric))

    boot = times("boot", "boot.ops_per_s")
    tail, percentile = _tail(times("boot", "boot.p99_ms"))
    metrics = {
        name: (rate(cls, name), "1/s")
        for name, cls in (
            ("search.attempts_per_s.512b", "search512"),
            ("search.attempts_per_s.2048b", "search2048"),
            ("search.attempts_per_s.512b-2w", "search512_2w"),
        )
    }
    metrics.update({
        # Every estimate does the same work, so the median is steadier.
        "estimate.samples_per_s.256B": (
            ESTIMATE_SAMPLES / median("estimate256", "estimate.samples_per_s.256B"), "1/s",
        ),
        "boot.ops_per_s": (len(boot) / sum(boot), "1/s"),
        "boot.p50_ms": (1e3 * median("boot", "boot.p50_ms"), "ms"),
        "boot.p99_ms": (1e3 * tail, "ms"),
        "hostile.reject_p50_ms": (1e3 * median("reject", "hostile.reject_p50_ms"), "ms"),
        # Three to five stalls a run: their mean is steadier than their median.
        "hostile.stall_s": (statistics.mean(times("stall", "hostile.stall_s")), "s"),
        "hostile.bigcopy_ms": (1e3 * median("bigcopy", "hostile.bigcopy_ms"), "ms"),
        "hostile.offmap_ms": (1e3 * median("offmap", "hostile.offmap_ms"), "ms"),
    })
    return metrics, percentile


def per_layer(results, tracer, probe_metrics, overhead_pct) -> dict:
    by = _by_class(results)
    T = tracer

    def median_ms(name, under=None):
        return 1e3 * statistics.median(T.durations(name, under))

    keygen = {bits: [] for bits in (512, 2048)}
    for span in T.spans:
        if span.name == "modmath.generate_keypair":
            keygen[span.counts["bits"]].append(span.duration)
    metrics = {
        "modmath.keygen_s.512b": (statistics.median(keygen[512]), "s"),
        "modmath.keygen_s.2048b": (statistics.median(keygen[2048]), "s"),
        "forge.oracle_ms.512b": (median_ms("forge.forge_with_private_key", "bench.op.boot"), "ms"),
        "firm.serialize_us": (1e3 * median_ms("firm.serialize", "bench.op.boot"), "us"),
        "bootsim.machine_init_ms": (median_ms("bootsim.Machine"), "ms"),
    }
    for leg, bits in (("search512", "512b"), ("search2048", "2048b")):
        rs = by[leg]
        metrics[f"forge.hit_ratio.{bits}"] = (
            sum(r.hits for r in rs) / sum(r.work for r in rs), "1",
        )
    # Too host-bound to gate (see README), so it is reported here.
    metrics["forge.estimate_samples_per_s.64B"] = (
        ESTIMATE_SAMPLES / statistics.median(r.seconds for r in by["estimate64"]), "1/s",
    )
    run_calls = ("bootsim.run_boot", "bootsim.run_exploit_chain", "bootsim.run_ntr_install_scenario")
    boot_events = 0
    boot_run_time = 0.0
    for scenario in SCENARIOS:
        under = f"bench.op.boot.{scenario}"
        times = [d for name in run_calls for d in T.durations(name, under)]
        events = [r.events for r in by["boot"] if r.scenario == scenario]
        metrics[f"bootsim.op_ms.{scenario}"] = (1e3 * statistics.median(times), "ms")
        metrics[f"bootsim.events.{scenario}"] = (events[0], "count")
        boot_events += sum(events)
        boot_run_time += sum(times)
    metrics["bootsim.us_per_event"] = (1e6 * boot_run_time / boot_events, "us")
    copies = T.durations("bootsim.run_boot", "bench.op.bigcopy")
    metrics["bootsim.copy_mib_per_s.bigcopy"] = (
        BIGCOPY_LEN / 2**20 / statistics.median(copies), "MiB/s",
    )

    metrics.update(probe_metrics)

    self_time = T.self_time_by_layer()
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_time.get(layer, 0.0), "s")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    return metrics


def tracing_overhead(ops, tracer) -> tuple[float, list]:
    """Boot operations run in untraced/traced pairs on the same inputs,
    alternating which runs first; returns the traced excess in percent and
    the operations' results."""
    results = []
    seconds = {False: 0.0, True: 0.0}
    base = 10**6  # operation indices the loop never reaches
    for k in range(OVERHEAD_PAIRS):
        for enabled in (False, True) if k % 2 else (True, False):
            tracer.enabled = enabled
            result = ops.classes["boot"](base + k)
            seconds[enabled] += result.seconds
            results.append(result)
    return 100.0 * (seconds[True] - seconds[False]) / seconds[False], results


def main(argv, root: Path) -> int:
    args = _parse_args(argv)
    seed = derive_seed(str(args.seed).encode(), "perfbench-workload-seed")
    tracer = Tracer(enabled=bool(args.trace))
    # Every set-up does the same work; the median of several is set-up time.
    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        start = cpu_seconds()
        corpus = build_corpus(tracer)
        setup_times.append(cpu_seconds() - start)
    ops = Ops(corpus, seed, args.seed, tracer)
    started = time.perf_counter()
    results = run_loop(ops, CLASS_SECONDS[args.workload], args.seconds)
    loop_wall = time.perf_counter() - started
    estimate_totals = check_estimate_totals(results)
    probes_ok = True

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(root),
    }
    if args.trace:
        overhead, paired = tracing_overhead(ops, tracer)
        workdir = root / ".bench_out" / f"cli-{args.workload}-{args.seed}"
        probe_metrics, probes_ok = run_probes(corpus, seed, tracer, workdir)
        results += paired
        metrics = per_layer(results, tracer, probe_metrics, overhead)
        notes = {
            "exact_p": corpus.p_search,
            "self_s": {k: round(v, 4) for k, v in tracer.self_time_by_layer().items()},
        }
        trace_path = root / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, meta)
        notes["spans"] = f"{len(tracer.spans)} spans -> {trace_path.relative_to(root)}"
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics, notes = end_to_end(results, setup_times, peak)
    failed = sum(not r.ok for r in results)
    # Wall time the loop took against the CPU time its operations took;
    # the gap is the checks plus time the host gave to other guests.
    notes["loop_wall_s"] = round(loop_wall, 3)
    notes["loop_op_cpu_s"] = round(sum(r.seconds for r in results), 3)
    notes["failed_frac"] = failed / len(results)
    notes["estimate_hits_and_band"] = estimate_totals
    if ops.check_golden:
        notes["golden"] = ops.golden_seen
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print("notes " + json.dumps(notes, sort_keys=True))
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": probes_ok and failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0

