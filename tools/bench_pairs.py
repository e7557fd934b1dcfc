"""Run the benchmark in alternating parent/change pairs and write a BENCH_*.json.

    python3 tools/bench_pairs.py --base REV --out BENCH_name.json --change "what changed"

Both sides run exported trees, so each carries exactly its committed
files and no git metadata.  The parent side is the tree of commit REV;
the change side is the tree staged in the index (after a commit, the
tree of HEAD).  The tool refuses to start while a tracked file differs
from the index, and the report records each side's tree SHA and those of
its src/ and perfbench/, which a later commit's `git rev-parse
COMMIT:src` can be matched against.  Each pair runs `perfbench/run.py`
once per side and workload on one seed, for the `run_seconds` and the
workloads that BENCHMARK.json sets; the seeds are fixed, the last one
being the held-out seed 4242.  Even pairs run the parent first, odd
pairs the change first, and the workloads are interleaved within each
pair.  Every side reports per metric the median, quartiles, iqr_share
((q3 - q1) / median) and its runs; each metric also gets the pairs the
change won, the ratio of medians and `worse_by` (the change's relative
loss, negative for a gain).  Run it from a quiet host: the two sides
share its CPUs in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (7, 8, 9, 10, 11, 12, 13, 14, 15, 4242)


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def export_tree(tree: str, dest: Path) -> Path:
    """Write the git tree `tree` into a new directory under `dest`."""
    archive = dest / f"{tree}.tar"
    git("archive", "--format=tar", "-o", str(archive), tree)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / tree, filter="data")
    archive.unlink()
    return dest / tree


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; returns its final JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"benchmark failed in {root} ({workload}, seed {seed}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4)
    return {
        "median": float(f"{median:.4g}"),
        "q1": float(f"{q1:.4g}"),
        "q3": float(f"{q3:.4g}"),
        "iqr_share": float(f"{(q3 - q1) / median:.4g}"),
        "runs": [float(f"{r:.4g}") for r in runs],
    }


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    lower = spec["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    ratio = statistics.median(change) / statistics.median(parent)
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": summary(parent),
        "change": summary(change),
        "change_wins": f"{wins}/{len(parent)}",
        "change_over_parent": float(f"{ratio:.4g}"),
        "worse_by": float(f"{(ratio - 1 if lower else 1 / ratio - 1):.4g}"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent revision")
    parser.add_argument("--out", required=True, help="BENCH_*.json to write")
    parser.add_argument("--change", required=True, help="one line on what the change does")
    args = parser.parse_args(argv)
    if subprocess.run(["git", "-C", str(ROOT), "diff", "--quiet"]).returncode != 0:
        raise SystemExit("tracked files differ from the index: stage or drop the edits first")
    parent_sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    parent_tree = git("rev-parse", f"{parent_sha}^{{tree}}")
    change_tree = git("write-tree")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    gated = {m["name"]: m for m in spec["end_to_end"]}

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {
            "parent": export_tree(parent_tree, Path(tmp)),
            "change": export_tree(change_tree, Path(tmp)),
        }
        results = {w: {"parent": [], "change": []} for w in workloads}
        for pair, seed in enumerate(SEEDS):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    result = run_once(sides[side], workload, seed, seconds)
                    results[workload][side].append(result)
                    print(f"pair {pair} seed {seed} {workload} {side}: "
                          f"{result['failed']} of {result['attempted']} operations failed",
                          file=sys.stderr, flush=True)

    report = {
        "change": args.change,
        "parent": parent_sha,
        "trees": {
            side: {"tree": tree, **{d: git("rev-parse", f"{tree}:{d}") for d in ("src", "perfbench")}}
            for side, tree in (("parent", parent_tree), ("change", change_tree))
        },
        "host": f"{os.cpu_count()}-CPU {platform.machine()} host, Python {platform.python_version()}",
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds:g} --trace 0",
        "method": (
            "tools/bench_pairs.py: each side ran its own perfbench/ from an export of its git "
            "tree; `trees` gives each side's tree and its src/ and perfbench/ subtrees. Pairs "
            "alternate which side runs first; workloads are interleaved within a pair. Seed 4242 "
            "is the held-out seed. iqr_share is (q3 - q1) / median over the side's runs."
        ),
        "workloads": {},
    }
    for workload, sides_runs in results.items():
        metrics = {}
        for name, metric in gated.items():
            parent = [r["metrics"][name]["value"] for r in sides_runs["parent"]]
            change = [r["metrics"][name]["value"] for r in sides_runs["change"]]
            metrics[name] = compare(metric, parent, change)
        report["workloads"][workload] = {
            "seeds": list(SEEDS),
            "failed_ops": {side: sum(r["failed"] for r in runs) for side, runs in sides_runs.items()},
            "metrics": metrics,
        }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
