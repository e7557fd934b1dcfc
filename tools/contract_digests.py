"""Check that a change keeps the seeded boot, search and estimate artefacts.

    python3 tools/contract_digests.py --base REV

Exports the tree of commit REV and the tree staged in the index (after a
commit, the tree of HEAD), as `tools/bench_pairs.py` does, and refuses to
start while a tracked file differs from the index.  In each tree it runs,
with that tree's own bootforge and perfbench, 96 operations, 24 on each
of the benchmark seeds 1, 101, 102 and 103: the ten boots of perfbench's
`BOOT_CYCLE`, the seven rejected images, the stall, the 32 MiB copy, the
copy that runs off FCRAM, the single-worker `search512` and `search2048`
searches, and the `estimate64` and `estimate256` estimates.  For each
simulator operation it hashes the report JSON, the machine's whole event
log, its SD store and its NAND store.  For each search it hashes the
result's signature, plaintext, landing offset, attempts, iterations,
negated flag and root, but not its elapsed time.  For each estimate it
records the hit count.  It notes whether perfbench's own check passed
(on seed 1 that check includes the pinned `GOLDEN` digests), prints the
first operation whose record differs between the two trees, and exits 1
on any difference or any failed operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export_tree, git

SEEDS = (1, 101, 102, 103)

# Run in a child process inside an exported tree: argv[1] is the tree,
# argv[2] this directory.
_CHILD = """
import json, sys
from pathlib import Path
tree = Path(sys.argv[1])
sys.path[:0] = [str(tree / "src"), str(tree / "perfbench"), sys.argv[2]]
import bootforge
if Path(bootforge.__file__).resolve().parent != (tree / "src" / "bootforge").resolve():
    sys.exit(f"imported bootforge from {bootforge.__file__}, not from {tree}")
import contract_digests
print(json.dumps(contract_digests.tree_records()))
"""


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_records() -> list[dict]:
    """The 96 operation records of the bootforge and perfbench on sys.path."""
    from bootforge.prng import derive_seed
    from corpus import build_corpus
    from ops import BOOT_CYCLE, Ops
    from spans import Tracer

    class Recorder(Ops):
        """perfbench's operations, keeping what each one checks: the machine
        and report of a boot, the `ForgeResult` of a search."""

        def _boot_ok(self, scenario, i, seed, machine, report):
            self.seen = machine, report
            return super()._boot_ok(scenario, i, seed, machine, report)

        def _hostile_ok(self, name, machine, report):
            self.seen = machine, report
            return Ops._hostile_ok(name, machine, report)

        def _hit_ok(self, result, pub, config, seed, workers):
            self.found = result
            return super()._hit_ok(result, pub, config, seed, workers)

    tracer = Tracer(enabled=False)
    corpus = build_corpus(tracer)
    records = []
    for number in SEEDS:
        # The workload seed as perfbench/harness.py derives it.
        ops = Recorder(corpus, derive_seed(str(number).encode(), "perfbench-workload-seed"),
                       number, tracer)
        runs = [(f"boot {i} ({BOOT_CYCLE[i]})", lambda i=i: ops.boot(i)) for i in range(10)]
        runs += [(f"reject {i} ({name})", lambda i=i: ops.hostile(i, "reject"))
                 for i, name in enumerate(corpus.reject_names)]
        runs += [(cls, lambda cls=cls: ops.hostile(0, cls))
                 for cls in ("stall", "bigcopy", "offmap")]
        for label, run in runs:
            ok = run().ok
            machine, report = ops.seen
            records.append({
                "op": f"seed {number} {label}",
                "ok": ok,
                "report": _sha(report.to_json().encode()),
                "events": _sha("".join(e.line() + "\n" for e in machine.event_log).encode()),
                "sd_store": _sha(json.dumps(
                    {name: data.hex() for name, data in sorted(machine.sd_store.items())}
                ).encode()),
                "nand_store": _sha(machine.nand_store),
            })
        for leg in ("search512", "search2048"):
            ops.found = None
            ok = ops.search(0, leg, 1).ok
            r = ops.found
            fields = r and [r.signature, r.plaintext.hex(), r.landing_offset, r.attempts,
                            r.iterations, r.negated, r.root]
            records.append({"op": f"seed {number} {leg}", "ok": ok,
                            "result": _sha(json.dumps(fields).encode())})
        for leg in ("estimate64", "estimate256"):
            estimate = ops.estimate(0, leg)
            records.append({"op": f"seed {number} {leg}", "ok": estimate.ok,
                            "hits": estimate.hits})
    return records


def run_tree(tree: Path) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(tree), str(Path(__file__).resolve().parent)],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"operations failed to run in {tree}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent revision")
    args = parser.parse_args(argv)
    if subprocess.run(["git", "-C", str(ROOT), "diff", "--quiet"]).returncode != 0:
        raise SystemExit("tracked files differ from the index: stage or drop the edits first")
    trees = {
        "parent": git("rev-parse", f"{args.base}^{{tree}}"),
        "change": git("write-tree"),
    }
    with tempfile.TemporaryDirectory(prefix="contract-") as tmp:
        records = {side: run_tree(export_tree(tree, Path(tmp))) for side, tree in trees.items()}

    parent, change = records["parent"], records["change"]
    failed = {side: sum(not r["ok"] for r in recs) for side, recs in records.items()}
    same = sum(p == c for p, c in zip(parent, change))
    print(f"parent tree {trees['parent']}, change tree {trees['change']}")
    print(f"{same} of {len(parent)} operations identical; failed operations: "
          f"parent {failed['parent']}, change {failed['change']}")
    for p, c in zip(parent, change):
        if p != c:
            parts = [key for key in p if p[key] != c.get(key)]
            print(f"first difference: {p['op']} ({', '.join(parts)})")
            break
    ok = len(parent) == len(change) and same == len(parent) and not any(failed.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
