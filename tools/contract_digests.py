"""Check that a change keeps the seeded boot, search and estimate artefacts.

    python3 tools/contract_digests.py --base REV

Exports the tree of commit REV and the tree staged in the index (after a
commit, the tree of HEAD), as `tools/bench_pairs.py` does, and refuses to
start while a tracked file differs from the index.  In each tree it runs,
with that tree's own bootforge and perfbench, 192 operations, 48 on each
of the benchmark seeds 1, 101, 102 and 103: the ten boots of perfbench's
`BOOT_CYCLE`, the seven rejected images, the stall, the 32 MiB copy, the
copy that runs off FCRAM, the seventeen direct `Machine.copy_phys` cases of
`COPY_CASES` (both trees run this file's list), the five `raw_sign` cases
of `SIGN_KEYS`, one record of the keys themselves, one read of both full
boot ROMs, the single-worker
`search512` and `search2048` searches, and the `estimate64` and
`estimate256` estimates.  For each simulator
operation it hashes the report JSON, the machine's whole event log, its
SD store and its NAND store.  Each copy case runs on a fresh machine
whose RAM holds a written pattern; it hashes the event log, the
`exfiltrated` captures and the bytes read back over the source and
destination ranges, and records the data-abort address, if any.  Each
sign case signs 0, 1, n - 1 and eight seeded messages twice, with the
generated key and with the same (n, e, d) built bare, as a key file
builds it; it hashes the signatures and checks each by s**e = m.  The
key record hashes n:e:d of the corpus's six slot keys (generated again
as `build_corpus` derives them, and checked against its registry), its
2048-bit search key, the five `SIGN_KEYS` and one 2048-bit e = 3 key
seeded from the seed; it checks each key by (2**e)**d = 2 mod n.  The
ROM read hashes both 64 KiB ROMs of a machine seeded from the seed and
checks them against SHA-256(seed || be64(i)) computed here.  For
each search it hashes the result's signature, plaintext, landing offset,
attempts, iterations, negated flag and root.  For each estimate it
records the hit count.  It notes whether perfbench's own check passed
(on seed 1 that check includes the pinned `GOLDEN` digests), prints
every operation whose record differs between the two trees with the
fields that differ, and exits 1 on any difference or any failed
operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export_tree, git

SEEDS = (1, 101, 102, 103)

FCRAM = 0x20000000
FCRAM_END = 0x28000000  # unmapped from here on
ARM11_WRAM = 0x1FF80000  # work RAM (row 10) ends I/O row 1; row 7 at 0x1FFFE000 lies in it
DTCM_END = 0xFFF04000  # unmapped from here on
BOOT11_ROM = 0x00010000
# (name, src, dst, length, ROM locks engaged first) for the direct copies.
COPY_CASES = (
    ("dense unaligned", FCRAM + 0x123, FCRAM + 0x10124, 0x2F00, ()),
    ("overlap forward", FCRAM + 0x100, FCRAM + 0x903, 0x3000, ()),
    ("overlap backward", FCRAM + 0x903, FCRAM + 0x100, 0x3000, ()),
    ("rom unlocked", 0xFFFF7F00, 0x08004003, 0x8100, ()),
    ("rom locked", 0xFFFF7F00, 0x08004003, 0x8100, (9,)),
    ("io into work ram", ARM11_WRAM - 0x800, FCRAM + 5, 0x7F000, ()),
    ("alias", 0x1FFFDC00, 0x1FFFE203, 0x1000, ()),
    ("offmap source tail", FCRAM_END - 0x1800, FCRAM, 0x3000, ()),
    ("offmap destination tail", FCRAM, FCRAM_END - 0x1800, 0x3000, ()),
    # Row edges inside one mapped span: ITCM into ARM9 RAM over 0x08000000
    # and row 3's end 0x08000400, work RAM into FCRAM over 0x20000000.
    ("itcm into arm9", 0x07FFFC00, 0x080003F1, 0x1000, ()),
    ("work ram into fcram", 0x1FFFF800, 0x1FFFFE05, 0x1000, ()),
    ("offmap dtcm source tail", DTCM_END - 0x800, FCRAM, 0x1000, ()),
    ("offmap dtcm destination tail", FCRAM, DTCM_END - 0x800, 0x1000, ()),
    ("into boot11 rom", FCRAM, BOOT11_ROM + 0x7F00, 0x1000, ()),
    # Page-multiple shifts: a protected half into page-aligned RAM, as the
    # exploit copies it; absent source pages over stored ones; an
    # overlapping move with partial head and tail pages.
    ("rom half page-aligned", 0xFFFF8000, 0x08018000, 0x8000, ()),
    ("fcram page shift", FCRAM + 0x8000, FCRAM, 0x4000, ()),
    ("fcram page shift partial", FCRAM + 0x234, FCRAM + 0x1234, 0x2E00, ()),
)
# (bits, keygen seed, exponent) of the keys the sign cases use.
SIGN_KEYS = (
    (64, b"contract sign 64", 65537),
    (256, b"contract sign 256", 3),
    (512, b"contract sign 512", 65537),
    (1024, b"contract sign 1024", 65537),
    (2048, b"contract sign 2048", 65537),
)
# (addr, length) of the random bytes written before each copy case.
COPY_PATTERN = ((FCRAM, 0x4000), (ARM11_WRAM - 0x800, 0x1000), (0x1FFFDC00, 0x1000),
                (FCRAM_END - 0x1800, 0x1800), (0x07FFFC00, 0x1800), (0x1FFFF800, 0x1800),
                (DTCM_END - 0x800, 0x800))

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


def copy_records(number: int) -> list[dict]:
    """One record per `COPY_CASES` entry, on machines seeded from `number`."""
    from bootforge.bootsim import Machine, _DataAbort
    from bootforge.modmath import KeyRegistry

    def mapped(machine, addr, length):
        try:
            return machine.read_phys(addr, length)
        except _DataAbort as abort:
            return machine.read_phys(addr, abort.addr - addr) if abort.addr > addr else b""

    records = []
    for name, src, dst, length, locks in COPY_CASES:
        machine = Machine(f"contract-copy-{number}".encode(), KeyRegistry())
        rng = random.Random(f"{number} {name}")
        for addr, count in COPY_PATTERN:
            machine.write_phys(addr, rng.randbytes(count))
        for proc in locks:
            machine.engage_lock(proc)
        try:
            machine.copy_phys(src, dst, length)
            fault = None
        except _DataAbort as abort:
            fault = abort.addr
        records.append({
            "op": f"seed {number} copy {name}",
            "ok": (fault is None) != name.startswith("offmap"),
            "fault": fault,
            "events": _sha("".join(e.line() + "\n" for e in machine.event_log).encode()),
            "exfiltrated": _sha(json.dumps(
                {key: data.hex() for key, data in sorted(machine.exfiltrated.items())}
            ).encode()),
            "read_back": _sha(mapped(machine, src, length) + mapped(machine, dst, length)),
        })
    return records


def sign_records(number: int, keys: list) -> list[dict]:
    """One record per `SIGN_KEYS` key, signing messages seeded from `number`."""
    from bootforge.modmath import RsaKeyPair, raw_sign

    records = []
    for key in keys:
        rng = random.Random(f"{number} sign {key.bit_length}")
        messages = [0, 1, key.n - 1] + [rng.randrange(key.n) for _ in range(8)]
        bare = RsaKeyPair(key.n, key.e, key.d)
        signatures = [raw_sign(m, signer) for signer in (key, bare) for m in messages]
        records.append({
            "op": f"seed {number} sign {key.bit_length}b e={key.e}",
            "ok": [pow(s, key.e, key.n) for s in signatures] == messages * 2,
            "signatures": _sha(" ".join(f"{s:x}" for s in signatures).encode()),
        })
    return records


def key_record(number: int, corpus, sign_keys: list) -> dict:
    """The keys' own n:e:d: the corpus's, the `SIGN_KEYS` and a seeded e = 3 key."""
    from bootforge.modmath import REGISTRY_SLOTS, generate_keypair, slot_label
    from bootforge.prng import derive_seed
    from corpus import SETUP_SEED

    slots = [generate_keypair(512, derive_seed(SETUP_SEED, "slot", slot_label(*slot)))
             for slot in REGISTRY_SLOTS]
    keys = slots + [corpus.key2048, *sign_keys,
                    generate_keypair(2048, f"contract keys {number}".encode(), 3)]
    return {
        "op": f"seed {number} keys",
        "ok": [key.n for key in slots] == [corpus.registry.get(*slot)[0] for slot in REGISTRY_SLOTS]
        and all(pow(pow(2, key.e, key.n), key.d, key.n) == 2 for key in keys),
        "keys": _sha("".join(f"{key.n:x}:{key.e:x}:{key.d:x}\n" for key in keys).encode()),
    }


def rom_record(number: int) -> dict:
    """Both full ROMs of one machine, checked against SHA-256(seed || be64(i))."""
    from bootforge.bootsim import Machine
    from bootforge.modmath import KeyRegistry
    from bootforge.prng import derive_seed

    seed = f"contract-rom-{number}".encode()
    machine = Machine(seed, KeyRegistry())
    roms = {"boot9": machine.boot9_rom, "boot11": machine.boot11_rom}
    expected = {}
    for name in roms:
        rom_seed = derive_seed(derive_seed(seed, "machine"), f"{name}-rom")
        expected[name] = b"".join(
            hashlib.sha256(rom_seed + i.to_bytes(8, "big")).digest() for i in range(0x800)
        )
    return {"op": f"seed {number} roms", "ok": roms == expected,
            **{name: _sha(rom) for name, rom in roms.items()}}


def tree_records() -> list[dict]:
    """The 192 operation records of the bootforge and perfbench on sys.path."""
    from bootforge.modmath import generate_keypair
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
    sign_keys = [generate_keypair(*spec) for spec in SIGN_KEYS]
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
        records += copy_records(number)
        records += sign_records(number, sign_keys)
        records.append(key_record(number, corpus, sign_keys))
        records.append(rom_record(number))
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
            print(f"differs: {p['op']} ({', '.join(parts)})")
    ok = len(parent) == len(change) and same == len(parent) and not any(failed.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
