"""Command-line front end.

Every randomized command requires an explicit 32-byte hex seed, so a
(config, seed, inputs) triple reproduces its artifacts byte for byte; no
artifact records a wall-clock time.  The exception is `forge` with two
or more workers: which worker hits first depends on timing, so its
signature and attempt count vary between reruns.  A single-worker
search result is byte-reproducible.  Exit codes:
0 success, 1 verification or boot failure, 2 usage error.  The artifact
directory defaults to the working directory and can be overridden with
BOOTFORGE_WORKDIR.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import bootsim, firm, forge, modmath, sigparser
from .bootsim import BlacklistPolicy, BootInputs, BootOutcome, Machine
from .modmath import Console, KeyRegistry, SignatureType, REGISTRY_SLOTS
from .prng import derive_seed
from .sigparser import ParserConfig, ParserMode, StackModel


class UsageError(Exception):
    pass


def _checked_block_length(value: int) -> int:
    if not 8 <= value <= modmath.MAX_BITS // 8:
        raise UsageError(f"block_length must be in [8, {modmath.MAX_BITS // 8}]")
    return value


@dataclass
class WorkspaceConfig:
    key_dir: Optional[Path] = None
    block_length: Optional[int] = None
    parser_mode: str = "flawed"
    blacklist_policy: str = "boot9only"
    seed: Optional[str] = None

    @classmethod
    def load(cls, path: Optional[str]) -> "WorkspaceConfig":
        if path is None:
            return cls()
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise UsageError(f"config file {path} must hold a JSON object")
        for name in ("key_dir", "parser_mode", "blacklist_policy", "seed"):
            if not isinstance(data.get(name, ""), str):
                raise UsageError(f"config field {name} must be a string")
        cfg = cls()
        if "key_dir" in data:
            cfg.key_dir = Path(data["key_dir"])
        if "block_length" in data:
            if type(data["block_length"]) is not int:  # a bool is not a length
                raise UsageError("config field block_length must be an integer")
            cfg.block_length = _checked_block_length(data["block_length"])
        cfg.parser_mode = data.get("parser_mode", cfg.parser_mode)
        cfg.blacklist_policy = data.get("blacklist_policy", cfg.blacklist_policy)
        cfg.seed = data.get("seed", cfg.seed)
        return cfg


def _workdir(args) -> Path:
    explicit = getattr(args, "workdir", None)
    root = explicit or os.environ.get("BOOTFORGE_WORKDIR") or "."
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _require_seed(args, config: WorkspaceConfig) -> bytes:
    raw = args.seed or config.seed
    if raw is None:
        raise UsageError("this command is randomized: pass --seed <64 hex digits>")
    try:
        seed = bytes.fromhex(raw)
    except ValueError:
        raise UsageError("seed must be hex") from None
    if len(seed) != 32:
        raise UsageError("seed must be exactly 32 bytes (64 hex digits)")
    return seed


def _key_dir(args, config: WorkspaceConfig) -> Path:
    key_dir = getattr(args, "key_dir", None) or config.key_dir
    if key_dir is None:
        raise UsageError("pass --key-dir (or set key_dir in the config file)")
    return Path(key_dir)


def _load_registry(key_dir: Path) -> KeyRegistry:
    return modmath.read_registry(key_dir / "registry.txt")


def _private_key(key_dir: Path, slot: str) -> modmath.RsaKeyPair:
    key = modmath.read_key_file(key_dir / f"{slot}.key")
    if key.d == 0:
        raise UsageError(f"key file for slot {slot} has no private exponent")
    return key


def _block_length(args, config: WorkspaceConfig) -> int:
    """--block-length, else the config's, else 0x100."""
    if args.block_length is None:
        return config.block_length or 0x100
    return _checked_block_length(args.block_length)


def _parse_window(spec: Optional[str], block_length: int):
    """--window LO:HI as a range clipped to [0, block_length + 257]: a walk
    lands at t + 7 + L with t <= block_length - 5 and L <= 255."""
    if spec is None:
        return None
    lo, _, hi = spec.partition(":")
    try:
        lo, hi = int(lo, 0), int(hi, 0)
    except ValueError:
        raise UsageError("--window expects LO:HI") from None
    return range(max(lo, 0), min(hi, block_length + 257) + 1)


def _values(enum) -> list[str]:
    return [member.value for member in enum]


def _parser_mode(args, config: WorkspaceConfig) -> ParserMode:
    return ParserMode(args.mode or config.parser_mode)


def _policy(args, config: WorkspaceConfig) -> BlacklistPolicy:
    return BlacklistPolicy(args.policy or config.blacklist_policy)


def _machine(args, config: WorkspaceConfig, seed: bytes, registry: KeyRegistry) -> Machine:
    return Machine(
        seed,
        registry,
        console=Console(args.console),
        policy=_policy(args, config),
        workdir=_workdir(args) / "machine",
    )


def _emit_report(report: bootsim.BootReport, workdir: Path, name: str) -> None:
    (workdir / f"{name}.json").write_text(report.to_json() + "\n")
    (workdir / f"{name}.log").write_text(report.event_log_text())
    print(report.to_json())


# --- commands -----------------------------------------------------------


def _cmd_keygen(args, config: WorkspaceConfig) -> int:
    seed = _require_seed(args, config)
    key_dir = _key_dir(args, config)
    bits = (config.block_length or 64) * 8 if args.bits is None else args.bits
    exponent = 3 if args.e3 else 65537
    registry = KeyRegistry()
    for console, sig_type in REGISTRY_SLOTS:
        label = modmath.slot_label(console, sig_type)
        key = modmath.generate_keypair(bits, derive_seed(seed, "slot", label), exponent)
        key_dir.mkdir(parents=True, exist_ok=True)  # only once a key shows the size is accepted
        modmath.write_key_file(key_dir / f"{label}.key", key, private=True)
        registry.assign(console, sig_type, key.public)
    modmath.write_registry(key_dir / "registry.txt", registry)
    print(f"wrote 6 keypairs and registry.txt to {key_dir}")
    return 0


def _cmd_craft(args, config: WorkspaceConfig) -> int:
    seed = _require_seed(args, config)
    block_length = _block_length(args, config)
    block = forge.craft_exploit_plaintext(block_length, args.landing, seed)
    if args.out:
        Path(args.out).write_bytes(block)
    print(sigparser.annotate_plaintext(block))
    return 0


def _cmd_forge(args, config: WorkspaceConfig) -> int:
    seed = _require_seed(args, config)
    key_dir = _key_dir(args, config)
    registry = _load_registry(key_dir)
    console, sig_type = modmath.parse_slot_label(args.slot)
    pub = registry.get(console, sig_type)
    block_length = registry.block_length(console, sig_type)
    parser = ParserConfig.flawed(block_length, window=_parse_window(args.window, block_length))
    max_attempts = args.max_attempts
    if max_attempts is None:
        # Misses with probability e^-20.  A config that cannot hit gets no
        # budget: the search refuses it.
        p_search = forge.exact_search_probability(pub[0], parser)
        max_attempts = math.ceil(20 / p_search) if p_search else 0
    try:
        result = forge.brute_force_search(
            pub, parser, args.workers, seed, max_attempts, progress=sys.stdout
        )
    except forge.SearchWorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if result is None:
        print("search exhausted without a hit", file=sys.stderr)
        return 1
    base = Path(args.out) if args.out else _workdir(args) / f"forged-{args.slot}"
    sig_path, json_path = forge.write_forge_result(result, base, seed)
    print(f"hit after {result.attempts} attempts -> {sig_path}, {json_path}")
    return 0


def _cmd_forge_oracle(args, config: WorkspaceConfig) -> int:
    seed = _require_seed(args, config)
    key = _private_key(_key_dir(args, config), args.slot)
    landing = args.landing if args.landing is not None else key.block_length
    result = forge.forge_with_private_key(key, landing, seed)
    base = Path(args.out) if args.out else _workdir(args) / f"oracle-{args.slot}"
    sig_path, json_path = forge.write_forge_result(result, base, seed)
    print(f"oracle signature (landing {landing:#x}) -> {sig_path}, {json_path}")
    return 0


def _cmd_estimate(args, config: WorkspaceConfig) -> int:
    seed = _require_seed(args, config)
    block_length = _block_length(args, config)
    parser = ParserConfig.flawed(
        block_length,
        window=_parse_window(args.window, block_length),
        check_type_bytes=args.full_structure,
    )
    estimate = forge.estimate_hit_probability(block_length, parser, args.samples, seed)
    print(json.dumps(estimate.to_json_dict(), indent=2))
    return 0


def _cmd_build_firm(args, config: WorkspaceConfig) -> int:
    image = firm.load_build_descriptor(args.desc)
    Path(args.out).write_bytes(firm.serialize(image))
    print(f"built {args.out}")
    return 0


def _cmd_sign(args, config: WorkspaceConfig) -> int:
    key = modmath.read_key_file(args.key)
    if key.d == 0:
        raise UsageError("signing needs a private key file")
    image = firm.parse(Path(args.image).read_bytes())
    Path(args.out).write_bytes(firm.serialize(firm.sign_firm(image, key)))
    print(f"signed {args.image} -> {args.out}")
    return 0


def _cmd_fakesign(args, config: WorkspaceConfig) -> int:
    sig_hex = Path(args.sig).read_text().strip()
    image = firm.parse(Path(args.image).read_bytes())
    Path(args.out).write_bytes(
        firm.serialize(firm.fakesign_firm(image, bytes.fromhex(sig_hex)))
    )
    print(f"fakesigned {args.image} -> {args.out}")
    return 0


def _cmd_verify(args, config: WorkspaceConfig) -> int:
    if args.key:
        key = modmath.read_key_file(args.key)
        pub = (key.n, key.e)
    else:
        registry = _load_registry(_key_dir(args, config))
        console, sig_type = modmath.parse_slot_label(args.slot)
        pub = registry.get(console, sig_type)
    block_length = modmath.block_length_of(pub[0])
    stack = (
        StackModel.factory_firmware(block_length)
        if args.stack == "factory"
        else StackModel.boot9(block_length)
    )
    image = firm.parse(Path(args.image).read_bytes())
    validation = firm.validate_firm(image, pub, _parser_mode(args, config), stack)
    print(json.dumps(validation.to_json_dict(), indent=2))
    return 0 if validation.accepted else 1


def _boot_inputs(args) -> BootInputs:
    keys = frozenset(k.strip().upper() for k in (args.keys or "").split(",") if k.strip())
    return BootInputs(
        keys_held=keys,
        shell_closed=args.shell_closed,
        ntr_cart_present=bool(args.cart_image),
        magnet_applied=args.magnet,
    )


def _cmd_boot(args, config: WorkspaceConfig) -> int:
    seed = _require_seed(args, config)
    registry = _load_registry(_key_dir(args, config))
    machine = _machine(args, config, seed, registry)
    machine.inputs = _boot_inputs(args)
    if args.cart_image:
        machine.insert_cartridge(Path(args.cart_image).read_bytes())
    report = bootsim.run_boot(
        machine, Path(args.image).read_bytes(), _parser_mode(args, config)
    )
    _emit_report(report, _workdir(args), "boot-report")
    if report.reached_entry:
        return 0
    # The boot's last event is its cause (`Machine._end` logs it).
    print(f"boot {report.outcome.value}: {report.events[-1].line()}", file=sys.stderr)
    return 1


def _cmd_exploit(args, config: WorkspaceConfig) -> int:
    seed = _require_seed(args, config)
    key_dir = _key_dir(args, config)
    registry = _load_registry(key_dir)
    machine = _machine(args, config, seed, registry)
    if args.sig:
        signature = bytes.fromhex(Path(args.sig).read_text().strip())
    else:
        key = _private_key(key_dir, args.slot)
        signature = forge.forge_with_private_key(
            key, key.block_length, derive_seed(seed, "exploit-sig")
        ).signature_bytes()
    staged = bootsim.build_exploit_image(signature)
    second = None
    keys_held = frozenset()
    if args.dump_keys:
        keys_held = bootsim.DUMP_COMBO
    else:
        if not args.second_image:
            raise UsageError("without --dump-keys the chain needs --second-image")
        second = Path(args.second_image).read_bytes()
    report = bootsim.run_exploit_chain(machine, staged, second, keys_held)
    _emit_report(report, _workdir(args), "exploit-report")
    ok = report.outcome in (BootOutcome.SHUTDOWN, BootOutcome.REACHED_ENTRY)
    return 0 if ok else 1


def _cmd_ntr_install(args, config: WorkspaceConfig) -> int:
    seed = _require_seed(args, config)
    key_dir = _key_dir(args, config)
    registry = _load_registry(key_dir)
    machine = _machine(args, config, seed, registry)
    console = machine.console

    nand_key = _private_key(key_dir, modmath.slot_label(console, SignatureType.NAND_BOOT))
    cart_key = _private_key(
        key_dir, modmath.slot_label(console, SignatureType.NON_NAND_BOOT)
    )
    nand_sig = forge.forge_with_private_key(
        nand_key, nand_key.block_length, derive_seed(seed, "nand-sig")
    ).signature_bytes()
    cart_sig = forge.forge_with_private_key(
        cart_key, cart_key.block_length, derive_seed(seed, "cart-sig")
    ).signature_bytes()

    nand_staged = bootsim.build_exploit_image(nand_sig)
    second = firm.build_firm(
        [(0x08030000, firm.CopyMethod.CPU_MEMCPY, b"second-stage payload")],
        arm9_entry=0x08030000,
    )
    flashcart = bootsim.build_exploit_image(
        cart_sig,
        stage2="install",
        install_nand_image=firm.serialize(nand_staged),
        install_sd_image=firm.serialize(second),
    )
    report = bootsim.run_ntr_install_scenario(machine, flashcart)
    _emit_report(report, _workdir(args), "ntr-report")
    return 0 if report.reached_entry else 1


# --- argument wiring ------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="bootforge",
        description="signature forgery, firmware packaging, and boot-chain simulation",
    )
    top.add_argument("--config", help="JSON workspace config")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, *, seeded=True, keyed=False):
        if seeded:
            p.add_argument("--seed", help="32-byte hex seed")
        if keyed:
            p.add_argument("--key-dir", help="directory with registry.txt and .key files")
        p.add_argument("--workdir", help="artifact directory (default $BOOTFORGE_WORKDIR or .)")

    p = sub.add_parser("keygen", help="generate six keypairs and the public registry")
    common(p, keyed=True)
    p.add_argument("--bits", type=int, help="default: 8 x the config's block_length, else 512")
    p.add_argument("--e3", action="store_true", help="use public exponent 3")
    p.set_defaults(func=_cmd_keygen)

    p = sub.add_parser("craft", help="craft an exploit plaintext block")
    common(p)
    p.add_argument("--block-length", type=lambda s: int(s, 0))
    p.add_argument("--landing", type=lambda s: int(s, 0), required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_craft)

    p = sub.add_parser("forge", help="brute-force an exploit signature (public key only)")
    common(p, keyed=True)
    p.add_argument("--slot", default="retail.nand")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--max-attempts", type=int, help="default: 20 / p_search, missing 1 in e^20")
    p.add_argument("--window", help="landing window LO:HI (default: the boot's landing, bl)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_forge)

    p = sub.add_parser("forge-oracle", help="exploit signature via the private key")
    common(p, keyed=True)
    p.add_argument("--slot", default="retail.nand")
    p.add_argument("--landing", type=lambda s: int(s, 0))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_forge_oracle)

    p = sub.add_parser("estimate", help="Monte-Carlo hit-probability estimate")
    common(p)
    p.add_argument("--block-length", type=lambda s: int(s, 0))
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--window", help="landing window LO:HI (default: the boot's landing, bl)")
    p.add_argument("--full-structure", action="store_true")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("build-firm", help="build an image from a JSON descriptor")
    common(p, seeded=False)
    p.add_argument("--desc", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_firm)

    p = sub.add_parser("sign", help="honestly sign an image")
    common(p, seeded=False)
    p.add_argument("--key", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sign)

    p = sub.add_parser("fakesign", help="embed a forged signature")
    common(p, seeded=False)
    p.add_argument("--sig", required=True, help="hex signature file")
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fakesign)

    p = sub.add_parser("verify", help="run a parser over an image signature")
    common(p, seeded=False, keyed=True)
    p.add_argument("--image", required=True)
    p.add_argument("--mode", choices=_values(ParserMode))
    p.add_argument("--key", help="explicit key file (else --slot from the registry)")
    p.add_argument("--slot", default="retail.nand")
    p.add_argument("--stack", choices=["boot9", "factory"], default="boot9")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("boot", help="simulate one boot of an image")
    common(p, keyed=True)
    p.add_argument("--image", required=True)
    p.add_argument("--mode", choices=_values(ParserMode))
    p.add_argument("--policy", choices=_values(BlacklistPolicy))
    p.add_argument("--console", choices=_values(Console), default=Console.RETAIL.value)
    p.add_argument("--keys", help="comma-separated held keys")
    p.add_argument("--shell-closed", action="store_true")
    p.add_argument("--magnet", action="store_true")
    p.add_argument("--cart-image", help="image present in the cartridge slot")
    p.set_defaults(func=_cmd_boot)

    p = sub.add_parser("exploit", help="run the staged exploit chain")
    common(p, keyed=True)
    p.add_argument("--slot", default="retail.nand")
    p.add_argument("--sig", help="hex signature file (else the private-key oracle)")
    p.add_argument("--dump-keys", action="store_true")
    p.add_argument("--second-image", help="image chain-loaded from SD without --dump-keys")
    p.add_argument("--policy", choices=_values(BlacklistPolicy))
    p.add_argument("--console", choices=_values(Console), default=Console.RETAIL.value)
    p.set_defaults(func=_cmd_exploit)

    p = sub.add_parser("ntr-install", help="cartridge-boot installer plus NAND re-boot")
    common(p, keyed=True)
    p.add_argument("--policy", choices=_values(BlacklistPolicy))
    p.add_argument("--console", choices=_values(Console), default=Console.RETAIL.value)
    p.set_defaults(func=_cmd_ntr_install)

    return top


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        config = WorkspaceConfig.load(args.config)
        return args.func(args, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except firm.FirmParseError as exc:
        # A malformed image fails the check, as `boot` reports it; not a usage error.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
