import json
import os
from pathlib import Path

import pytest

from bootforge import forge, modmath
from bootforge.cli import main
from bootforge.prng import ByteStream, derive_seed

SEED = "ab" * 32


@pytest.fixture()
def workspace(tmp_path, monkeypatch):
    monkeypatch.setenv("BOOTFORGE_WORKDIR", str(tmp_path / "work"))
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture()
def key_dir(workspace):
    path = workspace / "keys"
    assert main(["keygen", "--bits", "512", "--seed", SEED, "--key-dir", str(path)]) == 0
    return path


def crash_worker(*args):
    os._exit(9)


def read_tree(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


class TestKeygen:
    def test_outputs(self, key_dir):
        names = {p.name for p in key_dir.iterdir()}
        assert "registry.txt" in names
        assert "retail.nand.key" in names and "dev.nonnand.key" in names
        assert len(names) == 7

    def test_deterministic(self, workspace):
        for d in ("a", "b"):
            assert main(["keygen", "--bits", "512", "--seed", SEED, "--key-dir", d]) == 0
        assert read_tree(workspace / "a") == read_tree(workspace / "b")

    def test_config_block_length_sets_the_key_size(self, workspace):
        config = workspace / "config.json"
        config.write_text(json.dumps({"block_length": 32}))
        assert main(["--config", str(config), "keygen", "--seed", SEED, "--key-dir", "k"]) == 0
        key = modmath.read_key_file(workspace / "k" / "retail.nand.key")
        assert key.bit_length == 256

    def test_seed_required(self, workspace):
        assert main(["keygen", "--key-dir", "nokeys"]) == 2

    def test_seed_must_be_32_bytes(self, workspace):
        assert main(["keygen", "--seed", "abcd", "--key-dir", "k"]) == 2
        assert main(["keygen", "--seed", "zz" * 32, "--key-dir", "k"]) == 2


class TestCraft:
    def test_writes_block_and_annotates(self, workspace, capsys):
        rc = main(
            ["craft", "--block-length", "0x100", "--landing", "0x100",
             "--seed", SEED, "--out", "block.bin"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "legend:" in out
        block = Path("block.bin").read_bytes()
        assert len(block) == 0x100 and block[:2] == b"\x00\x02"

    def test_craft_deterministic(self, workspace):
        main(["craft", "--block-length", "64", "--landing", "64", "--seed", SEED, "--out", "x1"])
        main(["craft", "--block-length", "64", "--landing", "64", "--seed", SEED, "--out", "x2"])
        assert Path("x1").read_bytes() == Path("x2").read_bytes()


def build_plain_image(workspace) -> Path:
    payload = workspace / "payload.bin"
    payload.write_bytes(b"cli image payload" * 10)
    desc = workspace / "image.json"
    desc.write_text(
        json.dumps(
            {
                "sections": [
                    {
                        "phys_addr": "0x08006000",
                        "copy_method": "cpu_memcpy",
                        "payload_file": "payload.bin",
                    }
                ],
                "arm9_entry": "0x08006000",
                "arm11_entry": "0x08006000",
            }
        )
    )
    out = workspace / "plain.firm"
    assert main(["build-firm", "--desc", str(desc), "--out", str(out)]) == 0
    return out


def build_fake_image(workspace, key_dir) -> Path:
    """The plain image fakesigned with an oracle exploit signature: `fake.firm`."""
    plain = build_plain_image(workspace)
    assert (
        main(
            ["forge-oracle", "--key-dir", str(key_dir), "--slot", "retail.nand",
             "--seed", SEED, "--out", "oracle"]
        )
        == 0
    )
    assert (
        main(["fakesign", "--sig", "oracle.sig", "--image", str(plain), "--out", "fake.firm"])
        == 0
    )
    return Path("fake.firm")


class TestImagePipeline:
    def test_fakesign_verify_exit_codes(self, workspace, key_dir):
        build_fake_image(workspace, key_dir)
        flawed = main(
            ["verify", "--image", "fake.firm", "--key-dir", str(key_dir),
             "--slot", "retail.nand", "--mode", "flawed"]
        )
        strict = main(
            ["verify", "--image", "fake.firm", "--key-dir", str(key_dir),
             "--slot", "retail.nand", "--mode", "strict"]
        )
        assert (flawed, strict) == (0, 1)
        # A malformed image is a failed check for both commands, not a usage error.
        Path("truncated.firm").write_bytes(Path("fake.firm").read_bytes()[:-0x10])
        verify = main(
            ["verify", "--image", "truncated.firm", "--key-dir", str(key_dir),
             "--slot", "retail.nand"]
        )
        boot = main(
            ["boot", "--image", "truncated.firm", "--key-dir", str(key_dir), "--seed", SEED]
        )
        assert (verify, boot) == (1, 1)

    def test_config_parser_mode_applies_to_verify(self, workspace, key_dir):
        fake = build_fake_image(workspace, key_dir)
        config = workspace / "config.json"

        def verify(parser_mode, *flags):
            config.write_text(json.dumps({"parser_mode": parser_mode}))
            return main(
                ["--config", str(config), "verify", "--image", str(fake),
                 "--key-dir", str(key_dir), *flags]
            )

        assert verify("strict") == 1
        assert verify("strict", "--mode", "flawed") == 0
        assert verify("lax") == 2

    def test_bad_config_policy_is_a_usage_error(self, workspace, key_dir):
        config = workspace / "config.json"
        config.write_text(json.dumps({"blacklist_policy": "lax"}))
        rc = main(
            ["--config", str(config), "exploit", "--key-dir", str(key_dir),
             "--seed", SEED, "--dump-keys"]
        )
        assert rc == 2

    def test_honest_sign_verifies_strict(self, workspace, key_dir):
        plain = build_plain_image(workspace)
        key_file = key_dir / "retail.nand.key"
        assert (
            main(["sign", "--key", str(key_file), "--image", str(plain), "--out", "signed.firm"])
            == 0
        )
        assert (
            main(
                ["verify", "--image", "signed.firm", "--key-dir", str(key_dir),
                 "--slot", "retail.nand", "--mode", "strict"]
            )
            == 0
        )

    def test_boot_commands(self, workspace, key_dir):
        plain = build_plain_image(workspace)
        key_file = key_dir / "retail.nand.key"
        main(["sign", "--key", str(key_file), "--image", str(plain), "--out", "signed.firm"])
        rc = main(
            ["boot", "--image", "signed.firm", "--key-dir", str(key_dir), "--seed", SEED]
        )
        assert rc == 0
        report_path = Path(workspace / "work" / "boot-report.json")
        assert json.loads(report_path.read_text())["reached_entry"] is True
        rc_bad = main(
            ["boot", "--image", str(plain), "--key-dir", str(key_dir), "--seed", SEED]
        )
        assert rc_bad == 1  # unsigned image fails verification

    @pytest.mark.parametrize("fields", ["n=0\ne=3", "n=00\ne=3", "n=1\ne=3", "n=ff\ne=1"])
    def test_degenerate_key_file_is_a_usage_error(self, workspace, fields, capsys):
        plain = build_plain_image(workspace)
        Path("bad.key").write_text(fields + "\n")
        assert main(["verify", "--image", str(plain), "--key", "bad.key"]) == 2
        assert "public key values out of range" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["sign", "exploit"])
    def test_private_key_that_cannot_sign_is_a_usage_error(
        self, workspace, key_dir, command, capsys
    ):
        key_file = key_dir / "retail.nand.key"
        key = modmath.read_key_file(key_file)
        modmath.write_key_file(key_file, modmath.RsaKeyPair(key.n, key.e, key.d + 2))
        if command == "sign":
            argv = ["sign", "--key", str(key_file), "--image", str(build_plain_image(workspace)),
                    "--out", "signed.firm"]
        else:
            argv = ["exploit", "--key-dir", str(key_dir), "--seed", SEED, "--dump-keys"]
        assert main(argv) == 2
        assert "private exponent does not invert e" in capsys.readouterr().err
        assert not Path("signed.firm").exists()


class TestForgeCommand:
    def test_search_writes_artifacts(self, workspace, key_dir):
        rc = main(
            ["forge", "--key-dir", str(key_dir), "--slot", "retail.nand",
             "--seed", SEED, "--workers", "1", "--max-attempts", "8000000",
             "--out", "found"]
        )
        assert rc == 0
        record = json.loads(Path("found.json").read_text())
        assert record["attempts"] > 0
        assert record["seed"] == SEED
        sig = bytes.fromhex(Path("found.sig").read_text().strip())
        assert len(sig) == 64

    def test_exhaustion_exit_code(self, workspace, key_dir):
        rc = main(
            ["forge", "--key-dir", str(key_dir), "--slot", "retail.nand",
             "--seed", SEED, "--max-attempts", "1000", "--window", "64:64"]
        )
        assert rc == 1

    @pytest.mark.parametrize("window", ["0:5", "9:5"])
    def test_window_that_cannot_hit_is_a_usage_error(
        self, workspace, key_dir, monkeypatch, capsys, window
    ):
        def refuse_chain(*args):
            raise AssertionError("a chain ran")

        monkeypatch.setattr(forge, "_run_chain", refuse_chain)
        rc = main(
            ["forge", "--key-dir", str(key_dir), "--slot", "retail.nand",
             "--seed", SEED, "--window", window]
        )
        assert rc == 2
        assert "cannot hit" in capsys.readouterr().err

    def test_crashed_worker_is_reported(self, workspace, key_dir, monkeypatch, capsys):
        monkeypatch.setattr(forge, "_worker_main", crash_worker)
        rc = main(
            ["forge", "--key-dir", str(key_dir), "--slot", "retail.nand",
             "--seed", SEED, "--workers", "2", "--max-attempts", "1000"]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert "error: search worker 0 exited with code 9" in err
        assert "exhausted" not in err

    @pytest.mark.parametrize("workers", [0, forge.MAX_WORKERS + 1])
    def test_worker_count_out_of_range_is_a_usage_error(
        self, workspace, key_dir, monkeypatch, capsys, workers
    ):
        def refuse_process(*args, **kwargs):
            raise AssertionError("a worker process was started")

        monkeypatch.setattr(forge.multiprocessing, "Process", refuse_process)
        rc = main(
            ["forge", "--key-dir", str(key_dir), "--slot", "retail.nand",
             "--seed", SEED, "--workers", str(workers), "--max-attempts", "1000"]
        )
        assert rc == 2
        assert f"worker_count must be 1 to {forge.MAX_WORKERS}" in capsys.readouterr().err


class TestEstimateCommand:
    def test_json_output(self, workspace, capsys):
        rc = main(
            ["estimate", "--block-length", "64", "--samples", "200000", "--seed", SEED]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["samples"] == 200000
        assert 0 <= payload["p_hat"] <= 1

    def test_full_structure_keeps_the_window(self, workspace, monkeypatch):
        seen = []

        def capture(block_length, config, samples, seed):
            seen.append(config)
            return forge.HitProbability(0, samples, 0.0, 0.0, 1.0)

        monkeypatch.setattr(forge, "estimate_hit_probability", capture)
        rc = main(
            ["estimate", "--block-length", "64", "--full-structure", "--window", "64:64",
             "--seed", SEED]
        )
        assert rc == 0
        assert seen[0].target_window == {64}
        assert seen[0].check_type_bytes


class TestExploitCommands:
    def test_dump_keys_writes_sd_files(self, workspace, key_dir):
        rc = main(["exploit", "--key-dir", str(key_dir), "--seed", SEED, "--dump-keys"])
        assert rc == 0
        sd = Path(workspace / "work" / "machine" / "sd")
        boot9 = (sd / "boot9_protected.bin").read_bytes()
        boot11 = (sd / "boot11_protected.bin").read_bytes()
        # independent derivation straight from the construction seed stream
        machine_seed = derive_seed(bytes.fromhex(SEED), "machine")
        assert boot9 == ByteStream(derive_seed(machine_seed, "boot9-rom")).take(0x10000)[0x8000:]
        assert boot11 == ByteStream(derive_seed(machine_seed, "boot11-rom")).take(0x10000)[0x8000:]

    def test_chain_requires_second_image(self, workspace, key_dir):
        assert main(["exploit", "--key-dir", str(key_dir), "--seed", SEED]) == 2

    def test_hardened_policy_fails(self, workspace, key_dir):
        rc = main(
            ["exploit", "--key-dir", str(key_dir), "--seed", SEED,
             "--dump-keys", "--policy", "hardened"]
        )
        assert rc == 1

    def test_ntr_install(self, workspace, key_dir):
        assert main(["ntr-install", "--key-dir", str(key_dir), "--seed", SEED]) == 0
        assert (workspace / "work" / "ntr-report.json").exists()


class TestUsageErrors:
    def test_unknown_flag(self, workspace):
        assert main(["forge", "--no-such-flag"]) == 2

    def test_unknown_command(self, workspace):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--image", "x.firm", "--window", "0:1"],
            ["boot", "--image", "x.firm", "--window", "0:1"],
            ["estimate", "--seed", SEED, "--prefix-only"],
        ],
    )
    def test_deleted_options(self, workspace, argv, capsys):
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_file(self, workspace, key_dir):
        assert main(["verify", "--image", "missing.firm", "--key-dir", str(key_dir)]) == 2


def test_config_file_supplies_defaults(workspace, key_dir, capsys):
    config = workspace / "config.json"
    config.write_text(json.dumps({"key_dir": str(key_dir), "seed": SEED, "block_length": 64}))
    rc = main(["--config", str(config), "estimate", "--samples", "150000"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["samples"] == 150000
