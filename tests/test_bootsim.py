import contextlib
import functools
import hashlib
import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bootforge import bootsim
from bootforge.bootsim import (
    ARM9_SCRATCH,
    BOOT9_ROM_BASE,
    BOOT11_ROM_BASE,
    BlacklistPolicy,
    BootInputs,
    BootOutcome,
    BootSource,
    DUMP_COMBO,
    Machine,
    NDMA_WINDOW_BASE,
    NTR_BOOT_COMBO,
    NdmaRequest,
    PROTECTED_HALF,
    ROM_SIZE,
    build_exploit_image,
    check_blacklist,
    run_boot,
    run_exploit_chain,
    run_ntr_install_scenario,
    select_boot_source,
)
from bootforge.firm import CopyMethod, SectionHeader, build_firm, fakesign_firm, serialize, sign_firm
from bootforge.forge import forge_with_private_key
from bootforge.modmath import Console, SignatureType
from bootforge.prng import ByteStream, derive_seed
from bootforge.sigparser import ParserMode, Verdict


@pytest.fixture()
def machine(registry):
    return Machine(b"test-machine", registry)


@pytest.fixture()
def nand_sig(nand_key):
    return forge_with_private_key(nand_key, nand_key.block_length, b"chain-sig").signature_bytes()


@pytest.fixture()
def staged(nand_sig):
    return build_exploit_image(nand_sig)


def restaged(nand_sig, edit):
    """The staged image rebuilt from `edit` applied to its section entries."""
    image = build_exploit_image(nand_sig)
    entries = [(s.phys_addr, s.copy_method, p) for s, p in zip(image.sections, image.payloads)]
    rebuilt = build_firm(
        edit(entries), arm9_entry=image.arm9_entry, arm11_entry=image.arm11_entry
    )
    return fakesign_firm(rebuilt, nand_sig)


def without_arm11_section(nand_sig):
    """ARM11 never raises its flag, so both processors end up waiting."""
    return restaged(nand_sig, lambda entries: entries[1:])


def without_hook_b(nand_sig):
    """The abort handler installs only ARM9's first hook: ARM11 runs its
    hook while ARM9 locks, so the FPTR_A mark's turn shows in the log."""
    def clear_hook_b(entries):
        addr, method, payload = entries[1]
        entries[1] = (addr, method, payload[:12] + bytes(4) + payload[16:])
        return entries

    return restaged(nand_sig, clear_hook_b)


def build_flashcart(slot_keys, console=Console.RETAIL, sig_type=SignatureType.NON_NAND_BOOT):
    cart_key = slot_keys[(console, sig_type)]
    nand_key = slot_keys[(console, SignatureType.NAND_BOOT)]
    nand_sig = forge_with_private_key(
        nand_key, nand_key.block_length, b"ntr-nand"
    ).signature_bytes()
    cart_sig = forge_with_private_key(
        cart_key, cart_key.block_length, b"ntr-cart"
    ).signature_bytes()
    nand_staged = build_exploit_image(nand_sig)
    second = honest_image(nand_key)
    return build_exploit_image(
        cart_sig,
        stage2="install",
        install_nand_image=serialize(nand_staged),
        install_sd_image=serialize(second),
    )


def honest_image(key):
    image = build_firm(
        [(0x08006000, CopyMethod.CPU_MEMCPY, b"stock firmware " * 16)],
        arm9_entry=0x08006000,
        arm11_entry=0x08006000,
    )
    return sign_firm(image, key)


class TestBootSourceSelection:
    def test_full_combination_selects_cartridge(self):
        inputs = BootInputs(
            keys_held=NTR_BOOT_COMBO, shell_closed=True, ntr_cart_present=True
        )
        assert select_boot_source(inputs) is BootSource.NTR_CART

    def test_incomplete_combination_falls_back_to_nand(self):
        inputs = BootInputs(
            keys_held=frozenset({"START", "SELECT"}),
            shell_closed=True,
            ntr_cart_present=True,
        )
        assert select_boot_source(inputs) is BootSource.NAND

    def test_magnet_substitutes_for_the_shell(self):
        inputs = BootInputs(
            keys_held=NTR_BOOT_COMBO,
            shell_closed=False,
            magnet_applied=True,
            ntr_cart_present=True,
        )
        assert select_boot_source(inputs) is BootSource.NTR_CART

    def test_no_cartridge_means_nand(self):
        inputs = BootInputs(keys_held=NTR_BOOT_COMBO, shell_closed=True)
        assert select_boot_source(inputs) is BootSource.NAND

    def test_no_inputs_means_nand(self):
        assert select_boot_source(BootInputs()) is BootSource.NAND


class TestBlacklist:
    def test_boot_rom_data_region_always_refused(self):
        for policy in BlacklistPolicy:
            assert not check_blacklist(0xFFFF0000, 0x10, policy)
            assert not check_blacklist(0xFFFEFFF8, 0x10, policy)  # straddles the edge

    def test_dma_window_is_the_flaw(self):
        assert check_blacklist(NDMA_WINDOW_BASE, 0x10, BlacklistPolicy.BOOT9_DATA_ONLY)
        assert not check_blacklist(NDMA_WINDOW_BASE, 0x10, BlacklistPolicy.HARDENED)

    def test_hardened_extras(self):
        hardened = BlacklistPolicy.HARDENED
        assert not check_blacklist(0x07FF8000, 4, hardened)  # vector page
        assert not check_blacklist(BOOT11_ROM_BASE, 4, hardened)
        assert not check_blacklist(0x10000000, 4, hardened)  # io registers
        assert check_blacklist(0x08001000, 4, hardened)      # plain arm9 ram
        assert check_blacklist(bootsim.ARM11_WRAM_BASE, 4, hardened)

    def test_ordinary_ram_always_allowed(self):
        for policy in BlacklistPolicy:
            assert check_blacklist(0x08001000, 0x1000, policy)
            assert check_blacklist(0x20000000, 0x1000, policy)


class TestPhysicalMemory:
    def test_copy_roundtrip(self, machine):
        machine.write_phys(ARM9_SCRATCH, b"hello")
        machine.copy_phys(ARM9_SCRATCH, ARM9_SCRATCH + 0x100, 5)
        assert machine.read_phys(ARM9_SCRATCH + 0x100, 5) == b"hello"

    def test_rom_reads_protected_half_before_lock(self, machine):
        data = machine.read_phys(BOOT9_ROM_BASE + PROTECTED_HALF, 16)
        assert data == machine.protected_boot9[:16]

    def test_locked_protected_half_reads_zero(self, machine):
        machine.engage_lock(9)
        data = machine.read_phys(BOOT9_ROM_BASE + PROTECTED_HALF, 16)
        assert data == b"\x00" * 16
        assert machine.event_log[-1].kind == "lock_violation"
        # unprotected half still readable
        assert machine.read_phys(BOOT9_ROM_BASE, 16) == machine.boot9_rom[:16]

    def test_rom_writes_are_dropped(self, machine):
        machine.write_phys(BOOT9_ROM_BASE, b"\xff" * 4)
        assert machine.read_phys(BOOT9_ROM_BASE, 4) == machine.boot9_rom[:4]
        assert machine.event_log[-1].kind == "rom_write_ignored"

    def test_lock_is_write_once(self, machine):
        machine.engage_lock(9)
        assert machine.locked == {9}
        assert machine.event_log[-1].kind == "lock_boot9"
        machine.engage_lock(9)
        assert machine.locked == {9}
        assert machine.event_log[-1].kind == "lock_write_ignored"

    def test_axi_wram_alias_rows_share_backing(self, machine):
        machine.write_phys(0x1FFFE000, b"\x42" * 4)  # narrow alias row
        wide = bootsim.ARM11_WRAM_BASE + 0x7E000
        assert machine.read_phys(wide, 4) == b"\x42" * 4

    # The ARM11 work-RAM rows lie inside the wide I/O row and shadow it, so
    # an access that starts in I/O space must switch rows at their bases.
    def test_write_from_io_into_work_ram_lands_in_work_ram(self, machine):
        machine.write_phys(bootsim.ARM11_WRAM_BASE - 0x10, b"\xaa" * 0x20)
        assert machine.read_phys(bootsim.ARM11_WRAM_BASE, 0x10) == b"\xaa" * 0x10
        machine.write_phys(bootsim.ARM11_WRAM_BASE, b"\x5a" * 4)
        assert machine.read_phys(bootsim.ARM11_WRAM_BASE - 4, 8) == b"\xaa" * 4 + b"\x5a" * 4

    def test_copy_from_io_into_work_ram_lands_in_work_ram(self, machine):
        fcram = 0x20000000
        machine.write_phys(fcram, bytes(range(1, 0x21)))
        machine.copy_phys(fcram, bootsim.ARM11_WRAM_BASE - 0x10, 0x20)
        assert machine.read_phys(bootsim.ARM11_WRAM_BASE, 0x10) == bytes(range(0x11, 0x21))
        assert machine.read_phys(bootsim.ARM11_WRAM_BASE - 0x10, 0x20) == bytes(range(1, 0x21))


@functools.cache
def rom_oracle(seed, label: str) -> bytes:
    """A whole ROM read in order from the start of its stream."""
    return ByteStream(derive_seed(derive_seed(seed, "machine"), label)).take(ROM_SIZE)


ROM_BASES = {9: (BOOT9_ROM_BASE, "boot9-rom"), 11: (BOOT11_ROM_BASE, "boot11-rom")}


class TestLazyRom:
    @pytest.mark.parametrize("seed", [b"test-machine", b"\x00", "5e" * 32, b"rom-seed-3"])
    def test_roms_equal_the_in_order_stream(self, registry, seed):
        machine = Machine(seed, registry)
        assert machine.protected_boot11 == rom_oracle(seed, "boot11-rom")[PROTECTED_HALF:]
        assert machine.boot9_rom == rom_oracle(seed, "boot9-rom")
        assert machine.boot11_rom == rom_oracle(seed, "boot11-rom")
        assert machine.protected_boot9 == rom_oracle(seed, "boot9-rom")[PROTECTED_HALF:]

    @settings(max_examples=300, deadline=None)
    @given(
        proc=st.sampled_from([9, 11]),
        page=st.integers(0, ROM_SIZE // 0x1000),
        shift=st.integers(-0x40, 0x40),
        length=st.integers(1, 0x2100),
        locked=st.booleans(),
    )
    def test_unaligned_reads_are_oracle_slices(self, registry, proc, page, shift, length, locked):
        start = min(max(page * 0x1000 + shift, 0), ROM_SIZE - 1)
        length = min(length, ROM_SIZE - start)
        base, label = ROM_BASES[proc]
        machine = Machine(b"test-machine", registry)
        if locked:
            machine.engage_lock(proc)
        expected = bytearray(rom_oracle(b"test-machine", label)[start : start + length])
        cut = max(0, PROTECTED_HALF - start)
        if locked:
            expected[cut:] = bytes(len(expected[cut:]))
        logged = len(machine.event_log)
        assert machine.read_phys(base + start, length) == expected
        violations = [e.kind for e in machine.event_log[logged:]]
        assert violations == (["lock_violation"] if locked and cut < length else [])

    @pytest.fixture()
    def derived_pages(self, monkeypatch):
        """(ROM label, page) for each page a ROM store derives."""
        labels = {
            derive_seed(derive_seed(b"test-machine", "machine"), label): label
            for label in ("boot9-rom", "boot11-rom")
        }
        derived = []

        def recording(seed, first, stop):
            assert stop - first == 0x1000 // 32
            derived.append((labels[seed], first // (stop - first)))
            return real(seed, first, stop)

        real = bootsim.stream_blocks
        monkeypatch.setattr(bootsim, "stream_blocks", recording)
        return derived

    @pytest.mark.parametrize(
        "name, reads_roms",
        [("honest", False), ("hardened", False), ("stall", False),
         ("dump", True), ("chain", True), ("ntr", True)],
    )
    def test_boots_derive_only_the_pages_they_read(
        self, derived_pages, name, reads_roms, registry, slot_keys, nand_key, nand_sig
    ):
        run_scenario(name, registry, slot_keys, nand_key, nand_sig)
        protected = {
            (label, page) for label in ("boot9-rom", "boot11-rom") for page in range(8, 16)
        }
        assert len(derived_pages) == len(set(derived_pages))  # each page derived once
        assert set(derived_pages) == (protected if reads_roms else set())

    def test_locked_reads_derive_no_protected_page(self, derived_pages, machine):
        machine.engage_lock(9)
        machine.read_phys(BOOT9_ROM_BASE + PROTECTED_HALF - 0x10, 0x20)
        assert derived_pages == [("boot9-rom", 7)]


class TestPagedStore:
    FCRAM = 0x20000000

    def test_copying_untouched_ram_allocates_no_page(self, machine):
        machine.copy_phys(self.FCRAM, self.FCRAM + 0x100000, 0x100000)
        assert machine.stores["fcram"]._pages == {}
        assert machine.read_phys(self.FCRAM + 0x100000, 0x100000) == bytes(0x100000)

    def test_zeros_still_overwrite_an_existing_page(self, machine):
        machine.write_phys(self.FCRAM, b"\xff" * 0x1800)
        machine.copy_phys(self.FCRAM + 0x10000, self.FCRAM + 0x800, 0x2000)
        assert sorted(machine.stores["fcram"]._pages) == [0, 1]
        assert machine.read_phys(self.FCRAM, 0x3000) == b"\xff" * 0x800 + bytes(0x2800)

    @pytest.mark.parametrize(
        "src, dst, length",
        [(0x0, 0x7F0, 0x2345), (0x7F0, 0x0, 0x2345), (0x123, 0x124, 0x1FFF), (0x2000, 0x1FFF, 0x1001)],
    )
    def test_overlapping_copy_is_a_memmove(self, machine, src, dst, length):
        pattern = bytes(range(1, 256)) * 0x40  # 0x3FC0 bytes, past every case
        machine.write_phys(self.FCRAM, pattern)
        expected = bytearray(pattern)
        expected[dst : dst + length] = expected[src : src + length]
        machine.copy_phys(self.FCRAM + src, self.FCRAM + dst, length)
        assert machine.read_phys(self.FCRAM, len(pattern)) == expected


FCRAM = 0x20000000
FCRAM_END = 0x28000000  # unmapped from here on

# Where the copy cases start: each anchor plus a small shift.
COPY_ANCHORS = {
    "fcram": FCRAM,
    "fcram_end": FCRAM_END,                             # an off-map tail
    "io_to_wram": bootsim.ARM11_WRAM_BASE,              # I/O row 1 runs into row 10
    "alias": 0x1FFFE000,                                # row 7 inside row 10, one store
    "arm9": ARM9_SCRATCH,
    "itcm_to_arm9": 0x08000000,                         # ITCM row 5 ends at ARM9 row 3
    "boot9": BOOT9_ROM_BASE + PROTECTED_HALF,
    "boot11": BOOT11_ROM_BASE + PROTECTED_HALF,
    "boot11_end": BOOT11_ROM_BASE + ROM_SIZE,           # a ROM tail off the map
}
copy_addresses = st.builds(
    lambda anchor, shift: COPY_ANCHORS[anchor] + shift,
    st.sampled_from(sorted(COPY_ANCHORS)),
    st.integers(-0x2400, 0x2400),
)


def oracle_copy(machine, src, dst, length, proc=9):
    """The read-whole-then-write `copy_phys` that the streaming one replaced."""
    if length <= 0:
        raise bootsim._BootFailure("zero-length copy request")
    if src <= 0 < src + length or dst <= 0 < dst + length:
        raise bootsim._DataAbort(0)
    data = machine.read_phys(src, length, proc)
    kind = "copy"
    for rom_proc, rom_base in ((9, BOOT9_ROM_BASE), (11, BOOT11_ROM_BASE)):
        if rom_proc in machine.locked:
            continue
        lo = max(src, rom_base + PROTECTED_HALF)
        hi = min(src + length, rom_base + ROM_SIZE)
        if lo < hi:
            key = f"boot{rom_proc}_protected"
            captured = data[lo - src : hi - src]
            if len(captured) > len(machine.exfiltrated.get(key, b"")):
                machine.exfiltrated[key] = captured
            kind = f"copy_protected{rom_proc}"
            break
    machine.write_phys(dst, data, proc)
    machine._log(proc, kind, dst, length)


def fill_pattern(seed, length, dense):
    """Random bytes, or mostly zeros with a nonzero byte every 0x1F0 or so."""
    rng = random.Random(seed)
    if dense:
        return rng.randbytes(length)
    data = bytearray(length)
    for pos in range(rng.randrange(0x1F0), length, 0x1F0):
        data[pos] = rng.randrange(1, 256)
    return bytes(data)


def mapped_bytes(machine, addr, length):
    """The bytes of [addr, addr+length) up to its first unmapped byte."""
    try:
        return machine.read_phys(addr, length)
    except bootsim._DataAbort as abort:
        return machine.read_phys(addr, abort.addr - addr) if abort.addr > addr else b""


def ram_pages(machine):
    return {
        name: {page: bytes(data) for page, data in store._pages.items()}
        for name, store in machine.stores.items()
        if not name.endswith("rom")
    }


def dense(addr, length):
    return [(addr, length, True, addr)]


class TestStreamingCopy:
    """`copy_phys` against the read-whole-then-write copy it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(
        fills=st.lists(
            st.tuples(copy_addresses, st.integers(1, 0x3000), st.booleans(), st.integers(0, 99)),
            max_size=4,
        ),
        src=copy_addresses,
        dst=copy_addresses,
        length=st.integers(1, 0x6000),
        locked=st.sets(st.sampled_from([9, 11])),
        proc=st.sampled_from([9, 11]),
    )
    # Dense, unaligned: the last source page's bytes end one byte into a new page.
    @example(fills=dense(FCRAM + 0x10, 0x1FF0), src=FCRAM + 0x123, dst=FCRAM + 0x10124,
             length=0x2F00, locked=set(), proc=9)
    @example(fills=[(FCRAM, 0x5000, False, 1)], src=FCRAM, dst=FCRAM + 0x100000,
             length=0x5000, locked=set(), proc=9)
    @example(fills=dense(FCRAM, 0x4000), src=FCRAM + 0x100, dst=FCRAM + 0x903,
             length=0x3000, locked=set(), proc=9)
    @example(fills=dense(FCRAM, 0x4000), src=FCRAM + 0x903, dst=FCRAM + 0x100,
             length=0x3000, locked=set(), proc=9)
    @example(fills=dense(0x1FFFE000 - 0x400, 0x1000), src=0x1FFFE000 - 0x400,
             dst=0x1FFFE000 + 0x203, length=0x1000, locked=set(), proc=11)
    @example(fills=dense(bootsim.ARM11_WRAM_BASE - 0x800, 0x1000) + dense(0x1FFFDFF0, 0x900),
             src=bootsim.ARM11_WRAM_BASE - 0x800, dst=FCRAM + 5, length=0x7F000,
             locked=set(), proc=9)
    @example(fills=dense(FCRAM, 0x1000) + dense(FCRAM + 0x7E700, 0x1000), src=FCRAM,
             dst=bootsim.ARM11_WRAM_BASE - 0x800, length=0x7F000, locked=set(), proc=9)
    @example(fills=[], src=BOOT9_ROM_BASE + 0x7F00, dst=ARM9_SCRATCH + 3, length=0x8100,
             locked=set(), proc=9)
    @example(fills=[], src=BOOT9_ROM_BASE + 0x7F00, dst=ARM9_SCRATCH + 3, length=0x8100,
             locked={9}, proc=9)
    @example(fills=[], src=BOOT11_ROM_BASE + 0x7000, dst=FCRAM, length=0x9000,
             locked={11}, proc=11)
    @example(fills=dense(FCRAM, 0x2000), src=FCRAM, dst=BOOT9_ROM_BASE + 0x100,
             length=0x2000, locked=set(), proc=9)
    @example(fills=dense(FCRAM, 0x2000), src=FCRAM, dst=BOOT11_ROM_BASE + 0xF000,
             length=0x2000, locked=set(), proc=11)
    @example(fills=dense(FCRAM_END - 0x1800, 0x1800), src=FCRAM_END - 0x1800, dst=FCRAM,
             length=0x3000, locked=set(), proc=9)
    @example(fills=dense(FCRAM, 0x3000), src=FCRAM, dst=FCRAM_END - 0x1800,
             length=0x3000, locked=set(), proc=9)
    def test_matches_the_read_then_write_copy(
        self, registry, fills, src, dst, length, locked, proc
    ):
        seen = []
        for copy in (Machine.copy_phys, oracle_copy):
            machine = Machine(b"test-machine", registry)
            for addr, count, is_dense, seed in fills:
                with contextlib.suppress(bootsim._DataAbort):
                    machine.write_phys(addr, fill_pattern(seed, count, is_dense))
            for rom_proc in sorted(locked):
                machine.engage_lock(rom_proc)
            source = mapped_bytes(machine, src, length)
            logged = len(machine.event_log)
            try:
                copy(machine, src, dst, length, proc)
                fault = None
            except bootsim._DataAbort as abort:
                fault = abort.addr
            events = machine.event_log[logged:]
            if fault is not None and fault < dst or src + length <= dst or dst + length <= src:
                # Nothing was written over the source.
                assert mapped_bytes(machine, src, length) == source
            seen.append((
                fault, events, dict(machine.exfiltrated), ram_pages(machine),
                mapped_bytes(machine, src, length), mapped_bytes(machine, dst, length),
            ))
        assert seen[0] == seen[1]


class TestBoundedCopies:
    """One hostile NDMA record costs page references, not its length in bytes."""

    @staticmethod
    def traced_record(machine, src, dst, length):
        section = SectionHeader(
            offset=0x200, phys_addr=NDMA_WINDOW_BASE, size=16, copy_method=CopyMethod.NDMA
        )
        tracemalloc.start()
        try:
            events = load_section(machine, section, NdmaRequest(src, dst, length).pack())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return events, peak

    @pytest.mark.parametrize(
        "src, dst, length",
        [(0x10000000, FCRAM, 128 << 20), (FCRAM, FCRAM + (32 << 20), 32 << 20)],
    )
    def test_big_record_peaks_below_a_mib(self, machine, src, dst, length):
        events, peak = self.traced_record(machine, src, dst, length)
        assert peak < 1 << 20
        assert [(e.kind, e.addr, e.length) for e in events] == [
            ("ndma_program", NDMA_WINDOW_BASE, 16), ("copy", dst, length)
        ]

    def test_offmap_record_aborts_before_writing(self, machine):
        src = FCRAM_END - (16 << 20)
        machine.write_phys(src, b"\x5a" * 0x2000)
        pages = dict(machine.stores["fcram"]._pages)
        events, peak = self.traced_record(machine, src, FCRAM, 32 << 20)
        assert peak < 1 << 20
        assert [(e.kind, e.addr) for e in events] == [
            ("ndma_program", NDMA_WINDOW_BASE), ("data_abort", FCRAM_END)
        ]
        assert machine.aborts == [(FCRAM_END, False)]
        assert machine.stores["fcram"]._pages == pages

    def test_record_past_the_32_bit_bus_is_malformed(self, machine):
        pages = dict(machine.stores["fcram"]._pages)
        events, _ = self.traced_record(machine, 0xFFFF7F00, FCRAM, 0x8200)
        assert [(e.kind, e.addr, e.length) for e in events] == [
            ("ndma_program", NDMA_WINDOW_BASE, 16), ("ndma_malformed", NDMA_WINDOW_BASE, 16)
        ]
        assert machine.aborts == []
        assert machine.stores["fcram"]._pages == pages


def load_section(machine, section, payload):
    """Load one section outside a boot, as the boot does; returns its events."""
    start = len(machine.event_log)
    try:
        machine.load_section(section, payload)
    except bootsim._DataAbort as abort:
        with contextlib.suppress(bootsim._BootHalt):
            machine._dispatch_abort(abort.addr)
    except bootsim._BootFailure:
        pass
    return machine.event_log[start:]


class TestLoadSection:
    def test_plain_copy(self, machine):
        payload = b"section payload!"
        section = SectionHeader(
            offset=0x200, phys_addr=ARM9_SCRATCH, size=len(payload),
            copy_method=CopyMethod.CPU_MEMCPY,
        )
        events = load_section(machine, section, payload)
        assert [e.kind for e in events] == ["copy"]
        assert machine.read_phys(ARM9_SCRATCH, len(payload)) == payload

    def test_dma_window_exfiltrates_protected_rom(self, machine):
        request = NdmaRequest(
            src=BOOT9_ROM_BASE + PROTECTED_HALF, dst=ARM9_SCRATCH, length=PROTECTED_HALF
        )
        section = SectionHeader(
            offset=0x200, phys_addr=NDMA_WINDOW_BASE, size=16, copy_method=CopyMethod.NDMA
        )
        events = load_section(machine, section, request.pack())
        assert [e.kind for e in events] == ["ndma_program", "copy_protected9"]
        assert machine.exfiltrated["boot9_protected"] == machine.protected_boot9
        assert machine.read_phys(ARM9_SCRATCH, PROTECTED_HALF) == machine.protected_boot9

    def test_null_destination_aborts(self, machine):
        section = SectionHeader(
            offset=0x200, phys_addr=0, size=16, copy_method=CopyMethod.CPU_MEMCPY
        )
        events = load_section(machine, section, b"\x00" * 16)
        assert any(e.kind == "data_abort" for e in events)
        assert machine.aborts == [(0, False)]

    def test_blacklisted_destination(self, machine):
        section = SectionHeader(
            offset=0x200, phys_addr=0xFFFF0000, size=16, copy_method=CopyMethod.NDMA
        )
        events = load_section(machine, section, b"\x00" * 16)
        assert [e.kind for e in events] == ["blacklist_reject"]


class TestRunBoot:
    def test_honest_boot_reaches_entry(self, machine, registry, nand_key):
        report = run_boot(machine, serialize(honest_image(nand_key)))
        assert report.outcome is BootOutcome.REACHED_ENTRY
        assert report.reached_entry
        assert report.boot_source is BootSource.NAND
        assert report.exfiltrated == {}
        assert report.locks_final["boot9_locked"] and report.locks_final["boot11_locked"]

    def test_honest_boot_strict_parser(self, machine, nand_key):
        report = run_boot(machine, serialize(honest_image(nand_key)), mode=ParserMode.STRICT)
        assert report.reached_entry

    def test_fakesigned_rejected_by_strict(self, machine, nand_key, nand_sig):
        image = fakesign_firm(honest_image(nand_key), nand_sig)
        report = run_boot(machine, serialize(image), mode=ParserMode.STRICT)
        assert report.outcome is BootOutcome.FAILURE
        assert not report.reached_entry
        assert report.signature_verdict.verdict is Verdict.REJECT

    def test_fakesigned_accepted_by_flawed(self, machine, nand_key, nand_sig):
        image = fakesign_firm(honest_image(nand_key), nand_sig)
        report = run_boot(machine, serialize(image))
        assert report.reached_entry

    def test_landing_outside_stack_is_a_halt(self, machine, nand_key):
        off_stack = forge_with_private_key(nand_key, 64 + 0x50, b"oob-sig")
        image = fakesign_firm(honest_image(nand_key), off_stack.signature_bytes())
        report = run_boot(machine, serialize(image))
        assert report.outcome is BootOutcome.HALT
        assert report.signature_verdict.verdict is Verdict.OUT_OF_BOUNDS
        assert report.aborts and not report.aborts[0][1]

    def test_garbage_signature_is_a_failure(self, machine, nand_key):
        image = fakesign_firm(honest_image(nand_key), b"\x5a" * 64)
        report = run_boot(machine, serialize(image))
        assert report.outcome is BootOutcome.FAILURE
        assert report.signature_verdict.verdict is Verdict.REJECT

    def test_empty_nand_fails(self, machine):
        report = run_boot(machine)
        assert report.outcome is BootOutcome.FAILURE
        assert any(e.kind == "header_read_failed" for e in report.events)

    def test_event_line_protocol(self, machine, nand_key):
        report = run_boot(machine, serialize(honest_image(nand_key)))
        pattern = re.compile(r"step=\d+ proc=(9|11) event=[a-z0-9_]+ addr=0x[0-9a-f]+ len=0x[0-9a-f]+")
        for line in report.event_log_text().strip().splitlines():
            assert pattern.fullmatch(line), line

    def test_determinism(self, registry, nand_key):
        blob = serialize(honest_image(nand_key))
        reports = []
        for _ in range(2):
            m = Machine(b"same-seed", registry)
            reports.append(run_boot(m, blob))
        assert reports[0].to_json() == reports[1].to_json()
        assert reports[0].event_log_text() == reports[1].event_log_text()


class TestExploitChain:
    def test_dump_path_exfiltrates_both_halves(self, machine, staged):
        report = run_exploit_chain(machine, staged, keys_held=DUMP_COMBO)
        assert report.outcome is BootOutcome.SHUTDOWN
        assert report.reached_entry
        assert machine.sd_store["boot9_protected.bin"] == machine.protected_boot9
        assert machine.sd_store["boot11_protected.bin"] == machine.protected_boot11
        assert report.exfiltrated["boot9_protected"] == machine.protected_boot9
        assert report.exfiltrated["boot11_protected"] == machine.protected_boot11
        kinds = [e.kind for e in report.events]
        assert kinds.count("copy_protected9") == 1
        assert kinds.count("copy_protected11") == 1
        # no lock may precede any protected copy
        assert not any(k.startswith("lock_boot") for k in kinds)

    def test_chain_path_locks_after_copies(self, machine, staged, nand_key):
        second = honest_image(nand_key)
        report = run_exploit_chain(machine, staged, second_image=second)
        assert report.outcome is BootOutcome.REACHED_ENTRY
        assert all(report.locks_final.values())
        kinds = [e.kind for e in report.events]
        first_lock = min(i for i, k in enumerate(kinds) if k.startswith("lock_boot"))
        last_copy = max(i for i, k in enumerate(kinds) if k.startswith("copy_protected"))
        assert last_copy < first_lock

    def test_chain_without_second_image_fails(self, machine, staged):
        report = run_exploit_chain(machine, staged)
        assert report.outcome is BootOutcome.FAILURE
        assert any(e.kind == "chain_missing" for e in report.events)

    def test_missing_handler_section_halts(self, machine, nand_sig):
        # strip section 1 (the handler blob area)
        gutted = restaged(nand_sig, lambda entries: [entries[0], *entries[2:]])
        report = run_exploit_chain(machine, gutted, keys_held=DUMP_COMBO)
        assert report.outcome is BootOutcome.HALT
        assert (0, False) in report.aborts

    def test_missing_arm11_section_trips_watchdog(self, machine, nand_sig):
        report = run_exploit_chain(machine, without_arm11_section(nand_sig), keys_held=DUMP_COMBO)
        assert report.outcome is BootOutcome.HALT
        assert any(e.kind == "watchdog" for e in report.events)

    def test_hardened_policy_stops_the_dma_load(self, registry, staged):
        machine = Machine(b"test-machine", registry, policy=BlacklistPolicy.HARDENED)
        report = run_exploit_chain(machine, staged, keys_held=DUMP_COMBO)
        assert report.outcome is BootOutcome.FAILURE
        assert any(e.kind == "blacklist_reject" for e in report.events)
        assert report.sections_loaded == [0, 1]
        assert report.exfiltrated == {}

    def test_chain_determinism(self, registry, staged):
        outputs = []
        for _ in range(2):
            m = Machine(b"same-seed", registry)
            report = run_exploit_chain(m, staged, keys_held=DUMP_COMBO)
            outputs.append((report.to_json(), report.event_log_text()))
        assert outputs[0] == outputs[1]


class TestNtrScenario:
    def test_install_and_follow_up_boot(self, machine, slot_keys):
        report = run_ntr_install_scenario(machine, build_flashcart(slot_keys))
        assert report.boot_source is BootSource.NAND
        assert report.reached_entry
        assert any(e.kind == "nand_install" for e in machine.event_log)
        assert machine.nand_store  # the staged image persists in NAND

    def test_wrong_key_slot_is_rejected(self, machine, slot_keys):
        flashcart = build_flashcart(
            slot_keys, sig_type=SignatureType.NAND_BOOT
        )  # NAND-slot signature on the cartridge path
        report = run_ntr_install_scenario(machine, flashcart)
        assert report.boot_source is BootSource.NTR_CART
        assert report.outcome is BootOutcome.FAILURE
        assert report.signature_verdict.verdict is Verdict.REJECT

    def test_without_cartridge_nand_path_runs(self, machine, slot_keys):
        machine.inputs = BootInputs(keys_held=NTR_BOOT_COMBO, shell_closed=True)
        report = run_boot(machine)
        assert report.boot_source is BootSource.NAND
        assert not any(e.kind == "boot_source_ntrcart" for e in report.events)


def run_scenario(name, registry, slot_keys, nand_key, nand_sig):
    staged = build_exploit_image(nand_sig)
    if name == "hardened":
        machine = Machine(b"test-machine", registry, policy=BlacklistPolicy.HARDENED)
        return run_exploit_chain(machine, staged, keys_held=DUMP_COMBO)
    machine = Machine(b"test-machine", registry)
    if name == "honest":
        return run_boot(machine, serialize(honest_image(nand_key)))
    if name == "dump":
        return run_exploit_chain(machine, staged, keys_held=DUMP_COMBO)
    if name == "chain":
        return run_exploit_chain(machine, staged, second_image=honest_image(nand_key))
    if name == "ntr":
        return run_ntr_install_scenario(machine, build_flashcart(slot_keys))
    gutted = {"stall": without_arm11_section, "no_hook_b": without_hook_b}[name](nand_sig)
    return run_exploit_chain(machine, gutted, keys_held=DUMP_COMBO)


# sha256 of report JSON + event log per scenario.  Where each processor's
# turn ends decides the event order, so these pin the scheduler's turns too.
PINNED_DIGESTS = {
    "honest": "a8e5d508dfd342035721eafa42fd6a5fd03ff218a56377ab3300172f4b01d759",
    "dump": "a38765379dd2cb51b00fccd3cb5945b3b536348f131ac5716d3def9c4214c662",
    "chain": "c5fd6077b764c8b8adb68bb96ba928793679d12067dc13a5702b35d7e8573305",
    "ntr": "c06c01b5ff867cdcaa51acbcb31a1d76d701c36f94bfc36cfd89f70f83898e8e",
    "hardened": "af181216498e9ac68d1905bd7c0bc9d7c1683d26e76541fa34663ad70e21d398",
    "stall": "d47749f849d61d4a1ec0817f841d69fa26cbf9778156744bf27245c8b74ea7b2",
    "no_hook_b": "aacaef4397be0b780da5c14ef09dc2684473cbe35754a008f21ed9fea5a8a4cd",
}


@pytest.mark.parametrize("name", list(PINNED_DIGESTS))
def test_scenario_digests_are_pinned(name, registry, slot_keys, nand_key, nand_sig):
    report = run_scenario(name, registry, slot_keys, nand_key, nand_sig)
    text = report.to_json() + report.event_log_text()
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DIGESTS[name]


def test_report_json_is_stable(machine, nand_key):
    report = run_boot(machine, serialize(honest_image(nand_key)))
    payload = report.to_json_dict()
    assert list(payload) == [
        "boot_source",
        "signature_verdict",
        "sections_loaded",
        "aborts",
        "exfiltrated",
        "reached_entry",
        "outcome",
        "locks_final",
    ]


def test_memory_region_table_matches_documented_rows():
    rows = {r.rid: r for r in bootsim.MEMORY_REGIONS}
    expected = {
        0: (0x20000000, 0x08000000),
        1: (0x10000000, 0x10000000),
        2: (0x08000000, 0x00100000),
        3: (0x08000000, 0x00000400),
        4: (0xFFF00000, 0x00004000),
        5: (0x07FF8000, 0x00008000),
        6: (0xFFFF0000, 0x00010000),
        7: (0x1FFFE000, 0x00000800),
    }
    for rid, (base, size) in expected.items():
        assert (rows[rid].base, rows[rid].size) == (base, size)
    # The simulator's own rows: the two boot ROMs and ARM11 work RAM.
    assert [rows[rid].base for rid in (8, 9, 10)] == [
        BOOT9_ROM_BASE, BOOT11_ROM_BASE, bootsim.ARM11_WRAM_BASE
    ]
    assert [rows[rid].rom for rid in (8, 9)] == [9, 11]
