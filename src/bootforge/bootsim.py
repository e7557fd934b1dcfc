"""Deterministic simulation of the two-processor secure boot and its defeat.

The machine models what the attack actually exercises: a physical
address space with the eight documented ARM9 rows plus simulated
boot-ROM and ARM11 work-RAM rows, write-once lock registers that
disable each ROM's protected half (and, by the same write, enable that
processor's FCRAM), a DMA engine programmed through a memory-mapped
register window, a data-abort vector, and two scripted processors.

The rows name the map; they do not each own memory.  Every RAM byte,
I/O registers included, lives in one paged store keyed by physical
address, so rows that overlap or alias name the same bytes.  The rows
merge into five mapped spans with unmapped gaps between them, and any
access either lies in one span or aborts at the span's end.

Processors are not instruction-level emulators.  Handler and hook
payloads are byte blobs carrying an 8-byte tag plus little-endian u32
fields; when a processor dereferences a function-pointer cell (or the
data-abort vector) that points at a tagged blob, the simulator runs the
corresponding built-in script.  "Overwrite a function pointer" therefore
means exactly that: write a blob's address into the cell, by any copy
path the machine allows.

Each processor's boot code after the section loads is a Python
generator, and every `yield` ends that processor's turn.  The scheduler
alternates turns, ARM9 first.  A processor that polls a shared flag
yields a waiting marker while the flag is clear; when two turns in a row
make no progress, nothing can ever change what the processors poll, so
the boot halts with a `watchdog` event instead of spinning.

Section loads drive the attack surface: a section whose destination is
the DMA register window is decoded as copy requests and executed
immediately (before the locks engage), a section whose destination is
unmapped (NULL included) raises a data abort through the current vector,
and destination blacklisting is a pluggable policy: the shipped flaw
blacklists only the boot-ROM data row, the hardened variant also
refuses I/O registers, the exception-vector page, and the ROMs.

A boot reaches its entry or ends early as a `BootOutcome`: FAILURE for a
checked error (blue screen), HALT for an unhandled abort or a stall
(black screen), SHUTDOWN when stage 2 powers off.  Every early end is
raised through `Machine._end`, which first logs the cause as one ARM9
event, so a failed boot's last event says why (`sig_rejected`,
`section_digest_mismatch` with the section index, `abort_unhandled` with
the vector, ...); an abort outside the section loads logs `data_abort`.

Everything is a pure function of the construction seed, the image bytes
and the declared inputs; event logs and reports are byte-reproducible.
All multi-byte values in simulated memory are little-endian.
"""

from __future__ import annotations

import itertools
import json
import struct
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from . import firm as firmmod
from .firm import CopyMethod, FirmImage, FirmParseError, SectionHeader
from .modmath import Console, KeyRegistry, SignatureType
from .prng import BLOCK_SIZE, derive_seed, stream_blocks
from .sigparser import ParseOutcome, ParserMode, StackModel, Verdict

__all__ = [
    "Region",
    "MEMORY_REGIONS",
    "BlacklistPolicy",
    "BootSource",
    "BootOutcome",
    "BootInputs",
    "NdmaRequest",
    "Event",
    "BootReport",
    "Machine",
    "select_boot_source",
    "check_blacklist",
    "run_boot",
    "run_exploit_chain",
    "run_ntr_install_scenario",
    "build_exploit_image",
    "NTR_BOOT_COMBO",
    "DUMP_COMBO",
]

# --- address-space constants -------------------------------------------

ROM_SIZE = 0x10000
PROTECTED_HALF = 0x8000
BOOT9_ROM_BASE = 0xFFFF0000            # shares the span of the blacklisted data row
BOOT11_ROM_BASE = 0x00010000
ARM11_WRAM_BASE = 0x1FF80000
ARM11_WRAM_SIZE = 0x80000

NDMA_WINDOW_BASE = 0x10002000
NDMA_WINDOW_SIZE = 0x100
NDMA_RECORD_SIZE = 0x10

VECTOR_PAGE_BASE = 0x07FF8000          # ARM9 vector page at the ITCM base
DATA_ABORT_VECTOR9 = VECTOR_PAGE_BASE + 0x10

BOOT9_FPTR_A = 0xFFF00020              # watched function-pointer cells (DTCM)
BOOT9_FPTR_B = 0xFFF00024
BOOT11_FPTR = ARM11_WRAM_BASE + 0x40   # watched cell in ARM11 work RAM
CROSS_FLAG = ARM11_WRAM_BASE + 0x44
SIG_11TO9 = ARM11_WRAM_BASE + 0x48
SIG_9TO11 = ARM11_WRAM_BASE + 0x4C
CHAIN_FLAG = ARM11_WRAM_BASE + 0x50

AXI_STAGING = ARM11_WRAM_BASE + 0x20000
ARM9_SAFE_AREA = 0x08001000
ARM9_SCRATCH = 0x08004000
EXFIL_BOOT11 = 0x08010000
EXFIL_BOOT9 = 0x08018000

NTR_BOOT_COMBO = frozenset({"START", "SELECT", "X"})
DUMP_COMBO = frozenset({"L", "R", "START"})  # simulator convention

SD_BOOT9_NAME = "boot9_protected.bin"
SD_BOOT11_NAME = "boot11_protected.bin"
SD_CHAIN_NAME = "boot.firm"

# Scripted-blob tags (8 bytes each).
TAG_ABORT_HANDLER = b"DABTHNDL"   # fields: hook_a_addr, hook_b_addr
TAG_HOOK1 = b"B9HOOK1\x00"        # fields: boot11_hook_addr
TAG_HOOK2 = b"B9HOOK2\x00"        # fields: staging, boot11_dst, boot9_dst
TAG_HOOK11 = b"B11HOOK\x00"       # fields: staging
TAG_STAGE2_ARM9 = b"STAGE2A9"     # fields: boot9_copy_addr, boot11_copy_addr
TAG_STAGE2_INSTALL = b"STAGE2IN"  # fields: nand_len, sd_len; then two payloads
TAG_STAGE2_ARM11 = b"STAGE211"    # no fields
# Largest payload an installer field may declare: one 4 MiB NAND FIRM
# partition.  A larger field ends the boot before anything is read.
INSTALL_FIELD_MAX = 0x400000
_BLOB_FIELDS = {
    TAG_ABORT_HANDLER: 2,
    TAG_HOOK1: 1,
    TAG_HOOK2: 3,
    TAG_HOOK11: 1,
    TAG_STAGE2_ARM9: 2,
    TAG_STAGE2_INSTALL: 2,
    TAG_STAGE2_ARM11: 0,
}


@dataclass(frozen=True)
class Region:
    rid: int
    base: int
    size: int
    rom: int = 0  # the processor whose boot ROM backs the row; 0 for RAM and I/O

    @property
    def end(self) -> int:
        return self.base + self.size

    def overlaps(self, addr: int, size: int) -> bool:
        return addr < self.end and addr + size > self.base


# The eight documented ARM9 rows (ids 0-7) plus the simulator-defined ROM
# and work-RAM rows.  Rows overlap: row 3 lies in row 2, row 6 is row 8
# (the blacklist names the boot-ROM data row by it), work RAM (rows 7 and
# 10) ends the I/O row 1.  A byte's backing depends only on its address,
# so overlapping rows name the same bytes.
MEMORY_REGIONS: tuple[Region, ...] = (
    Region(0, 0x20000000, 0x08000000),
    Region(1, 0x10000000, 0x10000000),
    Region(2, 0x08000000, 0x00100000),
    Region(3, 0x08000000, 0x00000400),
    Region(4, 0xFFF00000, 0x00004000),
    Region(5, 0x07FF8000, 0x00008000),
    Region(6, 0xFFFF0000, 0x00010000, rom=9),
    Region(7, 0x1FFFE000, 0x00000800),
    Region(8, BOOT9_ROM_BASE, ROM_SIZE, rom=9),
    Region(9, BOOT11_ROM_BASE, ROM_SIZE, rom=11),
    Region(10, ARM11_WRAM_BASE, ARM11_WRAM_SIZE),
)


def _merge_rows(rows: tuple[Region, ...]) -> tuple[tuple[int, int, int], ...]:
    """The mapped spans (base, end, rom): rows of one backing that touch or
    overlap, merged, in address order."""
    spans: list[list[int]] = []
    for row in sorted(rows, key=lambda row: row.base):
        if spans and row.base <= spans[-1][1] and row.rom == spans[-1][2]:
            spans[-1][1] = max(spans[-1][1], row.end)
        else:
            spans.append([row.base, row.end, row.rom])
    return tuple((base, end, rom) for base, end, rom in spans)


# boot11 ROM, ITCM + ARM9 RAM, I/O + work RAM + FCRAM, DTCM, boot9 ROM.
# Unmapped gaps separate them, so a range that leaves a span aborts.
_SPANS = _merge_rows(MEMORY_REGIONS)
_NDMA_WINDOW = Region(-1, NDMA_WINDOW_BASE, NDMA_WINDOW_SIZE)
# What the hardened policy also refuses: the vector page, both ROMs, and
# the I/O registers (row 1 below the work RAM that ends it).
_HARDENED_REFUSED = (
    Region(-1, VECTOR_PAGE_BASE, 0x1000),
    MEMORY_REGIONS[8],
    MEMORY_REGIONS[9],
    Region(-1, MEMORY_REGIONS[1].base, ARM11_WRAM_BASE - MEMORY_REGIONS[1].base),
)


class BlacklistPolicy(Enum):
    BOOT9_DATA_ONLY = "boot9only"
    HARDENED = "hardened"


class BootSource(Enum):
    NAND = "nand"
    NTR_CART = "ntrcart"


class BootOutcome(Enum):
    REACHED_ENTRY = "reached_entry"   # stock-success analog
    FAILURE = "failure"               # blue-screen analog (checked error)
    HALT = "halt"                     # black-screen analog (unhandled abort)
    SHUTDOWN = "shutdown"             # deliberate power-off from stage 2


@dataclass(frozen=True)
class BootInputs:
    keys_held: frozenset = frozenset()
    shell_closed: bool = False
    ntr_cart_present: bool = False
    magnet_applied: bool = False


@dataclass(frozen=True)
class NdmaRequest:
    src: int
    dst: int
    length: int
    trigger: int = 0  # 0 = immediate, the only modeled trigger

    def pack(self) -> bytes:
        return struct.pack("<IIII", self.src, self.dst, self.length, self.trigger)

    @classmethod
    def unpack(cls, data: bytes) -> "NdmaRequest":
        src, dst, length, trigger = struct.unpack("<IIII", data)
        return cls(src, dst, length, trigger)


class Event(NamedTuple):
    step: int
    proc: int
    kind: str
    addr: int = 0
    length: int = 0

    def line(self) -> str:
        return (
            f"step={self.step} proc={self.proc} event={self.kind} "
            f"addr={self.addr:#x} len={self.length:#x}"
        )


def select_boot_source(inputs: BootInputs) -> BootSource:
    """NTR cartridge iff shell closed (or faked by magnet), the boot key
    combination is held, and a cartridge is present; NAND otherwise."""
    shell_ok = inputs.shell_closed or inputs.magnet_applied
    if shell_ok and NTR_BOOT_COMBO <= inputs.keys_held and inputs.ntr_cart_present:
        return BootSource.NTR_CART
    return BootSource.NAND


def check_blacklist(dst: int, size: int, policy: BlacklistPolicy) -> bool:
    """True if a section load to [dst, dst+size) is allowed."""
    if size <= 0:
        return True
    if MEMORY_REGIONS[6].overlaps(dst, size):  # the boot-ROM data row
        return False
    if policy is BlacklistPolicy.BOOT9_DATA_ONLY:
        return True
    return not any(row.overlaps(dst, size) for row in _HARDENED_REFUSED)


class _DataAbort(Exception):
    def __init__(self, addr: int):
        super().__init__(f"data abort at {addr:#010x}")
        self.addr = addr


def _span(addr: int) -> tuple[int, int, int]:
    """The mapped span (base, end, rom) that holds `addr`; an unmapped address aborts."""
    for span in _SPANS:
        if span[0] <= addr < span[1]:
            return span
    raise _DataAbort(addr)


class _BootEnd(Exception):
    """The end of a boot before or instead of its entry; `outcome` is what
    the console shows.  `Machine._end` builds it after logging the cause."""

    def __init__(self, outcome: BootOutcome):
        super().__init__(outcome.value)
        self.outcome = outcome


_WAITING = object()  # what a script yields for a turn spent on a failed poll


_PAGE = 0x1000
_ZERO_PAGE = bytes(_PAGE)


def _page_range(offset: int, count: int) -> range:
    """The numbers of the pages [offset, offset+count) touches: none if it is empty."""
    if count <= 0:
        return range(0)
    return range(offset // _PAGE, (offset + count - 1) // _PAGE + 1)


class _PagedStore:
    """Sparse zero-initialized RAM made of immutable 4 KiB pages.

    `_pages` maps a page number to a `bytes` page.  An absent page reads
    as zeros, and a page exists once a nonzero byte lands on it.  A write
    replaces each page it touches with a new `bytes` object, so a stored
    page never changes: a copy can share a whole page by reference, and a
    snapshot of a range is only a dict of the page references in it.

    Costs: a read inside one page is one slice, and a whole aligned page
    reads as the page itself.  A write composes each page it touches
    once (`_put`), and whether it writes only zeros onto an absent page
    is decided by comparing with the shared zero page, which stops at
    the first nonzero byte.
    """

    def __init__(self, pages: Optional[dict[int, bytes]] = None) -> None:
        self._pages: dict[int, bytes] = {} if pages is None else pages

    def _page(self, page: int) -> bytes:
        return self._pages.get(page, _ZERO_PAGE)

    def _present(self, offset: int, count: int) -> list[int] | range:
        """The numbers of the stored pages that [offset, offset+count) touches."""
        pages = _page_range(offset, count)
        if len(pages) <= len(self._pages):
            return [page for page in pages if page in self._pages]
        return [page for page in self._pages if page in pages]

    def snapshot(self, offset: int, count: int) -> "_PagedStore":
        """A store that reads [offset, offset+count) as this one reads it
        now, whatever later writes do: the range's page references."""
        return _PagedStore({page: self._page(page) for page in self._present(offset, count)})

    def copy_from(self, offset: int, source: "_PagedStore", source_offset: int, count: int) -> None:
        """Write the `count` bytes that `source` reads at `source_offset`.

        `source` is another store, a snapshot when the ranges may share
        backing.  Only the pages stored on either side are visited, and
        each destination page is composed once, so the cost is one dict
        store per page present, not O(count).  When the shift is a
        multiple of the page size, each destination page reads one slice
        of one source page, and a whole one is the source page itself,
        stored by reference; an absent one over a stored page leaves the
        shared zero page there.
        """
        shift = offset - source_offset
        end = offset + count
        pages = _page_range(offset, count)
        touched = set(self._present(offset, count))
        for page in source._present(source_offset, count):
            # A source page lands on one destination page, or straddles two.
            lo = page * _PAGE + shift
            touched.update((lo // _PAGE, (lo + _PAGE - 1) // _PAGE))
        for page in sorted(touched):
            if page not in pages:
                continue
            base = page * _PAGE
            lo = max(base, offset)
            hi = min(base + _PAGE, end)
            self._put(page, lo - base, source.read(lo - shift, hi - lo))

    def read(self, offset: int, count: int) -> bytes:
        page, within = divmod(offset, _PAGE)
        if 0 < count <= _PAGE - within:
            return self._page(page)[within : within + count]  # a whole page is the page itself
        parts = []
        while count > 0:
            chunk = min(count, _PAGE - within)
            parts.append(self._page(page)[within : within + chunk])
            page += 1
            within = 0
            count -= chunk
        return b"".join(parts)

    def write(self, offset: int, data: bytes) -> None:
        pos = 0
        while pos < len(data):
            page, within = divmod(offset + pos, _PAGE)
            end = min(len(data), pos + _PAGE - within)
            self._put(page, within, data[pos:end])
            pos = end

    def _put(self, page: int, within: int, chunk: bytes) -> None:
        """Store `chunk` at byte `within` of `page`, which it must not leave."""
        old = self._pages.get(page)
        if old is None:
            if _ZERO_PAGE.startswith(chunk):
                return  # zeros onto an absent page change nothing
            old = _ZERO_PAGE
        # A whole page of `bytes` is stored as the very object given.
        self._pages[page] = old[:within] + chunk + old[within + len(chunk) :]


class _RomStore(_PagedStore):
    """Read-only boot ROM: the byte stream keyed by `seed`, derived a page
    at a time the first time a read or a snapshot touches that page."""

    _BLOCKS_PER_PAGE = _PAGE // BLOCK_SIZE

    def __init__(self, seed: bytes):
        super().__init__()
        self._seed = seed

    def _page(self, page: int) -> bytes:
        data = self._pages.get(page)
        if data is None:
            first = page * self._BLOCKS_PER_PAGE
            data = stream_blocks(self._seed, first, first + self._BLOCKS_PER_PAGE)
            self._pages[page] = data
        return data

    def _present(self, offset: int, count: int) -> range:
        return _page_range(offset, count)  # every ROM page has bytes

    def _put(self, page: int, within: int, chunk: bytes) -> None:
        raise RuntimeError("ROM store is not writable")


@dataclass
class BootReport:
    boot_source: BootSource
    signature_verdict: Optional[ParseOutcome]
    sections_loaded: list[int]
    aborts: list[tuple[int, bool]]
    exfiltrated: dict[str, bytes]
    reached_entry: bool
    outcome: BootOutcome
    locks_final: dict[str, bool]
    events: list[Event]

    def to_json_dict(self) -> dict:
        return {
            "boot_source": self.boot_source.value,
            "signature_verdict": (
                self.signature_verdict.to_json_dict() if self.signature_verdict else None
            ),
            "sections_loaded": list(self.sections_loaded),
            "aborts": [{"addr": f"{a:#x}", "handled": h} for a, h in self.aborts],
            "exfiltrated": {k: v.hex() for k, v in self.exfiltrated.items()},
            "reached_entry": self.reached_entry,
            "outcome": self.outcome.value,
            "locks_final": dict(self.locks_final),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def event_log_text(self) -> str:
        return "\n".join(event.line() for event in self.events) + "\n"


class Machine:
    """One simulated console.

    ROM contents and the verifier's stack junk are pseudorandom bytes
    derived from the construction seed.  Each ROM derives a 4 KiB page
    the first time a read touches it and keeps it for the machine's
    life, so a boot that never reads a ROM never pays for one.  All RAM,
    the I/O registers included, is one store, `ram`, of immutable pages
    keyed by physical address.  A physical copy (`copy_phys`, the DMA
    engine's records) moves page references: its cost grows with the
    pages stored in its source and destination ranges, not with its
    length, so a 128 MiB record over untouched RAM costs dict lookups,
    and a copy at a page-multiple shift, as the exploit copies each
    protected ROM half, stores one source page reference per whole page.
    Non-volatile stores (NAND, the cartridge slot, the SD card) and the
    ROMs persist across boots; everything else, RAM and the ROM locks
    included, is rebuilt by each boot.  The boot source is what the held
    inputs select (`select_boot_source`), and the verifying keys come
    from `registry`.
    """

    def __init__(
        self,
        seed: bytes | str,
        registry: KeyRegistry,
        console: Console = Console.RETAIL,
        policy: BlacklistPolicy = BlacklistPolicy.BOOT9_DATA_ONLY,
        workdir: Optional[Path] = None,
    ):
        self.seed = derive_seed(seed, "machine")
        self.registry = registry
        self.console = console
        self.policy = policy
        self.workdir = Path(workdir) if workdir else None

        self._roms = {
            proc: _RomStore(derive_seed(self.seed, f"boot{proc}-rom")) for proc in (9, 11)
        }

        self.inputs = BootInputs()
        self.nand_store: bytes = b""
        self.cart_store: bytes = b""
        self.sd_store: dict[str, bytes] = {}

        self.event_log: list[Event] = []
        self._step = 0
        self._reset_volatile()

    # -- machine lifecycle ------------------------------------------------

    def _reset_volatile(self) -> None:
        self.ram = _PagedStore()
        self.locked: set[int] = set()  # processors whose ROM lock has engaged
        self.aborts: list[tuple[int, bool]] = []
        self.exfiltrated: dict[str, bytes] = {}
        self.sections_loaded: list[int] = []
        self._hook_a_done = False

    @property
    def boot9_rom(self) -> bytes:
        return self._roms[9].read(0, ROM_SIZE)

    @property
    def boot11_rom(self) -> bytes:
        return self._roms[11].read(0, ROM_SIZE)

    @property
    def protected_boot9(self) -> bytes:
        return self._roms[9].read(PROTECTED_HALF, PROTECTED_HALF)

    @property
    def protected_boot11(self) -> bytes:
        return self._roms[11].read(PROTECTED_HALF, PROTECTED_HALF)

    def insert_cartridge(self, image_bytes: bytes) -> None:
        self.cart_store = bytes(image_bytes)

    def sync_workdir(self) -> None:
        if self.workdir is None:
            return
        self.workdir.mkdir(parents=True, exist_ok=True)
        if self.nand_store:
            (self.workdir / "nand.firm").write_bytes(self.nand_store)
        sd_dir = self.workdir / "sd"
        sd_dir.mkdir(exist_ok=True)
        for name, content in self.sd_store.items():
            (sd_dir / name).write_bytes(content)

    # -- event log and physical memory ------------------------------------

    def _log(self, proc: int, kind: str, addr: int = 0, length: int = 0) -> None:
        self._step += 1
        self.event_log.append(Event(self._step, proc, kind, addr, length))

    def _end(self, outcome: BootOutcome, kind: str, addr: int = 0, length: int = 0) -> _BootEnd:
        """Log ARM9 event `kind`, the cause, and return the `_BootEnd` that
        ends the boot with `outcome`, for the caller to raise."""
        self._log(9, kind, addr, length)
        return _BootEnd(outcome)

    def _source(self, addr: int, count: int, proc: int) -> tuple[_PagedStore, int]:
        """The store and offset that a read of [addr, addr+count) reads,
        with a locked ROM's protected half cut off as a snapshot and logged
        as a `lock_violation`.  A range that leaves its span then aborts at
        the span's end, before any byte is read."""
        base, end, rom = _span(addr)
        n = min(count, end - addr)
        store, offset = (self._roms[rom], addr - base) if rom else (self.ram, addr)
        if rom in self.locked and offset + n > PROTECTED_HALF:
            store = store.snapshot(offset, PROTECTED_HALF - offset)  # empty past the cut
            self._log(proc, "lock_violation", addr, n)
        if n < count:
            raise _DataAbort(end)
        return store, offset

    def _dest(self, addr: int, count: int, proc: int, write: Callable[[int], None]) -> None:
        """Write the part of [addr, addr+count) inside its span: `write(n)`
        stores its first n bytes in RAM at `addr`, and a ROM logs
        `rom_write_ignored` instead.  A range that leaves its span then
        aborts at the span's end."""
        base, end, rom = _span(addr)
        n = min(count, end - addr)
        if rom:
            self._log(proc, "rom_write_ignored", addr, n)
        else:
            write(n)
        if n < count:
            raise _DataAbort(end)

    def read_phys(self, addr: int, count: int, proc: int = 9) -> bytes:
        """Physical read; locked protected-ROM bytes read as zeros."""
        if count <= 0:
            return b""
        store, offset = self._source(addr, count, proc)
        return store.read(offset, count)

    def write_phys(self, addr: int, data: bytes, proc: int = 9) -> None:
        if data:
            self._dest(addr, len(data), proc, lambda n: self.ram.write(addr, data[:n]))

    def read_u32(self, addr: int) -> int:
        return int.from_bytes(self.read_phys(addr, 4), "little")

    def write_u32(self, addr: int, value: int, proc: int = 9) -> None:
        self.write_phys(addr, (value & 0xFFFFFFFF).to_bytes(4, "little"), proc)

    def _track_exfil(self, src: int, length: int) -> Optional[str]:
        for proc, rom_base in ((9, BOOT9_ROM_BASE), (11, BOOT11_ROM_BASE)):
            if proc in self.locked:
                continue
            lo = max(src, rom_base + PROTECTED_HALF)
            hi = min(src + length, rom_base + ROM_SIZE)
            if lo < hi:
                key = f"boot{proc}_protected"
                if hi - lo > len(self.exfiltrated.get(key, b"")):
                    self.exfiltrated[key] = self._roms[proc].read(lo - rom_base, hi - lo)
                return f"copy_protected{proc}"
        return None

    def copy_phys(self, src: int, dst: int, length: int, proc: int = 9) -> None:
        """Unchecked physical copy with memmove semantics; touching address 0 aborts.

        A `length` of zero or less ends the boot in FAILURE with the cause
        `copy_zero_length` before any page is touched.  Only direct callers
        reach it: a boot's NDMA records reject a zero length as
        `ndma_malformed` first, and its hooks copy whole protected halves.

        The source is read first, as a snapshot of its page references, so
        a source that leaves its span aborts before anything is written.
        The destination's part inside its span is then written, and a
        destination that leaves its span aborts at the span's end.  Only
        pages stored in the source or the destination range are touched.
        """
        if length <= 0:
            raise self._end(BootOutcome.FAILURE, "copy_zero_length", dst, length)
        if src <= 0 < src + length or dst <= 0 < dst + length:
            raise _DataAbort(0)
        store, offset = self._source(src, length, proc)
        snapshot = store.snapshot(offset, length)
        kind = self._track_exfil(src, length) or "copy"
        self._dest(dst, length, proc, lambda n: self.ram.copy_from(dst, snapshot, offset, n))
        self._log(proc, kind, dst, length)

    # -- lock registers ----------------------------------------------------

    def engage_lock(self, proc: int) -> None:
        """Write-once: lock the ROM's protected half and enable FCRAM."""
        if proc in self.locked:
            self._log(proc, "lock_write_ignored")
            return
        self.locked.add(proc)
        self._log(proc, f"lock_boot{proc}")

    # -- section loading and the DMA window ---------------------------------

    def _run_ndma_program(self, dst: int, payload: bytes) -> None:
        if (
            dst + len(payload) > NDMA_WINDOW_BASE + NDMA_WINDOW_SIZE
            or len(payload) % NDMA_RECORD_SIZE
        ):
            raise self._end(BootOutcome.FAILURE, "ndma_malformed", dst, len(payload))
        self._log(9, "ndma_program", dst, len(payload))
        for pos in range(0, len(payload), NDMA_RECORD_SIZE):
            request = NdmaRequest.unpack(payload[pos : pos + NDMA_RECORD_SIZE])
            if (
                request.trigger != 0
                or request.length == 0
                or max(request.src, request.dst) + request.length > 1 << 32
            ):
                raise self._end(BootOutcome.FAILURE, "ndma_malformed", dst + pos, NDMA_RECORD_SIZE)
            self.copy_phys(request.src, request.dst, request.length)

    def load_section(self, section: SectionHeader, payload: bytes) -> None:
        """Copy one firmware section to its physical address, as ARM9 code.

        Ends the boot on a blacklist refusal and raises _DataAbort when
        the copy touches NULL or unmapped space; callers route aborts
        through the data-abort vector.
        """
        dst = section.phys_addr
        if not check_blacklist(dst, section.size, self.policy):
            raise self._end(BootOutcome.FAILURE, "blacklist_reject", dst, section.size)
        if _NDMA_WINDOW.overlaps(dst, section.size):
            self._run_ndma_program(dst, payload)
            return
        self.write_phys(dst, payload)
        self._log(9, "copy", dst, section.size)

    # -- scripted blobs ------------------------------------------------------

    def _read_blob(self, addr: int) -> tuple[bytes, list[int]]:
        try:
            tag = self.read_phys(addr, 8)
            count = _BLOB_FIELDS.get(tag)
            if count is None:
                return tag, []
            fields = [self.read_u32(addr + 8 + 4 * i) for i in range(count)]
        except _DataAbort:
            return b"", []
        return tag, fields

    def _dispatch_abort(self, fault_addr: int) -> None:
        """Route an ARM9 data abort through the current vector."""
        self._log(9, "data_abort", fault_addr)
        vector = self.read_u32(DATA_ABORT_VECTOR9)
        tag, fields = self._read_blob(vector)
        self.aborts.append((fault_addr, tag == TAG_ABORT_HANDLER))
        if tag != TAG_ABORT_HANDLER:  # NULL, unmapped or garbage
            raise self._end(BootOutcome.HALT, "abort_unhandled", vector)
        hook_a, hook_b = fields
        self.write_u32(BOOT9_FPTR_A, hook_a)
        self.write_u32(BOOT9_FPTR_B, hook_b)
        self._log(9, "hook_install", BOOT9_FPTR_A, 8)
        self._log(9, "abort_handled_skip_copy", fault_addr)

    # -- the processors' scripts ----------------------------------------------
    #
    # Each script is a generator; every `yield` ends that processor's turn.
    # One step of boot code (a copy, a flag write, a logged milestone) costs
    # one turn.  A wait costs a turn per failed poll, yielding _WAITING, plus
    # one turn for the poll that passes.

    def _wait(self, ready):
        while not ready():
            yield _WAITING
        yield

    def _call_hook(self, proc: int, cell: int, mark: bool = False):
        """Dereference a function-pointer cell and run the blob it points at.

        Returns True when the hook diverts the processor past its lock.
        `mark` records that ARM9's first hook is done, which releases ARM11.
        """
        target = self.read_u32(cell)
        tag, fields = self._read_blob(target)
        if tag == TAG_HOOK1:
            self._log(proc, "hook1_run", target)
            yield
            self.write_u32(BOOT11_FPTR, fields[0], proc)
            yield
            self._log(proc, "hook_install", BOOT11_FPTR, 4)
            yield
            self._log(proc, "mpu_setup")
            yield
            self.write_u32(CROSS_FLAG, 1, proc)
            yield
            self._log(proc, "flag_set", CROSS_FLAG, 4)
            yield
            if mark:
                self._hook_a_done = True
                yield
            return False
        self._hook_a_done |= mark  # any other target marks within this turn
        if tag == TAG_HOOK2:
            staging, boot11_dst, boot9_dst = fields
            self._log(proc, "hook2_run", target)
            yield
            yield from self._wait(lambda: self.read_u32(SIG_11TO9))
            self.copy_phys(staging, boot11_dst, PROTECTED_HALF, proc)
            yield
            self.write_u32(SIG_9TO11, 1, proc)
            yield
            self._log(proc, "signal", SIG_9TO11, 4)
            yield
            self.copy_phys(BOOT9_ROM_BASE + PROTECTED_HALF, boot9_dst, PROTECTED_HALF, proc)
            yield
            yield  # the jump back into boot code, past the lock
            return True
        if tag == TAG_HOOK11:
            staging = fields[0]
            self._log(proc, "hook11_run", target)
            yield
            self.copy_phys(BOOT11_ROM_BASE + PROTECTED_HALF, staging, PROTECTED_HALF, proc)
            yield
            self.write_u32(SIG_11TO9, 1, proc)
            yield
            self._log(proc, "signal", SIG_11TO9, 4)
            yield
            yield from self._wait(lambda: self.read_u32(SIG_9TO11))
            yield  # the jump back into boot code, past the lock
            return True
        if target:
            self._log(proc, "bad_hook", target)
        yield
        return False

    def _arm9_script(self, entry: int):
        diverted = yield from self._call_hook(9, BOOT9_FPTR_A, mark=True)
        diverted |= yield from self._call_hook(9, BOOT9_FPTR_B)
        if not diverted:
            self.engage_lock(9)
        yield
        tag, fields = self._read_blob(entry)
        self._log(9, "entry", entry)
        yield
        if tag == TAG_STAGE2_ARM9 and DUMP_COMBO <= self.inputs.keys_held:
            for name, src in zip((SD_BOOT9_NAME, SD_BOOT11_NAME), fields):
                self.sd_store[name] = self.read_phys(src, PROTECTED_HALF, 9)
                self._log(9, "sd_write", src, PROTECTED_HALF)
            yield
            raise self._end(BootOutcome.SHUTDOWN, "power_off")
        elif tag == TAG_STAGE2_ARM9:
            yield from self._load_chain()
        elif tag == TAG_STAGE2_INSTALL:
            nand_len, sd_len = fields
            if max(nand_len, sd_len) > INSTALL_FIELD_MAX:
                raise self._end(
                    BootOutcome.FAILURE, "install_malformed", entry, max(nand_len, sd_len)
                )
            payload_base = entry + 8 + 8
            # Both reads come first: an abort in either leaves NAND untouched.
            nand_bytes = self.read_phys(payload_base, nand_len, 9)
            sd_bytes = self.read_phys(payload_base + nand_len, sd_len, 9)
            self.nand_store = nand_bytes
            self.sd_store[SD_CHAIN_NAME] = sd_bytes
            self._log(9, "nand_install", 0, nand_len)
            self._log(9, "sd_write", 0, sd_len)
            yield
            raise self._end(BootOutcome.SHUTDOWN, "power_off")

    def _load_chain(self):
        content = self.sd_store.get(SD_CHAIN_NAME)
        if content is None:
            raise self._end(BootOutcome.FAILURE, "chain_missing")
        try:
            second = firmmod.parse(content)
        except FirmParseError as exc:
            raise self._end(BootOutcome.FAILURE, "chain_parse_error") from exc
        self._log(9, "chain_load", 0, len(content))
        for sec, payload in zip(second.sections, second.payloads):
            if sec.used:
                self.write_phys(sec.phys_addr, payload, 9)
                self._log(9, "copy", sec.phys_addr, sec.size)
        yield
        self.write_u32(CHAIN_FLAG, 1, 9)
        yield
        self.engage_lock(9)
        yield
        yield from self._wait(lambda: 11 in self.locked)
        self._log(9, "entry", second.arm9_entry)
        yield

    def _arm11_script(self, entry: int):
        yield from self._wait(lambda: self._hook_a_done)
        diverted = yield from self._call_hook(11, BOOT11_FPTR)
        if not diverted:
            self.engage_lock(11)
        yield
        tag, _ = self._read_blob(entry)
        if tag != TAG_STAGE2_ARM11:
            self._log(11, "entry", entry)
            yield
            return
        yield
        yield from self._wait(lambda: self.read_u32(CHAIN_FLAG))
        self.engage_lock(11)
        yield
        self._log(11, "entry", entry)
        yield

    def _run_scheduler(self, arm9, arm11) -> None:
        """Run the two scripts in strict alternation, ARM9 first.

        A finished script's turn is skipped.  Every turn that waits or is
        skipped makes no progress, and nothing but progress changes what a
        wait polls; so once two turns in a row make none, every live script
        waits forever.  That stall logs `watchdog` and halts the boot.
        """
        scripts = [arm9, arm11]
        idle = 0
        for cpu in itertools.cycle((0, 1)):
            if not any(scripts):
                return
            if idle == 2:
                raise self._end(BootOutcome.HALT, "watchdog")
            idle += 1
            if scripts[cpu] is None:
                continue
            try:
                if next(scripts[cpu]) is not _WAITING:
                    idle = 0
            except StopIteration:
                scripts[cpu] = None

    def _execute_boot(self, mode: ParserMode) -> BootReport:
        first_event = len(self.event_log)
        verdict: Optional[ParseOutcome] = None
        outcome = BootOutcome.FAILURE
        source = select_boot_source(self.inputs)

        try:
            self._log(9, "init_keyslots")
            self._log(9, "init_rsa_slots")
            self._log(9, f"boot_source_{source.value}")
            raw = self.cart_store if source is BootSource.NTR_CART else self.nand_store
            if len(raw) < firmmod.HEADER_LENGTH:
                raise self._end(BootOutcome.FAILURE, "header_read_failed", 0, len(raw))
            self._log(9, "header_read", 0, firmmod.HEADER_LENGTH)
            try:
                image = firmmod.parse(raw)
            except FirmParseError as exc:
                raise self._end(BootOutcome.FAILURE, "image_parse_error", exc.offset) from exc

            sig_type = (
                SignatureType.NAND_BOOT
                if source is BootSource.NAND
                else SignatureType.NON_NAND_BOOT
            )
            pub = self.registry.get(self.console, sig_type)
            stack = StackModel.boot9(
                self.registry.block_length(self.console, sig_type),
                seed=derive_seed(self.seed, "boot9-stack"),
            )
            validation = firmmod.validate_firm(image, pub, mode, stack)
            verdict = validation.signature_outcome
            self._log(9, "sig_verdict", length=0)
            if verdict.verdict is Verdict.OUT_OF_BOUNDS:
                # The parser dereferenced unmodeled stack: an abort inside
                # the verifier itself, before any handler could exist.
                landing = verdict.landing_offset or 0
                self.aborts.append((landing, False))
                raise self._end(BootOutcome.HALT, "sig_out_of_bounds", landing)
            if not verdict.is_accept:
                raise self._end(BootOutcome.FAILURE, "sig_rejected")
            if not validation.accepted:
                raise self._end(
                    BootOutcome.FAILURE, "section_digest_mismatch", validation.first_bad_section
                )

            for idx, (section, payload) in enumerate(zip(image.sections, image.payloads)):
                if not section.used:
                    continue
                try:
                    self.load_section(section, payload)
                except _DataAbort as abort:
                    self._dispatch_abort(abort.addr)
                    continue
                self.sections_loaded.append(idx)

            self._run_scheduler(
                self._arm9_script(image.arm9_entry), self._arm11_script(image.arm11_entry)
            )
            outcome = BootOutcome.REACHED_ENTRY
        except _BootEnd as end:
            outcome = end.outcome
        except _DataAbort as abort:
            self.aborts.append((abort.addr, False))
            self._log(9, "data_abort", abort.addr)
            outcome = BootOutcome.HALT

        report = BootReport(
            boot_source=source,
            signature_verdict=verdict,
            sections_loaded=list(self.sections_loaded),
            aborts=list(self.aborts),
            exfiltrated=dict(self.exfiltrated),
            # Only stage 2, entered past ARM9's jump, powers off.
            reached_entry=outcome in (BootOutcome.REACHED_ENTRY, BootOutcome.SHUTDOWN),
            outcome=outcome,
            locks_final={
                f"{name}{proc}_{state}": proc in self.locked
                for name, state in (("boot", "locked"), ("fcram", "enabled"))
                for proc in (9, 11)
            },
            events=self.event_log[first_event:],
        )
        self.sync_workdir()
        return report


# --- module-level operations ------------------------------------------


def run_boot(
    machine: Machine,
    image_bytes: Optional[bytes] = None,
    mode: ParserMode = ParserMode.FLAWED,
) -> BootReport:
    """One full boot: source selection, verification, loads, locks, entry.

    When `image_bytes` is given it is staged onto whichever source the
    held inputs select; otherwise the boot reads what the machine's
    stores already hold.  `mode` picks the signature parser: the boot
    ROM's flawed walk by default, `ParserMode.STRICT` for the fixed one.
    """
    machine._reset_volatile()
    if image_bytes is not None:
        if select_boot_source(machine.inputs) is BootSource.NTR_CART:
            machine.cart_store = bytes(image_bytes)
        else:
            machine.nand_store = bytes(image_bytes)
    return machine._execute_boot(mode)


def _image_bytes(image: FirmImage | bytes) -> bytes:
    return firmmod.serialize(image) if isinstance(image, FirmImage) else bytes(image)


def run_exploit_chain(
    machine: Machine,
    staged_image: FirmImage | bytes,
    second_image: Optional[FirmImage | bytes] = None,
    keys_held: frozenset = frozenset(),
) -> BootReport:
    """Boot the four-section staged image and run its second stage.

    With the dump combination held, stage 2 writes both protected halves
    to the SD store and powers off; otherwise it chain-loads the second
    image from SD, engages the locks (enabling FCRAM), and continues.
    """
    if second_image is not None:
        machine.sd_store[SD_CHAIN_NAME] = _image_bytes(second_image)
    machine.inputs = replace(machine.inputs, keys_held=frozenset(keys_held))
    return run_boot(machine, _image_bytes(staged_image))


def run_ntr_install_scenario(
    machine: Machine, flashcart_image: FirmImage | bytes
) -> BootReport:
    """Boot an installer from a DS-mode cartridge, then boot from NAND.

    Returns the follow-up NAND boot's report on success, or the failed
    cartridge boot's report when the cartridge image is rejected.
    """
    machine.insert_cartridge(_image_bytes(flashcart_image))
    machine.inputs = BootInputs(
        keys_held=NTR_BOOT_COMBO,
        shell_closed=True,
        ntr_cart_present=True,
    )
    first = run_boot(machine)
    installed = any(e.kind == "nand_install" for e in first.events)
    if not installed:
        return first
    machine.inputs = BootInputs()
    return run_boot(machine)


# --- staged-image construction ------------------------------------------


def _blob(tag: bytes, *fields: int, payload: bytes = b"") -> bytes:
    assert len(tag) == 8
    return tag + b"".join(struct.pack("<I", f) for f in fields) + payload


def build_exploit_image(
    signature: bytes,
    stage2: str = "dump-or-chain",
    install_nand_image: Optional[bytes] = None,
    install_sd_image: Optional[bytes] = None,
) -> FirmImage:
    """Assemble the four-section staged image and fakesign it.

    Section 0: the ARM11 hook and ARM11 stage-2 blobs, to AXI work RAM.
    Section 1: the abort handler, both ARM9 hooks and ARM9 stage 2, to a
    safe spot in ARM9 memory.  Section 2: one DMA request copying the
    handler's address over the data-abort vector, to the DMA window.
    Section 3: junk loaded to NULL to fire the abort.

    `stage2="install"` swaps the ARM9 stage 2 for the installer variant,
    which carries the NAND image and the SD second-stage image inline;
    a ValueError if they would run section 1 past the end of ARM9 RAM.
    """
    sec0_base = ARM11_WRAM_BASE + 0x100
    hook11_addr = sec0_base
    stage2_11_addr = sec0_base + 0x40
    section0 = bytearray(0x80)
    section0[0:0x40] = _blob(TAG_HOOK11, AXI_STAGING).ljust(0x40, b"\x00")
    section0[0x40:0x80] = _blob(TAG_STAGE2_ARM11).ljust(0x40, b"\x00")

    sec1_base = ARM9_SAFE_AREA
    handler_addr = sec1_base
    hook_a_addr = sec1_base + 0x40
    hook_b_addr = sec1_base + 0x80
    stage2_addr = sec1_base + 0xC0
    vector_value_addr = sec1_base + 0x30  # the u32 the DMA request installs
    section1 = bytearray(0xC0)
    section1[0x00:0x30] = _blob(TAG_ABORT_HANDLER, hook_a_addr, hook_b_addr).ljust(0x30, b"\x00")
    section1[0x30:0x34] = struct.pack("<I", handler_addr)
    section1[0x40:0x80] = _blob(TAG_HOOK1, hook11_addr).ljust(0x40, b"\x00")
    section1[0x80:0xC0] = _blob(
        TAG_HOOK2, AXI_STAGING, EXFIL_BOOT11, EXFIL_BOOT9
    ).ljust(0x40, b"\x00")
    if stage2 == "install":
        if install_nand_image is None or install_sd_image is None:
            raise ValueError("installer stage 2 needs both images to carry")
        section1 += _blob(
            TAG_STAGE2_INSTALL,
            len(install_nand_image),
            len(install_sd_image),
            payload=install_nand_image + install_sd_image,
        )
        if sec1_base + len(section1) > MEMORY_REGIONS[2].end:
            raise ValueError("installer payloads run past the end of ARM9 RAM")
    elif stage2 == "dump-or-chain":
        section1 += _blob(TAG_STAGE2_ARM9, EXFIL_BOOT9, EXFIL_BOOT11).ljust(0x40, b"\x00")
    else:
        raise ValueError(f"unknown stage-2 variant {stage2!r}")

    section2 = NdmaRequest(
        src=vector_value_addr, dst=DATA_ABORT_VECTOR9, length=4
    ).pack()
    section3 = b"\xde\xad\xfa\x11" * 4

    image = firmmod.build_firm(
        [
            (sec0_base, CopyMethod.CPU_MEMCPY, bytes(section0)),
            (sec1_base, CopyMethod.CPU_MEMCPY, bytes(section1)),
            (NDMA_WINDOW_BASE, CopyMethod.NDMA, section2),
            (0x00000000, CopyMethod.CPU_MEMCPY, section3),
        ],
        arm9_entry=stage2_addr,
        arm11_entry=stage2_11_addr,
    )
    return firmmod.fakesign_firm(image, signature)
