"""Virtual memory: page tables and address spaces.

Each domain gets an :class:`AddressSpace`. Xen-style, the hypervisor's own
mappings live in a :class:`PageTable` that is *shared* into every address
space above ``HYPERVISOR_BASE`` — that is exactly the property TwinDrivers
exploits: hypervisor code, its stack, the stlb table and the SVM-created
mappings of dom0 pages are visible from any guest context, so the
hypervisor driver instance runs without an address-space switch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .memory import OFFSET_MASK, PAGE_SHIFT, PAGE_SIZE, PhysicalMemory

#: Virtual addresses at or above this are hypervisor territory (mirrors
#: Xen living in the top of every address space).
HYPERVISOR_BASE = 0xF0000000


class PageFault(Exception):
    """Translation of an unmapped virtual address."""

    def __init__(self, vaddr: int, write: bool, space: str):
        kind = "write" if write else "read"
        super().__init__(
            f"page fault: {kind} of {vaddr:#010x} in address space {space}"
        )
        self.vaddr = vaddr
        self.write = write
        self.space = space


class ProtectionFault(Exception):
    """Write to a read-only mapping."""

    def __init__(self, vaddr: int, space: str):
        super().__init__(
            f"protection fault: write to read-only {vaddr:#010x} in {space}"
        )
        self.vaddr = vaddr


class PageTable:
    """vpage -> (frame, writable). Aliasing is allowed: several virtual
    pages may map the same frame (SVM relies on this)."""

    def __init__(self):
        self.entries: Dict[int, Tuple[int, bool]] = {}
        #: address spaces translating through this table (the hypervisor
        #: table is shared by all of them); every mapping change drops
        #: the page from their caches.
        self.spaces: List["AddressSpace"] = []

    def map(self, vpage: int, frame: int, writable: bool = True):
        self.entries[vpage] = (frame, writable)
        self._invalidate(vpage)

    def unmap(self, vpage: int):
        self.entries.pop(vpage, None)
        self._invalidate(vpage)

    def _invalidate(self, vpage: int):
        for space in self.spaces:
            # write_pages only ever holds pages read_pages holds too
            if vpage in space.read_pages:
                del space.read_pages[vpage]
                space.write_pages.pop(vpage, None)

    def lookup(self, vpage: int) -> Optional[Tuple[int, bool]]:
        return self.entries.get(vpage)

    def __len__(self):
        return len(self.entries)


class AddressSpace:
    """A domain's virtual address space, with the hypervisor region shared.

    ``hypervisor_table`` (if given) services translations at or above
    ``HYPERVISOR_BASE``; per-domain mappings may not be created there.

    ``read_pages``/``write_pages`` cache ``vpage -> frame bytes`` for the
    CPU's RAM fast path (DESIGN.md §12). They are only ever cleared in
    place, never rebound, so a superblock may hold on to them.
    """

    def __init__(self, name: str, phys: PhysicalMemory,
                 hypervisor_table: Optional[PageTable] = None):
        self.name = name
        self.phys = phys
        self.table = PageTable()
        self.hypervisor_table = hypervisor_table
        self.read_pages: Dict[int, bytearray] = {}
        self.write_pages: Dict[int, bytearray] = {}
        self.table.spaces.append(self)
        if hypervisor_table is not None:
            hypervisor_table.spaces.append(self)
        phys.spaces.append(self)

    # -- mapping -------------------------------------------------------------

    def map_page(self, vaddr: int, frame: int, writable: bool = True):
        if vaddr & OFFSET_MASK:
            raise ValueError("vaddr must be page aligned")
        if vaddr >= HYPERVISOR_BASE and self.hypervisor_table is not None:
            raise ValueError(
                "domain mappings may not shadow the hypervisor region"
            )
        self.table.map(vaddr >> PAGE_SHIFT, frame, writable)

    def unmap_page(self, vaddr: int):
        self.table.unmap(vaddr >> PAGE_SHIFT)

    def map_new_pages(self, vaddr: int, n: int, writable: bool = True):
        """Allocate ``n`` fresh frames and map them at ``vaddr``."""
        for i in range(n):
            frame = self.phys.allocate_frame()
            self.map_page(vaddr + i * PAGE_SIZE, frame, writable)

    def is_mapped(self, vaddr: int) -> bool:
        try:
            self.translate(vaddr)
            return True
        except PageFault:
            return False

    # -- translation -----------------------------------------------------------

    def translate(self, vaddr: int, write: bool = False) -> int:
        vaddr &= 0xFFFFFFFF
        vpage = vaddr >> PAGE_SHIFT
        entry = None
        if vaddr >= HYPERVISOR_BASE and self.hypervisor_table is not None:
            entry = self.hypervisor_table.lookup(vpage)
        if entry is None:
            entry = self.table.lookup(vpage)
        if entry is None:
            raise PageFault(vaddr, write, self.name)
        frame, writable = entry
        if write and not writable:
            raise ProtectionFault(vaddr, self.name)
        return (frame << PAGE_SHIFT) | (vaddr & OFFSET_MASK)

    # -- page cache ----------------------------------------------------------------

    def cache_page(self, vaddr: int, paddr: int,
                   write: bool) -> Optional[bytearray]:
        """Cache the frame behind a translation of ``vaddr`` to ``paddr``
        that just succeeded (``write``: it was checked for writing).
        Returns the frame's bytes, or None for frames that must not be
        cached: unallocated ones and those sharing a page with MMIO."""
        data = self.phys.ram_frame(paddr >> PAGE_SHIFT)
        if data is not None:
            vpage = vaddr >> PAGE_SHIFT
            self.read_pages[vpage] = data
            if write:
                self.write_pages[vpage] = data
        return data

    # -- convenience memory access (Python-side kernel code) ---------------------
    #
    # Served from the page cache like the CPU's accesses; a miss
    # translates (raising the same faults) and fills the cache, while
    # MMIO and unallocated frames keep taking the ``phys`` path.

    def read(self, vaddr: int, size: int) -> int:
        vaddr &= 0xFFFFFFFF
        offset = vaddr & OFFSET_MASK
        if offset + size > PAGE_SIZE:
            return int.from_bytes(self.read_bytes(vaddr, size), "little")
        data = self.read_pages.get(vaddr >> PAGE_SHIFT)
        if data is None:
            paddr = self.translate(vaddr)
            data = self.cache_page(vaddr, paddr, False)
            if data is None:
                return self.phys.read(paddr, size)
        return int.from_bytes(data[offset: offset + size], "little")

    def write(self, vaddr: int, size: int, value: int):
        vaddr &= 0xFFFFFFFF
        offset = vaddr & OFFSET_MASK
        raw = (value & ((1 << (size * 8)) - 1)).to_bytes(size, "little")
        if offset + size > PAGE_SIZE:
            self.write_bytes(vaddr, raw)
            return
        data = self.write_pages.get(vaddr >> PAGE_SHIFT)
        if data is None:
            paddr = self.translate(vaddr, write=True)
            data = self.cache_page(vaddr, paddr, True)
            if data is None:
                self.phys.write(paddr, size, value)
                return
        data[offset: offset + size] = raw

    def read_u32(self, vaddr: int) -> int:
        return self.read(vaddr, 4)

    def write_u32(self, vaddr: int, value: int):
        self.write(vaddr, 4, value)

    def read_bytes(self, vaddr: int, n: int) -> bytes:
        out = bytearray()
        while n > 0:
            vaddr &= 0xFFFFFFFF
            offset = vaddr & OFFSET_MASK
            chunk = min(n, PAGE_SIZE - offset)
            data = self.read_pages.get(vaddr >> PAGE_SHIFT)
            if data is None:
                paddr = self.translate(vaddr)
                data = self.cache_page(vaddr, paddr, False)
            if data is None:
                out += self.phys.read_bytes(paddr, chunk)
            else:
                out += data[offset: offset + chunk]
            vaddr += chunk
            n -= chunk
        return bytes(out)

    def write_bytes(self, vaddr: int, payload: bytes):
        pos = 0
        while pos < len(payload):
            vaddr &= 0xFFFFFFFF
            offset = vaddr & OFFSET_MASK
            chunk = min(len(payload) - pos, PAGE_SIZE - offset)
            data = self.write_pages.get(vaddr >> PAGE_SHIFT)
            if data is None:
                paddr = self.translate(vaddr, write=True)
                data = self.cache_page(vaddr, paddr, True)
            if data is None:
                self.phys.write_bytes(paddr, payload[pos: pos + chunk])
            else:
                data[offset: offset + chunk] = payload[pos: pos + chunk]
            vaddr += chunk
            pos += chunk
