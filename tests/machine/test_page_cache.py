"""The per-address-space page cache behind ``Cpu.read_mem``/``write_mem``
and the Python-side ``AddressSpace.read``/``write``/``read_bytes``/
``write_bytes``.

Every case first fills the cache, then changes the world underneath it
(unmap, remap, MMIO, a shared hypervisor mapping, an address-space
switch) and checks that the next access behaves exactly as an uncached
translation would (DESIGN.md §12).
"""

import pytest

from repro.machine import (
    AddressSpace,
    BusError,
    HYPERVISOR_BASE,
    Machine,
    PAGE_SIZE,
    PageFault,
    ProtectionFault,
)

DATA = 0xC0000000
VPAGE = DATA >> 12
HYP = HYPERVISOR_BASE + 0x00400000


class FakeDevice:
    def __init__(self):
        self.reads = []
        self.writes = []

    def mmio_read(self, offset, size):
        self.reads.append((offset, size))
        return 0xAB

    def mmio_write(self, offset, size, value):
        self.writes.append((offset, size, value))


def make(writable=True):
    m = Machine()
    space = AddressSpace("a", m.phys, m.hypervisor_table)
    frame = m.phys.allocate_frame()
    space.map_page(DATA, frame, writable)
    m.cpu.address_space = space
    return m, space, frame


def fill(m, vaddr=DATA):
    """Cache ``vaddr``'s page for reads and writes through the CPU."""
    m.cpu.write_mem(vaddr, 4, 0x11223344)
    assert m.cpu.read_mem(vaddr, 4) == 0x11223344
    space = m.cpu.address_space
    assert vaddr >> 12 in space.read_pages
    assert vaddr >> 12 in space.write_pages


def spent(m, fn):
    before = m.account.total
    fn()
    return m.account.total - before


class TestInvalidation:
    def test_unmap_faults(self):
        m, space, _ = make()
        fill(m)
        space.unmap_page(DATA)
        with pytest.raises(PageFault):
            m.cpu.read_mem(DATA, 4)
        with pytest.raises(PageFault):
            m.cpu.write_mem(DATA, 4, 1)

    def test_remap_reads_new_frame(self):
        m, space, old = make()
        fill(m)
        new = m.phys.allocate_frame()
        m.phys.write(new << 12, 4, 0xCAFEF00D)
        space.map_page(DATA, new)
        assert m.cpu.read_mem(DATA, 4) == 0xCAFEF00D
        m.cpu.write_mem(DATA + 4, 4, 7)
        assert m.phys.read((new << 12) + 4, 4) == 7
        assert m.phys.read((old << 12) + 4, 4) == 0
        assert m.phys.read(old << 12, 4) == 0x11223344

    def test_read_only_page_cached_for_reads_still_faults_on_write(self):
        m, space, frame = make(writable=False)
        m.phys.write(frame << 12, 4, 5)
        assert m.cpu.read_mem(DATA, 4) == 5
        assert VPAGE in space.read_pages
        for _ in range(2):
            with pytest.raises(ProtectionFault):
                m.cpu.write_mem(DATA, 4, 9)
        assert VPAGE not in space.write_pages
        assert m.phys.read(frame << 12, 4) == 5

    def test_mmio_region_over_cached_frame_dispatches(self):
        m, space, frame = make()
        fill(m)
        dev = FakeDevice()
        m.phys.add_mmio_region(frame << 12, 0x100, dev)
        mem_cost = spent(m, lambda: m.cpu.read_mem(DATA + 0x800, 4))
        assert mem_cost == m.cpu.costs.mem
        assert spent(m, lambda: m.cpu.read_mem(DATA, 4)) == m.cpu.costs.mmio
        m.cpu.write_mem(DATA + 8, 4, 0x1234)
        assert dev.reads == [(0, 4)]
        assert dev.writes == [(8, 4, 0x1234)]
        # the RAM half of the page is still reachable, never cached
        assert m.cpu.read_mem(DATA + 0x800, 4) == 0
        assert VPAGE not in space.read_pages
        assert VPAGE not in space.write_pages

    def test_hypervisor_table_change_reaches_every_sharing_space(self):
        m = Machine()
        spaces = [AddressSpace(name, m.phys, m.hypervisor_table)
                  for name in ("a", "b")]
        first, second = m.phys.allocate_frames(2)
        m.phys.write(first << 12, 4, 1)
        m.phys.write(second << 12, 4, 2)
        m.hypervisor_table.map(HYP >> 12, first)
        for space in spaces:
            m.cpu.address_space = space
            assert m.cpu.read_mem(HYP, 4) == 1
            m.cpu.write_mem(HYP + 4, 4, 3)
            assert HYP >> 12 in space.write_pages
        m.hypervisor_table.map(HYP >> 12, second)
        for space in spaces:
            m.cpu.address_space = space
            assert m.cpu.read_mem(HYP, 4) == 2
        m.hypervisor_table.unmap(HYP >> 12)
        for space in spaces:
            m.cpu.address_space = space
            with pytest.raises(PageFault):
                m.cpu.read_mem(HYP, 4)
            with pytest.raises(PageFault):
                m.cpu.write_mem(HYP, 4, 0)

    def test_address_space_switch(self):
        m = Machine()
        a = AddressSpace("a", m.phys, m.hypervisor_table)
        b = AddressSpace("b", m.phys, m.hypervisor_table)
        fa, fb = m.phys.allocate_frames(2)
        a.map_page(DATA, fa)
        b.map_page(DATA, fb)
        for round_ in range(3):
            for space, tag in ((a, 0xA0), (b, 0xB0)):
                m.cpu.address_space = space
                m.cpu.write_mem(DATA, 1, tag + round_)
                assert m.cpu.read_mem(DATA, 1) == tag + round_
        assert m.phys.read(fa << 12, 1) == 0xA2
        assert m.phys.read(fb << 12, 1) == 0xB2


class TestFillRules:
    def test_straddle_over_discontiguous_cached_frames(self):
        m, space, low = make()
        m.phys.allocate_frame()             # keep the frames apart
        high = m.phys.allocate_frame()
        space.map_page(DATA + PAGE_SIZE, high)
        fill(m, DATA)
        fill(m, DATA + PAGE_SIZE)
        m.cpu.write_mem(DATA + 0xFFE, 4, 0xA1B2C3D4)
        assert m.phys.read_bytes((low << 12) + 0xFFE, 2) == b"\xd4\xc3"
        assert m.phys.read_bytes(high << 12, 2) == b"\xb2\xa1"
        assert m.cpu.read_mem(DATA + 0xFFE, 4) == 0xA1B2C3D4
        m.cpu.write_mem(DATA + 0xFFF, 2, 0x5566)
        assert m.cpu.read_mem(DATA + 0xFFF, 2) == 0x5566
        assert m.phys.read(high << 12, 1) == 0x55

    def test_unallocated_frame_bus_errors_and_is_never_cached(self):
        m = Machine()
        space = AddressSpace("a", m.phys, m.hypervisor_table)
        space.map_page(DATA, 0x7000)        # never allocated
        m.cpu.address_space = space
        for _ in range(3):
            with pytest.raises(BusError):
                m.cpu.read_mem(DATA, 4)
            with pytest.raises(BusError):
                m.cpu.write_mem(DATA, 4, 1)
        assert not space.read_pages
        assert not space.write_pages

    def test_hot_range_cost_charged_on_hits(self):
        m, space, _ = make()
        space.map_new_pages(DATA + PAGE_SIZE, 1)
        m.cpu.add_hot_range(DATA, DATA + PAGE_SIZE)
        hot, cold = m.cpu.costs.mem_hot, m.cpu.costs.mem
        for _ in range(3):
            assert spent(m, lambda: m.cpu.read_mem(DATA + 4, 4)) == hot
            assert spent(m, lambda: m.cpu.write_mem(DATA + 8, 4, 1)) == hot
            assert spent(m, lambda: m.cpu.read_mem(DATA + PAGE_SIZE, 4)) \
                == cold
        assert VPAGE in space.read_pages and VPAGE in space.write_pages


def _word_api(space):
    return (lambda va: space.read(va, 4),
            lambda va, value: space.write(va, 4, value))


def _bytes_api(space):
    return (lambda va: int.from_bytes(space.read_bytes(va, 4), "little"),
            lambda va, value: space.write_bytes(va, value.to_bytes(4, "little")))


@pytest.mark.parametrize("api", [_word_api, _bytes_api],
                         ids=["read-write", "read_bytes-write_bytes"])
class TestPythonSideAccess:
    """``AddressSpace.read``/``write``/``read_bytes``/``write_bytes`` (the
    kernel models' and SVM views' path) share the CPU's page cache."""

    def test_unmap_faults(self, api):
        m, space, _ = make()
        read, write = api(space)
        write(DATA, 0x11223344)
        assert read(DATA) == 0x11223344
        assert VPAGE in space.read_pages and VPAGE in space.write_pages
        space.unmap_page(DATA)
        with pytest.raises(PageFault):
            read(DATA)
        with pytest.raises(PageFault):
            write(DATA, 1)

    def test_remap_reaches_new_frame(self, api):
        m, space, old = make()
        read, write = api(space)
        write(DATA, 0x11223344)
        assert read(DATA) == 0x11223344
        new = m.phys.allocate_frame()
        m.phys.write(new << 12, 4, 0xCAFEF00D)
        space.map_page(DATA, new)
        assert read(DATA) == 0xCAFEF00D
        write(DATA + 4, 7)
        assert m.phys.read((new << 12) + 4, 4) == 7
        assert m.phys.read((old << 12) + 4, 4) == 0

    def test_read_only_page_cached_for_reads_refuses_writes(self, api):
        m, space, frame = make(writable=False)
        read, write = api(space)
        m.phys.write(frame << 12, 4, 5)
        assert read(DATA) == 5
        assert VPAGE in space.read_pages
        for _ in range(2):
            with pytest.raises(ProtectionFault):
                write(DATA, 9)
        assert VPAGE not in space.write_pages
        assert m.phys.read(frame << 12, 4) == 5

    def test_mmio_region_over_cached_frame(self, api):
        m, space, frame = make()
        read, write = api(space)
        write(DATA, 0x11223344)
        assert read(DATA) == 0x11223344
        dev = FakeDevice()
        m.phys.add_mmio_region(frame << 12, 0x100, dev)
        if api is _word_api:
            # word accesses dispatch to the device, as through phys
            assert read(DATA) == 0xAB
            write(DATA + 8, 0x1234)
            assert dev.reads == [(0, 4)]
            assert dev.writes == [(8, 4, 0x1234)]
        else:
            # byte-string accesses reach the frame's RAM, as through phys
            assert read(DATA) == 0x11223344
            write(DATA + 8, 0x1234)
            assert m.phys.read_bytes((frame << 12) + 8, 2) == b"\x34\x12"
            assert not dev.reads and not dev.writes
        assert read(DATA + 0x800) == 0
        assert VPAGE not in space.read_pages
        assert VPAGE not in space.write_pages

    def test_straddle_over_discontiguous_frames(self, api):
        m, space, low = make()
        read, write = api(space)
        m.phys.allocate_frame()             # keep the frames apart
        high = m.phys.allocate_frame()
        space.map_page(DATA + PAGE_SIZE, high)
        write(DATA, 1)
        write(DATA + PAGE_SIZE, 2)          # both pages cached
        write(DATA + 0xFFE, 0xA1B2C3D4)
        assert m.phys.read_bytes((low << 12) + 0xFFE, 2) == b"\xd4\xc3"
        assert m.phys.read_bytes(high << 12, 2) == b"\xb2\xa1"
        assert read(DATA + 0xFFE) == 0xA1B2C3D4
        assert m.cpu.read_mem(DATA + 0xFFE, 4) == 0xA1B2C3D4

    def test_unallocated_frame_bus_errors_and_is_never_cached(self, api):
        m = Machine()
        space = AddressSpace("a", m.phys, m.hypervisor_table)
        space.map_page(DATA, 0x7000)        # never allocated
        read, write = api(space)
        for _ in range(3):
            with pytest.raises(BusError):
                read(DATA)
            with pytest.raises(BusError):
                write(DATA, 1)
        assert not space.read_pages
        assert not space.write_pages
