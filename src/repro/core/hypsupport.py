"""Hypervisor implementations of the fast-path support routines (§4.3).

The paper implements exactly the ten Table-1 routines inside Xen (851
lines of C) so the error-free transmit/receive path never upcalls. These
are those ten routines: they access driver data in dom0 **explicitly
through the stlb** (via :class:`~repro.core.svm.SvmView`), and
``netdev_alloc_skb``/``dev_kfree_skb_any`` draw from a preallocated pool
of dom0 sk_buffs protected from the dom0 allocator by the refcount trick.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..machine.cpu import Cpu
from ..machine.paging import HYPERVISOR_BASE, PageFault
from ..obs.events import SUPPORT_CALL
from ..osmodel import layout as L
from ..osmodel.kernel import Kernel
from ..osmodel.skbuff import SkBuff
from ..xen.hypervisor import Hypervisor
from .svm import SvmManager, SvmProtectionFault, SvmView

if TYPE_CHECKING:  # pragma: no cover
    from .twin import TwinDriverManager

#: Routines the hypervisor implements natively (paper Table 1).
HYPERVISOR_FAST_PATH = (
    "netdev_alloc_skb",
    "dev_kfree_skb_any",
    "netif_rx",
    "dma_map_single",
    "dma_map_page",
    "dma_unmap_single",
    "dma_unmap_page",
    "spin_trylock",
    "spin_unlock_irqrestore",
    "eth_type_trans",
)


class SkbPool:
    """Preallocated dom0 sk_buffs reserved for the hypervisor driver.

    Pool buffers carry ``SKB_POOL = 1`` and an extra reference so dom0
    kernel code that releases them hands them back here instead of to the
    dom0 slab (the paper's "simple reference counter trick")."""

    def __init__(self, dom0_kernel: Kernel, size: int = 256):
        self.dom0_kernel = dom0_kernel
        self.free: List[int] = []
        self._free_set: set = set()
        #: buffers currently held by the hypervisor driver (acquired but
        #: not yet released) — what recovery reclaims after a quarantine.
        self.outstanding: set = set()
        #: every buffer address this pool has ever owned, used to route a
        #: release to the right pool when several twin instances share the
        #: dom0 kernel.
        self.all_buffers: set = set()
        self.capacity = 0
        self.underflows = 0
        #: releases of a buffer already on the free list: absorbed instead
        #: of corrupting the pool's balance, and counted so a buffer freed
        #: twice is visible (tests and benchmarks assert it stays 0).
        self.double_releases = 0
        self._install_release_hook(dom0_kernel)
        self.grow(size)

    def _install_release_hook(self, dom0_kernel: Kernel):
        # Chain behind any pool already installed on this kernel: each
        # pool claims its own buffers and forwards the rest, so a second
        # twin instance doesn't capture the first pool's skbs.
        prev = getattr(dom0_kernel, "pool_release", None)

        def route(skb_addr: int, _pool=self, _prev=prev):
            if _prev is not None and skb_addr not in _pool.all_buffers:
                _prev(skb_addr)
            else:
                _pool.release(skb_addr)

        dom0_kernel.pool_release = route

    def grow(self, n: int):
        for _ in range(n):
            skb = self.dom0_kernel.alloc_skb(L.SKB_BUFFER_SIZE - L.NET_SKB_PAD)
            skb.pool = 1
            self.free.append(skb.addr)
            self._free_set.add(skb.addr)
            self.all_buffers.add(skb.addr)
        self.capacity += n

    def acquire(self) -> Optional[int]:
        if not self.free:
            self.underflows += 1
            return None
        addr = self.free.pop()
        self._free_set.discard(addr)
        self.outstanding.add(addr)
        return addr

    def release(self, skb_addr: int):
        if skb_addr in self._free_set:
            self.double_releases += 1
            return
        self.outstanding.discard(skb_addr)
        self.free.append(skb_addr)
        self._free_set.add(skb_addr)

    def reclaim_outstanding(self, keep) -> int:
        """Return every driver-held buffer not in ``keep`` to the free
        list (the faulted instance will never release them itself).
        Buffers in ``keep`` stay outstanding for their owner to release.
        Returns the count reclaimed."""
        reclaimed = sorted(self.outstanding - set(keep))
        for addr in reclaimed:
            self.outstanding.discard(addr)
            if addr not in self._free_set:
                self.free.append(addr)
                self._free_set.add(addr)
        return len(reclaimed)

    @property
    def available(self) -> int:
        return len(self.free)

    @property
    def balanced(self) -> bool:
        """Every buffer is on exactly one side of the ledger: free or
        outstanding, no duplicates, nothing lost."""
        return (len(self.free) == len(self._free_set)
                and not (self._free_set & self.outstanding)
                and len(self.free) + len(self.outstanding) == self.capacity)


class HypervisorSupport:
    """Registers the ten fast-path natives under the ``hyp.`` prefix.

    ``upcall_routines`` selects a subset to *not* implement natively —
    those calls fall back to upcall stubs instead (figure 10's sweep).
    """

    def __init__(self, xen: Hypervisor, dom0_kernel: Kernel,
                 svm: SvmManager, twin: "TwinDriverManager",
                 pool_size: int = 256, prefix: str = "hyp"):
        self.xen = xen
        self.machine = xen.machine
        self.dom0_kernel = dom0_kernel
        self.svm = svm
        self.view = SvmView(svm)
        self.twin = twin
        self.prefix = prefix
        self.pool = SkbPool(dom0_kernel, size=pool_size)
        #: dom0 lock words the driver currently holds (spin_trylock
        #: succeeded, spin_unlock not yet seen) — force-released by
        #: recovery so dom0 is never wedged by a dead driver instance.
        self.held_locks: set = set()
        self.addresses: Dict[str, int] = {}
        # per-routine call counters live in the machine-wide registry
        # under ``support.<name>``; ``calls`` stays readable as a dict.
        self._registry = self.machine.obs.registry
        self._tracer = self.machine.obs.tracer
        self._counters = {
            name: self._registry.counter(f"support.{name}")
            for name in HYPERVISOR_FAST_PATH
        }
        for name in HYPERVISOR_FAST_PATH:
            self._bind(name)

    @property
    def calls(self) -> Dict[str, int]:
        """Driver-initiated fast-path calls per routine (registry view)."""
        return {name: c.value for name, c in self._counters.items()
                if c.value}

    # -- registration ----------------------------------------------------------

    def _bind(self, name: str):
        """Register routine ``name`` as a native that reads as many stack
        arguments as its implementation takes."""
        impl = getattr(self, name)
        nargs = impl.__code__.co_argcount - 1
        counter = self._counters[name]
        tracer = self._tracer

        def native(cpu: Cpu, _impl=impl, _nargs=nargs, _name=name):
            counter.value += 1
            if tracer.enabled:
                tracer.emit(SUPPORT_CALL, name=_name, direct=False)
            args = [cpu.read_stack_arg(i) for i in range(_nargs)]
            return _impl(*args)

        addr = self.machine.register_native(
            f"{self.prefix}.{name}", native,
            cost=self.xen.costs.support_cost(name),
            category="Xen",
        )
        self.addresses[name] = addr

    # -- implementations (all data access goes through the stlb view) -----------

    def netdev_alloc_skb(self, dev: int, size: int) -> int:
        skb_addr = self.pool.acquire()
        if skb_addr is None:
            return 0                      # driver's alloc-failure path
        try:
            skb = SkBuff(self.view, skb_addr)
            head = skb.head
            skb.data = head
            skb.tail = head
            skb.len = 0
            skb.nr_frags = 0
            skb._set(L.SKB_DATA_LEN, 0, 2)
            skb.refcnt = 1
            skb.reserve(L.NET_SKB_PAD)
            skb.dev = dev
        except Exception:
            # the init writes go through the stlb and can fault: don't
            # strand the just-acquired buffer in ``outstanding``
            self.pool.release(skb_addr)
            raise
        return skb_addr

    def dev_kfree_skb_any(self, skb_addr: int) -> int:
        skb = SkBuff(self.view, skb_addr)
        refs = skb.refcnt
        if refs > 1:
            skb.refcnt = refs - 1
            return 0
        if skb.pool:
            self.pool.release(skb_addr)
        else:
            # A non-pool dom0 skb freed from the hypervisor: hand it back
            # to dom0's allocator bookkeeping directly.
            self.dom0_kernel.free_skb(skb_addr)
        return 0

    def netif_rx(self, skb_addr: int) -> int:
        self.twin.hypervisor_netif_rx(skb_addr)
        return 0

    def dma_map_single(self, dev: int, vaddr: int, length: int,
                       direction: int) -> int:
        if vaddr >= HYPERVISOR_BASE:
            raise SvmProtectionFault(vaddr, "DMA map of hypervisor address")
        try:
            bus = self.dom0_kernel.dma_map(vaddr, length)
        except PageFault:
            raise SvmProtectionFault(vaddr, "DMA map of unmapped page") from None
        self._iommu_map(bus, length)
        return bus

    def dma_map_page(self, page: int, offset: int, length: int,
                     direction: int) -> int:
        # ``page`` is a machine page address — for guest fragments this is
        # how "the DMA mapping functions return the correct guest machine
        # page addresses" (paper §5.3, footnote 4).
        self._iommu_map(page + offset, length)
        return page + offset

    def dma_unmap_single(self, bus: int, length: int, direction: int) -> int:
        self._iommu_unmap(bus, length)
        return 0

    dma_unmap_page = dma_unmap_single

    def _iommu_map(self, bus: int, length: int):
        if self.machine.iommu is not None:
            self.machine.iommu.map_window("*", bus, length)

    def _iommu_unmap(self, bus: int, length: int):
        if self.machine.iommu is not None:
            self.machine.iommu.unmap_window("*", bus, length)

    def spin_trylock(self, lock: int) -> int:
        if self.view.read_u32(lock):
            return 0
        self.view.write_u32(lock, 1)
        self.held_locks.add(lock)
        return 1

    def spin_unlock_irqrestore(self, lock: int, flags: int) -> int:
        self.view.write_u32(lock, 0)
        self.held_locks.discard(lock)
        if flags & 1:
            self.dom0_kernel.domain.enable_virq()
        return 0

    def release_held_locks(self) -> int:
        """Force-release locks a quarantined driver instance left held.
        Writes go through dom0's own address space (the stlb may already
        be torn down). Returns the count released."""
        count = len(self.held_locks)
        aspace = self.dom0_kernel.domain.aspace
        for lock in sorted(self.held_locks):
            aspace.write(lock, 4, 0)
        self.held_locks.clear()
        return count

    def eth_type_trans(self, skb_addr: int, dev: int) -> int:
        skb = SkBuff(self.view, skb_addr)
        raw = self.view.read_bytes(skb.data + 12, 2)
        protocol = int.from_bytes(raw, "big")
        skb.protocol = protocol
        skb.dev = dev
        skb.pull(L.ETH_HLEN)
        return protocol
