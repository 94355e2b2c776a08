"""The four evaluated system configurations (paper §6.1).

* ``linux``      — native Linux: kernel + driver on bare hardware;
* ``dom0``       — the Xen driver domain itself doing the I/O;
* ``domU``       — an unoptimized guest using the standard split
                   netfront/netback/bridge path;
* ``domU-twin``  — a guest using the TwinDrivers hypervisor driver.

Each builder returns a :class:`SystemUnderTest` exposing uniform
``transmit_packets`` / ``receive_packets`` operations that push MTU-sized
frames through the *whole* simulated stack (driver binaries included) and
account every cycle. The netperf/profile/webserver workloads all run
against this facade.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from .core.handover import HandoverManager
from .core.paravirt import ParavirtNetDevice
from .core.twin import TwinDriverManager
from .drivers.e1000 import build_e1000_program
from .machine.machine import Machine
from .machine.nic import E1000Device
from .machine.paging import AddressSpace
from .obs.health import HealthMonitor
from .osmodel import layout as L
from .osmodel.kernel import Kernel
from .osmodel.xennet import XenNetBack, XenNetFront
from .xen.costs import CostModel
from .xen.domain import Domain
from .xen.hypervisor import (
    HYP2_CODE_BASE,
    HYP2_DATA_BASE,
    HYP2_STACK_BASE,
    HYP2_SVM_MAP_BASE,
    Hypervisor,
)

#: MTU frame: 14-byte Ethernet header + 1486-byte payload = 1500 bytes.
FRAME_PAYLOAD = L.MTU - L.ETH_HLEN
#: Deterministic order in which fast-path routines are demoted to upcalls
#: for the figure-10 sweep (netif_rx is always kept in the hypervisor, as
#: in the paper's final data point).
UPCALL_SWEEP_ORDER = (
    "dma_map_single",
    "spin_trylock",
    "spin_unlock_irqrestore",
    "dev_kfree_skb_any",
    "dma_unmap_single",
    "netdev_alloc_skb",
    "dma_map_page",
    "dma_unmap_page",
    "eth_type_trans",
)

GUEST_MAC_PREFIX = b"\x00\x16\x3e\xaa\x00"

#: NIC interrupt coalescing: completions per physical interrupt.
INTERRUPT_BATCH = 8


@dataclass
class SystemUnderTest:
    """Uniform facade over one configuration."""

    name: str
    machine: Machine
    costs: CostModel
    nics: List[E1000Device]
    _tx_one: Callable[[int, int], bool]       # (nic_index, payload_len)
    _rx_mac: Callable[[int], bytes]           # destination MAC for nic i
    _rx_count: Callable[[], int]
    dom0_kernel: Optional[Kernel] = None
    guest_kernel: Optional[Kernel] = None
    xen: Optional[Hypervisor] = None
    twin: Optional[TwinDriverManager] = None
    extras: dict = field(default_factory=dict)

    # -- operations -------------------------------------------------------------

    def transmit_packets(self, n: int, payload_len: int = FRAME_PAYLOAD) -> int:
        """Stream ``n`` MTU frames round-robin over the NICs; returns the
        number accepted by the driver."""
        sent = 0
        for i in range(n):
            if self._tx_one(i % len(self.nics), payload_len):
                sent += 1
        for nic in self.nics:
            nic.flush_interrupts()
        return sent

    def receive_packets(self, n: int, payload_len: int = FRAME_PAYLOAD) -> int:
        """Inject ``n`` frames from the wire round-robin; returns how many
        the NICs accepted."""
        accepted = 0
        for i in range(n):
            nic = self.nics[i % len(self.nics)]
            frame = (self._rx_mac(i % len(self.nics))
                     + b"\x00\x22\x33\x44\x55\x66"
                     + (0x0800).to_bytes(2, "big")
                     + bytes(payload_len))
            if nic.receive(frame):
                accepted += 1
        for nic in self.nics:
            nic.flush_interrupts()
        return accepted

    @property
    def packets_on_wire(self) -> int:
        return self.machine.wire.tx_count

    @property
    def packets_delivered(self) -> int:
        return self._rx_count()

    def snapshot(self):
        return self.machine.account.snapshot()

    def delta_since(self, snap):
        return self.machine.account.delta_since(snap)


def _open_native_driver(machine: Machine, kernel: Kernel,
                        nics: List[E1000Device]):
    """Load the original driver into ``kernel`` and bring up every NIC."""
    module = kernel.load_driver(build_e1000_program())
    netdevs = []
    for nic in nics:
        ndev = kernel.create_netdev_for_nic(nic)
        kernel.domain.aspace.write_u32(ndev.addr + L.NDEV_MEM,
                                       nic.mmio.start)
        kernel.call_driver(module.symbol("e1000_probe"), [ndev.addr])
        kernel.call_driver(module.symbol("e1000_open"), [ndev.addr])
        netdevs.append(ndev.addr)
    return module, netdevs


def _add_nics(machine: Machine, n_nics: int, num_queues: int = 1,
              interrupt_batch: int = INTERRUPT_BATCH) -> List[E1000Device]:
    nics = [machine.add_nic(num_queues=num_queues) for _ in range(n_nics)]
    for nic in nics:
        nic.interrupt_batch = interrupt_batch
    return nics


def _xen_host(n_nics: int, costs: Optional[CostModel] = None,
              iommu: bool = False, vcpus: int = 1,
              num_queues: int = 1, interrupt_batch: int = INTERRUPT_BATCH,
              guest: bool = False):
    """The assembly every Xen configuration shares: Machine, Xen, the
    dom0 kernel, one guest kernel when ``guest`` is set, then the NICs.

    Allocation order is part of the behaviour (frame addresses decide
    stlb hashing, and so cycles): domains and kernels before NICs, and
    every twin after this returns. Returns ``(machine, costs, xen,
    dom0_kernel, guest_kernel, nics)``; ``guest_kernel`` is None without
    ``guest``."""
    costs = costs or CostModel()
    machine = Machine()
    if iommu:
        machine.attach_iommu()
    xen = Hypervisor(machine, costs=costs, vcpus=vcpus)
    dom0 = xen.create_domain("dom0", is_dom0=True)
    dom0_kernel = Kernel(machine, dom0, costs=costs, paravirtual=True)
    guest_kernel = None
    if guest:
        guest_kernel = Kernel(machine, xen.create_domain("guest"),
                              costs=costs, paravirtual=True)
    nics = _add_nics(machine, n_nics, num_queues, interrupt_batch)
    return machine, costs, xen, dom0_kernel, guest_kernel, nics


def _twin_guests(xen: Hypervisor, twin: TwinDriverManager, n_guests: int,
                 mac_of: Callable[[int], bytes]) -> dict:
    """``n_guests`` full domains, each with its own kernel and a paravirt
    device on ``twin`` (MAC ``mac_of(i)``), plus round-robin tx/rx facade
    operations that cover every guest regardless of the NIC index they
    are called with. Returns the matching :class:`SystemUnderTest`
    keyword arguments."""
    if n_guests < 1:
        raise ValueError("need at least one guest")
    guest_kernels: List[Kernel] = []
    devices: List[ParavirtNetDevice] = []
    for i in range(n_guests):
        kernel = Kernel(xen.machine, xen.create_domain(f"guest{i}"),
                        costs=xen.costs, paravirtual=True)
        guest_kernels.append(kernel)
        devices.append(ParavirtNetDevice(twin, kernel, mac=mac_of(i)))
    cursor = {"tx": 0, "rx": 0}

    def tx_one(i: int, payload_len: int) -> bool:
        dev = devices[cursor["tx"] % n_guests]
        cursor["tx"] += 1
        return dev.transmit(payload_len)

    def rx_mac(i: int) -> bytes:
        mac = devices[cursor["rx"] % n_guests].mac
        cursor["rx"] += 1
        return mac

    return dict(
        _tx_one=tx_one, _rx_mac=rx_mac,
        _rx_count=lambda: sum(d.rx_packets for d in devices),
        guest_kernel=guest_kernels[0],
        extras={"devices": devices, "guest_kernels": guest_kernels},
    )


# ---------------------------------------------------------------------------
# native Linux
# ---------------------------------------------------------------------------

def build_native_linux(n_nics: int = 5, costs: Optional[CostModel] = None,
                       iommu: bool = False) -> SystemUnderTest:
    costs = costs or CostModel()
    machine = Machine()
    if iommu:
        machine.attach_iommu()
    machine.cpu.cycle_scale = costs.driver_cycle_scale
    domain = Domain(0, "linux",
                    AddressSpace("linux", machine.phys,
                                 machine.hypervisor_table),
                    is_dom0=True)
    kernel = Kernel(machine, domain, costs=costs, paravirtual=False)
    machine.cpu.address_space = domain.aspace
    machine.intc.set_dispatcher(lambda irq: kernel.handle_irq(irq))
    nics = _add_nics(machine, n_nics)
    module, netdevs = _open_native_driver(machine, kernel, nics)

    def tx_one(i: int, payload_len: int) -> bool:
        return kernel.tcp_transmit(netdevs[i], payload_len)

    return SystemUnderTest(
        name="linux", machine=machine, costs=costs, nics=nics,
        _tx_one=tx_one,
        _rx_mac=lambda i: nics[i].mac,
        _rx_count=lambda: kernel.rx_delivered,
        dom0_kernel=kernel,
        extras={"module": module, "netdevs": netdevs},
    )


# ---------------------------------------------------------------------------
# Xen dom0 (the driver domain itself)
# ---------------------------------------------------------------------------

def build_dom0(n_nics: int = 5, costs: Optional[CostModel] = None,
               iommu: bool = False) -> SystemUnderTest:
    machine, costs, xen, kernel, _, nics = _xen_host(
        n_nics, costs, iommu=iommu)
    module, netdevs = _open_native_driver(machine, kernel, nics)

    def irq_handler(irq: int):
        # interrupt virtualization was charged by the dispatcher; Xen now
        # delivers a virtual interrupt into dom0.
        xen.charge_xen(costs.virq_delivery)
        kernel.handle_irq(irq)

    for nic in nics:
        xen.register_irq_handler(nic.irq, irq_handler)

    def tx_one(i: int, payload_len: int) -> bool:
        return kernel.tcp_transmit(netdevs[i], payload_len)

    return SystemUnderTest(
        name="dom0", machine=machine, costs=costs, nics=nics,
        _tx_one=tx_one,
        _rx_mac=lambda i: nics[i].mac,
        _rx_count=lambda: kernel.rx_delivered,
        dom0_kernel=kernel, xen=xen,
        extras={"module": module, "netdevs": netdevs},
    )


# ---------------------------------------------------------------------------
# unoptimized guest (standard split-driver path)
# ---------------------------------------------------------------------------

def build_domU_standard(n_nics: int = 5, costs: Optional[CostModel] = None,
                        iommu: bool = False) -> SystemUnderTest:
    machine, costs, xen, dom0_kernel, guest_kernel, nics = _xen_host(
        n_nics, costs, iommu=iommu, guest=True)
    module, netdevs = _open_native_driver(machine, dom0_kernel, nics)

    backend = XenNetBack(xen, dom0_kernel)
    fronts = [
        XenNetFront(backend, guest_kernel,
                    mac=GUEST_MAC_PREFIX + bytes([i + 1]),
                    netdev_addr=netdevs[i])
        for i in range(n_nics)
    ]

    def irq_handler(irq: int):
        xen.charge_xen(costs.virq_delivery)
        xen.charge_xen(costs.domain_switch)     # enter dom0 for the ISR
        prev = machine.cpu.address_space
        machine.cpu.address_space = dom0_kernel.domain.aspace
        try:
            dom0_kernel.handle_irq(irq)
        finally:
            machine.cpu.address_space = prev

    for nic in nics:
        xen.register_irq_handler(nic.irq, irq_handler)

    def tx_one(i: int, payload_len: int) -> bool:
        return fronts[i].transmit(payload_len)

    return SystemUnderTest(
        name="domU", machine=machine, costs=costs, nics=nics,
        _tx_one=tx_one,
        _rx_mac=lambda i: fronts[i].mac,
        _rx_count=lambda: sum(f.rx_packets for f in fronts),
        dom0_kernel=dom0_kernel, guest_kernel=guest_kernel, xen=xen,
        extras={"module": module, "netdevs": netdevs,
                "fronts": fronts, "backend": backend},
    )


# ---------------------------------------------------------------------------
# TwinDrivers guest
# ---------------------------------------------------------------------------

def build_domU_twin(n_nics: int = 5, interrupt_batch: int = INTERRUPT_BATCH,
                    n_upcalls: int = 0,
                    costs: Optional[CostModel] = None,
                    iommu: bool = False,
                    elide: bool = False,
                    vcpus: int = 1,
                    num_queues: int = 1,
                    handover: bool = False) -> SystemUnderTest:
    """``n_upcalls``: how many fast-path routines are served by upcalls
    instead of hypervisor implementations (0 = the full TwinDrivers
    configuration; figure 10 sweeps 0..9). ``elide`` turns on
    proof-based stlb check elision (prove-then-elide, off by default).
    ``vcpus`` / ``num_queues`` enable the SMP + multiqueue layer; the
    defaults of 1 reproduce every paper figure bit-for-bit. ``handover``
    wires a :class:`HealthMonitor` and a
    :class:`HandoverManager` into ``extras["health"]`` /
    ``extras["handover"]`` (planned live upgrade, DESIGN.md §14) — it
    charges nothing until a handover is actually requested, so the
    default path stays bit-identical."""
    if not 0 <= n_upcalls <= len(UPCALL_SWEEP_ORDER):
        raise ValueError("n_upcalls out of range")
    machine, costs, xen, dom0_kernel, guest_kernel, nics = _xen_host(
        n_nics, costs, iommu=iommu, vcpus=vcpus,
        num_queues=num_queues, interrupt_batch=interrupt_batch, guest=True)

    twin = TwinDriverManager(
        xen, dom0_kernel,
        upcall_routines=UPCALL_SWEEP_ORDER[:n_upcalls],
        pool_size=max(256, 96 * n_nics),
        elide=elide,
        num_queues=num_queues,
    )
    for nic in nics:
        twin.attach_nic(nic)
    devices = [
        ParavirtNetDevice(twin, guest_kernel,
                          mac=GUEST_MAC_PREFIX + bytes([0x10 + i]))
        for i in range(n_nics)
    ]
    # the guest is the running context (no switches on the twin path)
    xen.switch_to(guest_kernel.domain)

    def tx_one(i: int, payload_len: int) -> bool:
        return devices[i].transmit(payload_len)

    extras = {"devices": devices}
    if handover:
        health = HealthMonitor(machine, twin=twin)
        extras["health"] = health
        extras["handover"] = HandoverManager(twin, health=health)

    return SystemUnderTest(
        name="domU-twin", machine=machine, costs=costs, nics=nics,
        _tx_one=tx_one,
        _rx_mac=lambda i: devices[i].mac,
        _rx_count=lambda: sum(d.rx_packets for d in devices),
        dom0_kernel=dom0_kernel, guest_kernel=guest_kernel, xen=xen,
        twin=twin,
        extras=extras,
    )


# ---------------------------------------------------------------------------
# scale configuration: many twin guests under the SMP scheduler
# ---------------------------------------------------------------------------

#: MAC prefix for scale-config guests (2-byte index suffix, so up to
#: 65536 guests keep distinct, deterministic addresses).
SCALE_MAC_PREFIX = b"\x00\x16\x3e\xab"


def build_scale(n_guests: int = 16, vcpus: int = 4, num_queues: int = 4,
                n_nics: int = 4) -> SystemUnderTest:
    """N twin guests, each with its own domain and kernel, under the
    credit scheduler on ``vcpus`` vCPUs with ``num_queues``-way RSS
    twins (ROADMAP item 1: scale to hundreds of guests).

    Unlike :func:`build_domU_twin` (one guest kernel, five devices —
    the paper's 5-NIC streaming box), every guest here is a full domain
    so the scheduler has real run queues to multiplex. Guest devices
    spread round-robin over the NICs; drive traffic through
    ``extras["devices"]`` and the scheduler, as ``bench_scale.py``
    does."""
    machine, costs, xen, dom0_kernel, _, nics = _xen_host(
        n_nics, vcpus=vcpus, num_queues=num_queues)
    twin = TwinDriverManager(
        xen, dom0_kernel,
        pool_size=max(256, 16 * n_nics * INTERRUPT_BATCH),
        num_queues=num_queues,
    )
    for nic in nics:
        twin.attach_nic(nic)
    return SystemUnderTest(
        name="scale", machine=machine, costs=costs, nics=nics,
        dom0_kernel=dom0_kernel, xen=xen, twin=twin,
        **_twin_guests(xen, twin, n_guests,
                       lambda i: SCALE_MAC_PREFIX + i.to_bytes(2, "big")),
    )


# ---------------------------------------------------------------------------
# handover pair: two live twin instances for queue re-homing
# ---------------------------------------------------------------------------

#: MAC prefix for handover-pair guests (1-byte index suffix).
PAIR_MAC_PREFIX = b"\x00\x16\x3e\xac\x00"


def build_handover_pair(n_guests: int = 2, vcpus: int = 1,
                        num_queues: int = 1, n_nics: int = 1
                        ) -> SystemUnderTest:
    """Two *live* twin instances side by side — the primary at the
    historical hypervisor VA layout, the secondary ("hyp2") at the
    ``HYP2_*`` bases — so a guest's queue state can be re-homed from one
    to the other without a reload (DESIGN.md §14).

    Each instance owns ``n_nics`` NICs; every guest starts on the
    primary. The facade's rx path injects into the *primary's* NICs
    (frames demux on the twin whose NIC received them), so after
    ``extras["handover"].rehome_guest(dev, extras["secondary"])`` steer
    that guest's frames at ``extras["secondary_nics"]`` instead — as
    ``bench_handover.py`` does."""
    machine, costs, xen, dom0_kernel, _, nics = _xen_host(
        2 * n_nics, vcpus=vcpus, num_queues=num_queues)
    primary_nics, secondary_nics = nics[:n_nics], nics[n_nics:]

    pool_size = max(256, 16 * n_nics * INTERRUPT_BATCH)
    twin = TwinDriverManager(
        xen, dom0_kernel, pool_size=pool_size, num_queues=num_queues,
    )
    secondary = TwinDriverManager(
        xen, dom0_kernel, pool_size=pool_size, num_queues=num_queues,
        instance_name="hyp2",
        code_base=HYP2_CODE_BASE, data_base=HYP2_DATA_BASE,
        stack_base=HYP2_STACK_BASE, svm_map_base=HYP2_SVM_MAP_BASE,
    )
    for nic in primary_nics:
        twin.attach_nic(nic)
    for nic in secondary_nics:
        secondary.attach_nic(nic)

    guests = _twin_guests(xen, twin, n_guests,
                          lambda i: PAIR_MAC_PREFIX + bytes([i + 1]))
    health = HealthMonitor(machine, twin=twin)
    guests["extras"].update(
        secondary=secondary, secondary_nics=secondary_nics, health=health,
        handover=HandoverManager(twin, health=health))
    return SystemUnderTest(
        name="handover-pair", machine=machine, costs=costs,
        nics=primary_nics, dom0_kernel=dom0_kernel, xen=xen, twin=twin,
        **guests,
    )


BUILDERS = {
    "linux": build_native_linux,
    "dom0": build_dom0,
    "domU": build_domU_standard,
    "domU-twin": build_domU_twin,
    "scale": build_scale,
    "handover-pair": build_handover_pair,
}


def build(name: str, **kwargs) -> SystemUnderTest:
    try:
        builder = BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown configuration {name!r}; choose from {sorted(BUILDERS)}"
        ) from None
    return builder(**kwargs)
