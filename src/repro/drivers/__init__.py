"""Device drivers written in the toy ISA (the binaries the rewriter twins).

Two structurally different drivers demonstrate that the TwinDrivers
pipeline is driver-agnostic: the scatter/gather, descriptor-ring e1000 and
the copying, fixed-slot RTL8139. A :class:`DriverSpec` tells the twin
manager what it needs to know about a driver (entry points, whether the
hardware supports scatter/gather, and where it keeps ring-posted skbs).
"""

from dataclasses import dataclass
from typing import Callable, Tuple

from ..isa import Program
from ..osmodel import layout as L
from .e1000 import (
    DESC_PAGE,
    DRIVER_CONSTANTS,
    E1000_ASM,
    FAST_PATH_ENTRIES,
    MANAGEMENT_ENTRIES,
    RING_BYTES,
    RX_BUFFER_LEN,
    RX_RING_ENTRIES,
    TX_RING_ENTRIES,
    build_e1000_program,
)
from .rtl8139 import RTL8139_ASM, RTL_CONSTANTS, build_rtl8139_program


@dataclass(frozen=True)
class DriverSpec:
    """What the loaders/twin manager need to know about a driver."""

    name: str
    build_program: Callable[[], Program]
    probe_symbol: str
    open_symbol: str
    close_symbol: str
    stats_symbol: str
    #: hardware scatter/gather: when False the transmit path must hand the
    #: driver linear sk_buffs (the twin path copies instead of chaining
    #: guest-page fragments).
    scatter_gather: bool = True
    #: ``(array, count)`` offsets in the driver's private adapter struct:
    #: ``array`` points at ``count`` skb pointers the driver has posted to
    #: a NIC ring (0 = empty slot). Those skbs belong to whichever driver
    #: instance consumes the slot, so recovery must not reclaim them.
    ring_skb_slots: Tuple[Tuple[int, int], ...] = ()


E1000_SPEC = DriverSpec(
    name="e1000",
    build_program=build_e1000_program,
    probe_symbol="e1000_probe",
    open_symbol="e1000_open",
    close_symbol="e1000_close",
    stats_symbol="e1000_get_stats",
    scatter_gather=True,
    ring_skb_slots=((L.ADP_RX_SKBS, L.ADP_RX_COUNT),
                    (L.ADP_TX_SKBS, L.ADP_TX_COUNT)),
)

RTL8139_SPEC = DriverSpec(
    name="rtl8139",
    build_program=build_rtl8139_program,
    probe_symbol="rtl8139_probe",
    open_symbol="rtl8139_open",
    close_symbol="rtl8139_close",
    stats_symbol="rtl8139_get_stats",
    scatter_gather=False,
)

DRIVER_SPECS = {"e1000": E1000_SPEC, "rtl8139": RTL8139_SPEC}

__all__ = [
    "DESC_PAGE",
    "DRIVER_CONSTANTS",
    "DRIVER_SPECS",
    "DriverSpec",
    "E1000_ASM",
    "E1000_SPEC",
    "FAST_PATH_ENTRIES",
    "MANAGEMENT_ENTRIES",
    "RING_BYTES",
    "RTL8139_ASM",
    "RTL8139_SPEC",
    "RTL_CONSTANTS",
    "RX_BUFFER_LEN",
    "RX_RING_ENTRIES",
    "TX_RING_ENTRIES",
    "build_e1000_program",
    "build_rtl8139_program",
]
