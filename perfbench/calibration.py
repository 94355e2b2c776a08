"""Host-speed calibration.

The host clock on a shared machine drifts: the same pure-Python work can
take twice as long a minute later because of other tenants. The
benchmark therefore runs a short calibration kernel after every timed
burst (outside the burst's timing) and scales host times by
``REFERENCE_US / median(kernel times)``. A reported host time thus reads
as the time the work would take on a machine where the kernel runs in
``REFERENCE_US``, which is roughly this kernel on an idle 2-vCPU x86
sandbox.

The kernel mixes what the simulator spends its host time on: dict
lookups, method calls on a slotted object, ``int``/``bytes`` conversion,
``bytearray`` slicing and small tuple allocation. In a 90-second test of
``twin-tx`` bursts, raw per-packet host time drifted by 87% from its
fastest to its slowest repeat. Scaled by this kernel, the drift was 13%.
A pure integer loop only brought it down to 28%.
"""

from __future__ import annotations

from time import perf_counter

#: kernel iterations per chunk (about 1 ms on an idle sandbox core)
CHUNK_ITERATIONS = 1200
#: the reference kernel time that scaled host times are expressed at
REFERENCE_US = 1000.0

_TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(1024)}


class _Register:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def add(self, v: int) -> int:
        self.value = (self.value + v) & 0xFFFFFFFF
        return self.value


def chunk() -> float:
    """Run the kernel once; return its host time in seconds."""
    t0 = perf_counter()
    reg = _Register()
    table = _TABLE
    buf = bytearray(2048)
    keep = []
    acc = 0
    for i in range(CHUNK_ITERATIONS):
        k = i & 1023
        acc = reg.add(table[k])
        buf[k:k + 4] = acc.to_bytes(4, "little")
        acc ^= int.from_bytes(buf[k + 2:k + 6], "little")
        if i & 7 == 0:
            keep.append((k, acc))
    return perf_counter() - t0
