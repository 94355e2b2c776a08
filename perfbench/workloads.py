"""Seeded inputs and closed-loop drivers for the three benchmark workloads.

Every workload is built through the public ``repro.configs`` builders
with their defaults, except where the workload's docstring says
otherwise, and never passes a ``jit=`` knob: the benchmark measures what
a caller of ``configs.build`` gets.

A workload object is created from a seed. The constructor generates
every input (frame sizes, payload bytes, broadcast positions, churn
event steps) before anything is built, so the program only ever sees the
generated inputs. One *repeat* builds a fresh system, warms it up and
then runs the fixed timed *episode*; the same seed gives the same
episode, so its simulated-clock results must repeat bit-identically.

Each offered frame carries its sequence number in the first four payload
bytes. The :class:`Ledger` records what was offered, and the payload
sinks (``Wire.keep_payloads`` / ``ParavirtNetDevice.keep_rx_payloads``)
record what arrived and when on the simulated clock; :meth:`Ledger.check`
matches the two.
"""

from __future__ import annotations

import math
import random
from time import perf_counter
from typing import Dict, List, Tuple

from repro import configs

import calibration

ETH_HLEN = 14
MTU_FRAME = 1500
BROADCAST_MAC = b"\xff" * 6
PEER_MAC = b"\x00\x22\x33\x44\x55\x66"
ETHERTYPE_IPV4 = b"\x08\x00"
SEQ_BYTES = 4
#: warm-up frames are numbered from here, so they can never be taken for
#: an episode frame
WARMUP_SEQ_BASE = 1 << 31
#: IMIX-like frame-size mix (bytes on the wire) and its 7:4:1 weights
IMIX = ((64, 7), (594, 4), (1500, 1))


def imix_sizes(rng: random.Random, n: int) -> List[int]:
    """``n`` frame sizes in the exact 7:4:1 proportions, seed-shuffled."""
    pattern = [size for size, weight in IMIX for _ in range(weight)]
    sizes = (pattern * math.ceil(n / len(pattern)))[:n]
    rng.shuffle(sizes)
    return sizes


def make_payload(rng: random.Random, seq: int, frame_len: int) -> bytes:
    """Payload of a ``frame_len``-byte frame: sequence number + seeded bytes."""
    return seq.to_bytes(SEQ_BYTES, "big") + rng.randbytes(
        frame_len - ETH_HLEN - SEQ_BYTES)


def rx_frame(dst_mac: bytes, payload: bytes) -> bytes:
    return dst_mac + PEER_MAC + ETHERTYPE_IPV4 + payload


def sim_clock(sut):
    """The simulated clock: total CPU cycles charged on the machine."""
    account = sut.machine.account
    return lambda: account.total


class StampedSink(list):
    """A payload sink that stamps each append with the simulated clock."""

    def __init__(self, clock):
        super().__init__()
        self.clock = clock
        self.times: List[int] = []

    def append(self, item):
        list.append(self, item)
        self.times.append(self.clock())


class Ledger:
    """What one episode offered, what arrived, and the host samples."""

    def __init__(self, clock, calibrate: bool = False):
        self.clock = clock
        self.calibrate = calibrate
        #: seq -> (source MAC, payload, simulated time offered)
        self.tx: Dict[int, Tuple[bytes, bytes, int]] = {}
        #: seq -> (payload, target device indices, simulated time offered)
        self.rx: Dict[int, Tuple[bytes, Tuple[int, ...], int]] = {}
        #: (host seconds, packets) per offered burst
        self.samples: List[Tuple[float, int]] = []
        #: host seconds of each calibration chunk run after a burst
        self.calib: List[float] = []

    def sample(self, seconds: float, packets: int):
        """Record one burst's host time, then time a calibration chunk."""
        self.samples.append((seconds, packets))
        if self.calibrate:
            self.calib.append(calibration.chunk())

    def offer_tx(self, seq: int, mac: bytes, payload: bytes):
        self.tx[seq] = (mac, payload, self.clock())

    def offer_rx(self, seq: int, payload: bytes, targets: Tuple[int, ...]):
        self.rx[seq] = (payload, targets, self.clock())

    @property
    def offered(self) -> int:
        """Packets offered; a broadcast offers one per target guest."""
        return len(self.tx) + sum(len(t) for _, t, _ in self.rx.values())

    def check(self, wire: StampedSink, rx_sinks: List[StampedSink]):
        """Match arrivals against offers. Returns (completed packets,
        per-packet simulated latencies in arrival order, violations)."""
        violations: List[str] = []
        latencies: List[int] = []
        seen_tx = set()
        for frame, t in zip(wire, wire.times):
            seq = int.from_bytes(frame[ETH_HLEN:ETH_HLEN + SEQ_BYTES], "big")
            offer = self.tx.get(seq)
            if offer is None:
                violations.append(f"tx: frame with unknown seq {seq} on wire")
                continue
            if seq in seen_tx:
                violations.append(f"tx: seq {seq} on the wire twice")
                continue
            seen_tx.add(seq)
            mac, payload, t0 = offer
            if frame[6:12] != mac or frame[ETH_HLEN:] != payload:
                violations.append(f"tx: seq {seq} corrupted on the wire")
                continue
            latencies.append(t - t0)
        seen_rx = set()
        for index, sink in enumerate(rx_sinks):
            for payload, t in zip(sink, sink.times):
                seq = int.from_bytes(payload[:SEQ_BYTES], "big")
                offer = self.rx.get(seq)
                if offer is None or len(payload) < SEQ_BYTES:
                    violations.append(
                        f"rx: guest {index} got an unknown packet "
                        f"({len(payload)} bytes)")
                    continue
                expected, targets, t0 = offer
                if index not in targets:
                    violations.append(f"rx: seq {seq} misdelivered to "
                                      f"guest {index}")
                    continue
                if (index, seq) in seen_rx:
                    violations.append(f"rx: seq {seq} delivered twice to "
                                      f"guest {index}")
                    continue
                seen_rx.add((index, seq))
                if payload != expected:
                    violations.append(f"rx: seq {seq} corrupted at guest "
                                      f"{index}")
                    continue
                latencies.append(t - t0)
        return len(latencies), latencies, violations


class Workload:
    """Base: subclasses generate inputs in ``__init__`` and drive them."""

    name = ""

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")

    def build(self):
        raise NotImplementedError

    def devices(self, sut):
        return sut.extras["devices"]

    def warm_up(self, sut):
        raise NotImplementedError

    def run(self, sut, ledger: Ledger):
        raise NotImplementedError

    def check_system(self, sut) -> List[str]:
        """End-of-repeat invariants on the skb pool."""
        pool = sut.twin.hyp_support.pool
        problems = []
        if pool.underflows:
            problems.append(f"skb pool: {pool.underflows} underflows")
        if pool.double_releases:
            problems.append(
                f"skb pool: {pool.double_releases} double releases")
        if not pool.balanced:
            problems.append("skb pool: free/outstanding ledger unbalanced")
        return problems


class TwinTx(Workload):
    """Figure-5 transmit path: one ``domU-twin`` guest on one NIC (the
    builder's default is five) streams MTU frames in bursts of the NIC's
    ``interrupt_batch``."""

    name = "twin-tx"
    PACKETS = 1024
    WARMUP = 64

    def __init__(self, seed: int):
        super().__init__(seed)
        self.warmup = [make_payload(self.rng, WARMUP_SEQ_BASE + i, MTU_FRAME)
                       for i in range(self.WARMUP)]
        self.packets = [(i, make_payload(self.rng, i, MTU_FRAME))
                        for i in range(self.PACKETS)]

    def build(self):
        return configs.build("domU-twin", n_nics=1)

    def warm_up(self, sut):
        dev = self.devices(sut)[0]
        for payload in self.warmup:
            dev.transmit(len(payload), payload=payload)
        sut.nics[0].flush_interrupts()

    def run(self, sut, ledger: Ledger):
        dev = self.devices(sut)[0]
        nic = sut.nics[0]
        burst = nic.interrupt_batch
        for start in range(0, len(self.packets), burst):
            chunk = self.packets[start:start + burst]
            t0 = perf_counter()
            for seq, payload in chunk:
                ledger.offer_tx(seq, dev.mac, payload)
                dev.transmit(len(payload), payload=payload)
            nic.flush_interrupts()
            ledger.sample(perf_counter() - t0, len(chunk))


class FanoutMix(Workload):
    """The ``scale`` preset with 32 guests. Each round every guest queues
    one tx burst through the credit scheduler, then rx frames arrive
    round-robin over the guests and NICs. Frame sizes follow the IMIX
    mix in both directions; one rx frame in 64 is a broadcast that fans
    out to every guest."""

    name = "fanout-mix"
    GUESTS = 32
    ROUNDS = 10
    TX_BURST = 2          # frames per guest per round
    RX_PER_ROUND = 64     # rx frames per round
    RX_CHUNK = 8          # rx frames per host sample
    BROADCAST_EVERY = 64  # one broadcast per this many rx frames

    def __init__(self, seed: int):
        super().__init__(seed)
        self.warmup_round = self._make_rounds(1, WARMUP_SEQ_BASE)[0]
        self.rounds = self._make_rounds(self.ROUNDS, 0)

    def _make_rounds(self, n_rounds: int, seq_base: int):
        rng = self.rng
        n_tx = n_rounds * self.GUESTS * self.TX_BURST
        n_rx = n_rounds * self.RX_PER_ROUND
        tx_sizes = imix_sizes(rng, n_tx)
        rx_sizes = imix_sizes(rng, n_rx)
        broadcast = {block + rng.randrange(self.BROADCAST_EVERY)
                     for block in range(0, n_rx, self.BROADCAST_EVERY)}
        seq = seq_base
        rounds = []
        for r in range(n_rounds):
            tx = []
            for g in range(self.GUESTS):
                burst = []
                for _ in range(self.TX_BURST):
                    size = tx_sizes.pop()
                    burst.append((seq, make_payload(rng, seq, size)))
                    seq += 1
                tx.append(burst)
            rx = []
            for i in range(self.RX_PER_ROUND):
                k = r * self.RX_PER_ROUND + i
                payload = make_payload(rng, seq, rx_sizes[k])
                rx.append((seq, k, k in broadcast, payload))
                seq += 1
            rounds.append((tx, rx))
        return rounds

    def build(self):
        return configs.build("scale", n_guests=self.GUESTS)

    def warm_up(self, sut):
        tx, rx = self.warmup_round
        self._round(sut, tx, self._rx_frames(sut, rx), Ledger(sim_clock(sut)))

    def run(self, sut, ledger: Ledger):
        rounds = [(tx, self._rx_frames(sut, rx)) for tx, rx in self.rounds]
        for tx, rx in rounds:
            self._round(sut, tx, rx, ledger)

    def _rx_frames(self, sut, rx):
        """(seq, NIC index, frame, target guests, payload) per rx frame."""
        devs = self.devices(sut)
        everyone = tuple(range(len(devs)))
        frames = []
        for seq, k, is_broadcast, payload in rx:
            if is_broadcast:
                dst, targets = BROADCAST_MAC, everyone
            else:
                dst, targets = devs[k % len(devs)].mac, (k % len(devs),)
            frames.append((seq, k % len(sut.nics), rx_frame(dst, payload),
                           targets, payload))
        return frames

    def _round(self, sut, tx, rx, ledger: Ledger):
        devs = self.devices(sut)
        nics = sut.nics
        sched = sut.xen.scheduler
        for dev, burst in zip(devs, tx):
            sched.queue_work(dev.kernel.domain,
                             lambda d=dev, b=burst: self._tx_burst(d, b,
                                                                   ledger))
        sched.run()
        for nic in nics:
            nic.flush_interrupts()
        for start in range(0, len(rx), self.RX_CHUNK):
            t0 = perf_counter()
            packets = 0
            for seq, nic, frame, targets, payload in rx[
                    start:start + self.RX_CHUNK]:
                ledger.offer_rx(seq, payload, targets)
                nics[nic].receive(frame)
                packets += len(targets)
            if start + self.RX_CHUNK >= len(rx):
                for nic in nics:
                    nic.flush_interrupts()
            ledger.sample(perf_counter() - t0, packets)

    @staticmethod
    def _tx_burst(dev, burst, ledger: Ledger):
        t0 = perf_counter()
        for seq, payload in burst:
            ledger.offer_tx(seq, dev.mac, payload)
        dev.transmit_batch([len(p) for _, p in burst],
                           payloads=[p for _, p in burst])
        ledger.sample(perf_counter() - t0, len(burst))


class TwinChurn(Workload):
    """``domU-twin`` with ``handover=True`` on two NICs (the builder's
    default is five), as a request/response loop: a 64-byte request frame
    in, a two-frame MTU response out, one exchange per step. At
    seed-chosen steps a planned ``HandoverManager.swap_binary`` runs
    (re-verify, reload, JIT epoch bump, drain and replay).

    The response has two frames so that tx packets are two thirds of the
    latency samples. With a 1:1 mix the median would sit on the boundary
    between the rx and tx latency clusters, and one lost packet would
    move it from one cluster to the other."""

    name = "twin-churn"
    STEPS = 334
    RESPONSE_FRAMES = 2
    WARMUP = 20
    SWAPS = 6
    #: unplanned faults (``svm.flush()`` + ``svm.inject_fault(1)``); see
    #: :class:`TwinFault` for why the gated workload arms none
    FAULTS = 0
    FIRST_EVENT = 30
    EVENT_JITTER = 18

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        per_step = 1 + self.RESPONSE_FRAMES
        self.warmup = [self._step(WARMUP_SEQ_BASE + per_step * i)
                       for i in range(self.WARMUP)]
        self.steps = [self._step(per_step * i) for i in range(self.STEPS)]
        # events spaced evenly with seeded jitter, so consecutive events
        # stay far enough apart for recovery to finish its backoff
        n_events = self.SWAPS + self.FAULTS
        spacing = (self.STEPS - self.FIRST_EVENT) // n_events
        kinds = ["swap"] * self.SWAPS + ["fault"] * self.FAULTS
        rng.shuffle(kinds)
        self.events = {
            self.FIRST_EVENT + i * spacing + rng.randrange(self.EVENT_JITTER):
            kind for i, kind in enumerate(kinds)}

    def _step(self, seq: int):
        request = make_payload(self.rng, seq, 64)
        response = [make_payload(self.rng, seq + 1 + j, MTU_FRAME)
                    for j in range(self.RESPONSE_FRAMES)]
        return request, response

    def build(self):
        return configs.build("domU-twin", n_nics=2, handover=True)

    def warm_up(self, sut):
        for i, step in enumerate(self._frames(sut, self.warmup)):
            self._exchange(sut, i, *step, None)

    def run(self, sut, ledger: Ledger):
        handover = sut.extras["handover"]
        svm = sut.twin.svm
        for i, (frame, request, response) in enumerate(
                self._frames(sut, self.steps)):
            t0 = perf_counter()
            event = self.events.get(i)
            if event == "swap":
                handover.swap_binary()
            elif event == "fault":
                svm.flush()
                svm.inject_fault(1)
            self._exchange(sut, i, frame, request, response, ledger)
            ledger.sample(perf_counter() - t0, 1 + len(response))

    def _frames(self, sut, steps):
        """(request frame, request payload, response payloads) per step;
        step i runs on NIC and guest device i % 2."""
        devs = self.devices(sut)
        return [(rx_frame(devs[i % len(devs)].mac, request), request,
                 response) for i, (request, response) in enumerate(steps)]

    def _exchange(self, sut, i, frame, request, response, ledger):
        k = i % len(sut.nics)
        nic, dev = sut.nics[k], self.devices(sut)[k]
        if ledger is not None:
            ledger.offer_rx(int.from_bytes(request[:SEQ_BYTES], "big"),
                            request, (k,))
        nic.receive(frame)
        nic.flush_interrupts()
        for payload in response:
            if ledger is not None:
                ledger.offer_tx(int.from_bytes(payload[:SEQ_BYTES], "big"),
                                dev.mac, payload)
            dev.transmit(len(payload), payload=payload)
        nic.flush_interrupts()

    def check_system(self, sut) -> List[str]:
        problems = super().check_system(sut)
        failed = [r for r in sut.extras["handover"].history if not r.ok]
        if failed:
            problems.append(f"handover: {len(failed)} swaps did not complete")
        return problems


class TwinFault(TwinChurn):
    """``twin-churn`` with 2 planned swaps and 4 unplanned faults. It is
    not one of the benchmark's workloads: the program fails its
    correctness checks here on every seed. After a fault, skb pool
    buffers are freed twice (from one to over a hundred double releases,
    depending on the step), and a guest can be handed a zero-byte
    packet. Run
    it with ``--workload twin-fault`` to reproduce the failure; its fault
    schedule belongs back in ``twin-churn`` once it passes."""

    name = "twin-fault"
    SWAPS = 2
    FAULTS = 4


WORKLOADS = {cls.name: cls for cls in (TwinTx, FanoutMix, TwinChurn,
                                       TwinFault)}
