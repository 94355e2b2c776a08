"""Scale config end-to-end: determinism at 64 guests, JIT under SMP."""

from repro.configs import build_scale
from repro.machine import interpreter_only


def drive(sut, bursts_per_guest=1, burst=8):
    """Push tx through the scheduler and rx through the wire, exactly
    the way ``bench_scale.py`` does."""
    xen = sut.xen
    devices = sut.extras["devices"]
    for _ in range(bursts_per_guest):
        for dev in devices:
            xen.scheduler.queue_work(
                dev.kernel.domain,
                (lambda d=dev: d.transmit_batch([1486] * burst)))
        xen.scheduler.run()
    for _ in range(burst):
        for i, dev in enumerate(devices):
            nic = sut.nics[i % len(sut.nics)]
            frame = (dev.mac + b"\x00\x22\x33\x44\x55\x66"
                     + (0x0800).to_bytes(2, "big") + bytes(1486))
            nic.receive(frame)
    for nic in sut.nics:
        nic.flush_interrupts()


def outcome(sut):
    """Everything that must be bit-identical between two runs."""
    devices = sut.extras["devices"]
    return {
        "cycles": dict(sut.machine.account.cycles),
        "delivered": sut.packets_delivered,
        "wire_tx": sut.machine.wire.tx_count,
        "per_guest_rx": [d.rx_packets for d in devices],
        "per_queue_rx": [[q.rx_packets for q in nic.queues]
                         for nic in sut.nics],
        "per_queue_tx": [[q.tx_packets for q in nic.queues]
                         for nic in sut.nics],
        "quanta": sut.xen.scheduler.quanta,
        "steals": sut.xen.scheduler.steals,
        "refills": sut.xen.scheduler.refills,
    }


class TestDeterminism:
    def test_two_identical_64_guest_runs_bit_identical(self):
        def run():
            sut = build_scale(n_guests=64, vcpus=4, num_queues=4, n_nics=4)
            drive(sut)
            return outcome(sut)

        first, second = run(), run()
        assert first == second

    def test_per_packet_accounting_reacts_to_load(self):
        sut = build_scale(n_guests=64, vcpus=4, num_queues=4, n_nics=4)
        drive(sut)
        res = outcome(sut)
        assert res["delivered"] == 64 * 8
        assert res["wire_tx"] == 64 * 8
        assert all(n == 8 for n in res["per_guest_rx"])
        # across the fleet, every RSS queue index carried traffic
        active = {qi for per_nic in res["per_queue_rx"]
                  for qi, n in enumerate(per_nic) if n}
        assert active == {0, 1, 2, 3}


class TestJitUnderSmp:
    def test_jit_parity_on_smp_scale_config(self):
        """The superblock world guard must re-check the running vCPU:
        with the scheduler interleaving guests across 4 vCPUs, simulated
        cycles and packet outcomes stay identical to the interpreter-only
        reference."""
        def run():
            sut = build_scale(n_guests=8, vcpus=4, num_queues=4, n_nics=2)
            drive(sut, bursts_per_guest=2)
            return outcome(sut), sut.machine.cpu.jit_stats()["entries"]

        with interpreter_only():
            off, off_entries = run()
        on, on_entries = run()
        assert off == on
        assert off_entries == 0 and on_entries > 0

    def test_world_token_bumps_only_on_vcpu_change(self):
        sut = build_scale(n_guests=4, vcpus=2, num_queues=2, n_nics=1)
        xen = sut.xen
        tok = sut.machine.cpu.world_token
        xen.activate_vcpu(xen.vcpus[0])  # already active: no bump
        assert sut.machine.cpu.world_token == tok
        xen.activate_vcpu(xen.vcpus[1])
        assert sut.machine.cpu.world_token == tok + 1
