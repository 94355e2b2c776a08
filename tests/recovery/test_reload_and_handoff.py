"""One reload routine, one rx hand-off, and who owns ring-posted skbs.

* Recovery's reload and a planned handover swap both go through
  ``TwinDriverManager.reverify`` -> ``reload_hyp_driver`` and leave the
  instance in the same state (the one reset list).
* While degraded, frames for a virq-masked guest are parked by the same
  hand-off the fast path uses and delivered exactly once on unmask.
* Quarantine never reclaims a pool skb that is still posted in a NIC
  ring: the instance that later consumes the slot releases it, once.
* A re-verify that fails never loads anything: the old instance stays
  registered, and the loader refuses the report before mapping code.
"""

import pytest

from repro import configs
from repro.analysis import VerificationError, VerifyReport
from repro.core import HypervisorLoader, RecoveryPolicy
from repro.machine.memory import BusError
from repro.machine.nic import REG_TDT

from .test_recovery import make_twin


def tagged_frame(mac, seq, size=300):
    return mac + b"\x00" * 6 + b"\x08\x00" + seq.to_bytes(4, "big") + bytes(
        size - 4)


def anchor_slots(twin):
    space = twin.hyp_runtime._data_space
    symbols = twin.hyp_runtime.symbols
    return [symbols[name] for name, _ in twin.elision.anchor_symbols], space


class TestRingPostedSkbsSurviveQuarantine:
    def test_fault_with_rx_buffers_posted_keeps_the_pool_sound(self):
        # a backoff of 30 degraded operations: traffic runs on the dom0
        # path for a while, then the reload brings the fast path back
        m, xen, twin, dev, nic = make_twin(
            policy=RecoveryPolicy(backoff_initial=30))
        dev.keep_rx_payloads = True
        pool = twin.hyp_support.pool
        seq = 0

        def inject(n):
            nonlocal seq
            for _ in range(n):
                assert m.wire.inject(nic, tagged_frame(dev.mac, seq))
                seq += 1

        # cycle the rx ring once on the fast path: every posted rx buffer
        # is now a hypervisor pool skb
        inject(80)
        posted = twin.ring_posted_skbs()
        assert len(posted) > 32 and posted <= pool.outstanding

        twin.svm.inject_fault()
        assert dev.transmit(700)                  # quarantine fires here
        assert twin.recovery.degraded
        # the ring still owns its buffers: none went back on the free list
        assert posted <= pool.outstanding

        # keep rx and tx flowing through degraded mode and the reload
        for _ in range(40):
            inject(4)
            assert dev.transmit(700)
        assert twin.recovery.state == "active"
        assert twin.recovery.counters_snapshot()["reload_success"] == 1
        inject(80)

        assert pool.double_releases == 0
        assert pool.balanced
        assert all(len(p) > 0 for p in dev.rx_payloads)
        got = [int.from_bytes(p[:4], "big") for p in dev.rx_payloads]
        assert got == list(range(seq))            # each frame exactly once

    def test_fault_after_xmit_posted_its_skb(self, monkeypatch):
        m, xen, twin, dev, nic = make_twin(
            policy=RecoveryPolicy(backoff_initial=30))
        pool = twin.hyp_support.pool
        assert dev.transmit(700)
        real_write = nic.mmio_write

        def tail_kick_faults(offset, size, value):
            # the driver has posted the skb in the tx ring; the doorbell
            # write that follows it faults
            if offset == REG_TDT:
                monkeypatch.setattr(nic, "mmio_write", real_write)
                raise BusError(offset)
            real_write(offset, size, value)

        monkeypatch.setattr(nic, "mmio_write", tail_kick_faults)
        assert dev.transmit(700)                  # contained
        assert twin.recovery.counters_snapshot()["abort"] == 1
        # the posted skb belongs to the tx ring: only its cleaner frees it
        for _ in range(40):
            assert dev.transmit(700)
        assert twin.recovery.state == "active"
        assert pool.double_releases == 0
        assert pool.balanced


class TestDegradedRxToMaskedGuest:
    def test_frames_park_while_masked_and_deliver_once_on_unmask(self):
        m, xen, twin, dev, nic = make_twin(
            policy=RecoveryPolicy(backoff_initial=10_000))
        dev.keep_rx_payloads = True
        twin.svm.inject_fault()
        assert dev.transmit(700)
        assert twin.recovery.state == "degraded"
        vc = m.obs.registry.counter("xen.virq_coalesced")

        dev.kernel.domain.virq_enabled = False
        for seq in range(5):
            assert m.wire.inject(nic, tagged_frame(dev.mac, seq))
        assert twin.recovery.counters_snapshot()["degraded_rx"] >= 1
        # parked, not delivered: no packet and no virq reached the guest
        assert dev.rx_packets == 0 and vc.value == 0
        assert twin.rx_backlog == 5

        dev.kernel.domain.enable_virq()
        assert dev.rx_packets == 5
        assert [int.from_bytes(p[:4], "big") for p in dev.rx_payloads] == [
            0, 1, 2, 3, 4]
        assert vc.value == 5                      # one per degraded batch
        assert twin.rx_backlog == 0
        # exactly once: a second unmask edge delivers nothing more
        dev.kernel.domain.virq_enabled = False
        dev.kernel.domain.enable_virq()
        assert dev.rx_packets == 5
        assert twin.hyp_support.pool.balanced
        assert twin.hyp_support.pool.double_releases == 0


class TestOneResetList:
    @pytest.mark.parametrize("path", ["attempt_reload", "swap_binary"])
    def test_every_reload_runs_the_same_reset_list(self, path):
        sut = configs.build("domU-twin", n_nics=1, elide=True,
                            handover=True)
        twin, machine = sut.twin, sut.machine
        twin.recovery.policy = RecoveryPolicy(backoff_initial=10_000)
        assert sut.transmit_packets(8) == 8
        if path == "attempt_reload":
            twin.svm.inject_fault()
            assert sut.transmit_packets(1) == 1
            assert twin.recovery.state == "degraded"

        # stale state the reload must not let the new program see
        slots, space = anchor_slots(twin)
        assert slots
        for addr in slots:
            space.write_u32(addr, 0xDEADB000)
        twin.hyp_runtime.call_xlate_cache[0x1234] = 0x5678
        flush = machine.obs.registry.counter(f"svm.{twin.svm.name}.flush")
        flushes, epoch = flush.value, machine.code.epoch

        if path == "attempt_reload":
            assert twin.recovery.attempt_reload()
        else:
            assert sut.extras["handover"].swap_binary().ok

        assert all(space.read_u32(addr) == 0 for addr in slots)
        assert flush.value == flushes + 1
        assert twin.hyp_runtime.call_xlate_cache == {}
        assert machine.code.epoch == epoch + 2
        # the reloaded (elided) instance serves traffic again
        assert sut.transmit_packets(4) == 4


class TestFailedReverifyNeverLoads:
    def test_rejected_report_keeps_old_instance_and_opens_breaker(
            self, monkeypatch):
        # one degraded operation between attempts; only the attempt cap
        # (not the relapse counter) may open the breaker
        policy = RecoveryPolicy(max_reload_attempts=3, breaker_threshold=99,
                                backoff_initial=1, backoff_multiplier=1)
        m, xen, twin, dev, nic = make_twin(policy=policy)
        assert dev.transmit(700)
        rejected = VerifyReport(program_name="hyp:reload", mode="annotated")
        rejected.add("svm", 0, "unchecked store")
        assert not rejected.ok
        monkeypatch.setattr("repro.analysis.verifier.verify_program",
                            lambda *args, **kwargs: rejected)
        driver, epoch = twin.hyp_driver, m.code.epoch

        twin.svm.inject_fault()
        r = twin.recovery
        for _ in range(40):
            assert dev.transmit(700)              # served degraded
            if r.broken:
                break
        snap = r.counters_snapshot()
        assert r.broken
        assert snap["reload_attempt"] == policy.max_reload_attempts
        assert snap["reload_failure"] == policy.max_reload_attempts
        assert snap["reload_success"] == 0
        assert twin.hyp_driver is driver
        assert m.code.epoch == epoch

        # the loader itself refuses the report before registering code
        loader = HypervisorLoader(xen, twin.code_base, twin.hyp_alloc,
                                  stack_base=twin.stack_base)
        with pytest.raises(VerificationError) as exc:
            loader.load(twin.loadable, twin.vm_module, twin.hyp_runtime,
                        {}, rejected)
        assert exc.value.report is rejected
        assert m.code.epoch == epoch
