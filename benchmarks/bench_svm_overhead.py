"""Ablation (§4.1): the cost anatomy of SVM itself.

The paper argues the 10-instruction fast path is affordable because (a)
only ~25 % of driver instructions reference memory and (b) the driver is
only 10-15 % of the total packet cost. This benchmark measures all three
levels: static rewrite stats, raw driver slowdown, and end-to-end impact.
"""

import pytest

from repro.analysis import verify_program
from repro.configs import build
from repro.core import rewrite_driver
from repro.core.rewriter import apply_elision
from repro.drivers import DRIVER_SPECS, build_e1000_program
from repro.workloads import profile_config

from .common import compare_row, header, report

PACKETS = 256
ELIDE_PACKETS = 64


def run():
    program = build_e1000_program()
    _, stats = rewrite_driver(program)

    native_tx = profile_config("linux", "tx", packets=PACKETS)
    twin_tx = profile_config("domU-twin", "tx", packets=PACKETS)
    native_rx = profile_config("linux", "rx", packets=PACKETS)
    twin_rx = profile_config("domU-twin", "rx", packets=PACKETS)

    system = build("domU-twin", n_nics=1)
    system.transmit_packets(64)
    system.receive_packets(64)
    svm = system.twin.svm
    return stats, native_tx, twin_tx, native_rx, twin_rx, svm


@pytest.mark.benchmark(group="svm-ablation")
def test_svm_overhead(benchmark):
    stats, native_tx, twin_tx, native_rx, twin_rx, svm = benchmark.pedantic(
        run, rounds=1, iterations=1)
    lines = list(header("SVM overhead anatomy"))
    lines.append(compare_row("memory-referencing instructions", 25,
                             stats.memory_fraction * 100, "%"))
    lines.append(compare_row("static code expansion", None,
                             stats.expansion_factor * 100, "%"))
    lines.append(compare_row("register spills inserted", None,
                             stats.spills, ""))
    lines.append(compare_row("flag save/restores inserted", None,
                             stats.flag_saves, ""))
    lines.append("")
    lines.append("  rewritten sites by category:")
    for kind in sorted(stats.site_categories):
        lines.append(f"    {kind}: {stats.site_categories[kind]}")
    lines.append("")
    tx_slow = (twin_tx.per_packet["e1000"] / native_tx.per_packet["e1000"])
    rx_slow = (twin_rx.per_packet["e1000"] / native_rx.per_packet["e1000"])
    lines.append(compare_row("driver slowdown tx (paper ~2.3x)", 231,
                             tx_slow * 100, "%"))
    lines.append(compare_row("driver slowdown rx (paper ~2x)", 200,
                             rx_slow * 100, "%"))
    tx_share = twin_tx.per_packet["e1000"] / twin_tx.total_per_packet
    lines.append(compare_row("driver share of total tx cost (<15-20%)",
                             None, tx_share * 100, "%"))
    lines.append("")
    stlb = svm.counters_snapshot()
    lines.append(f"  stlb (steady state): hits={stlb['hit']} "
                 f"misses={stlb['miss']} collisions={stlb['collision']} "
                 f"flushes={stlb['flush']} "
                 f"pages mapped: {len(svm.mappings)}")
    report("svm_overhead", lines,
           metrics={
               "memory_fraction": stats.memory_fraction,
               "expansion_factor": stats.expansion_factor,
               "spills": stats.spills,
               "flag_saves": stats.flag_saves,
               "driver_slowdown_tx": tx_slow,
               "driver_slowdown_rx": rx_slow,
               "driver_share_tx": tx_share,
               "stlb": stlb,
           },
           config={"packets": PACKETS},
           obs=twin_tx.counters)

    assert 0.15 <= stats.memory_fraction <= 0.40
    assert 1.8 <= tx_slow <= 3.5
    assert tx_share < 0.30


def _static_elision_stats():
    """Prove-then-elide numbers for every shipped driver binary."""
    per_binary = {}
    for name in sorted(DRIVER_SPECS):
        rewritten, stats = rewrite_driver(DRIVER_SPECS[name].build_program())
        rep = verify_program(rewritten, annotations=stats.annotations,
                             name=name)
        assert rep.ok, rep.format()
        elided, result = apply_elision(rewritten, rep.proofs)
        rng = rep.stats["range"]
        per_binary[name] = {
            "sites_total": rng["sites_total"],
            "sites_proven": result.sites_elided,
            "coverage": result.sites_elided / rng["sites_total"],
            "anchors": result.anchors,
            "instructions_before": len(rewritten.instructions),
            "instructions_after": len(elided.instructions),
        }
    return per_binary


def _count_inline_probes(twin):
    """Count inline stlb probes executed at the provable sites of a
    non-elided twin — the lookups elision removes.  The hit/miss
    counters only see the slow path and support routines; the inline
    10-instruction probe runs as plain driver code, so we hook its lea
    the same way the loader hooks elided replacements."""
    counter = {"n": 0}

    def bump(_cpu, _c=counter):
        _c["n"] += 1

    for loaded in (twin.hyp_driver.loaded, twin.vm_module.loaded):
        for proof in twin.verify_report.proofs:
            loaded.instrument[proof.site_lea] = bump
            loaded.handlers[proof.site_lea] = None    # force re-wrap
    return counter


def run_elide():
    per_binary = _static_elision_stats()

    base = build("domU-twin", n_nics=1)
    fast = build("domU-twin", n_nics=1, elide=True)
    probes = _count_inline_probes(base.twin)
    results = {}
    for tag, system in (("baseline", base), ("elide", fast)):
        start = system.machine.cycles
        assert system.transmit_packets(ELIDE_PACKETS) == ELIDE_PACKETS
        assert system.receive_packets(ELIDE_PACKETS) == ELIDE_PACKETS
        stlb = system.twin.svm.counters_snapshot()
        stlb["inline_probes"] = probes["n"] if tag == "baseline" else 0
        stlb["lookups"] = stlb["hit"] + stlb["miss"] + stlb["inline_probes"]
        results[tag] = {
            "cycles": system.machine.cycles - start,
            "on_wire": system.packets_on_wire,
            "delivered": system.packets_delivered,
            "stlb": stlb,
        }
    return per_binary, results


@pytest.mark.benchmark(group="svm-ablation")
def test_prove_then_elide(benchmark):
    """Check elision: same packets, fewer stlb lookups, no extra cycles."""
    per_binary, results = benchmark.pedantic(run_elide, rounds=1,
                                             iterations=1)
    base, fast = results["baseline"], results["elide"]
    lines = list(header("prove-then-elide", paper_col="baseline",
                        meas_col="elided"))
    for name, st in per_binary.items():
        lines.append(f"  {name}: {st['sites_proven']}/{st['sites_total']} "
                     f"sites proven ({100 * st['coverage']:.0f}%), "
                     f"{st['anchors']} anchors, "
                     f"{st['instructions_before'] - st['instructions_after']}"
                     f" instructions dropped")
    lines.append("")
    rows = [("cycles (tx+rx workload)", base["cycles"], fast["cycles"]),
            ("stlb lookups", base["stlb"]["lookups"],
             fast["stlb"]["lookups"]),
            ("checks elided", None, fast["stlb"]["elided"]),
            ("packets on wire", base["on_wire"], fast["on_wire"]),
            ("packets delivered", base["delivered"], fast["delivered"])]
    for label, baseline, elided in rows:
        lines.append(compare_row(label, baseline, elided, ref="baseline"))
    report("svm_elision", lines,
           metrics={
               "per_binary": per_binary,
               "cycles_baseline": base["cycles"],
               "cycles_elide": fast["cycles"],
               "cycles_saved": base["cycles"] - fast["cycles"],
               "stlb_baseline": base["stlb"],
               "stlb_elide": fast["stlb"],
           },
           config={"packets": ELIDE_PACKETS, "nics": 1})

    # identical packet outcomes: every frame still lands where it should
    assert fast["on_wire"] == base["on_wire"]
    assert fast["delivered"] == base["delivered"]
    # the proofs really removed stlb traffic...
    assert fast["stlb"]["elided"] > 0
    assert fast["stlb"]["lookups"] < base["stlb"]["lookups"]
    assert fast["stlb"]["miss"] <= base["stlb"]["miss"]
    # ...and the elided binary is never slower
    assert fast["cycles"] <= base["cycles"]
