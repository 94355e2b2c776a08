"""Two-clock packet benchmark for the TwinDrivers simulator.

    python3 perfbench/run.py --workload twin-tx --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One process runs one workload on one thread. It repeats "build a fresh
system, warm it up, run the seeded episode" until ``--seconds`` is used
(at least twice, so that determinism can be checked), and prints as its
last stdout line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics
on two clocks: host (``perf_counter``) and simulated (the machine's
``CycleAccount`` total). Host times are scaled to a reference host
speed measured by an interleaved calibration kernel (see
``calibration.py``); the unscaled values are printed on ``#`` lines.
``--trace 1`` runs one untraced repeat, then
wraps the layers' public entry points (see ``tracing.py``) and reports
the per-layer metrics. ``--workload all`` runs every workload, each in a
fresh process, and prints one table.

The exit code is 0 when every correctness check passed, 1 when one
failed (the result is still printed), and 2 when the program under
test cannot be found (nothing is printed).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibration
from tracing import SpanTracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = json.loads((HERE / "reference.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in REFERENCE["workloads"]]
#: workloads that reproduce a known program failure; runnable by name,
#: never part of ``all`` or of the benchmark
REPRODUCER_NAMES = [w["name"] for w in REFERENCE["reproducers"]]
MAX_MESSAGES = 10
#: builds per repeat; each is timed for setup_s and the last one runs
#: the episode (set-up time is short and noisy, so it is sampled more)
SETUPS_PER_REPEAT = 3
#: calibration chunks run before each build and after its warm-up
SETUP_CALIB_CHUNKS = 8
#: a burst is scaled by the median of the calibration chunks run after
#: the bursts within this distance of it (host speed drifts within a
#: repeat too)
SCALE_NEIGHBOURS = 4


def env_header(args) -> str:
    load = ",".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"# perfbench workload={args.workload} seed={args.seed} "
            f"seconds={args.seconds} trace={args.trace} "
            f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"loadavg={load}")


def nearest_rank(values, q: float):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# one repeat
# ---------------------------------------------------------------------------

def run_repeat(workload, tracer=None) -> dict:
    """Build, warm up and run one episode; return everything measured."""
    from workloads import Ledger, StampedSink, sim_clock

    reference_s = calibration.REFERENCE_US / 1e6
    setups = []
    for _ in range(SETUPS_PER_REPEAT):
        sut = None
        gc.collect()
        calib = [calibration.chunk() for _ in range(SETUP_CALIB_CHUNKS)]
        if tracer is not None:
            tracer.take()   # count only the build that runs the episode
            tracer.window = "setup"
        t0 = perf_counter()
        sut = workload.build()
        clock = sim_clock(sut)
        devices = workload.devices(sut)
        sut.machine.wire.keep_payloads = True
        for dev in devices:
            dev.keep_rx_payloads = True
        workload.warm_up(sut)
        seconds = perf_counter() - t0
        calib += [calibration.chunk() for _ in range(SETUP_CALIB_CHUNKS)]
        setups.append((seconds, reference_s / statistics.median(calib)))

    # fresh sinks: only episode traffic is matched against the ledger
    wire = sut.machine.wire.transmitted = StampedSink(clock)
    sinks = []
    for dev in devices:
        dev.rx_payloads = StampedSink(clock)
        sinks.append(dev.rx_payloads)
    ledger = Ledger(clock, calibrate=True)
    machine = sut.machine
    registry = machine.obs.registry
    counters0 = registry.counters_snapshot()
    cycles0 = machine.account.snapshot()
    executed0 = machine.cpu.executed
    jit0 = machine.cpu.jit_stats()["entries"]
    hist = registry.histogram("twin.rx_batch_size")
    hist0 = (hist.count, hist.total)
    drops0 = sum(nic.stats.rx_dropped_no_desc for nic in sut.nics)
    sched = sut.xen.scheduler
    sched0 = (sched.quanta, sched.steals)

    gc.collect()
    gc.freeze()
    if tracer is not None:
        tracer.window = "timed"
        tracer.bursts = ledger.samples
    t1 = perf_counter()
    workload.run(sut, ledger)
    window_s = perf_counter() - t1
    if tracer is not None:
        tracer.window = "teardown"
        tracer.bursts = None
    gc.unfreeze()

    completed, latencies, violations = ledger.check(wire, sinks)
    violations += workload.check_system(sut)
    cycles = machine.account.delta_since(cycles0)
    pool = sut.twin.hyp_support.pool
    handover = sut.extras.get("handover")
    counts = {
        "offered": ledger.offered,
        "completed": completed,
        "executed": machine.cpu.executed - executed0,
        "jit_entries": machine.cpu.jit_stats()["entries"] - jit0,
        "jit_compiles": machine.cpu.jit_compiles,
        "rx_batches": hist.count - hist0[0],
        "rx_batched_pkts": hist.total - hist0[1],
        "rx_ring_drops": sum(nic.stats.rx_dropped_no_desc
                             for nic in sut.nics) - drops0,
        "sched_quanta": sched.quanta - sched0[0],
        "sched_steals": sched.steals - sched0[1],
        "pool_underflows": pool.underflows,
        "pool_in_use_end": len(pool.outstanding),
        "handover_window_cycles": sum(
            r.window_cycles for r in handover.history) if handover else 0,
        "registry": registry.delta_since(counters0),
    }
    calib = ledger.calib
    n = SCALE_NEIGHBOURS
    return {
        #: (host seconds, scale) per build
        "setups": setups,
        # the calibration chunks ran inside the window, between bursts
        "window_s": window_s - sum(calib),
        "calib": calib,
        "scale": reference_s / statistics.median(calib),
        "samples": [
            (seconds, packets,
             reference_s / statistics.median(calib[max(0, i - n):i + n + 1]))
            for i, (seconds, packets) in enumerate(ledger.samples)],
        "latencies": latencies,
        "cycles": cycles,
        "counts": counts,
        "violations": violations,
        "trace": tracer.take() if tracer is not None else None,
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def sim_signature(rep: dict):
    """Everything the simulated clock decides; equal for equal seeds."""
    c = rep["counts"]
    return (c["offered"], c["completed"], tuple(sorted(rep["cycles"].items())),
            tuple(rep["latencies"]))


def exact_counts(rep: dict):
    counts = dict(rep["counts"])
    if rep["trace"] is not None:
        counts["wrapped_calls"] = sorted(
            (k, v[0]) for k, v in rep["trace"].items())
    return counts


def per_pkt_us(reps, scaled: bool = True):
    """Host microseconds per packet of every burst of ``reps``."""
    return [seconds * 1e6 / packets * (scale if scaled else 1.0)
            for rep in reps for seconds, packets, scale in rep["samples"]
            if packets]


def window_s(rep, scaled: bool = True) -> float:
    """The repeat's timed window: its bursts, each at its own scale, plus
    the time between bursts at the repeat's scale."""
    if not scaled:
        return rep["window_s"]
    bursts = sum(s for s, _, _ in rep["samples"])
    return (sum(s * k for s, _, k in rep["samples"])
            + (rep["window_s"] - bursts) * rep["scale"])


def host_metrics(reps, scaled: bool = True) -> dict:
    return {
        "setup_s": statistics.median(
            seconds * (scale if scaled else 1.0)
            for rep in reps for seconds, scale in rep["setups"]),
        "host_pkts_per_s": (sum(rep["counts"]["completed"] for rep in reps)
                            / sum(window_s(rep, scaled) for rep in reps)),
        "host_us_per_pkt_p50": statistics.median(per_pkt_us(reps, scaled)),
    }


def end_to_end(reps, rss_mb: float) -> dict:
    first = reps[0]
    completed = first["counts"]["completed"]
    offered = first["counts"]["offered"]
    return {
        **host_metrics(reps),
        "sim_cycles_per_pkt": sum(first["cycles"].values()) / completed,
        "sim_latency_cycles_p50": nearest_rank(first["latencies"], 0.50),
        "sim_latency_cycles_p99": nearest_rank(first["latencies"], 0.99),
        "pkt_delivered_ratio": completed / offered,
        "host_peak_rss_mb": rss_mb,
    }


def per_layer(untraced, traced, calib_us: float) -> dict:
    """Per-layer metrics from the traced repeats (means over repeats of
    per-episode values; counts are exact and equal across repeats). Host
    times are self times unless a comment says otherwise."""
    rep = traced[0]
    c = rep["counts"]
    reg = c["registry"]
    pkts = c["completed"]

    def total(window_keys, field):
        # mean over traced repeats of the summed field; host times are
        # scaled like the end-to-end ones, call counts are not
        out = 0.0
        for r in traced:
            scale = {"setup": r["setups"][-1][1], "timed": r["scale"]}
            for (window, key), v in r["trace"].items():
                if (window, key) in window_keys:
                    out += v[field] * (scale[window] if field else 1)
        return out / len(traced)

    def timed(*keys):
        return {("timed", k) for k in keys}

    def whole(*keys):
        return {(w, k) for k in keys for w in ("setup", "timed")}

    def self_us_per_pkt(*keys):
        return total(timed(*keys), 2) / 1e3 / pkts

    # stlb lookups counted by every SVM instance: hits + slow-path misses
    svm_hits = sum(v for k, v in reg.items()
                   if k.startswith("svm.") and k.endswith(".hit"))
    svm_misses = sum(v for k, v in reg.items()
                     if k.startswith("svm.") and k.endswith(".miss"))
    cpu_self_ns = total(timed("cpu"), 2)
    host = per_pkt_us([untraced])
    traced_p50 = statistics.median(per_pkt_us(traced))
    return {
        "machine.cpu.host_us_per_pkt": cpu_self_ns / 1e3 / pkts,
        "machine.cpu.insns_per_pkt": c["executed"] / pkts,
        "machine.cpu.host_ns_per_insn": (cpu_self_ns / c["executed"]
                                         if c["executed"] else 0),
        "machine.jit.compiles": c["jit_compiles"],
        "machine.jit.entries_per_pkt": c["jit_entries"] / pkts,
        "machine.jit.compile_host_s": total(whole("jit_compile"), 2) / 1e9,
        "machine.paging.translate_per_pkt": total(timed("paging"), 0) / pkts,
        "machine.paging.host_us_per_pkt": self_us_per_pkt("paging"),
        "machine.memory.mmio_lookups_per_pkt":
            total(timed("memory"), 0) / pkts,
        "machine.memory.host_us_per_pkt": self_us_per_pkt("memory"),
        "machine.nic.host_us_per_pkt": self_us_per_pkt("nic"),
        "machine.nic.rx_ring_drops": c["rx_ring_drops"],
        "core.svm.stlb_hit_ratio": (svm_hits / (svm_hits + svm_misses)
                                    if svm_hits + svm_misses else 0),
        "core.svm.misses_per_pkt": svm_misses / pkts,
        "core.svm.miss_host_us_per_pkt": self_us_per_pkt("svm_miss"),
        "core.twin.tx_host_us_per_pkt": self_us_per_pkt("twin_tx"),
        "core.twin.rx_flush_host_us_per_pkt": self_us_per_pkt("twin_rx_flush"),
        "core.twin.rx_batch_size_mean": (c["rx_batched_pkts"] / c["rx_batches"]
                                         if c["rx_batches"] else 0),
        "core.upcall.upcalls_per_pkt": reg.get("upcall.calls", 0) / pkts,
        "core.hypsupport.pool_underflows": c["pool_underflows"],
        "core.hypsupport.pool_in_use_end": c["pool_in_use_end"],
        "core.recovery.aborts": reg.get("recovery.abort", 0),
        "core.recovery.degraded_pkts": (reg.get("recovery.degraded_tx", 0)
                                        + reg.get("recovery.degraded_rx", 0)),
        # whole operations: span time, re-verify and reload included
        "core.recovery.reload_host_s": total(timed("reload"), 1) / 1e9,
        "core.handover.swap_host_s": total(timed("swap"), 1) / 1e9,
        "core.handover.window_cycles": c["handover_window_cycles"],
        "analysis.verifier.host_s": total(whole("verifier"), 2) / 1e9,
        "analysis.verifier.calls": total(whole("verifier"), 0),
        "core.rewriter.host_s": total(whole("rewriter"), 2) / 1e9,
        "core.loader.host_s": total(whole("loader"), 2) / 1e9,
        "xen.hypervisor.hypercalls_per_pkt":
            reg.get("xen.hypercall", 0) / pkts,
        "xen.hypervisor.virqs_per_pkt": (reg.get("xen.virq_coalesced", 0)
                                         + reg.get("xen.virq", 0)) / pkts,
        "xen.hypervisor.softirq_host_us_per_pkt": self_us_per_pkt("softirq"),
        "xen.sched.host_us_per_pkt": self_us_per_pkt("sched"),
        "xen.sched.quanta_per_pkt": c["sched_quanta"] / pkts,
        "xen.sched.steals": c["sched_steals"],
        "osmodel.kernel.call_driver_per_pkt":
            total(timed("call_driver"), 0) / pkts,
        **{f"sim.cycles_per_pkt.{cat}": rep["cycles"].get(cat, 0) / pkts
           for cat in ("dom0", "domU", "Xen", "e1000")},
        "harness.host_us_per_pkt_p99": nearest_rank(host, 0.99),
        "harness.samples": len(host),
        "harness.host_calib_us": calib_us,
        "harness.trace_overhead_ratio": traced_p50 / statistics.median(host),
    }


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------

def run_workload(args) -> int:
    from workloads import WORKLOADS

    print(env_header(args), flush=True)
    workload = WORKLOADS[args.workload](args.seed)
    tracer = None
    reps = []
    min_repeats = 3 if args.trace else 2
    start = perf_counter()
    while True:
        if args.trace and reps and tracer is None:
            tracer = SpanTracer()
            tracer.install()
        reps.append(run_repeat(workload, tracer))
        elapsed = perf_counter() - start
        if (len(reps) >= min_repeats
                and elapsed * (len(reps) + 1) / len(reps) > args.seconds):
            break
    if tracer is not None:
        tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    calib_us = statistics.median(c for r in reps for c in r["calib"]) * 1e6

    violations = list(dict.fromkeys(v for r in reps for v in r["violations"]))
    signature = sim_signature(reps[0])
    if any(sim_signature(r) != signature for r in reps[1:]):
        violations.append("determinism: simulated results differ between "
                          "repeats of the same seed")
    traced = reps[1:] if args.trace else []
    if any(exact_counts(r) != exact_counts(traced[0]) for r in traced[1:]):
        violations.append("determinism: exact per-layer counts differ "
                          "between traced repeats of the same seed")

    attempted = sum(r["counts"]["offered"] for r in reps)
    failed = attempted - sum(r["counts"]["completed"] for r in reps)
    if args.trace:
        values = per_layer(reps[0], traced, calib_us)
        span_file = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.tsv"
        n_spans = tracer.write_spans(span_file)
        print(f"# {n_spans} spans written to {span_file.relative_to(ROOT)} "
              f"({tracer.spans_dropped} over the cap, aggregated only)")
        units = {m["name"]: m["unit"] for m in REFERENCE["per_layer"]}
    else:
        values = end_to_end(reps, rss_mb)
        units = {m["name"]: m["unit"] for m in REFERENCE["end_to_end"]}
    raw = host_metrics(reps, scaled=False)
    print(f"# repeats={len(reps)} offered/repeat={reps[0]['counts']['offered']}"
          f" completed/repeat={reps[0]['counts']['completed']}"
          f" calibration chunk median={calib_us:.1f} us"
          f" (reference {calibration.REFERENCE_US:.0f} us)")
    print("# unscaled host: " + " ".join(
        f"{name}={value:.6g}" for name, value in raw.items()))
    for name, value in values.items():
        print(f"# {name:42s} {value:>16.6g} {units[name]}")
    for message in violations[:MAX_MESSAGES]:
        print(f"# VIOLATION {message}")
    if len(violations) > MAX_MESSAGES:
        print(f"# ... {len(violations) - MAX_MESSAGES} more violations")
    result = {
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# every workload, one fresh process each
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    results = {}
    ok = True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.stderr.write(proc.stderr)
            print(f"# {name}: no result (exit {proc.returncode})")
            ok = False
            continue
        ok = ok and results[name]["correct"]
    if not results:
        return 1
    names = list(next(iter(results.values()))["metrics"])
    print("# " + " " * 42 + "".join(f"{w:>16s}" for w in results) + "  unit")
    for metric in names:
        row = "".join(
            f"{r['metrics'][metric]['value']:>16.6g}" for r in results.values())
        unit = next(iter(results.values()))["metrics"][metric]["unit"]
        print(f"# {metric:42s}{row}  {unit}")
    print("# " + "correct".ljust(42) + "".join(
        f"{str(r['correct']):>16s}" for r in results.values()))
    print(json.dumps({"seed": args.seed, "correct": ok, "workloads": results}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + REPRODUCER_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=REFERENCE["seeds"]["dev"])
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "configs.py").is_file():
        sys.stderr.write(f"perfbench: the program under test is missing "
                         f"({SRC / 'repro'} not found)\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
