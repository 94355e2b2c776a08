"""Superblock JIT: host wall-time speedup at bit-identical cycles.

Not a paper figure — this gates the trace-JIT contract on the figure 5/6
fast paths (domU-twin tx and rx), comparing the default engine against
the interpreter-only reference (``repro.machine.interpreter_only``):

* the **simulated** per-category cycle movement over the measured
  window is bit-identical on both engines, and
* the **host** wall time spent inside the CPU (``cpu.call_function``)
  drops by at least 2x with superblocks.

Wall-clock metrics carry ``host``/``seconds`` in their names so the
perf gate (``check_results.py --gate``) skips them; the cycle metrics
are deterministic and gated tightly against
``benchmarks/baselines/jit.json``.
"""

from contextlib import nullcontext
from time import perf_counter

import pytest

from repro.configs import build
from repro.machine import interpreter_only

from .common import header, report

WARMUP = 192      # deep enough that every hot head compiles before the
PACKETS = 384     # measured window opens (threshold 16, rx included)
MIN_SPEEDUP = 2.0


def _run_direction(direction, jit):
    with nullcontext() if jit else interpreter_only():
        return _timed_run(direction)


def _timed_run(direction):
    system = build("domU-twin", n_nics=1)
    cpu = system.machine.cpu
    inner = cpu.call_function
    box = {"t": 0.0, "depth": 0}

    def timed(*args, **kwargs):
        # nested invocations (natives re-entering model code) are already
        # inside the outer timing window: count only the outermost frame
        if box["depth"]:
            return inner(*args, **kwargs)
        box["depth"] += 1
        t0 = perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            box["t"] += perf_counter() - t0
            box["depth"] -= 1

    cpu.call_function = timed
    op = (system.transmit_packets if direction == "tx"
          else system.receive_packets)
    done = op(WARMUP)
    if done < WARMUP:
        raise RuntimeError(f"only {done}/{WARMUP} warmup packets flowed")
    box["t"] = 0.0
    snap = system.machine.account.snapshot()
    done = op(PACKETS)
    if done < PACKETS:
        raise RuntimeError(f"only {done}/{PACKETS} packets flowed")
    moved = system.machine.account.delta_since(snap)
    return box["t"], moved, cpu.jit_stats()


def _measure(direction):
    """(wall off, wall on, cycles off, cycles on, jit stats); best of
    two trials on the wall ratio, since the host is not idle in CI."""
    best = None
    for _ in range(2):
        off_wall, off_cycles, _ = _run_direction(direction, jit=False)
        on_wall, on_cycles, stats = _run_direction(direction, jit=True)
        trial = (off_wall, on_wall, off_cycles, on_cycles, stats)
        if best is None or (off_wall / on_wall
                            > best[0] / best[1]):
            best = trial
        if best[0] / best[1] >= MIN_SPEEDUP:
            break
    return best


def run_jit_comparison():
    return {direction: _measure(direction) for direction in ("tx", "rx")}


@pytest.mark.benchmark(group="jit")
def test_jit_speedup(benchmark):
    results = benchmark.pedantic(run_jit_comparison, rounds=1, iterations=1)
    lines = list(header("Superblock JIT: CPU wall time (ms)",
                        paper_col="interpreter", meas_col="JIT"))
    metrics, obs = {}, {}
    for direction, (off_wall, on_wall, off_cycles, on_cycles,
                    stats) in results.items():
        speedup = off_wall / on_wall
        lines.append(f"  {'domU-twin ' + direction:34s} "
                     f"{off_wall * 1e3:>10.1f}   {on_wall * 1e3:>10.1f} ms"
                     f"   ({speedup:.2f}x)")
        metrics[f"{direction}_host_wall_off_seconds"] = off_wall
        metrics[f"{direction}_host_wall_on_seconds"] = on_wall
        metrics[f"{direction}_host_speedup"] = speedup
        # deterministic and gated: the measured-window cycle movement,
        # identical by contract between the two modes
        total = sum(off_cycles.values())
        metrics[f"{direction}_cycles_per_packet"] = total / PACKETS
        for category, cycles in sorted(off_cycles.items()):
            if cycles:
                metrics[f"{direction}_cycles_{category}"] = cycles
        obs[f"{direction}_jit_compiles"] = stats["compiles"]
        obs[f"{direction}_jit_reuses"] = stats["reuses"]
        obs[f"{direction}_jit_superblocks"] = stats["superblocks"]
        obs[f"{direction}_jit_entries"] = stats["entries"]
    lines.append("")
    lines.append("  simulated cycles: bit-identical in both modes "
                 "(asserted)")
    report("jit", lines, metrics=metrics,
           config={"config": "domU-twin", "packets": PACKETS,
                   "warmup": WARMUP, "nics": 1,
                   "min_speedup": MIN_SPEEDUP},
           obs=obs)

    for direction, (off_wall, on_wall, off_cycles, on_cycles,
                    stats) in results.items():
        assert off_cycles == on_cycles, (
            f"{direction}: simulated cycles diverged between "
            f"interpreter and JIT: {off_cycles} vs {on_cycles}")
        assert stats["compiles"] + stats["reuses"] >= 1
        assert stats["entries"] > 0
        assert off_wall / on_wall >= MIN_SPEEDUP, (
            f"{direction}: JIT speedup {off_wall / on_wall:.2f}x "
            f"below the {MIN_SPEEDUP}x bar")
