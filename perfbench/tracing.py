"""The traced run's span recorder.

Wraps the program's public layer entry points from the benchmark's own
code; nothing under ``src/`` is edited, and the untraced end-to-end run
never installs a wrapper. Each wrapped call becomes a span (name, start,
end, parent span, burst id). Spans stay in memory and are written out
when the run ends. A span's *self time* is its duration minus the time
spent in wrapped calls nested inside it, so every host nanosecond inside
wrapped code is attributed to exactly one layer.

The two hottest leaves (page-table translation and the MMIO region
lookup, a few hundred calls per packet) are aggregated only: storing a
span for each would cost more memory than the rest of the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

#: (layer key, defining module, attribute path, keep spans)
HOOKS = (
    ("cpu", "repro.machine.cpu", "Cpu.call_function", True),
    ("jit_compile", "repro.machine.jit", "compile_superblock", True),
    ("paging", "repro.machine.paging", "AddressSpace.translate", False),
    ("memory", "repro.machine.memory", "PhysicalMemory.mmio_region_at", False),
    ("nic", "repro.machine.nic", "E1000Device.receive", True),
    ("nic", "repro.machine.nic", "E1000Device.flush_interrupts", True),
    ("svm_miss", "repro.core.svm", "SvmManager.handle_miss", True),
    ("twin_tx", "repro.core.twin", "TwinDriverManager.guest_transmit", True),
    ("twin_tx", "repro.core.twin", "TwinDriverManager.guest_transmit_batch",
     True),
    ("twin_rx_flush", "repro.core.twin", "TwinDriverManager.flush_rx", True),
    ("reload", "repro.core.recovery", "RecoveryManager.attempt_reload", True),
    ("swap", "repro.core.handover", "HandoverManager.swap_binary", True),
    ("verifier", "repro.analysis.verifier", "verify_program", True),
    ("rewriter", "repro.core.rewriter", "rewrite_driver", True),
    ("loader", "repro.core.loader", "HypervisorLoader.load", True),
    ("softirq", "repro.xen.hypervisor", "Hypervisor.run_softirqs", True),
    ("sched", "repro.xen.sched", "CreditScheduler.run", True),
    ("call_driver", "repro.osmodel.kernel", "Kernel.call_driver", True),
)

#: spans kept in memory per run; later spans are only aggregated
SPAN_CAP = 200_000


class SpanTracer:
    """Installs the wrappers and aggregates calls / host time / self time
    per (window, layer key). ``window`` is set by the harness: "setup"
    from the build call to the first timed packet, "timed" for the
    episode."""

    def __init__(self):
        self.window = "setup"
        #: the list whose length is the current burst id (the episode's
        #: host samples); None outside an episode
        self.bursts: Optional[list] = None
        self.agg: Dict[Tuple[str, str], List[int]] = defaultdict(
            lambda: [0, 0, 0])
        #: (name, start ns, end ns, parent span index or -1, burst id)
        self.spans: List[Tuple[str, int, int, int, int]] = []
        self.spans_dropped = 0
        self._child_ns: List[int] = []
        self._current = -1
        self._restore: List[Tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------------

    def install(self):
        for key, module_name, path, keep in HOOKS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                self._patch(owner, attr, self._wrap(
                    key, path, owner.__dict__[attr], keep))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(key, path, original, keep)
            # rebind every module that imported the function by name
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("repro")
                        and getattr(mod, attr, None) is original):
                    self._patch(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- the wrapper ----------------------------------------------------------------

    def _wrap(self, key: str, name: str, fn, keep_spans: bool):
        tracer = self
        child_ns = self._child_ns
        spans = self.spans
        agg = self.agg
        clock = perf_counter_ns

        if not keep_spans:
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                child_ns.append(0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    inner = child_ns.pop()
                    if child_ns:
                        child_ns[-1] += elapsed
                    a = agg[(tracer.window, key)]
                    a[0] += 1
                    a[1] += elapsed
                    a[2] += elapsed - inner
            return leaf

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            parent = tracer._current
            if len(spans) < SPAN_CAP:
                index = len(spans)
                spans.append(None)
                tracer._current = index
            else:
                index = -1
                tracer.spans_dropped += 1
            bursts = tracer.bursts
            burst = len(bursts) if bursts is not None else -1
            child_ns.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                inner = child_ns.pop()
                if child_ns:
                    child_ns[-1] += elapsed
                a = agg[(tracer.window, key)]
                a[0] += 1
                a[1] += elapsed
                a[2] += elapsed - inner
                if index >= 0:
                    spans[index] = (name, start, end, parent, burst)
                    tracer._current = parent
        return spanned

    # -- results -------------------------------------------------------------------

    def take(self) -> Dict[Tuple[str, str], Tuple[int, int, int]]:
        """Aggregates since the last call: (window, key) -> (calls,
        total ns, self ns)."""
        out = {k: tuple(v) for k, v in self.agg.items()}
        self.agg.clear()
        return out

    def write_spans(self, path) -> int:
        """Write the kept spans, one tab-separated line each."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\tburst\n")
            for i, span in enumerate(self.spans):
                if span is not None:
                    fh.write("%d\t%s\t%d\t%d\t%d\t%d\n" % ((i,) + span))
        return len(self.spans)
