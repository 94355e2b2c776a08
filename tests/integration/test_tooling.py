"""Tooling that CI relies on outside tier-1, checked inside it.

* Every span hook of the traced perfbench run resolves, so renaming a
  hooked method fails here rather than only in CI's traced run.
* The ``effort`` benchmark is counted fresh from the source and gated
  against its committed baseline, so a stale committed result cannot
  hide a red gate.
"""

import importlib
import importlib.util
from pathlib import Path

from benchmarks import bench_effort
from benchmarks.check_results import (
    BASELINES_DIR,
    gate_benchmark,
    load_baseline,
)

REPO = Path(__file__).resolve().parents[2]


def load_perfbench_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPerfbenchHooks:
    def test_every_hook_resolves(self):
        hooks = load_perfbench_tracing().HOOKS
        assert hooks
        for _key, module_name, path, _keep in hooks:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                # read-only lookup, as the tracer patches the owner's own
                # attribute: an inherited one would be patched on the
                # wrong class
                assert callable(owner.__dict__.get(attr)), path
            else:
                assert callable(getattr(module, attr, None)), path


class TestFreshEffortGate:
    def test_fresh_count_passes_the_gate(self):
        baseline = load_baseline(BASELINES_DIR, "effort")
        assert baseline is not None
        regressions, _ = gate_benchmark(
            "effort", {"metrics": bench_effort.run()}, baseline)
        assert not regressions, regressions
