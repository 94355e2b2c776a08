"""Section 6.5 (engineering effort): the paper implemented the 10 fast-path
support routines in Xen in 851 lines of commented C — "a very small
development effort compared to ... the entire driver support interface".

We compare the size of our hypervisor fast-path module against the full
guest-kernel support library, the same ratio argument.
"""

import inspect

import pytest

import repro.core.hypsupport as hypsupport
import repro.core.upcall as upcall
import repro.osmodel.support as full_support

from .common import compare_row, header, report


def loc(module) -> int:
    return len(inspect.getsource(module).splitlines())


def run():
    """The gated metrics, counted fresh from the source."""
    hyp, stubs, full = loc(hypsupport), loc(upcall), loc(full_support)
    return {"hypsupport_loc": hyp, "upcall_loc": stubs,
            "full_support_loc": full, "fast_path_ratio": hyp / full}


@pytest.mark.benchmark(group="effort")
def test_engineering_effort(benchmark):
    metrics = benchmark.pedantic(run, rounds=1, iterations=1)
    hyp = metrics["hypsupport_loc"]
    full = metrics["full_support_loc"]
    lines = list(header("§6.5 engineering effort (lines of code)",
                        paper_col="paper(C)", meas_col="ours(py)"))
    lines.append(compare_row("hypervisor fast-path routines", 851, hyp,
                             "LoC"))
    lines.append(compare_row("upcall mechanism", None,
                             metrics["upcall_loc"], "LoC"))
    lines.append(compare_row("full driver-support surface", None, full,
                             "LoC"))
    lines.append("")
    lines.append(f"  fast-path / full-surface ratio: {hyp / full:.2f} "
                 "(the point: implementing 10 routines is a fraction of "
                 "re-implementing the whole driver API)")
    report("effort", lines, metrics=metrics)

    assert hyp < full
