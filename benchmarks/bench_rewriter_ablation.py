"""Ablation: the value of the rewriter's design choices called out in
DESIGN.md — liveness-driven scratch allocation (vs always spilling) and
the ``stlb_call`` translation cache (vs translating every indirect call).
"""

import pytest

from repro.configs import build
from repro.core import Rewriter, rewrite_driver
from repro.core.rewriter import RewriteStats
from repro.drivers import build_e1000_program
from repro.isa import LivenessAnalysis

from .common import compare_row, header, report


class AlwaysSpillRewriter(Rewriter):
    """What the rewriter would do *without* footnote-3 liveness analysis:
    assume every register is live and spill three victims per access."""

    def _scratch(self, liveness, index, ins, k, stats):
        class NothingFree:
            def free_registers_at(self, _):
                return ()
        return super()._scratch(NothingFree(), index, ins, k, stats)


def run():
    program = build_e1000_program()
    _, with_liveness = rewrite_driver(program)
    _, without = AlwaysSpillRewriter().rewrite(program)

    # xlate-cache effectiveness on a live run
    system = build("domU-twin", n_nics=1)
    system.transmit_packets(128)
    system.receive_packets(128)
    runtime = system.twin.hyp_runtime
    return with_liveness, without, runtime


@pytest.mark.benchmark(group="rewriter-ablation")
def test_rewriter_ablation(benchmark):
    with_liveness, without, runtime = benchmark.pedantic(
        run, rounds=1, iterations=1)
    lines = list(header("Rewriter ablations",
                        paper_col="no-liveness", meas_col="liveness"))
    lines.append(compare_row("register spills", without.spills,
                             with_liveness.spills, "", ref="no-liveness"))
    lines.append(compare_row("output instructions",
                             without.output_instructions,
                             with_liveness.output_instructions, "",
                             ref="no-liveness"))
    saved = (without.output_instructions
             - with_liveness.output_instructions)
    lines.append(f"  liveness analysis avoids {saved} instructions "
                 f"({without.spills - with_liveness.spills} spill pairs) "
                 "— paper footnote 3")
    lines.append("")
    total = runtime.call_xlate_hits + runtime.call_xlate_misses
    lines.append(
        f"  stlb_call cache: {runtime.call_xlate_hits}/{total} hits "
        f"({runtime.call_xlate_hits / max(1, total):.1%}) — §5.1.2")
    report("rewriter_ablation", lines,
           metrics={"spills_with_liveness": with_liveness.spills,
                    "spills_without_liveness": without.spills,
                    "output_with_liveness":
                        with_liveness.output_instructions,
                    "output_without_liveness": without.output_instructions,
                    "call_xlate_hits": runtime.call_xlate_hits,
                    "call_xlate_misses": runtime.call_xlate_misses})

    assert with_liveness.spills < without.spills
    assert runtime.call_xlate_hits > runtime.call_xlate_misses
