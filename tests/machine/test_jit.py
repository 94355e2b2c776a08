"""Superblock trace JIT: formation, side exits, invalidation, the code
cache.

The contract under test: the *observable* behaviour with superblocks —
registers, flags, memory, ``executed``, and every per-category cycle
counter — is bit-identical to the interpreter-only reference
(``jit_threshold = math.inf``, every instruction through its handler);
only host wall time changes. Plus instrument hooks on warm code,
charge-shadow layering (the dispatcher side), ``_prog_cache`` staleness
across a mid-run reload, and reuse of cached code across reloads.
"""

import math

import pytest

from repro.isa import assemble
from repro.machine import AddressSpace, Machine, PageFault
from repro.machine import jit as jit_module

DATA = 0xC0000000
STACK_TOP = 0xC0104000
BASE = 0x08000000

LOOP_SRC = """
.globl f
f: movl $0, %eax
   movl $0, %ecx
loop:
   movl (%ebx,%ecx,4), %edx
   addl %edx, %eax
   incl %ecx
   cmpl $16, %ecx
   jne loop
   shll $1, %eax
   ret
"""


def make_machine(jit=False, threshold=2):
    """A bare machine; ``jit=False`` is the interpreter-only reference."""
    m = Machine()
    space = AddressSpace("test", m.phys, m.hypervisor_table)
    space.map_new_pages(DATA, 4)
    space.map_new_pages(0xC0100000, 4)
    m.cpu.address_space = space
    m.cpu.jit_threshold = threshold if jit else math.inf
    return m, space


def machine_state(m):
    return (dict(m.cpu.regs), dict(m.cpu.flags), m.cpu.df,
            m.cpu.executed, m.account.cycles)


def run_both(source, calls=1, args=(), setup=None, threshold=2):
    """Run ``source`` on two fresh machines (interp vs JIT) and assert
    the full observable state matches; returns (results, jit machine)."""
    outs = []
    machines = []
    for jit in (False, True):
        m, space = make_machine(jit=jit, threshold=threshold)
        program = assemble(source)
        loaded = m.load_linked_program(program, BASE)
        if setup:
            setup(m, space, loaded)
        results = [m.cpu.call_function(loaded.symbol("f"), list(args),
                                       stack_top=STACK_TOP)
                   for _ in range(calls)]
        outs.append((results, machine_state(m)))
        machines.append(m)
    assert outs[0] == outs[1]
    return outs[1][0], machines[1]


class TestSuperblockFormation:
    def test_hot_loop_is_promoted_and_matches_interpreter(self):
        def fill(m, space, loaded):
            for i in range(16):
                space.write(DATA + 4 * i, 4, i)
            m.cpu.regs["ebx"] = DATA

        results, m = run_both(LOOP_SRC, calls=8, setup=fill)
        assert results[-1] == 2 * sum(range(16))
        stats = m.cpu.jit_stats()
        assert stats["compiles"] + stats["reuses"] >= 1
        assert stats["entries"] >= 1

    def test_cold_code_never_compiles(self):
        src = ".globl f\nf: movl $3, %eax\nret"
        results, m = run_both(src, calls=1, threshold=50)
        assert results == [3]
        stats = m.cpu.jit_stats()
        assert stats["compiles"] + stats["reuses"] == 0
        assert stats["entries"] == 0

    def test_jit_on_by_default(self):
        # no knob: a fresh machine promotes a hot loop at the default
        # threshold, and the reference engine is only a threshold away
        m = Machine()
        assert not hasattr(m.cpu, "jit_enabled")
        assert m.cpu.jit_threshold == 16
        space = AddressSpace("test", m.phys, m.hypervisor_table)
        space.map_new_pages(DATA, 4)
        space.map_new_pages(0xC0100000, 4)
        m.cpu.address_space = space
        loaded = m.load_linked_program(assemble(LOOP_SRC), BASE)
        m.cpu.regs["ebx"] = DATA
        for _ in range(4):
            m.cpu.call_function(loaded.symbol("f"), [], stack_top=STACK_TOP)
        assert m.cpu.jit_stats()["superblocks"] >= 1
        assert m.cpu.jit_stats()["entries"] > 0

    def test_long_trace_is_cut_and_the_rest_promoted(self):
        # straight-line code longer than the cap: the head's trace stops
        # at MAX_TRACE_INSTRS and the cut point becomes a head of its own
        cap = jit_module.MAX_TRACE_INSTRS
        body = "\n".join("   addl $%d, %%eax" % (i + 1)
                         for i in range(cap + 10))
        src = f".globl f\nf: movl $0, %eax\n{body}\n   ret\n"
        results, m = run_both(src, calls=6)
        assert results[-1] == sum(range(1, cap + 11))
        loaded = m.code.program_at(BASE)
        head = loaded.symbol("f")
        cut = loaded.addrs[cap]
        superblocks = loaded._jit.superblocks
        assert superblocks[head].n_instrs == cap
        assert cut in loaded._jit.leaders
        assert superblocks[cut].n_instrs == len(loaded.addrs) - cap

    def test_side_exit_when_branch_flips(self):
        # the trace is laid out for the warm-up iteration count; calls
        # with a different count must side-exit mid-superblock with
        # registers, flags, and cycles exactly as step() leaves them
        src = """
.globl f
f: movl 4(%esp), %ecx
   movl $0, %eax
loop:
   addl %ecx, %eax
   decl %ecx
   cmpl $0, %ecx
   jne loop
   ret
"""
        for n in (9, 1, 30, 2):
            expected = sum(range(1, n + 1))
            outs = []
            for jit in (False, True):
                m, _ = make_machine(jit=jit)
                loaded = m.load_linked_program(assemble(src), BASE)
                for _ in range(6):       # warm with n=9 shape
                    m.cpu.call_function(loaded.symbol("f"), [9],
                                        stack_top=STACK_TOP)
                r = m.cpu.call_function(loaded.symbol("f"), [n],
                                        stack_top=STACK_TOP)
                outs.append((r, machine_state(m)))
            assert outs[0] == outs[1]
            assert outs[1][0] == expected

    def test_fault_mid_superblock_leaves_precise_state(self):
        # the second call points the load at an unmapped page: the
        # fault must surface at the same instruction with identical
        # cycles charged in both modes
        src = """
.globl f
f: movl $0, %eax
   movl $0, %ecx
loop:
   addl (%ebx,%ecx,4), %eax
   incl %ecx
   cmpl $8, %ecx
   jne loop
   ret
"""
        outs = []
        for jit in (False, True):
            m, space = make_machine(jit=jit)
            loaded = m.load_linked_program(assemble(src), BASE)
            m.cpu.regs["ebx"] = DATA
            for _ in range(6):
                m.cpu.call_function(loaded.symbol("f"), [],
                                    stack_top=STACK_TOP)
            m.cpu.regs["ebx"] = 0x40000000        # unmapped
            with pytest.raises(PageFault):
                m.cpu.call_function(loaded.symbol("f"), [],
                                    stack_top=STACK_TOP)
            outs.append(machine_state(m))
        assert outs[0] == outs[1]


class TestDispatcherGuards:
    def test_profiler_shadow_bypasses_superblocks_exactly(self):
        # with a charge shadow installed the dispatcher must fall back
        # to step() so per-charge attribution stays per-instruction
        m, space = make_machine(jit=True)
        loaded = m.load_linked_program(assemble(LOOP_SRC), BASE)
        for i in range(16):
            space.write(DATA + 4 * i, 4, i)
        m.cpu.regs["ebx"] = DATA
        for _ in range(6):
            m.cpu.call_function(loaded.symbol("f"), [],
                                stack_top=STACK_TOP)
        entries_before = m.cpu.jit_stats()["entries"]
        prof = m.obs.profiler
        prof.enable()
        before = m.account.snapshot()
        m.cpu.call_function(loaded.symbol("f"), [], stack_top=STACK_TOP)
        moved = m.account.delta_since(before)
        prof.disable()
        assert m.cpu.jit_stats()["entries"] == entries_before
        assert prof.category_totals() == {
            c: n for c, n in moved.items() if n}

    def test_cycle_scale_change_recompiles_not_reuses(self):
        # superblocks bake pre-scaled per-charge constants; a scale
        # change must not reuse them
        outs = []
        for jit in (False, True):
            m, space = make_machine(jit=jit)
            loaded = m.load_linked_program(assemble(LOOP_SRC), BASE)
            for i in range(16):
                space.write(DATA + 4 * i, 4, i)
            m.cpu.regs["ebx"] = DATA
            for _ in range(6):
                m.cpu.call_function(loaded.symbol("f"), [],
                                    stack_top=STACK_TOP)
            m.cpu.cycle_scale = 0.5
            before = m.account.snapshot()
            r = m.cpu.call_function(loaded.symbol("f"), [],
                                    stack_top=STACK_TOP)
            outs.append((r, m.account.delta_since(before)))
        assert outs[0] == outs[1]


class TestInstrumentHooks:
    """ISSUE 8 satellite: hooks registered after warm-up must fire."""

    SRC = ".globl f\nf: movl $5, %eax\naddl $1, %eax\nret"

    @pytest.mark.parametrize("jit", [False, True])
    def test_hook_added_on_warm_code_fires(self, jit):
        m, _ = make_machine(jit=jit)
        loaded = m.load_linked_program(assemble(self.SRC), BASE)
        for _ in range(6):                        # warm: handlers cached
            assert m.cpu.call_function(loaded.symbol("f"), [],
                                       stack_top=STACK_TOP) == 6
        hits = []
        loaded.instrument[1] = lambda cpu: hits.append(cpu.eip)
        for _ in range(4):
            assert m.cpu.call_function(loaded.symbol("f"), [],
                                       stack_top=STACK_TOP) == 6
        assert len(hits) == 4

    @pytest.mark.parametrize("jit", [False, True])
    def test_hook_removal_stops_firing(self, jit):
        m, _ = make_machine(jit=jit)
        loaded = m.load_linked_program(assemble(self.SRC), BASE)
        hits = []
        loaded.instrument[1] = lambda cpu: hits.append(cpu.eip)
        for _ in range(6):
            m.cpu.call_function(loaded.symbol("f"), [],
                                stack_top=STACK_TOP)
        assert len(hits) == 6
        del loaded.instrument[1]
        for _ in range(4):
            m.cpu.call_function(loaded.symbol("f"), [],
                                stack_top=STACK_TOP)
        assert len(hits) == 6

    def test_hook_change_invalidates_superblocks(self):
        m, space = make_machine(jit=True)
        loaded = m.load_linked_program(assemble(LOOP_SRC), BASE)
        for i in range(16):
            space.write(DATA + 4 * i, 4, i)
        m.cpu.regs["ebx"] = DATA
        for _ in range(6):
            m.cpu.call_function(loaded.symbol("f"), [],
                                stack_top=STACK_TOP)
        assert m.cpu.jit_stats()["superblocks"] >= 1
        loaded.instrument[2] = lambda cpu: None
        assert m.cpu.jit_stats()["superblocks"] == 0

    def test_hook_does_not_perturb_cycles(self):
        outs = []
        for jit in (False, True):
            m, _ = make_machine(jit=jit)
            loaded = m.load_linked_program(assemble(self.SRC), BASE)
            for _ in range(6):
                m.cpu.call_function(loaded.symbol("f"), [],
                                    stack_top=STACK_TOP)
            loaded.instrument[1] = lambda cpu: None
            before = m.account.snapshot()
            for _ in range(4):
                m.cpu.call_function(loaded.symbol("f"), [],
                                    stack_top=STACK_TOP)
            outs.append(m.account.delta_since(before))
        assert outs[0] == outs[1]


class TestReloadInvalidation:
    """ISSUE 8 satellite: ``_prog_cache`` and superblocks across
    recovery reload (unregister + reload at the same base)."""

    V1 = ".globl f\nf: call swap\nmovl $1, %eax\nret"
    V2 = ".globl f\nf: call swap\nmovl $2, %eax\nret"

    @pytest.mark.parametrize("jit", [False, True])
    def test_mid_run_reload_executes_new_program(self, jit):
        m, _ = make_machine(jit=jit)
        state = {"armed": False}

        def swap(cpu):
            if not state["armed"]:
                return None
            state["armed"] = False
            m.code.unregister(state["loaded"])
            state["loaded"] = m.load_program(
                assemble(self.V2), BASE,
                extern={"swap": m.natives.address_of("swap")})
            return None

        m.register_native("swap", swap)
        state["loaded"] = m.load_program(
            assemble(self.V1), BASE,
            extern={"swap": m.natives.address_of("swap")})
        f = state["loaded"].symbol("f")
        for _ in range(6):                        # warm the v1 binary
            assert m.cpu.call_function(f, [], stack_top=STACK_TOP) == 1
        state["armed"] = True
        # the reload happens *inside* this call: the very next fetch
        # after the native returns must execute v2's instructions
        assert m.cpu.call_function(f, [], stack_top=STACK_TOP) == 2
        assert m.cpu.call_function(f, [], stack_top=STACK_TOP) == 2

    def test_reregister_keeps_superblocks(self):
        # unregister + register of the *same* program object (its bytes
        # and base cannot change): the superblocks stay valid and keep
        # running, with cycles identical to the interpreter reference
        m, space = make_machine(jit=True)
        loaded = m.load_linked_program(assemble(LOOP_SRC), BASE)
        for i in range(16):
            space.write(DATA + 4 * i, 4, i)
        m.cpu.regs["ebx"] = DATA
        for _ in range(6):
            m.cpu.call_function(loaded.symbol("f"), [],
                                stack_top=STACK_TOP)
        n_superblocks = m.cpu.jit_stats()["superblocks"]
        assert n_superblocks >= 1
        m.code.unregister(loaded)
        m.code.register(loaded)
        built = m.cpu.jit_compiles + m.cpu.jit_reuses
        entries = m.cpu.jit_entries
        before = m.account.snapshot()
        r = m.cpu.call_function(loaded.symbol("f"), [],
                                stack_top=STACK_TOP)
        assert r == 2 * sum(range(16))
        assert m.cpu.jit_stats()["superblocks"] == n_superblocks
        assert m.cpu.jit_compiles + m.cpu.jit_reuses == built
        assert m.cpu.jit_entries > entries
        m2, space2 = make_machine(jit=False)
        loaded2 = m2.load_linked_program(assemble(LOOP_SRC), BASE)
        for i in range(16):
            space2.write(DATA + 4 * i, 4, i)
        m2.cpu.regs["ebx"] = DATA
        for _ in range(6):
            m2.cpu.call_function(loaded2.symbol("f"), [],
                                 stack_top=STACK_TOP)
        before2 = m2.account.snapshot()
        m2.cpu.call_function(loaded2.symbol("f"), [], stack_top=STACK_TOP)
        assert m.account.delta_since(before) == m2.account.delta_since(
            before2)

    def test_entry_count_survives_mid_run_reload(self):
        # jit_stats()["entries"] is CPU-lifetime: a reload inside a run
        # (which replaces the program and its superblocks) never takes
        # it back, so deltas across swaps are never negative
        m, _ = make_machine(jit=True)
        state = {"armed": False}

        def swap(cpu):
            if state["armed"]:
                state["armed"] = False
                m.code.unregister(state["loaded"])
                state["loaded"] = m.load_program(
                    assemble(self.V1), BASE,
                    extern={"swap": m.natives.address_of("swap")})
            return None

        m.register_native("swap", swap)
        state["loaded"] = m.load_program(
            assemble(self.V1), BASE,
            extern={"swap": m.natives.address_of("swap")})
        f = state["loaded"].symbol("f")
        seen = []
        for i in range(12):
            state["armed"] = i in (4, 8)
            assert m.cpu.call_function(f, [], stack_top=STACK_TOP) == 1
            seen.append(m.cpu.jit_stats()["entries"])
        assert seen == sorted(seen)
        assert seen[-1] > seen[8] > seen[4] > 0


def _loop_machine(source, jit=True, threshold=2):
    m, space = make_machine(jit=jit, threshold=threshold)
    loaded = m.load_linked_program(assemble(source), BASE)
    for i in range(16):
        space.write(DATA + 4 * i, 4, i)
    m.cpu.regs["ebx"] = DATA
    return m, loaded


def _call(m, loaded, n=6):
    return [m.cpu.call_function(loaded.symbol("f"), [], stack_top=STACK_TOP)
            for _ in range(n)]


class TestCodeCache:
    """Compiled code is cached process-wide by source content: a reload of
    identical bytes at the same base reuses it, anything whose bytes
    changed compiles afresh, and the cache is bounded."""

    V1 = LOOP_SRC
    #: same length and layout as V1, different bytes (sub for add)
    V2 = LOOP_SRC.replace("addl %edx, %eax", "subl %edx, %eax")

    @staticmethod
    def _count_compiles(monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return compile(*args, **kwargs)
        monkeypatch.setattr(jit_module, "compile", counting, raising=False)
        return calls

    def test_reload_of_identical_bytes_compiles_nothing(self, monkeypatch):
        m, loaded = _loop_machine(self.V1)
        ref, ref_loaded = _loop_machine(self.V1, jit=False)
        _call(m, loaded)
        _call(ref, ref_loaded)
        assert m.cpu.jit_stats()["superblocks"] >= 1
        calls = self._count_compiles(monkeypatch)
        reuses = m.cpu.jit_reuses
        # recovery/handover reload: a new program object, same bytes
        for mach in (m, ref):
            old = mach.code.program_at(BASE)
            mach.code.unregister(old)
        loaded = m.load_linked_program(assemble(self.V1), BASE)
        ref_loaded = ref.load_linked_program(assemble(self.V1), BASE)
        before = m.account.snapshot()
        before_ref = ref.account.snapshot()
        assert _call(m, loaded) == _call(ref, ref_loaded)
        assert calls == []
        assert m.cpu.jit_reuses > reuses
        assert m.cpu.jit_stats()["superblocks"] >= 1
        assert (m.account.delta_since(before)
                == ref.account.delta_since(before_ref))
        assert machine_state(m) == machine_state(ref)

    def test_reload_of_different_bytes_never_runs_stale_code(self):
        m, loaded = _loop_machine(self.V1)
        ref, ref_loaded = _loop_machine(self.V1, jit=False)
        assert _call(m, loaded) == _call(ref, ref_loaded)
        assert m.cpu.jit_stats()["superblocks"] >= 1
        for mach in (m, ref):
            mach.code.unregister(mach.code.program_at(BASE))
        loaded = m.load_linked_program(assemble(self.V2), BASE)
        ref_loaded = ref.load_linked_program(assemble(self.V2), BASE)
        assert loaded.addrs == ref_loaded.addrs
        results = _call(m, loaded)
        assert results == _call(ref, ref_loaded)
        # V2 subtracts: -(0 + 1 + ... + 15), doubled, as 32 bits
        assert results[-1] == (-2 * sum(range(16))) & 0xFFFFFFFF
        assert m.cpu.jit_stats()["superblocks"] >= 1
        assert machine_state(m) == machine_state(ref)

    def test_bound_evicts_and_execution_stays_correct(self, monkeypatch):
        monkeypatch.setattr(jit_module, "CODE_CACHE_MAX", 1)
        monkeypatch.setattr(jit_module, "_code_cache",
                            type(jit_module._code_cache)())
        for source in (self.V1, self.V2, self.V1):
            m, loaded = _loop_machine(source)
            ref, ref_loaded = _loop_machine(source, jit=False)
            assert _call(m, loaded) == _call(ref, ref_loaded)
            assert machine_state(m) == machine_state(ref)
            assert m.cpu.jit_stats()["entries"] > 0
            assert len(jit_module._code_cache) <= 1
        # V1's code was evicted by V2's, so the last V1 run compiled
        assert m.cpu.jit_compiles >= 1

    def test_trace_ends_at_an_already_compiled_head(self):
        src = """
.globl f
.globl g
f: movl $1, %eax
   jmp g
g: addl $2, %eax
   addl $3, %eax
   ret
"""
        outs = []
        for jit in (False, True):
            m, _ = make_machine(jit=jit)
            loaded = m.load_linked_program(assemble(src), BASE)
            results = []
            for name in ("g",) * 4 + ("f",) * 4:
                m.cpu.regs["eax"] = 10
                results.append(m.cpu.call_function(
                    loaded.symbol(name), [], stack_top=STACK_TOP))
            outs.append((results, machine_state(m)))
        assert outs[0] == outs[1]
        superblocks = loaded._jit.superblocks
        g_sb = superblocks[loaded.symbol("g")]
        f_sb = superblocks[loaded.symbol("f")]
        # g compiled first; f's trace stops at g instead of copying it
        assert g_sb.n_instrs == 3
        assert f_sb.n_instrs == 2


class TestNativesMidTrace:
    def test_native_call_inside_hot_loop(self):
        calls = []

        src = """
.globl f
f: movl $0, %eax
   movl $5, %ecx
loop:
   pushl %ecx
   call tally
   addl $4, %esp
   addl %ecx, %eax
   decl %ecx
   cmpl $0, %ecx
   jne loop
   ret
"""
        outs = []
        for jit in (False, True):
            calls.clear()
            m, _ = make_machine(jit=jit)
            m.register_native("tally",
                              lambda cpu: calls.append(
                                  cpu.read_stack_arg(0)))
            loaded = m.load_program(
                assemble(src), BASE,
                extern={"tally": m.natives.address_of("tally")})
            for _ in range(6):
                r = m.cpu.call_function(loaded.symbol("f"), [],
                                        stack_top=STACK_TOP)
            outs.append((r, list(calls), machine_state(m)))
        assert outs[0] == outs[1]
        assert outs[1][0] == sum(range(1, 6))

    def test_native_raising_mid_superblock(self):
        class Boom(Exception):
            pass

        src = """
.globl f
f: movl $0, %eax
   movl $4, %ecx
loop:
   call maybe_boom
   addl %ecx, %eax
   decl %ecx
   cmpl $0, %ecx
   jne loop
   ret
"""
        outs = []
        for jit in (False, True):
            m, _ = make_machine(jit=jit)
            armed = {"on": False}

            def maybe_boom(cpu):
                if armed["on"]:
                    raise Boom()
                return None

            m.register_native("maybe_boom", maybe_boom)
            loaded = m.load_program(
                assemble(src), BASE,
                extern={"maybe_boom": m.natives.address_of("maybe_boom")})
            for _ in range(6):
                m.cpu.call_function(loaded.symbol("f"), [],
                                    stack_top=STACK_TOP)
            armed["on"] = True
            with pytest.raises(Boom):
                m.cpu.call_function(loaded.symbol("f"), [],
                                    stack_top=STACK_TOP)
            outs.append(machine_state(m))
        assert outs[0] == outs[1]
