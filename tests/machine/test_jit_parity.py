"""Differential fuzzing: interpreter vs superblock JIT.

Every generated program is run on two fresh machines — the
interpreter-only reference (``jit_threshold = math.inf``) and the JIT at
threshold 1, so traces compile immediately — over several
invocations, and the complete observable state must be bit-identical:
registers, flags, direction flag, ``executed``, every per-category
cycle counter, and the data pages. Separate properties drive natives,
native-raised exceptions (the upcall shape), and page faults through
the middle of hot superblocks.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import assemble
from repro.machine import AddressSpace, Machine, PageFault

DATA = 0xC0000000
STACK_TOP = 0xC0104000
BASE = 0x08000000
DATA_BYTES = 4 * 4096

#: body registers; %ebx is the data base, %edi the loop counter
_REGS = ["eax", "ecx", "edx", "esi"]
_ALU = ["addl", "subl", "andl", "orl", "xorl"]
_UNARY = ["incl", "decl", "negl", "notl"]
_JCC = ["je", "jne", "jl", "jg", "jle", "jge", "jb", "ja", "js", "jns"]

_imm = st.integers(-(2 ** 31), 2 ** 31 - 1)
_off = st.integers(0, (DATA_BYTES // 4) - 1).map(lambda i: i * 4)

_instr = st.one_of(
    st.tuples(st.just("movimm"), st.sampled_from(_REGS), _imm),
    st.tuples(st.just("movreg"), st.sampled_from(_REGS),
              st.sampled_from(_REGS)),
    st.tuples(st.sampled_from(_ALU), st.sampled_from(_REGS), _imm),
    st.tuples(st.just("alureg"), st.sampled_from(_ALU),
              st.sampled_from(_REGS), st.sampled_from(_REGS)),
    st.tuples(st.sampled_from(["shll", "shrl", "sarl"]),
              st.sampled_from(_REGS), st.integers(0, 31)),
    st.tuples(st.sampled_from(_UNARY), st.sampled_from(_REGS)),
    st.tuples(st.just("load"), st.sampled_from(_REGS), _off),
    st.tuples(st.just("store"), st.sampled_from(_REGS), _off),
)

_block = st.lists(_instr, min_size=1, max_size=4)

#: (blocks, guards, loop iterations): guard i optionally jumps forward
#: over block i+1, giving the trace compiler real side exits
_programs = st.tuples(
    st.lists(_block, min_size=1, max_size=3),
    st.lists(st.one_of(
        st.none(),
        st.tuples(st.sampled_from(_JCC), st.sampled_from(_REGS), _imm),
    ), min_size=3, max_size=3),
    st.integers(2, 6),
)


def _render(op) -> str:
    kind = op[0]
    if kind == "movimm":
        return f"    movl ${op[2]}, %{op[1]}"
    if kind == "movreg":
        return f"    movl %{op[1]}, %{op[2]}"
    if kind == "alureg":
        return f"    {op[1]} %{op[2]}, %{op[3]}"
    if kind in _UNARY:
        return f"    {kind} %{op[1]}"
    if kind in ("shll", "shrl", "sarl"):
        return f"    {kind} ${op[2]}, %{op[1]}"
    if kind == "load":
        return f"    movl {op[2]}(%ebx), %{op[1]}"
    if kind == "store":
        return f"    movl %{op[1]}, {op[2]}(%ebx)"
    return f"    {kind} ${op[2]}, %{op[1]}"


def _build_source(blocks, guards, iters, extra="") -> str:
    lines = [".globl f", "f:", f"    movl $3735928559, %eax",
             f"    movl ${iters}, %edi", "loop:"]
    for i, block in enumerate(blocks):
        lines.extend(_render(op) for op in block)
        guard = guards[i] if i < len(guards) else None
        if guard is not None and i + 1 < len(blocks):
            jcc, reg, imm = guard
            lines.append(f"    cmpl ${imm}, %{reg}")
            lines.append(f"    {jcc} G{i}")
            lines.extend(_render(op) for op in blocks[i + 1])
            lines.append(f"G{i}:")
    if extra:
        lines.append(extra)
    lines += ["    decl %edi", "    cmpl $0, %edi", "    jne loop",
              "    ret"]
    return "\n".join(lines) + "\n"


def _make_machine(jit):
    m = Machine()
    space = AddressSpace("fuzz", m.phys, m.hypervisor_table)
    space.map_new_pages(DATA, 4)
    space.map_new_pages(0xC0100000, 4)
    m.cpu.address_space = space
    m.cpu.jit_threshold = 1 if jit else math.inf
    return m, space


def _observe(m, space, results, errors):
    return (results, errors, dict(m.cpu.regs), dict(m.cpu.flags),
            m.cpu.df, m.cpu.executed, m.account.cycles,
            space.read_bytes(DATA, DATA_BYTES))


def _run_one(source, jit, natives=None, calls=4):
    m, space = _make_machine(jit)
    extern = {}
    if natives:
        for name, factory in natives:
            m.register_native(name, factory(m))
            extern[name] = m.natives.address_of(name)
    loaded = m.load_program(assemble(source), BASE, extern=extern or None)
    m.cpu.regs["ebx"] = DATA
    results, errors = [], []
    for _ in range(calls):
        try:
            results.append(m.cpu.call_function(
                loaded.symbol("f"), [], stack_top=STACK_TOP))
        except Exception as exc:  # noqa: BLE001 - compared structurally
            errors.append((type(exc).__name__, str(exc)))
        m.cpu.regs["ebx"] = DATA        # a body store may have hit it
    cycles = m.account.cycles
    return (results, errors, dict(m.cpu.regs), dict(m.cpu.flags),
            m.cpu.df, m.cpu.executed, cycles,
            space.read_bytes(DATA, DATA_BYTES))


@settings(max_examples=40, deadline=None)
@given(_programs)
def test_alu_memory_loops_bit_identical(spec):
    blocks, guards, iters = spec
    source = _build_source(blocks, guards, iters)
    assert _run_one(source, False) == _run_one(source, True)


@settings(max_examples=20, deadline=None)
@given(_programs, st.integers(0, 0xFFFF))
def test_native_calls_mid_superblock(spec, salt):
    blocks, guards, iters = spec
    source = _build_source(
        blocks, guards, iters,
        extra="    pushl %ecx\n    call mix\n    addl $4, %esp")

    def mix_factory(m):
        def mix(cpu):
            return (cpu.read_stack_arg(0) ^ salt) & 0xFFFFFFFF
        return mix

    natives = [("mix", mix_factory)]
    assert (_run_one(source, False, natives)
            == _run_one(source, True, natives))


@settings(max_examples=20, deadline=None)
@given(_programs, st.integers(1, 8))
def test_native_raises_mid_superblock(spec, boom_at):
    # the upcall shape: a native raising out of the middle of a hot
    # trace must leave identical precise state in both modes
    class Boom(Exception):
        pass

    blocks, guards, iters = spec
    source = _build_source(blocks, guards, iters,
                           extra="    call maybe")

    def maybe_factory(m):
        state = {"n": 0}

        def maybe(cpu):
            state["n"] += 1
            if state["n"] == boom_at:
                raise Boom(f"at call {boom_at}")
            return None
        return maybe

    natives = [("maybe", maybe_factory)]
    assert (_run_one(source, False, natives)
            == _run_one(source, True, natives))


@settings(max_examples=20, deadline=None)
@given(_programs, st.integers(0, 3))
def test_fault_mid_superblock(spec, bad_call):
    # one invocation points the data base at an unmapped page: the
    # PageFault must surface at the same instruction, same cycles
    blocks, guards, iters = spec
    source = _build_source(blocks, guards, iters,
                           extra="    movl 0(%ebx), %esi")

    def run(jit):
        m, space = _make_machine(jit)
        loaded = m.load_program(assemble(source), BASE)
        results, errors = [], []
        for i in range(4):
            m.cpu.regs["ebx"] = 0x40000000 if i == bad_call else DATA
            try:
                results.append(m.cpu.call_function(
                    loaded.symbol("f"), [], stack_top=STACK_TOP))
            except PageFault as exc:
                errors.append(str(exc))
        return _observe(m, space, results, errors)

    off, on = run(False), run(True)
    assert off == on
    assert off[1]                       # the fault actually fired


@settings(max_examples=20, deadline=None)
@given(_programs, st.integers(1, 8), st.integers(0, 3))
def test_remap_mid_superblock(spec, remap_at, page):
    # a native moves one data page to a fresh frame in the middle of a
    # hot loop: cached translations in both engines must follow it
    blocks, guards, iters = spec
    source = _build_source(blocks, guards, iters, extra="    call remap")

    def remap_factory(m):
        state = {"n": 0}

        def remap(cpu):
            state["n"] += 1
            if state["n"] == remap_at:
                vaddr = DATA + page * 4096
                cpu.address_space.unmap_page(vaddr)
                cpu.address_space.map_page(vaddr, m.phys.allocate_frame())
            return None
        return remap

    def run(jit):
        m, space = _make_machine(jit)
        m.register_native("remap", remap_factory(m))
        loaded = m.load_program(assemble(source), BASE, extern={
            "remap": m.natives.address_of("remap")})
        results, errors = [], []
        for _ in range(4):
            m.cpu.regs["ebx"] = DATA
            try:
                results.append(m.cpu.call_function(
                    loaded.symbol("f"), [], stack_top=STACK_TOP))
            except Exception as exc:  # noqa: BLE001 - compared structurally
                errors.append((type(exc).__name__, str(exc)))
        frames = []
        frame = 1
        while m.phys.frame_allocated(frame):
            frames.append(m.phys.read_bytes(frame << 12, 4096))
            frame += 1
        return _observe(m, space, results, errors), frames

    assert run(False) == run(True)
