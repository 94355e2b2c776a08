"""Trace-JIT: superblock compilation, the CPU's execution engine.

The interpreter turns each instruction into a compiled handler closure.
This module is the next rung on the same ladder, the one the
dynamic-translation literature (QEMU's TCG, the software-only
passthrough line of work) climbs after per-instruction caching:
*superblocks*. When a basic-block head gets hot, the chain of blocks
starting there is compiled into a single straight-line Python function
— operand thunks fused into expressions, per-instruction ``charge()``
calls batched into one accumulated charge per block, the dispatch
loop's registry/handler overhead paid once per entry instead of once
per instruction. It is always on; the handlers remain the cold tier
and the reference semantics. The 10-instruction SVM fast path (and
its proof-elided anchor-reload form) inlines like any other run of
straight-line code, which is the point: that sequence dominates the
twin driver's dynamic instruction count.

Correctness contract (the part worth reading twice):

* **Cycle accounting is bit-identical.** The interpreter rounds each
  cost independently (``int(round(c * cycle_scale))``), so batching
  must sum the *per-charge rounded* values, never round the sum. Every
  constant cost is pre-scaled at compile time; data-dependent costs
  (hot-range memory pricing, MMIO) replicate the interpreter's exact
  decision procedure. The accumulator is flushed before anything that
  can observe the clock — native routines (the tracer timestamps spans
  with ``account.total``) and MMIO dispatch (device models emit
  events) — and a ``finally`` flush covers faults, so totals and
  ordering across observable boundaries match the handler path exactly.
* **Side exits are precise.** Before any operation that can fault or
  escape (a page-cache miss, native call, delegated handler), the
  emitted code materializes ``cpu.eip`` (the faulting instruction's
  fall-through, exactly what the dispatch loop leaves there) and
  ``cpu.executed``. Registers live in ``R_<name>`` locals inside the
  trace; the ones written since the last full store-back are stored
  into ``cpu.regs`` before every exit and call-out, and all are
  reloaded after each call-out; flags are always architectural,
  written in interpreter order.
* **Superblocks never run under a charge shadow.** The dispatch loop
  checks ``"charge" not in account.__dict__`` (the profiler or any
  other shadow) and ``sb.scale == cpu.cycle_scale`` before entering;
  otherwise the instruction runs through its compiled handler, whose
  behaviour is the definition of correct.
* **Invalidation.** Superblocks live on their ``LoadedProgram``, whose
  bytes and base never change; a reload makes a new program object,
  and the dispatch loop re-resolves the program whenever the
  ``CodeRegistry`` epoch moves. Changing the program's instrument map
  (hooks registered after warm-up must fire) drops its superblocks.
  The epoch and the instrument generation are also re-checked after
  any mid-trace native call, because a native can reload programs or
  install shadows.
* **Code cache.** Compiled code objects are cached process-wide by
  their source text (bounded, least recently used first out), and the
  source is a pure function of the program's content. A reload of the
  same bytes at the same base — every handover swap and recovery —
  re-emits identical source and re-executes the cached code against the
  new program's namespace, with no ``compile()``.

Trace shape: straight-line through fall-throughs and followed direct
jumps; conditional branches are predicted not-taken and compile to a
guarded side exit; a branch back to the trace head turns the whole
trace into a capped loop (the common ``while`` shape of the driver's
copy and descriptor-ring loops); indirect branches, traps and
unsupported forms end the trace *before* the instruction so its handler
executes it from an architecturally clean state. A trace also ends on
reaching a head that already has a superblock (the dispatcher enters
that one, so no path is emitted twice) and after ``MAX_TRACE_INSTRS``
instructions, where the rest becomes a trace of its own. Each memory
access is a page-cache hit path priced in one line and one call to the
shared miss path (``_miss``).
"""

from __future__ import annotations

import re
from collections import OrderedDict
from operator import itemgetter
from typing import Dict, List, Optional

from ..isa.instructions import Instruction
from ..isa.operands import Imm, Mem, Reg
from ..isa.registers import SUBREGISTERS
from .memory import COLD_PAGE, PACK, UNPACK

MASK32 = 0xFFFFFFFF

#: growth caps: instructions per trace, and loop iterations a compiled
#: back-edge may take before returning to the dispatcher (which
#: re-checks the call budget). The instruction cap also bounds the
#: memory one ``compile()`` takes: CPython keeps the peak of its largest
#: compile as resident set, and that grows with the source.
MAX_TRACE_INSTRS = 64
LOOP_CAP = 1024

#: bound on the process-wide code cache (compiled superblock code
#: objects, least recently used evicted first)
CODE_CACHE_MAX = 256

_FULL_REGS = frozenset(
    ("eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi"))

#: placeholders expanded by ``render`` once the trace's register sets
#: are known: a store-back line (``#spill N``), a store-back dict inside
#: a miss call (``@SN@``), and the register reload line
_SPILL_LINE = re.compile(r"#spill (\d+)$")
_SPILL_DICT = re.compile(r"@S(\d+)@")
_RELOAD = "#reload"

#: condition expressions over the hoisted flags dict ``f`` — same truth
#: tables as ``cpu._CONDITIONS``.
_COND_EXPR = {
    "je": "f['zf']", "jz": "f['zf']",
    "jne": "not f['zf']", "jnz": "not f['zf']",
    "jl": "f['sf'] != f['of']",
    "jge": "f['sf'] == f['of']",
    "jle": "f['zf'] or f['sf'] != f['of']",
    "jg": "not f['zf'] and f['sf'] == f['of']",
    "jb": "f['cf']",
    "jae": "not f['cf']",
    "jbe": "f['cf'] or f['zf']",
    "ja": "not (f['cf'] or f['zf'])",
    "js": "f['sf']",
    "jns": "not f['sf']",
}


class Superblock:
    """One compiled trace: entry point plus the metadata the dispatcher
    needs to decide whether it may run."""

    __slots__ = ("fn", "head", "scale", "n_instrs")

    def __init__(self, fn, head: int, scale: float, n_instrs: int):
        self.fn = fn
        self.head = head
        self.scale = scale
        self.n_instrs = n_instrs

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<superblock @{self.head:#010x} {self.n_instrs} instrs>"


class JitState:
    """Per-LoadedProgram JIT state: hot counters keyed by block-head
    address and compiled superblocks. ``False`` in ``superblocks``
    blacklists a head whose trace could not be compiled. A program's
    bytes and base never change, so the state lives as long as the
    program; only an instrument change resets it."""

    __slots__ = ("counts", "superblocks", "leaders")

    def __init__(self, loaded):
        self.leaders = _block_leaders(loaded)
        self.counts: Dict[int, int] = {}
        self.superblocks: Dict[int, object] = {}

    def reset(self):
        self.counts.clear()
        self.superblocks.clear()


#: process-wide code cache: a superblock's source -> its code object.
#: The source is a pure function of the program's bytes and base, the
#: costs and scale, the instrumented sites and which heads already had
#: superblocks, so a reload of identical bytes (handover swap, recovery)
#: emits identical source and re-executes cached code against the new
#: program's namespace instead of compiling it again. Sharing it across
#: machines is safe: a code object depends on nothing but its source, so
#: only host time and the compile/reuse split can differ between runs.
_code_cache: "OrderedDict[str, object]" = OrderedDict()


def _cached_code(source: str):
    """(code object for ``source``, whether it was compiled fresh)."""
    code = _code_cache.get(source)
    if code is not None:
        _code_cache.move_to_end(source)
        return code, False
    code = compile(source, "<superblock>", "exec")
    _code_cache[source] = code
    if len(_code_cache) > CODE_CACHE_MAX:
        _code_cache.popitem(last=False)
    return code, True


def _miss(cpu, eip, pending, va, size, value, dirty):
    """The cold half of every inlined access: a page-cache miss or a
    page-straddling access (a read when ``value`` is None), called once
    the trace has flushed its accumulator. Materializes the precise
    state (``eip``, ``executed``, the registers the trace has dirtied),
    runs ``Cpu.read_mem``/``write_mem`` — which translate, fault,
    dispatch MMIO and fill the cache — and takes the pending count back,
    since the trace's main path still carries it. Returns the value read
    and the re-read page caches (model code may have switched address
    spaces)."""
    cpu.eip = eip
    cpu.executed += pending
    cpu.regs.update(dirty)
    if value is None:
        value = cpu.read_mem(va, size)
    else:
        cpu.write_mem(va, size, value)
    cpu.executed -= pending
    space = cpu.address_space
    return value, space.read_pages, space.write_pages


#: names every superblock namespace holds: little-endian accessors for
#: the inline RAM fast path, the shared miss path, and the all-cold
#: hot-range mask
_NAMESPACE = {"u2": UNPACK[2], "u4": UNPACK[4], "p2": PACK[2],
              "p4": PACK[4], "M": _miss, "Z": COLD_PAGE}


def _block_leaders(loaded) -> set:
    """Addresses where a superblock may start: function entries, branch
    targets, and fall-throughs of control flow (so side-exit landing
    pads are themselves promotable — nested loops each get their own
    trace). A trace cut at ``MAX_TRACE_INSTRS`` adds its end."""
    addrs = loaded.addrs
    if not addrs:
        return set()
    leaders = {addrs[0]}
    for addr in loaded.symbols.values():
        if addr in loaded.addr_to_index:
            leaders.add(addr)
    for i, instr in enumerate(loaded.program.instructions):
        if instr.is_control_flow:
            if i + 1 < len(addrs):
                leaders.add(addrs[i + 1])
            target = loaded.targets.get(i)
            if target is not None and target in loaded.addr_to_index:
                leaders.add(target)
    return leaders


class _Unsupported(Exception):
    """Raised by the emitter to end the trace before an instruction."""


class _Emitter:
    """Generates the superblock's Python source for one trace."""

    def __init__(self, cpu, loaded, head_index: int):
        self.cpu = cpu
        self.loaded = loaded
        self.head_index = head_index
        self.head_addr = loaded.addrs[head_index]
        self.costs = cpu.costs
        self.scale = cpu.cycle_scale
        self.lines: List[str] = []
        self.ns: Dict[str, object] = {}
        #: compile-time-constant scaled cycles not yet materialized
        self.buf = 0
        #: the runtime accumulator ``acc`` may be non-zero
        self.acc_dirty = False
        #: instructions consumed but not yet added to ``cpu.executed``
        self.pending = 0
        #: compile-time knowledge of ``cpu.eip`` on the main path
        self.cur_eip: Optional[int] = self.head_addr
        self.tmp = 0
        self.uses_mem = False
        self.uses_natives = False
        self.has_backedge = False
        self.n_instrs = 0
        #: the program's superblocks (the trace ends on reaching a head
        #: that has one) and block leaders (a capped trace adds its end)
        self.js = loaded.jit_state()
        #: registers the trace touches (held in ``R_<name>`` locals)
        self.regs_used: set = set()
        #: registers written since the main path last stored every local
        #: back (a native call or delegated handler), and whether that
        #: happened since the head. In a loop, what a back-edge leaves
        #: dirty is still dirty at the top of the next iteration.
        self.dirty: set = set()
        self.synced = False
        self.backedge_dirty: set = set()
        #: per store-back site: (dirty registers, synced), see ``render``
        self.spill_sites: List[tuple] = []

    # -- infrastructure ------------------------------------------------------

    def scaled(self, cycles: int) -> int:
        return int(round(cycles * self.scale))

    def emit(self, text: str, ind: int = 0):
        self.lines.append("    " * ind + text)

    def temp(self, prefix: str = "t") -> str:
        self.tmp += 1
        return f"{prefix}{self.tmp}"

    def bake(self, prefix: str, obj) -> str:
        name = f"{prefix}{len(self.ns)}"
        self.ns[name] = obj
        return name

    def charge_const(self, cycles: int):
        self.buf += self.scaled(cycles)

    def sync(self, next_addr: int, ind: int = 0):
        """Materialize eip/executed/buffered charges before a
        potentially-faulting or observing operation."""
        if self.buf:
            self.emit(f"acc += {self.buf}", ind)
            self.buf = 0
            self.acc_dirty = True
        if self.cur_eip != next_addr:
            self.emit(f"cpu.eip = {next_addr}", ind)
            self.cur_eip = next_addr
        if self.pending:
            self.emit(f"cpu.executed += {self.pending}", ind)
            self.pending = 0

    def flush(self, ind: int = 0):
        """Push the accumulator into the account (before anything that
        observes the simulated clock)."""
        if self.buf and not self.acc_dirty:
            self.emit(f"charge(cat, {self.buf})", ind)
            self.buf = 0
            return
        if self.buf:
            self.emit(f"acc += {self.buf}", ind)
            self.buf = 0
            self.acc_dirty = True
        if self.acc_dirty:
            self.emit("charge(cat, acc)", ind)
            self.emit("acc = 0", ind)
            self.acc_dirty = False

    def spill_site(self) -> int:
        """Record a store-back of the currently dirty registers; returns
        the site's number for a placeholder ``render`` expands."""
        self.spill_sites.append((frozenset(self.dirty), self.synced))
        return len(self.spill_sites) - 1

    def spill(self, ind: int = 0):
        """Store the dirty register locals back into ``cpu.regs`` before
        an exit or a call-out. The locals always hold the architectural
        values, so a register not written since the last full store-back
        needs none."""
        self.emit(f"#spill {self.spill_site()}", ind)

    def emit_side_exit(self, eip_expr: str, ind: int):
        """Exit code inside a conditional branch: materialize state and
        return (the ``finally`` flush drains ``acc``). Compile-time
        state is untouched — the fall-through path continues."""
        if self.buf:
            self.emit(f"acc += {self.buf}", ind)
        self.spill(ind)
        self.emit(f"cpu.eip = {eip_expr}", ind)
        if self.pending:
            self.emit(f"cpu.executed += {self.pending}", ind)
        self.emit("return", ind)

    def end_trace(self, eip_expr: str, ind: int = 0):
        """Unconditional trace end on the main path."""
        if self.buf:
            self.emit(f"acc += {self.buf}", ind)
            self.buf = 0
        self.spill(ind)
        self.emit(f"cpu.eip = {eip_expr}", ind)
        if self.pending:
            self.emit(f"cpu.executed += {self.pending}", ind)
            self.pending = 0
        self.emit("return", ind)

    def call_out(self, call: str):
        """Store every dirty register, run ``call`` (a native or a
        delegated handler, which may run arbitrary model code), then
        re-read the registers and page caches: nested driver code may
        have changed registers, and an upcall may have switched
        ``cpu.address_space``. Remapping needs nothing here — the caches
        are invalidated in place by whoever remaps."""
        self.spill()
        self.emit(call)
        self.dirty.clear()
        self.synced = True

    def rehoist(self, ind: int = 0):
        """Re-read the registers and page caches after a call-out.
        Forces the memory hoists on: later memory ops in the trace
        depend on the re-read even when none were emitted yet."""
        self.uses_mem = True
        self.emit(_RELOAD, ind)
        self.emit("rp = cpu.address_space.read_pages", ind)
        self.emit("wp = cpu.address_space.write_pages", ind)

    def native_guard(self, next_addr: int, ind: int = 0):
        """After a mid-trace native call or delegated handler: bail to
        the dispatcher unless the world still matches what the rest of
        the trace was compiled against."""
        self.emit(
            f"if (cpu.eip != {next_addr} or cpu.code.epoch != ep0 "
            f"or L._igen != ig0 or cpu._category[-1] != cat "
            f"or cpu.world_token != wt0 or 'charge' in accd):", ind)
        self.emit("return", ind + 1)     # cpu.regs is current: no spill
        self.rehoist(ind)
        self.cur_eip = next_addr

    # -- operand expressions -------------------------------------------------

    def reg(self, name: str) -> str:
        """The local holding full register ``name``."""
        self.regs_used.add(name)
        return f"R_{name}"

    def reg_read(self, name: str, size: int) -> str:
        mask = (1 << (size * 8)) - 1
        if name in _FULL_REGS:
            if size == 4:
                return self.reg(name)
            return f"({self.reg(name)} & {mask})"
        parent = SUBREGISTERS[name]
        sub = 0xFF if len(name) == 2 and name[1] == "l" else 0xFFFF
        return f"({self.reg(parent)} & {sub & mask})"

    def reg_read_full(self, name: str) -> str:
        """``get_reg`` semantics (used for effective addresses and
        branch targets): full value for GPRs, masked for subregisters."""
        if name in _FULL_REGS:
            return self.reg(name)
        parent = SUBREGISTERS[name]
        sub = 0xFF if len(name) == 2 and name[1] == "l" else 0xFFFF
        return f"({self.reg(parent)} & {sub})"

    def reg_write(self, name: str, size: int, expr: str, ind: int = 0):
        mask = (1 << (size * 8)) - 1
        parent = name if name in _FULL_REGS else SUBREGISTERS[name]
        self.dirty.add(parent)
        local = self.reg(parent)
        if name in _FULL_REGS:
            if size == 4:
                self.emit(f"{local} = ({expr}) & {MASK32}", ind)
            else:
                self.emit(f"{local} = ({local} & {MASK32 ^ mask}) "
                          f"| (({expr}) & {mask})", ind)
            return
        sub = 0xFF if len(name) == 2 and name[1] == "l" else 0xFFFF
        self.emit(f"{local} = ({local} & {MASK32 ^ sub}) "
                  f"| (({expr}) & {sub & mask})", ind)

    def ea_expr(self, mem: Mem) -> str:
        if mem.symbol is not None:
            raise _Unsupported("unresolved data symbol")
        parts = []
        if mem.base is not None:
            parts.append(self.reg_read_full(mem.base))
        if mem.index is not None:
            idx = self.reg_read_full(mem.index)
            parts.append(f"{idx} * {mem.scale}" if mem.scale != 1 else idx)
        if mem.disp or not parts:
            parts.append(str(mem.disp))
        if len(parts) == 1 and mem.base is None and mem.index is None:
            return str(mem.disp & MASK32)
        return f"({' + '.join(parts)}) & {MASK32}"

    # -- memory --------------------------------------------------------------

    def mem_access(self, ea: str, size: int, value: Optional[str],
                   next_addr: int, ind: int) -> str:
        """Inline ``Cpu.read_mem`` (``value`` None) or ``Cpu.write_mem``.

        A hit in the address space's page cache (``rp``/``wp``, shared
        with the interpreter) is priced in one line — the page's hot-byte
        mask decides between the hot and cold RAM cost, as in the
        interpreter — and accessed in place, one dict ``get`` plus one
        ``Struct`` call; it cannot fault or observe anything, so
        ``cpu.eip`` and ``cpu.executed`` are left for the next sync. A
        miss or a page-straddling access is one call to the shared miss
        path (``_miss``) after the accumulator is flushed (the access may
        be MMIO, which observes the clock); the helper materializes the
        precise state and runs the interpreter's method, and the
        registers are re-read after it."""
        self.uses_mem = True
        # constant charges still buffered ride along with this access's
        buf, self.buf = self.buf, 0
        va = self.temp("va")
        d = self.temp("d")
        self.emit(f"{va} = {ea}", ind)
        self.emit(f"{d} = {'rp' if value is None else 'wp'}.get({va} >> 12)",
                  ind)
        if size > 1:
            self.emit(f"if {d} is not None and ({va} & 4095) <= "
                      f"{4096 - size}:", ind)
        else:
            self.emit(f"if {d} is not None:", ind)
        memc = buf + self.scaled(self.costs.mem)
        hotc = buf + self.scaled(self.costs.mem_hot)
        if memc == hotc:
            self.emit(f"acc += {memc}", ind + 1)
        else:
            self.emit(f"acc += {hotc} if hp.get({va} >> 12, Z)"
                      f"[{va} & 4095] else {memc}", ind + 1)
        mask = (1 << (size * 8)) - 1
        v = self.temp("v") if value is None else None
        if value is None and size == 1:
            self.emit(f"{v} = {d}[{va} & 4095]", ind + 1)
        elif value is None:
            un = "u2" if size == 2 else "u4"
            self.emit(f"{v} = {un}({d}, {va} & 4095)[0]", ind + 1)
        elif size == 1:
            self.emit(f"{d}[{va} & 4095] = ({value}) & 255", ind + 1)
        else:
            pk = "p2" if size == 2 else "p4"
            self.emit(f"{pk}({d}, {va} & 4095, ({value}) & {mask})", ind + 1)
        self.emit("else:", ind)
        # the accumulator is drained here, not in the helper: if the
        # access faults, the ``finally`` flush must find it empty
        self.emit(f"charge(cat, acc + {buf})" if buf else "charge(cat, acc)",
                  ind + 1)
        self.emit("acc = 0", ind + 1)
        self.emit(f"{v or '_'}, rp, wp = M(cpu, {next_addr}, {self.pending}, "
                  f"{va}, {size}, {value}, @S{self.spill_site()}@)", ind + 1)
        self.emit(_RELOAD, ind + 1)
        if self.cur_eip != next_addr:
            self.cur_eip = None           # only the miss path moved it
        self.acc_dirty = True        # branches disagree; finally covers it
        return v

    # -- operand read/write (mirrors the PR 4 thunks) ------------------------

    def read_operand(self, op, size: int, next_addr: int,
                     ind: int = 0) -> str:
        mask = (1 << (size * 8)) - 1
        if isinstance(op, Imm):
            if op.symbol is not None:
                raise _Unsupported("unresolved immediate symbol")
            return str(op.value & mask)
        if isinstance(op, Reg):
            return self.reg_read(op.name, size)
        if isinstance(op, Mem):
            return self.mem_access(self.ea_expr(op), size, None, next_addr,
                                   ind)
        raise _Unsupported(f"unreadable operand {op!r}")

    def as_var(self, expr: str, ind: int = 0, stable: bool = False) -> str:
        """Bind an expression to a temp when it will be used twice. A
        register local is not stable in general: the instruction may
        overwrite it, or a memory miss reload it, before the second use.
        ``stable`` says neither can happen (no memory operand, and the
        register is written last)."""
        if expr.isdigit() or (expr.isidentifier()
                              and (stable or not expr.startswith("R_"))):
            return expr
        v = self.temp()
        self.emit(f"{v} = {expr}", ind)
        return v

    def write_operand(self, op, size: int, value: str, next_addr: int,
                      ind: int = 0):
        if isinstance(op, Reg):
            self.reg_write(op.name, size, value, ind)
            return
        if isinstance(op, Mem):
            self.mem_access(self.ea_expr(op), size, value, next_addr, ind)
            return
        raise _Unsupported(f"unwritable operand {op!r}")

    # -- flags ---------------------------------------------------------------

    def emit_zsf(self, r: str, sign: int, ind: int):
        self.emit(f"f['zf'] = {r} == 0", ind)
        self.emit(f"f['sf'] = ({r} & {sign}) != 0", ind)

    def emit_flags_add(self, a: str, b: str, size: int, ind: int,
                       set_cf: bool = True) -> str:
        bits = size * 8
        mask = (1 << bits) - 1
        sign = 1 << (bits - 1)
        s = self.temp("s")
        rv = self.temp("x")
        self.emit(f"{s} = {a} + {b}", ind)
        self.emit(f"{rv} = {s} & {mask}", ind)
        if set_cf:
            self.emit(f"f['cf'] = {s} > {mask}", ind)
        self.emit(
            f"f['of'] = ((~({a} ^ {b})) & ({a} ^ {rv}) & {sign}) != 0", ind)
        self.emit_zsf(rv, sign, ind)
        return rv

    def emit_flags_sub(self, a: str, b: str, size: int, ind: int,
                       set_cf: bool = True) -> str:
        bits = size * 8
        mask = (1 << bits) - 1
        sign = 1 << (bits - 1)
        rv = self.temp("x")
        self.emit(f"{rv} = ({a} - {b}) & {mask}", ind)
        if set_cf:
            self.emit(f"f['cf'] = {a} < {b}", ind)
        self.emit(
            f"f['of'] = (({a} ^ {b}) & ({a} ^ {rv}) & {sign}) != 0", ind)
        self.emit_zsf(rv, sign, ind)
        return rv

    def emit_flags_logic(self, expr: str, size: int, ind: int) -> str:
        sign = 1 << (size * 8 - 1)
        rv = self.temp("x")
        self.emit(f"{rv} = {expr}", ind)
        self.emit("f['cf'] = f['of'] = False", ind)
        self.emit_zsf(rv, sign, ind)
        return rv

    # -- per-instruction emission --------------------------------------------

    def emit_instruction(self, index: int) -> Optional[int]:
        """Emit one instruction; returns the next trace index, or None
        when the trace ends here. Raises _Unsupported to end the trace
        *before* this instruction."""
        loaded = self.loaded
        instr: Instruction = loaded.program.instructions[index]
        m = instr.mnemonic
        size = instr.size
        next_addr = loaded.next_addrs[index]
        next_index = index + 1

        # forms that always end the trace before executing. All checks
        # that can reject the instruction must run before any emission:
        # a partially-emitted instruction would corrupt the trace.
        if m in ("int3", "ud2", "hlt"):
            raise _Unsupported("trap")
        if instr.is_control_flow and instr.indirect:
            raise _Unsupported("indirect branch")
        for op in instr.operands:
            if isinstance(op, (Mem, Imm)) and op.symbol is not None:
                raise _Unsupported("unresolved symbol")
        if m in ("mov", "movzb", "movzw", "movsx", "lea", "add", "sub",
                 "and", "or", "xor", "imul", "inc", "dec", "neg", "not",
                 "shl", "shr", "sar", "pop"):
            if not isinstance(instr.dst, (Reg, Mem)):
                raise _Unsupported("unwritable destination")
        if m == "xchg" and not (isinstance(instr.src, (Reg, Mem))
                                and isinstance(instr.dst, (Reg, Mem))):
            raise _Unsupported("unwritable xchg operand")
        instrumented = index in loaded.instrument
        if instrumented and instr.is_control_flow:
            raise _Unsupported("instrumented control flow")

        self.pending += 1
        self.n_instrs += 1
        self.charge_const(self.costs.alu)
        if instrumented:
            return self.delegate(index, next_addr, next_index)

        if m in ("nop", "sti", "cli"):
            return next_index
        if m == "cld":
            self.emit("cpu.df = False")
            return next_index
        if m == "std":
            self.emit("cpu.df = True")
            return next_index

        if m == "mov":
            v = self.read_operand(instr.src, size, next_addr)
            self.write_operand(instr.dst, size, v, next_addr)
            return next_index
        if m in ("movzb", "movzw"):
            v = self.read_operand(instr.src, size, next_addr)
            self.write_operand(instr.dst, 4, v, next_addr)
            return next_index
        if m == "movsx":
            bits = size * 8
            sign = 1 << (bits - 1)
            extend = MASK32 ^ ((1 << bits) - 1)
            v = self.as_var(self.read_operand(instr.src, size, next_addr))
            if v.isdigit():
                value = int(v)
                if value & sign:
                    value |= extend
                self.write_operand(instr.dst, 4, str(value), next_addr)
                return next_index
            self.emit(f"if {v} & {sign}:")
            self.emit(f"{v} |= {extend}", 1)
            self.write_operand(instr.dst, 4, v, next_addr)
            return next_index
        if m == "lea":
            if not isinstance(instr.src, Mem):
                raise _Unsupported("lea from non-memory operand")
            ea = self.ea_expr(instr.src)
            self.write_operand(instr.dst, 4, ea, next_addr)
            return next_index
        if m == "xchg":
            a = self.as_var(
                self.read_operand(instr.src, size, next_addr))
            b = self.as_var(
                self.read_operand(instr.dst, size, next_addr))
            self.write_operand(instr.src, size, b, next_addr)
            self.write_operand(instr.dst, size, a, next_addr)
            return next_index

        if m in ("add", "sub", "and", "or", "xor", "imul", "cmp", "test"):
            stable = not any(isinstance(op, Mem) for op in instr.operands)
            a = self.as_var(
                self.read_operand(instr.dst, size, next_addr), stable=stable)
            b = self.as_var(
                self.read_operand(instr.src, size, next_addr), stable=stable)
            if m == "add":
                rv = self.emit_flags_add(a, b, size, 0)
            elif m in ("sub", "cmp"):
                rv = self.emit_flags_sub(a, b, size, 0)
            elif m in ("and", "test"):
                rv = self.emit_flags_logic(f"{a} & {b}", size, 0)
            elif m == "or":
                rv = self.emit_flags_logic(f"{a} | {b}", size, 0)
            elif m == "xor":
                rv = self.emit_flags_logic(f"{a} ^ {b}", size, 0)
            else:  # imul
                mask = (1 << (size * 8)) - 1
                sign = 1 << (size * 8 - 1)
                fu = self.temp("s")
                rv = self.temp("x")
                self.emit(f"{fu} = {a} * {b}")
                self.emit(f"{rv} = {fu} & {mask}")
                self.emit(f"f['cf'] = f['of'] = {fu} != {rv}")
                self.emit_zsf(rv, sign, 0)
            if m not in ("cmp", "test"):
                self.write_operand(instr.dst, size, rv, next_addr)
            return next_index

        if m in ("shl", "shr", "sar"):
            if isinstance(instr.dst, Mem):
                # a conditionally-skipped memory write would fork the
                # accounting state; the handler does it exactly
                return self.delegate(index, next_addr, next_index)
            bits = size * 8
            mask = (1 << bits) - 1
            sign = 1 << (bits - 1)
            c = self.temp("n")
            self.emit(
                f"{c} = ({self.read_operand(instr.src, 1, next_addr)})"
                f" & 31")
            v = self.as_var(self.read_operand(instr.dst, size, next_addr))
            rv = self.temp("x")
            self.emit(f"if {c}:")
            if m == "shl":
                self.emit(f"{rv} = {v} << {c}", 1)
                self.emit(f"f['cf'] = ({rv} & {1 << bits}) != 0", 1)
                self.emit(f"{rv} &= {mask}", 1)
            elif m == "shr":
                self.emit(f"f['cf'] = (({v} >> ({c} - 1)) & 1) != 0", 1)
                self.emit(f"{rv} = {v} >> {c}", 1)
            else:  # sar
                sg = self.temp("g")
                self.emit(f"{sg} = {v} & {sign}", 1)
                self.emit(f"{rv} = {v}", 1)
                self.emit(f"for _ in range({c}):", 1)
                self.emit(f"{rv} = ({rv} >> 1) | {sg}", 2)
                self.emit(f"f['cf'] = (({v} >> ({c} - 1)) & 1) != 0", 1)
                self.emit(f"{rv} &= {mask}", 1)
            self.emit("f['of'] = False", 1)
            self.emit(f"f['zf'] = {rv} == 0", 1)
            self.emit(f"f['sf'] = ({rv} & {sign}) != 0", 1)
            self.reg_write(instr.dst.name, size, rv, 1)
            return next_index

        if m in ("inc", "dec", "neg", "not"):
            mask = (1 << (size * 8)) - 1
            v = self.as_var(
                self.read_operand(instr.dst, size, next_addr),
                stable=isinstance(instr.dst, Reg))
            if m == "inc":
                # inc/dec preserve CF: the interpreter saves/restores it
                # around _flags_add, net effect is "don't touch cf"
                rv = self.emit_flags_add(v, "1", size, 0, set_cf=False)
            elif m == "dec":
                rv = self.emit_flags_sub(v, "1", size, 0, set_cf=False)
            elif m == "neg":
                rv = self.emit_flags_sub("0", v, size, 0)
            else:
                rv = self.temp("x")
                self.emit(f"{rv} = (~{v}) & {mask}")
            self.write_operand(instr.dst, size, rv, next_addr)
            return next_index

        if m == "push":
            v = self.as_var(self.read_operand(instr.src, 4, next_addr))
            self.emit_push(v, next_addr)
            return next_index
        if m == "pop":
            v = self.emit_pop(next_addr)
            self.write_operand(instr.dst, 4, v, next_addr)
            return next_index
        if m == "pushf":
            w = self.temp("w")
            self.emit(
                f"{w} = ((1 if f['cf'] else 0) | (64 if f['zf'] else 0)"
                f" | (128 if f['sf'] else 0) | (2048 if f['of'] else 0)"
                f" | (1024 if cpu.df else 0))")
            self.emit_push(w, next_addr)
            return next_index
        if m == "popf":
            v = self.emit_pop(next_addr)
            self.emit(f"f['cf'] = ({v} & 1) != 0")
            self.emit(f"f['zf'] = ({v} & 64) != 0")
            self.emit(f"f['sf'] = ({v} & 128) != 0")
            self.emit(f"f['of'] = ({v} & 2048) != 0")
            self.emit(f"cpu.df = ({v} & 1024) != 0")
            return next_index

        if m == "call":
            self.charge_const(self.costs.call)
            target = loaded.targets.get(index)
            if target is None:
                raise _Unsupported("call without resolved target")
            routine = self.cpu.natives.by_addr.get(target)
            self.sync(next_addr)
            self.emit_push(str(next_addr), next_addr)
            if routine is None:
                # transfer into interpreted code: the callee's head gets
                # its own superblock, so end the trace here
                self.end_trace(str(target))
                return None
            self.uses_natives = True
            name = self.bake("N", routine)
            self.flush()
            self.call_out(f"cpu._invoke_native({name})")
            self.native_guard(next_addr)
            return next_index
        if m == "ret":
            self.charge_const(self.costs.ret)
            v = self.emit_pop(next_addr)
            self.end_trace(v)
            return None
        if m == "jmp":
            target = loaded.targets.get(index)
            if target is None:
                raise _Unsupported("jmp without resolved target")
            routine = self.cpu.natives.by_addr.get(target)
            if routine is not None:
                # tail call: return address is the caller's, already on
                # the stack; eip after the native is unknowable here
                self.uses_natives = True
                name = self.bake("N", routine)
                self.sync(next_addr)
                self.flush()
                self.call_out(f"cpu._invoke_native({name})")
                self.emit("return")
                return None
            if target == self.head_addr:
                self.emit_backedge(None)
                return None
            t_index = loaded.addr_to_index.get(target)
            if t_index is None:
                self.end_trace(str(target))
                return None
            self.cur_eip = None
            return t_index
        if instr.is_conditional:
            target = loaded.targets.get(index)
            if target is None:
                raise _Unsupported("jcc without resolved target")
            cond = _COND_EXPR[m]
            if target == self.head_addr:
                self.emit_backedge(cond)
                self.cur_eip = None
                return next_index
            self.emit(f"if {cond}:")
            self.emit_side_exit(str(target), 1)
            self.cur_eip = None
            return next_index

        if instr.is_string:
            return self.delegate(index, next_addr, next_index)

        raise _Unsupported(f"unhandled mnemonic {m!r}")

    # -- composite helpers ---------------------------------------------------

    def emit_push(self, value: str, next_addr: int, ind: int = 0):
        sp = self.temp("sp")
        esp = self.reg("esp")
        self.dirty.add("esp")
        self.emit(f"{sp} = ({esp} - 4) & {MASK32}", ind)
        self.emit(f"{esp} = {sp}", ind)
        self.mem_access(sp, 4, value, next_addr, ind)

    def emit_pop(self, next_addr: int, ind: int = 0) -> str:
        esp = self.reg("esp")
        self.dirty.add("esp")
        v = self.mem_access(esp, 4, None, next_addr, ind)
        self.emit(f"{esp} = ({esp} + 4) & {MASK32}", ind)
        return v

    def delegate(self, index: int, next_addr: int, next_index: int) -> int:
        """Run one instruction through its compiled handler (string ops,
        instrumented sites, shift-to-memory) once ``emit_instruction``
        has consumed it and its base ALU charge: sync and flush so the
        handler sees exactly the state the dispatch loop gives it."""
        from .cpu import _handler_for    # deferred: avoids module cycle
        self.sync(next_addr)
        self.flush()
        handler = self.loaded.handlers[index]
        if handler is None:
            handler = _handler_for(self.loaded, index)
        name = self.bake("H", handler)
        self.call_out(f"{name}(cpu)")
        if index in self.loaded.instrument:
            # hooks are arbitrary code: re-validate the world
            self.native_guard(next_addr)
        else:
            # the handler may touch MMIO and re-enter model code
            self.rehoist()
        return next_index

    def emit_backedge(self, cond: Optional[str]):
        """Branch back to the trace head: compile the trace as a capped
        loop. Loop-top invariant: eip/executed/acc fully materialized."""
        self.has_backedge = True
        ind = 0
        if cond is not None:
            self.emit(f"if {cond}:")
            ind = 1
        if self.buf:
            self.emit(f"acc += {self.buf}", ind)
            if cond is None:
                self.buf = 0
        self.emit(f"cpu.eip = {self.head_addr}", ind)
        if self.pending:
            self.emit(f"cpu.executed += {self.pending}", ind)
            if cond is None:
                self.pending = 0
        self.emit("charge(cat, acc)", ind)
        self.emit("acc = 0", ind)
        self.backedge_dirty |= self.dirty
        self.emit("it -= 1", ind)
        self.emit("if it == 0:", ind)
        self.spill(ind + 1)
        self.emit("return", ind + 1)
        self.emit("continue", ind)
        if cond is None:
            self.acc_dirty = False

    # -- trace construction --------------------------------------------------

    def reload_line(self) -> str:
        """One statement loading every register local from ``cpu.regs``."""
        names = sorted(self.regs_used)
        if not names:
            return ""
        if len(names) == 1:
            return f"R_{names[0]} = r['{names[0]}']"
        self.ns["RL"] = itemgetter(*names)
        return ", ".join(f"R_{n}" for n in names) + " = RL(r)"

    def build(self) -> Optional[str]:
        """Walk the trace from the head, emitting each instruction.
        Returns the superblock source, or None if no progress could be
        compiled."""
        loaded = self.loaded
        n = len(loaded.program.instructions)
        index = self.head_index
        visited = set()
        while True:
            if index is None:
                break
            if index >= n:
                # fell off the end of the program: the dispatch loop
                # faults there
                self.end_trace(str(loaded.end))
                break
            if index in visited:
                # rejoined an already-emitted address (jmp into the
                # trace body): exit and let the dispatcher continue
                self.end_trace(str(loaded.addrs[index]))
                break
            addr = loaded.addrs[index]
            if index != self.head_index and self.js.superblocks.get(addr):
                # a head with its own superblock: the dispatcher enters
                # that one rather than this trace copying its code
                self.end_trace(str(addr))
                break
            if self.n_instrs >= MAX_TRACE_INSTRS:
                # the rest of the path becomes a trace of its own
                self.js.leaders.add(addr)
                self.end_trace(str(addr))
                break
            visited.add(index)
            mark = (len(self.lines), self.buf, self.pending,
                    self.n_instrs, self.cur_eip, self.acc_dirty,
                    set(self.dirty), self.synced)
            try:
                index = self.emit_instruction(index)
            except _Unsupported:
                # roll back anything the rejected instruction emitted,
                # then end the trace just before it
                (n_lines, self.buf, self.pending, self.n_instrs,
                 self.cur_eip, self.acc_dirty, self.dirty,
                 self.synced) = mark
                del self.lines[n_lines:]
                if self.n_instrs == 0:
                    return None
                self.end_trace(str(loaded.addrs[index]))
                break
        if self.n_instrs == 0:
            return None
        return self.render()

    def spilled(self, site: int) -> List[str]:
        """The registers store-back ``site`` writes: the ones dirty there,
        plus, in a loop with no full store-back yet in the iteration,
        the ones a back-edge left dirty."""
        dirty, synced = self.spill_sites[site]
        if self.has_backedge and not synced:
            dirty = dirty | self.backedge_dirty
        return sorted(dirty)

    def render(self) -> str:
        guarded = self.uses_natives or bool(self.ns)
        reload = self.reload_line()
        body = []
        for line in self.lines:
            text = line.lstrip()
            pad = line[:len(line) - len(text)]
            spill = text.startswith("#spill") and _SPILL_LINE.match(text)
            if spill:
                body += [f"{pad}r['{name}'] = R_{name}"
                         for name in self.spilled(int(spill.group(1)))]
            elif text == _RELOAD:
                if reload:
                    body.append(pad + reload)
            elif "@S" in text:
                body.append(_SPILL_DICT.sub(
                    lambda m: "{" + ", ".join(
                        f"'{name}': R_{name}"
                        for name in self.spilled(int(m.group(1)))) + "}",
                    line))
            else:
                body.append(line)
        prologue = [
            "r = cpu.regs",
            "f = cpu.flags",
            "charge = cpu.account.charge",
            "cat = cpu._category[-1]",
            "acc = 0",
        ]
        if reload:
            prologue.append(reload)
        if self.uses_mem:
            prologue += [
                "rp = cpu.address_space.read_pages",
                "wp = cpu.address_space.write_pages",
                "hp = cpu.hot_pages",
            ]
        if guarded:
            prologue += [
                "accd = cpu.account.__dict__",
                "ep0 = cpu.code.epoch",
                "ig0 = L._igen",
                "wt0 = cpu.world_token",
            ]
        if self.has_backedge:
            body = ([f"it = {LOOP_CAP}", "while 1:"]
                    + ["    " + line for line in body])
        out = ["def __sb__(cpu):"]
        out += ["    " + line for line in prologue]
        out.append("    try:")
        out += ["        " + line for line in body]
        # every trace path ends in return/continue; this is unreachable
        # but keeps the block syntactically closed for empty loop tails
        out.append("        return")
        out.append("    finally:")
        out.append("        if acc:")
        out.append("            charge(cat, acc)")
        return "\n".join(out) + "\n"


def compile_superblock(cpu, loaded, head_addr: int) -> Optional[Superblock]:
    """Compile the trace starting at ``head_addr``; None if the head's
    first instruction is not compilable (the dispatcher blacklists it).
    Identical source reuses the cached code object; ``cpu.jit_compiles``
    counts fresh ``compile()`` calls and ``cpu.jit_reuses`` the rest."""
    head_index = loaded.addr_to_index[head_addr]
    emitter = _Emitter(cpu, loaded, head_index)
    source = emitter.build()
    if source is None:
        return None
    code, fresh = _cached_code(source)
    if fresh:
        cpu.jit_compiles += 1
    else:
        cpu.jit_reuses += 1
    ns = emitter.ns
    ns["L"] = loaded
    ns.update(_NAMESPACE)
    exec(code, ns)
    return Superblock(ns["__sb__"], head_addr, cpu.cycle_scale,
                      emitter.n_instrs)
