"""The eBPF interpreter and helper-function ABI.

Memory model: one flat little-endian byte array per invocation, laid out as
``[context/data region][stack]``. R1 enters pointing at offset 0 (the context)
and R10 at the end of memory (top of stack). Loads/stores are bounds-checked
at runtime; the verifier has already ruled out unbounded execution.

Helper side effects (socket redirection targets, FIB results) are
communicated through a per-invocation scratch object, which is how the hook
points learn what the program decided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .isa import (
    Insn,
    LOAD_SIZES,
    NUM_REGISTERS,
    Op,
    Program,
    R0,
    R1,
    R10,
    STACK_SIZE,
    STORE_SIZES,
    SK_DROP,
    SK_PASS,
    WORD_MASK,
    XDP_REDIRECT,
)
from .maps import ArrayMap, MapRegistry, SockMap

MAX_RUNTIME_INSNS = 100_000

# Helper IDs (Linux values where they exist).
HELPER_MAP_LOOKUP = 1
HELPER_MAP_UPDATE = 2
HELPER_MAP_DELETE = 3
HELPER_KTIME_GET_NS = 5
HELPER_TRACE_PRINTK = 6
HELPER_GET_PRANDOM_U32 = 7
HELPER_REDIRECT = 23
HELPER_MSG_REDIRECT_MAP = 60
HELPER_FIB_LOOKUP = 69
# Simulated extension: atomic add on an array map slot (stands in for the
# lookup + XADD sequence real metric programs emit).
HELPER_ARRAY_ADD = 200


class VmFault(Exception):
    """Runtime fault (out-of-bounds access, bad helper, insn limit)."""


@dataclass
class Scratch:
    """Per-invocation helper context and side-effect channel."""

    map_registry: Optional[MapRegistry] = None
    now_ns: int = 0
    fib: Optional[object] = None          # kernel.fib.FibTable
    packet_flow: Optional[object] = None  # kernel.packet.FiveTuple
    redirect_endpoint: Optional[object] = None  # sockmap redirect target
    redirect_ifindex: Optional[int] = None      # XDP/TC redirect target
    printk_log: list = field(default_factory=list)
    prandom_state: int = 0x9E3779B9


@dataclass
class RunResult:
    """Outcome of one program execution."""

    return_value: int
    insns_executed: int
    scratch: Scratch
    memory: bytearray


def _u64(value: int) -> int:
    return value & WORD_MASK


# -- precompilation ---------------------------------------------------------
# The interpreter hot loop dispatches on small integers rather than Op enum
# members; each Program is lowered once (at hook attach, or on its first
# direct ``Vm.run``). Categories:
_CAT_EXIT, _CAT_CALL, _CAT_JA, _CAT_JMP, _CAT_LOAD, _CAT_STORE, _CAT_ALU = range(7)

_JMP_CODES = {
    Op.JEQ_IMM: 0, Op.JEQ_REG: 1, Op.JNE_IMM: 2, Op.JNE_REG: 3,
    Op.JGT_IMM: 4, Op.JGE_IMM: 5, Op.JLT_IMM: 6, Op.JLE_IMM: 7,
    Op.JSET_IMM: 8,
}
_ALU_CODES = {
    Op.MOV_IMM: 0, Op.MOV_REG: 1, Op.ADD_IMM: 2, Op.ADD_REG: 3,
    Op.SUB_IMM: 4, Op.SUB_REG: 5, Op.MUL_IMM: 6, Op.MUL_REG: 7,
    Op.DIV_IMM: 8, Op.DIV_REG: 9, Op.MOD_IMM: 10, Op.MOD_REG: 11,
    Op.AND_IMM: 12, Op.AND_REG: 13, Op.OR_IMM: 14, Op.OR_REG: 15,
    Op.XOR_IMM: 16, Op.XOR_REG: 17, Op.LSH_IMM: 18, Op.RSH_IMM: 19,
    Op.NEG: 20,
}
_LOAD_CODES = {Op.LD8: 1, Op.LD16: 2, Op.LD32: 4, Op.LD64: 8}
_STORE_CODES = {Op.ST8: 1, Op.ST16: 2, Op.ST32: 4, Op.ST64: 8, Op.ST_IMM32: 4}


def lower(program: Program) -> list[tuple]:
    """Lower a Program to (category, code, dst, src, off, imm) tuples."""
    lowered = []
    for insn in program.insns:
        op = insn.op
        if op is Op.EXIT:
            lowered.append((_CAT_EXIT, 0, 0, 0, 0, 0))
        elif op is Op.CALL:
            lowered.append((_CAT_CALL, 0, 0, 0, 0, insn.imm))
        elif op is Op.JA:
            lowered.append((_CAT_JA, 0, 0, 0, insn.off, 0))
        elif op in _JMP_CODES:
            lowered.append(
                (_CAT_JMP, _JMP_CODES[op], insn.dst, insn.src, insn.off, insn.imm)
            )
        elif op in _LOAD_CODES:
            lowered.append(
                (_CAT_LOAD, _LOAD_CODES[op], insn.dst, insn.src, insn.off, 0)
            )
        elif op in _STORE_CODES:
            is_imm = 1 if op is Op.ST_IMM32 else 0
            lowered.append(
                (_CAT_STORE, (_STORE_CODES[op], is_imm), insn.dst, insn.src, insn.off, insn.imm)
            )
        else:
            lowered.append(
                (_CAT_ALU, _ALU_CODES[op], insn.dst, insn.src, insn.off, insn.imm)
            )
    return lowered


class Vm:
    """Interprets verified programs against a map registry."""

    def __init__(self, map_registry: Optional[MapRegistry] = None) -> None:
        self.map_registry = map_registry or MapRegistry()
        self._helpers: dict[int, Callable] = {
            HELPER_MAP_LOOKUP: self._helper_map_lookup,
            HELPER_MAP_UPDATE: self._helper_map_update,
            HELPER_MAP_DELETE: self._helper_map_delete,
            HELPER_KTIME_GET_NS: self._helper_ktime,
            HELPER_TRACE_PRINTK: self._helper_printk,
            HELPER_GET_PRANDOM_U32: self._helper_prandom,
            HELPER_REDIRECT: self._helper_redirect,
            HELPER_MSG_REDIRECT_MAP: self._helper_msg_redirect_map,
            HELPER_FIB_LOOKUP: self._helper_fib_lookup,
            HELPER_ARRAY_ADD: self._helper_array_add,
        }

        # id(program) -> (program, lowering). The entry holds its program, so
        # the id cannot be recycled for another program while it is cached.
        self._compiled: dict[int, tuple[Program, list[tuple]]] = {}

    def register_helper(self, helper_id: int, fn: Callable) -> None:
        """Install a custom helper (tests and extensions)."""
        self._helpers[helper_id] = fn

    def _compile(self, program: Program) -> list[tuple]:
        entry = self._compiled.get(id(program))
        if entry is None or entry[0] is not program:
            entry = (program, lower(program))
            self._compiled[id(program)] = entry
        return entry[1]

    # -- execution -----------------------------------------------------------
    def run(
        self,
        program: Program,
        data: bytes = b"",
        scratch: Optional[Scratch] = None,
        lowered: Optional[list[tuple]] = None,
    ) -> RunResult:
        """Execute ``program`` with ``data`` as its context region.

        ``lowered`` is ``lower(program)`` made by the caller (hook points
        lower at attach); without it the program is lowered on first run.
        """
        if lowered is None:
            lowered = self._compile(program)
        scratch = scratch or Scratch(map_registry=self.map_registry)
        if scratch.map_registry is None:
            scratch.map_registry = self.map_registry
        memory = bytearray(data) + bytearray(STACK_SIZE)
        mem_limit = len(memory)
        regs = [0] * NUM_REGISTERS
        regs[R1] = 0            # context pointer
        regs[R10] = mem_limit   # frame pointer (top of stack)

        program_len = len(lowered)
        helpers = self._helpers
        mask = WORD_MASK
        pc = 0
        executed = 0
        while True:
            if executed >= MAX_RUNTIME_INSNS:
                raise VmFault("instruction limit exceeded")
            if not 0 <= pc < program_len:
                raise VmFault(f"pc {pc} out of range")
            category, code, dst, src, off, imm = lowered[pc]
            executed += 1

            if category == _CAT_ALU:
                value = regs[dst]
                if code == 0:
                    value = imm
                elif code == 1:
                    value = regs[src]
                elif code == 2:
                    value = value + imm
                elif code == 3:
                    value = value + regs[src]
                elif code == 4:
                    value = value - imm
                elif code == 5:
                    value = value - regs[src]
                elif code == 6:
                    value = value * imm
                elif code == 7:
                    value = value * regs[src]
                elif code == 8:
                    value = value // imm
                elif code == 9:
                    divisor = regs[src] & mask
                    value = 0 if divisor == 0 else (value & mask) // divisor
                elif code == 10:
                    value = value % imm
                elif code == 11:
                    divisor = regs[src] & mask
                    value = value if divisor == 0 else (value & mask) % divisor
                elif code == 12:
                    value = value & imm
                elif code == 13:
                    value = value & regs[src]
                elif code == 14:
                    value = value | imm
                elif code == 15:
                    value = value | regs[src]
                elif code == 16:
                    value = value ^ imm
                elif code == 17:
                    value = value ^ regs[src]
                elif code == 18:
                    value = value << imm
                elif code == 19:
                    value = (value & mask) >> imm
                else:  # NEG
                    value = -value
                regs[dst] = value & mask
                pc += 1
                continue
            if category == _CAT_LOAD:
                address = (regs[src] + off) & mask
                end = address + code
                if end > mem_limit:
                    raise VmFault(
                        f"memory access [{address}, {end}) out of bounds"
                    )
                regs[dst] = int.from_bytes(memory[address:end], "little")
                pc += 1
                continue
            if category == _CAT_STORE:
                size, is_imm = code
                address = (regs[dst] + off) & mask
                end = address + size
                if end > mem_limit:
                    raise VmFault(
                        f"memory access [{address}, {end}) out of bounds"
                    )
                value = imm if is_imm else regs[src]
                memory[address:end] = (value & mask).to_bytes(8, "little")[:size]
                pc += 1
                continue
            if category == _CAT_JMP:
                dst_value = regs[dst] & mask
                if code == 0:
                    taken = dst_value == imm & mask
                elif code == 1:
                    taken = dst_value == regs[src] & mask
                elif code == 2:
                    taken = dst_value != imm & mask
                elif code == 3:
                    taken = dst_value != regs[src] & mask
                elif code == 4:
                    taken = dst_value > imm & mask
                elif code == 5:
                    taken = dst_value >= imm & mask
                elif code == 6:
                    taken = dst_value < imm & mask
                elif code == 7:
                    taken = dst_value <= imm & mask
                else:
                    taken = bool(dst_value & imm)
                pc += 1 + (off if taken else 0)
                continue
            if category == _CAT_JA:
                pc += 1 + off
                continue
            if category == _CAT_CALL:
                helper = helpers.get(imm)
                if helper is None:
                    raise VmFault(f"unknown helper id {imm}")
                regs[R0] = helper(regs, memory, scratch) & mask
                pc += 1
                continue
            # _CAT_EXIT
            return RunResult(
                return_value=regs[R0] & mask,
                insns_executed=executed,
                scratch=scratch,
                memory=memory,
            )

    # -- helpers ---------------------------------------------------------------
    # ABI: helpers receive (regs, memory, scratch) and return the new R0.
    def _helper_map_lookup(self, regs, memory, scratch) -> int:
        """R1=map fd, R2=key -> value as u64 (0 means miss/NULL)."""
        bpf_map = scratch.map_registry.get(regs[R1])
        value = bpf_map.lookup(_u64(regs[2]))
        if value is None:
            return 0
        if isinstance(value, int):
            return value
        return 1  # non-scalar value: report presence

    def _helper_map_update(self, regs, memory, scratch) -> int:
        """R1=map fd, R2=key, R3=value."""
        bpf_map = scratch.map_registry.get(regs[R1])
        bpf_map.update(_u64(regs[2]), _u64(regs[3]))
        return 0

    def _helper_map_delete(self, regs, memory, scratch) -> int:
        bpf_map = scratch.map_registry.get(regs[R1])
        try:
            bpf_map.delete(_u64(regs[2]))
        except Exception:
            return _u64(-2)  # -ENOENT
        return 0

    def _helper_ktime(self, regs, memory, scratch) -> int:
        return scratch.now_ns

    def _helper_printk(self, regs, memory, scratch) -> int:
        scratch.printk_log.append((_u64(regs[R1]), _u64(regs[2])))
        return 0

    def _helper_prandom(self, regs, memory, scratch) -> int:
        # xorshift32, deterministic per scratch
        state = scratch.prandom_state & 0xFFFFFFFF
        state ^= (state << 13) & 0xFFFFFFFF
        state ^= state >> 17
        state ^= (state << 5) & 0xFFFFFFFF
        scratch.prandom_state = state
        return state

    def _helper_redirect(self, regs, memory, scratch) -> int:
        """R1=target ifindex -> XDP_REDIRECT."""
        scratch.redirect_ifindex = _u64(regs[R1])
        return XDP_REDIRECT

    def _helper_msg_redirect_map(self, regs, memory, scratch) -> int:
        """R1=sockmap fd, R2=key (instance id) -> SK_PASS / SK_DROP."""
        bpf_map = scratch.map_registry.get(regs[R1])
        if not isinstance(bpf_map, SockMap):
            raise VmFault("msg_redirect_map requires a sockmap")
        endpoint = bpf_map.lookup(_u64(regs[2]))
        if endpoint is None:
            return SK_DROP
        scratch.redirect_endpoint = endpoint
        return SK_PASS

    def _helper_fib_lookup(self, regs, memory, scratch) -> int:
        """FIB lookup on scratch.packet_flow -> 0 hit (ifindex in scratch)."""
        if scratch.fib is None or scratch.packet_flow is None:
            return 1
        ifindex = scratch.fib.lookup(scratch.packet_flow)
        if ifindex is None:
            return 1
        scratch.redirect_ifindex = ifindex
        return 0

    def _helper_array_add(self, regs, memory, scratch) -> int:
        """R1=array fd, R2=index, R3=delta -> new value."""
        bpf_map = scratch.map_registry.get(regs[R1])
        if not isinstance(bpf_map, ArrayMap):
            raise VmFault("array_add requires an array map")
        return _u64(bpf_map.add(_u64(regs[2]), regs[3]))
