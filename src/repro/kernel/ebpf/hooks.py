"""Kernel hook points where eBPF programs attach and fire.

A hook point accepts only programs of its family (XDP on NIC RX, TC on veth,
SK_MSG on sockets), verifies them at attach time, and executes every attached
program in order when an event arrives — exactly the kernel's behaviour that
makes SPRIGHT's overhead load-proportional: no event, no execution, no cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .isa import Program, ProgramType
from .verifier import verify
from .vm import RunResult, Scratch, Vm, lower


class HookError(Exception):
    """Bad attach/detach operations."""


@dataclass
class HookRun:
    """Aggregate outcome of firing a hook: last verdict + total work done."""

    results: list[RunResult]

    @property
    def verdict(self) -> int:
        return self.results[-1].return_value if self.results else 0

    @property
    def insns_executed(self) -> int:
        return sum(result.insns_executed for result in self.results)

    @property
    def scratch(self) -> Optional[Scratch]:
        return self.results[-1].scratch if self.results else None


class HookPoint:
    """A named attach point (e.g. ``xdp@eth0``, ``sk_msg@fn-1``)."""

    def __init__(self, name: str, prog_type: ProgramType, vm: Vm) -> None:
        self.name = name
        self.prog_type = prog_type
        self.vm = vm
        # Attached programs, each next to its lowering (made once, at attach).
        self._attached: list[tuple[Program, list[tuple]]] = []
        self.fire_count = 0
        self.total_insns = 0

    def attach(self, program: Program) -> None:
        """Verify and attach; rejects wrong-family programs like the kernel."""
        if program.prog_type is not self.prog_type:
            raise HookError(
                f"cannot attach {program.prog_type.value} program "
                f"{program.name!r} to {self.prog_type.value} hook {self.name!r}"
            )
        verify(program)
        self._attached.append((program, lower(program)))

    def detach(self, program: Program) -> None:
        try:
            index = self.programs.index(program)
        except ValueError:
            raise HookError(f"{program.name!r} is not attached to {self.name!r}") from None
        del self._attached[index]

    @property
    def programs(self) -> list[Program]:
        return [program for program, _ in self._attached]

    @property
    def is_armed(self) -> bool:
        return bool(self._attached)

    def fire(self, data: bytes = b"", scratch: Optional[Scratch] = None) -> HookRun:
        """Run all attached programs on an event. No programs -> no work."""
        scratch = scratch or Scratch(map_registry=self.vm.map_registry)
        results = [
            self.vm.run(program, data=data, scratch=scratch, lowered=lowered)
            for program, lowered in self._attached
        ]
        run = HookRun(results=results)
        self.fire_count += 1
        self.total_insns += run.insns_executed
        return run
