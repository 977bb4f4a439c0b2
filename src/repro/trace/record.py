"""Instruction trace records.

The simulator is trace-driven in the ChampSim style: each record is one
retired instruction with optional memory operands and branch outcome. Records
are deliberately tiny (``__slots__``) because simulations iterate millions of
them. A whole trace is a :class:`~repro.trace.packed.PackedTrace`, whose
iteration and indexing hand out these records as views.
"""

from __future__ import annotations

from typing import Optional


class TraceRecord:
    """One retired instruction.

    Attributes:
        pc: instruction address (byte address).
        load_addr: effective address of the load operand, or ``None``.
        store_addr: effective address of the store operand, or ``None``.
        is_branch: whether the instruction is a conditional branch.
        taken: branch outcome (meaningful only when ``is_branch``).
        dependent: True when the instruction's memory access depends on the
            previous load (pointer chasing); the core model serialises such
            misses instead of overlapping them.
    """

    __slots__ = ("pc", "load_addr", "store_addr", "is_branch", "taken", "dependent")

    def __init__(
        self,
        pc: int,
        load_addr: Optional[int] = None,
        store_addr: Optional[int] = None,
        is_branch: bool = False,
        taken: bool = False,
        dependent: bool = False,
    ) -> None:
        self.pc = pc
        self.load_addr = load_addr
        self.store_addr = store_addr
        self.is_branch = is_branch
        self.taken = taken
        self.dependent = dependent

    @property
    def is_memory(self) -> bool:
        """True when the instruction touches memory."""
        return self.load_addr is not None or self.store_addr is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"pc={self.pc:#x}"]
        if self.load_addr is not None:
            parts.append(f"load={self.load_addr:#x}")
        if self.store_addr is not None:
            parts.append(f"store={self.store_addr:#x}")
        if self.is_branch:
            parts.append(f"branch taken={self.taken}")
        if self.dependent:
            parts.append("dependent")
        return f"TraceRecord({', '.join(parts)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (
            self.pc == other.pc
            and self.load_addr == other.load_addr
            and self.store_addr == other.store_addr
            and self.is_branch == other.is_branch
            and self.taken == other.taken
            and self.dependent == other.dependent
        )

    def __hash__(self) -> int:
        return hash(
            (self.pc, self.load_addr, self.store_addr, self.is_branch, self.taken, self.dependent)
        )

