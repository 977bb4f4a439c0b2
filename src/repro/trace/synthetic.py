"""Synthetic trace generation from workload specs.

Turns a :class:`~repro.trace.spec_models.WorkloadSpec` into a concrete
instruction stream. The generated mix is deterministic given (spec, seed,
llc_bytes): the code layout (which PC slots are loads/stores/branches) is
fixed per spec, while the data addresses and branch outcomes come from
seeded random streams.

Two generators share that contract and produce bit-identical streams:

* :func:`generate_records` — the original record-object generator, kept as
  the lazy reference implementation (and as the object-list baseline the
  trace benchmarks compare against);
* :func:`build_trace` — the columnar generator every caller uses. It
  streams straight into :class:`~repro.trace.packed.PackedTrace` columns
  with no intermediate record objects, exploiting that per body iteration
  only the load addresses, dependency draws and branch outcomes vary: the
  pc column and the static flag bits are replicated as whole-body blocks,
  and the per-cycle loop touches only the memory/branch slots.

Each random stream (layout/data/branch/dep/pattern) is an independent
:class:`~repro.util.rng.DeterministicRng`, so batching by stream preserves
every stream's draw order exactly — which is what makes the two generators
bit-identical.

The code layout matters for the branch-predictor case study: branch PCs recur
every loop iteration, so history-based predictors can actually learn them.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Optional

from repro.trace.packed import (
    FLAG_BRANCH,
    FLAG_DEPENDENT,
    FLAG_HAS_LOAD,
    FLAG_HAS_STORE,
    FLAG_TAKEN,
    PackedTrace,
)
from repro.trace.record import TraceRecord
from repro.trace.spec_models import WorkloadSpec
from repro.util.rng import DeterministicRng

#: Size (in instruction slots) of the synthetic inner loop body.
DEFAULT_BODY_SIZE = 256
#: Byte distance between consecutive instruction PCs.
PC_STRIDE = 4
#: Base address of the synthetic code segment (keeps code/data disjoint).
CODE_BASE = 0x40_0000
#: Base address of the synthetic data segment.
DATA_BASE = 0x10_0000_0000


class _Slot:
    """One instruction slot in the synthetic loop body."""

    __slots__ = ("pc", "is_load", "is_store", "is_branch", "taken_bias")

    def __init__(self, pc: int, is_load: bool, is_store: bool, is_branch: bool,
                 taken_bias: float) -> None:
        self.pc = pc
        self.is_load = is_load
        self.is_store = is_store
        self.is_branch = is_branch
        self.taken_bias = taken_bias


def _build_body(spec: WorkloadSpec, rng: DeterministicRng,
                body_size: int) -> List[_Slot]:
    """Lay out the loop body: assign slot types and per-branch biases.

    Branch biases implement ``branch_entropy``: a fraction of branch sites are
    "hard" (bias near 0.5, unlearnable), the rest strongly biased, which is
    what separates bimodal from history-based predictors downstream.
    """
    slots: List[_Slot] = []
    for index in range(body_size):
        pc = CODE_BASE + index * PC_STRIDE
        roll = rng.random()
        is_load = is_store = is_branch = False
        taken_bias = 0.0
        if roll < spec.mem_fraction:
            is_load = True
            is_store = rng.random() < spec.store_fraction
        elif roll < spec.mem_fraction + spec.branch_fraction:
            is_branch = True
            if rng.random() < spec.branch_entropy:
                taken_bias = 0.35 + 0.3 * rng.random()  # hard branch
            else:
                taken_bias = 0.98 if rng.random() < 0.7 else 0.02  # easy branch
        slots.append(_Slot(pc, is_load, is_store, is_branch, taken_bias))
    if not any(slot.is_branch for slot in slots):
        # Guarantee a loop-closing branch so predictors always see work.
        slots[-1] = _Slot(slots[-1].pc, False, False, True, 0.98)
    return slots


def generate_records(
    spec: WorkloadSpec,
    n_instructions: int,
    seed: int,
    llc_bytes: int,
    body_size: int = DEFAULT_BODY_SIZE,
) -> Iterator[TraceRecord]:
    """Yield ``n_instructions`` records for one workload model.

    Deterministic: the same (spec, seed, llc_bytes) always produces the same
    stream, which is what makes 2nd-Trace vs PInTE comparisons well-posed.
    """
    if n_instructions < 0:
        raise ValueError("n_instructions must be non-negative")
    layout_rng = DeterministicRng(seed, f"{spec.name}/layout")
    data_rng = DeterministicRng(seed, f"{spec.name}/data")
    branch_rng = DeterministicRng(seed, f"{spec.name}/branch")
    dep_rng = DeterministicRng(seed, f"{spec.name}/dep")

    body = _build_body(spec, layout_rng, body_size)
    pattern = spec.build_pattern(llc_bytes, DeterministicRng(seed, f"{spec.name}/pattern"))

    emitted = 0
    slot_index = 0
    n_slots = len(body)
    while emitted < n_instructions:
        slot = body[slot_index]
        slot_index += 1
        if slot_index == n_slots:
            slot_index = 0
        load_addr: Optional[int] = None
        store_addr: Optional[int] = None
        dependent = False
        if slot.is_load:
            address = DATA_BASE + pattern.next_address(data_rng)
            load_addr = address
            if slot.is_store:
                store_addr = address
            dependent = spec.dependency > 0 and dep_rng.random() < spec.dependency
        taken = False
        if slot.is_branch:
            taken = branch_rng.random() < slot.taken_bias
        yield TraceRecord(
            pc=slot.pc,
            load_addr=load_addr,
            store_addr=store_addr,
            is_branch=slot.is_branch,
            taken=taken,
            dependent=dependent,
        )
        emitted += 1


def build_trace(
    spec: WorkloadSpec,
    n_instructions: int,
    seed: int,
    llc_bytes: int,
    body_size: int = DEFAULT_BODY_SIZE,
) -> PackedTrace:
    """Generate ``spec``'s trace straight into columns — no intermediate
    record objects.

    Bit-identical to ``list(generate_records(...))`` (same seeds, same
    per-stream draw order); several times faster because the static
    per-slot structure (pcs, branch/has_load/has_store flag bits) is
    replicated as whole-body byte blocks and only the dynamic slots (load
    addresses, dependency and branch-outcome draws) are visited per body
    iteration.
    """
    if n_instructions < 0:
        raise ValueError("n_instructions must be non-negative")
    layout_rng = DeterministicRng(seed, f"{spec.name}/layout")
    data_rng = DeterministicRng(seed, f"{spec.name}/data")
    branch_rng = DeterministicRng(seed, f"{spec.name}/branch")
    dep_rng = DeterministicRng(seed, f"{spec.name}/dep")

    body = _build_body(spec, layout_rng, body_size)
    pattern = spec.build_pattern(llc_bytes,
                                 DeterministicRng(seed, f"{spec.name}/pattern"))
    n_slots = len(body)

    # Static structure: pc column and constant flag bits repeat every body
    # iteration, so both are laid down as replicated byte blocks.
    body_pcs = array("Q", (slot.pc for slot in body)).tobytes()
    base_flags = bytes(
        (FLAG_HAS_LOAD if slot.is_load else 0)
        | (FLAG_HAS_STORE if slot.is_load and slot.is_store else 0)
        | (FLAG_BRANCH if slot.is_branch else 0)
        for slot in body)
    full_cycles, remainder = divmod(n_instructions, n_slots)
    pcs = array("Q")
    pcs.frombytes(body_pcs * full_cycles + body_pcs[:remainder * 8])
    flags = bytearray(base_flags * full_cycles + base_flags[:remainder])
    loads = array("Q", bytes(8 * n_instructions))
    stores = array("Q", bytes(8 * n_instructions))

    # Dynamic slots, visited per body iteration in record order (which
    # preserves each stream's draw order exactly).
    load_slots = [(index, slot.is_store) for index, slot in enumerate(body)
                  if slot.is_load]
    branch_slots = [(index, slot.taken_bias) for index, slot in enumerate(body)
                    if slot.is_branch]
    draw_dependency = spec.dependency > 0
    dependency = spec.dependency
    next_address = pattern.next_address
    dep_random = dep_rng.random
    branch_random = branch_rng.random

    base = 0
    while base < n_instructions:
        limit = n_instructions - base
        for slot_index, has_store in load_slots:
            if slot_index >= limit:
                break
            address = DATA_BASE + next_address(data_rng)
            index = base + slot_index
            loads[index] = address
            if has_store:
                stores[index] = address
            if draw_dependency and dep_random() < dependency:
                flags[index] |= FLAG_DEPENDENT
        for slot_index, taken_bias in branch_slots:
            if slot_index >= limit:
                break
            if branch_random() < taken_bias:
                flags[base + slot_index] |= FLAG_TAKEN
        base += n_slots
    return PackedTrace(name=spec.name, pcs=pcs, loads=loads, stores=stores,
                       flags=flags)

