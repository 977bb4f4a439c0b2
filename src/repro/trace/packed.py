"""Columnar (struct-of-arrays) trace storage.

The object-per-instruction representation (:class:`~repro.trace.record.TraceRecord`
lists) costs one heap object, six attribute slots and a list cell per
instruction — millions of objects per trace, re-created in every campaign
worker. :class:`PackedTrace` stores the same stream as four parallel
columns (``array('Q')`` for pc/load/store plus a flags ``bytearray``), the
same recipe PR 1 applied to the cache data path:

* simulation hot loops index the columns directly (no attribute chasing,
  no per-record allocation);
* trace I/O becomes four bulk ``tobytes``/``frombytes`` block transfers
  (:mod:`repro.trace.io` format ``PNTR2``);
* the flag byte is *the on-disk flag byte*, so packing is also
  serialisation.

``None``-vs-``0`` address semantics are preserved exactly: a zero in the
``loads``/``stores`` column is only a real address when the corresponding
``FLAG_HAS_LOAD``/``FLAG_HAS_STORE`` bit is set. Consumers must gate on the
flag, never on the value — column entries whose flag is clear are
"don't care" (e.g. :meth:`PackedTrace.offset` shifts them freely).

``PackedTrace`` is the one trace type: the generator, the file reader and
the trace stores all hand one out. :class:`~repro.trace.record.TraceRecord`
is its record-level view: a ``PackedTrace`` iterates/indexes as records,
and :func:`as_packed` coerces any record iterable into columns, so every
entry point also accepts a plain record list or generator.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, List, Optional

from repro.trace.record import TraceRecord

__all__ = [
    "FLAG_BRANCH",
    "FLAG_DEPENDENT",
    "FLAG_HAS_LOAD",
    "FLAG_HAS_STORE",
    "FLAG_MEMORY",
    "FLAG_TAKEN",
    "PackedTrace",
    "as_packed",
]

#: Flag-byte bits — identical to the on-disk encoding of every ``PNTR``
#: format version, so a flags column round-trips to disk byte-for-byte.
FLAG_BRANCH = 1
FLAG_TAKEN = 2
FLAG_DEPENDENT = 4
FLAG_HAS_LOAD = 8
FLAG_HAS_STORE = 16
#: Mask selecting "touches memory at all" (either operand present).
FLAG_MEMORY = FLAG_HAS_LOAD | FLAG_HAS_STORE


class PackedTrace:
    """A trace as four parallel columns, one entry per instruction.

    Columns:
        pcs: instruction addresses (``array('Q')``).
        loads: load effective addresses (``array('Q')``; valid only where
            ``flags & FLAG_HAS_LOAD``).
        stores: store effective addresses (``array('Q')``; valid only where
            ``flags & FLAG_HAS_STORE``).
        flags: one flag byte per instruction (``bytearray``).

    Iteration and indexing materialise :class:`TraceRecord` views on
    demand, so a ``PackedTrace`` drops into any record-level consumer;
    the ``records`` property memoises a full record list for callers
    that index repeatedly.
    """

    __slots__ = ("name", "pcs", "loads", "stores", "flags", "_records")

    def __init__(self, name: str = "", pcs: Optional[array] = None,
                 loads: Optional[array] = None,
                 stores: Optional[array] = None,
                 flags: Optional[bytearray] = None) -> None:
        self.name = name
        self.pcs = pcs if pcs is not None else array("Q")
        self.loads = loads if loads is not None else array("Q")
        self.stores = stores if stores is not None else array("Q")
        self.flags = flags if flags is not None else bytearray()
        n = len(self.flags)
        if not (len(self.pcs) == len(self.loads) == len(self.stores) == n):
            raise ValueError(
                f"column length mismatch: pcs={len(self.pcs)} "
                f"loads={len(self.loads)} stores={len(self.stores)} "
                f"flags={n}")
        self._records: Optional[List[TraceRecord]] = None

    # -- construction -------------------------------------------------------
    @classmethod
    def from_records(cls, records: Iterable[TraceRecord],
                     name: str = "") -> "PackedTrace":
        """Pack any iterable of records into columns (one pass)."""
        packed = cls(name=name)
        append = packed.append_record
        for record in records:
            append(record)
        return packed

    def append_record(self, record: TraceRecord) -> None:
        """Append one record-object's fields to the columns."""
        flags = 0
        load = store = 0
        if record.load_addr is not None:
            flags |= FLAG_HAS_LOAD
            load = record.load_addr
        if record.store_addr is not None:
            flags |= FLAG_HAS_STORE
            store = record.store_addr
        if record.is_branch:
            flags |= FLAG_BRANCH
        if record.taken:
            flags |= FLAG_TAKEN
        if record.dependent:
            flags |= FLAG_DEPENDENT
        self.pcs.append(record.pc)
        self.loads.append(load)
        self.stores.append(store)
        self.flags.append(flags)
        self._records = None

    # -- record-level view --------------------------------------------------
    def record(self, index: int) -> TraceRecord:
        """Materialise one instruction as a :class:`TraceRecord` view."""
        flags = self.flags[index]
        return TraceRecord(
            pc=self.pcs[index],
            load_addr=self.loads[index] if flags & FLAG_HAS_LOAD else None,
            store_addr=self.stores[index] if flags & FLAG_HAS_STORE else None,
            is_branch=bool(flags & FLAG_BRANCH),
            taken=bool(flags & FLAG_TAKEN),
            dependent=bool(flags & FLAG_DEPENDENT),
        )

    def to_records(self) -> List[TraceRecord]:
        """A fresh record-object list for the whole trace."""
        record = self.record
        return [record(index) for index in range(len(self.flags))]

    @property
    def records(self) -> List[TraceRecord]:
        """Memoised record-object list (see :meth:`to_records`)."""
        if self._records is None:
            self._records = self.to_records()
        return self._records

    def __len__(self) -> int:
        return len(self.flags)

    def __iter__(self) -> Iterator[TraceRecord]:
        record = self.record
        for index in range(len(self.flags)):
            yield record(index)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PackedTrace(name=self.name, pcs=self.pcs[index],
                               loads=self.loads[index],
                               stores=self.stores[index],
                               flags=self.flags[index])
        return self.record(index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedTrace):
            return NotImplemented
        return (self.pcs == other.pcs and self.loads == other.loads
                and self.stores == other.stores and self.flags == other.flags)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PackedTrace(name={self.name!r}, n={len(self.flags)})"

    # -- transforms ---------------------------------------------------------
    def offset(self, delta: int, name: Optional[str] = None) -> "PackedTrace":
        """A copy with every address shifted by ``delta`` (per-core spaces).

        The shift is applied to the whole load/store columns including
        flag-clear "don't care" entries; consumers gate on flags, so those
        values never surface.
        """
        if delta == 0 and name is None:
            return self
        add = delta.__add__
        return PackedTrace(
            name=name if name is not None else self.name,
            pcs=array("Q", map(add, self.pcs)),
            loads=array("Q", map(add, self.loads)),
            stores=array("Q", map(add, self.stores)),
            flags=bytearray(self.flags),
        )


def as_packed(trace, name: str = "") -> PackedTrace:
    """Coerce any trace-like input to a :class:`PackedTrace`.

    Accepts a ``PackedTrace`` (returned as-is) or any iterable of
    :class:`TraceRecord` (packed in one pass). This is the single coercion
    point every simulation entry point funnels through, which is what lets
    ``simulate()`` and friends accept arbitrary record iterables.
    """
    if isinstance(trace, PackedTrace):
        return trace
    return PackedTrace.from_records(trace, name=name)
