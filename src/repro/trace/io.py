"""Trace (de)serialisation.

A compact binary format, gzip-compressed, in the spirit of ChampSim's
``.trace.gz`` files. ``PNTR2`` is columnar: after the header, the whole
trace is four contiguous little-endian column blocks — pcs, loads, stores
(8 bytes per record each) and flags (1 byte per record) — written/read
with bulk ``tobytes``/``frombytes`` transfers straight from
:class:`~repro.trace.packed.PackedTrace` columns. No per-record packing.

The flag byte uses the :mod:`repro.trace.packed` ``FLAG_*`` encoding
(bit0=branch, bit1=taken, bit2=dependent, bit3=has_load, bit4=has_store),
so the has_load/has_store bits preserve the ``None``-vs-``0`` address
distinction. The legacy record-interleaved ``PNTR1`` format is no longer
read; regenerate such files with ``repro trace build``.
"""

from __future__ import annotations

import gzip
import struct
import sys
from array import array
from pathlib import Path
from typing import Iterable, Union

from repro.trace.packed import PackedTrace, as_packed
from repro.trace.record import TraceRecord

MAGIC = b"PNTR2\n"
#: The retired record-interleaved format, recognised only to refuse it.
_LEGACY_MAGIC = b"PNTR1\n"

#: Current on-disk format version (what :func:`write_trace` emits).
FORMAT_VERSION = 2

TraceLike = Union[PackedTrace, Iterable[TraceRecord]]


def _native(column: array) -> array:
    """The column in native byte order (PNTR2 blocks are little-endian)."""
    if sys.byteorder == "big":  # pragma: no cover - LE everywhere we run
        swapped = array(column.typecode, column)
        swapped.byteswap()
        return swapped
    return column


def _read_exact(fh, n_bytes: int, path: Path, what: str) -> bytes:
    """Read exactly ``n_bytes`` or raise a truncation error naming ``what``."""
    raw = fh.read(n_bytes)
    if len(raw) != n_bytes:
        raise ValueError(
            f"{path}: truncated {what} (wanted {n_bytes} bytes, "
            f"got {len(raw)})")
    return raw


def write_trace(trace: TraceLike, path: Union[str, Path],
                name: str = "") -> int:
    """Write a trace to ``path`` as ``PNTR2``; returns the record count.

    Accepts a :class:`PackedTrace` or any iterable of
    :class:`TraceRecord`.
    """
    packed = as_packed(trace, name=name)
    name = name or packed.name
    name_bytes = name.encode("utf-8")
    count = len(packed)
    with gzip.open(Path(path), "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", len(name_bytes)))
        fh.write(name_bytes)
        fh.write(struct.pack("<Q", count))
        fh.write(_native(packed.pcs).tobytes())
        fh.write(_native(packed.loads).tobytes())
        fh.write(_native(packed.stores).tobytes())
        fh.write(bytes(packed.flags))
    return count


def _read_columns(fh, path: Path) -> PackedTrace:
    """Bulk-read the four column blocks."""
    (count,) = struct.unpack("<Q", _read_exact(fh, 8, path, "record count"))
    columns = []
    for what in ("pc column", "load column", "store column"):
        column = array("Q")
        column.frombytes(_read_exact(fh, 8 * count, path, what))
        columns.append(_native(column))
    flags = bytearray(_read_exact(fh, count, path, "flags column"))
    trailing = fh.read(1)
    if trailing:
        raise ValueError(f"{path}: trailing bytes after {count} records")
    return PackedTrace(pcs=columns[0], loads=columns[1], stores=columns[2],
                       flags=flags)


def read_trace(path: Union[str, Path]) -> PackedTrace:
    """Read a trace previously written by :func:`write_trace`."""
    path = Path(path)
    with gzip.open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic == _LEGACY_MAGIC:
            raise ValueError(
                f"{path}: legacy PNTR1 trace format is no longer read; "
                "regenerate the file with `repro trace build`")
        if magic != MAGIC:
            raise ValueError(
                f"{path}: not a PInTE trace file (bad magic {magic!r})")
        (name_len,) = struct.unpack(
            "<H", _read_exact(fh, 2, path, "name length"))
        name = _read_exact(fh, name_len, path, "name").decode("utf-8")
        packed = _read_columns(fh, path)
    packed.name = name or path.stem
    return packed
