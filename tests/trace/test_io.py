"""Unit tests for trace file I/O (the columnar ``PNTR2`` format).

The property the suite guards: for any record stream, ``read_trace``
after ``write_trace`` reproduces the records exactly — including the
``None``-vs-``0`` address distinction — and a legacy ``PNTR1`` file is
refused with one error that says how to regenerate it.
"""

import gzip
import struct

import pytest

from repro.trace.io import FORMAT_VERSION, read_trace, write_trace
from repro.trace.packed import PackedTrace, as_packed
from repro.trace.record import TraceRecord
from repro.trace.spec_models import get_workload
from repro.trace.synthetic import build_trace


def sample_trace():
    return PackedTrace.from_records([
        TraceRecord(0x400000),
        TraceRecord(0x400004, load_addr=0x1000),
        TraceRecord(0x400008, load_addr=0x2000, store_addr=0x2000),
        TraceRecord(0x40000C, is_branch=True, taken=True),
        TraceRecord(0x400010, load_addr=0x3000, dependent=True),
    ], name="sample")


#: Edge-case record streams, parametrised by name.
EDGE_CASES = {
    "zero_load_addr": [
        # Address 0 is a real address — must not collapse to None.
        TraceRecord(0x400000, load_addr=0),
        TraceRecord(0x400004, load_addr=0, store_addr=0),
    ],
    "store_only": [
        # A store with no load (not produced by the synthetic generator,
        # but legal in the record model and in external traces).
        TraceRecord(0x400000, store_addr=0x8000),
        TraceRecord(0x400004, store_addr=0),
    ],
    "no_memory": [
        TraceRecord(0x400000),
        TraceRecord(0x400004, is_branch=True, taken=False),
        TraceRecord(0x400008, is_branch=True, taken=True),
    ],
    "all_flags": [
        TraceRecord(0x400000, load_addr=0x1000, store_addr=0x1000,
                    is_branch=True, taken=True, dependent=True),
    ],
    "huge_addresses": [
        TraceRecord(2**63, load_addr=2**64 - 1, store_addr=2**64 - 64),
    ],
    "empty": [],
}


class TestRoundTrip:
    def test_records_survive(self, tmp_path):
        path = tmp_path / "t.trace.gz"
        trace = sample_trace()
        count = write_trace(trace, path)
        assert count == 5
        loaded = read_trace(path)
        assert loaded.records == trace.records

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_edge_case_round_trip(self, tmp_path, case):
        records = EDGE_CASES[case]
        path = tmp_path / f"{case}.trace.gz"
        trace = PackedTrace.from_records(records, name=case)
        assert write_trace(trace, path) == len(records)
        loaded = read_trace(path)
        assert loaded.records == records

    def test_zero_addr_stays_distinct_from_none(self, tmp_path):
        path = tmp_path / "zero.trace.gz"
        write_trace(PackedTrace.from_records(EDGE_CASES["zero_load_addr"],
                                             name="z"), path)
        loaded = read_trace(path).records
        assert loaded[0].load_addr == 0       # real zero address...
        assert loaded[0].store_addr is None   # ...absent operand is None
        assert loaded[1].store_addr == 0

    def test_name_survives(self, tmp_path):
        path = tmp_path / "t.trace.gz"
        write_trace(sample_trace(), path)
        assert read_trace(path).name == "sample"

    def test_name_override(self, tmp_path):
        path = tmp_path / "t.trace.gz"
        write_trace(sample_trace(), path, name="other")
        assert read_trace(path).name == "other"

    def test_iterable_input(self, tmp_path):
        path = tmp_path / "t.trace.gz"
        write_trace(iter(sample_trace().records), path, name="it")
        assert len(read_trace(path)) == 5

    def test_packed_input(self, tmp_path):
        path = tmp_path / "t.trace.gz"
        packed = as_packed(sample_trace())
        write_trace(packed, path)
        assert as_packed(read_trace(path)) == packed

    def test_synthetic_round_trip(self, tmp_path):
        trace = build_trace(get_workload("435.gromacs"), 3000, 1, 65536)
        path = tmp_path / "g.trace.gz"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert loaded.records == trace.records
        assert loaded.name == trace.name

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.trace.gz"
        write_trace(PackedTrace.from_records([], name="empty"), path)
        assert len(read_trace(path)) == 0

    def test_default_version_is_current(self, tmp_path):
        path = tmp_path / "t.trace.gz"
        write_trace(sample_trace(), path)
        with gzip.open(path, "rb") as fh:
            assert fh.read(6) == f"PNTR{FORMAT_VERSION}\n".encode()


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.trace.gz"
        with gzip.open(path, "wb") as fh:
            fh.write(b"NOTATRACE")
        with pytest.raises(ValueError, match="bad magic"):
            read_trace(path)

    def test_legacy_pntr1_refused(self, tmp_path):
        """An old record-interleaved file, header plus one ``<QQQB``
        record written by hand, fails with one message naming the fix."""
        path = tmp_path / "v1.trace.gz"
        record = struct.pack("<QQQB", 0x400000, 0x1000, 0, 0b01000)
        with gzip.open(path, "wb") as fh:
            fh.write(b"PNTR1\n" + struct.pack("<H", 1) + b"x" + record)
        with pytest.raises(ValueError) as excinfo:
            read_trace(path)
        message = str(excinfo.value)
        assert "legacy PNTR1 trace format is no longer read" in message
        assert "repro trace build" in message

    def test_truncated_tail(self, tmp_path):
        path = tmp_path / "t.trace.gz"
        write_trace(sample_trace(), path)
        raw = gzip.decompress(path.read_bytes())
        with gzip.open(path, "wb") as fh:
            fh.write(raw[:-3])  # chop mid-column
        with pytest.raises(ValueError, match="truncated"):
            read_trace(path)

    @pytest.mark.parametrize("cut", ("count", "pcs", "flags"))
    def test_truncated_v2_sections(self, tmp_path, cut):
        path = tmp_path / "t.trace.gz"
        write_trace(sample_trace(), path)
        raw = gzip.decompress(path.read_bytes())
        header = 6 + 2 + len(b"sample")
        offsets = {
            "count": header + 4,             # mid record-count field
            "pcs": header + 8 + 3 * 8,       # mid pc column
            "flags": len(raw) - 2,           # mid flags column
        }
        with gzip.open(path, "wb") as fh:
            fh.write(raw[:offsets[cut]])
        with pytest.raises(ValueError, match="truncated"):
            read_trace(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.trace.gz"
        write_trace(sample_trace(), path)
        raw = gzip.decompress(path.read_bytes())
        with gzip.open(path, "wb") as fh:
            fh.write(raw + b"junk")
        with pytest.raises(ValueError, match="trailing bytes"):
            read_trace(path)

    def test_truncated_name(self, tmp_path):
        path = tmp_path / "t.trace.gz"
        with gzip.open(path, "wb") as fh:
            fh.write(b"PNTR2\n" + (200).to_bytes(2, "little") + b"short")
        with pytest.raises(ValueError, match="truncated name"):
            read_trace(path)
