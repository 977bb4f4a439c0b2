"""Unit tests for the columnar trace representation."""

from array import array

import pytest

from repro.trace.packed import (
    FLAG_BRANCH,
    FLAG_DEPENDENT,
    FLAG_HAS_LOAD,
    FLAG_HAS_STORE,
    FLAG_MEMORY,
    FLAG_TAKEN,
    PackedTrace,
    as_packed,
)
from repro.trace.record import TraceRecord
from repro.trace.spec_models import get_workload
from repro.trace.synthetic import build_trace, generate_records


def sample_records():
    return [
        TraceRecord(0x400000),
        TraceRecord(0x400004, load_addr=0x1000),
        TraceRecord(0x400008, store_addr=0x2000),
        TraceRecord(0x40000C, load_addr=0x3000, store_addr=0x3000,
                    dependent=True),
        TraceRecord(0x400010, is_branch=True, taken=True),
        TraceRecord(0x400014, load_addr=0),
    ]


class TestConstruction:
    def test_from_records_round_trips(self):
        packed = PackedTrace.from_records(sample_records(), name="s")
        assert packed.name == "s"
        assert len(packed) == 6
        assert packed.to_records() == sample_records()

    def test_flag_bits(self):
        packed = PackedTrace.from_records(sample_records())
        assert packed.flags[0] == 0
        assert packed.flags[1] == FLAG_HAS_LOAD
        assert packed.flags[2] == FLAG_HAS_STORE
        assert packed.flags[3] == (FLAG_HAS_LOAD | FLAG_HAS_STORE
                                   | FLAG_DEPENDENT)
        assert packed.flags[4] == FLAG_BRANCH | FLAG_TAKEN
        assert packed.flags[5] == FLAG_HAS_LOAD

    def test_memory_mask_covers_both_operands(self):
        assert FLAG_MEMORY == FLAG_HAS_LOAD | FLAG_HAS_STORE
        packed = PackedTrace.from_records(sample_records())
        touches = [bool(flag & FLAG_MEMORY) for flag in packed.flags]
        assert touches == [False, True, True, True, False, True]

    def test_zero_load_addr_is_not_none(self):
        packed = PackedTrace.from_records(sample_records())
        record = packed[5]
        assert record.load_addr == 0
        assert record.store_addr is None

    def test_column_types(self):
        packed = PackedTrace.from_records(sample_records())
        assert isinstance(packed.pcs, array) and packed.pcs.typecode == "Q"
        assert isinstance(packed.loads, array)
        assert isinstance(packed.stores, array)
        assert isinstance(packed.flags, bytearray)

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError, match="column length mismatch"):
            PackedTrace(pcs=array("Q", [1, 2]), loads=array("Q", [1]),
                        stores=array("Q", [1]), flags=bytearray(1))


class TestRecordView:
    def test_indexing_and_iter(self):
        records = sample_records()
        packed = PackedTrace.from_records(records)
        assert packed[1] == records[1]
        assert packed[-1] == records[-1]
        assert list(packed) == records

    def test_records_property_memoised(self):
        packed = PackedTrace.from_records(sample_records())
        assert packed.records is packed.records

    def test_append_invalidates_memo(self):
        packed = PackedTrace.from_records(sample_records())
        before = packed.records
        packed.append_record(TraceRecord(0x400018))
        assert len(packed.records) == len(before) + 1

    def test_slice_returns_packed(self):
        packed = PackedTrace.from_records(sample_records(), name="s")
        window = packed[1:4]
        assert isinstance(window, PackedTrace)
        assert window.name == "s"
        assert window.to_records() == sample_records()[1:4]

    def test_equality_is_columnwise(self):
        a = PackedTrace.from_records(sample_records(), name="a")
        b = PackedTrace.from_records(sample_records(), name="b")
        assert a == b  # name is not part of the stream identity
        b.append_record(TraceRecord(0x1))
        assert a != b


class TestOffset:
    def test_zero_offset_is_identity(self):
        packed = PackedTrace.from_records(sample_records())
        assert packed.offset(0) is packed

    def test_addresses_shift_but_flags_do_not(self):
        packed = PackedTrace.from_records(sample_records())
        moved = packed.offset(1 << 40)
        assert moved.flags == packed.flags
        assert moved[1].load_addr == 0x1000 + (1 << 40)
        assert moved[1].store_addr is None
        assert moved[0].pc == 0x400000 + (1 << 40)

    def test_rename(self):
        packed = PackedTrace.from_records(sample_records(), name="s")
        assert packed.offset(0, name="t").name == "t"


class TestAsPacked:
    def test_packed_passthrough(self):
        packed = PackedTrace.from_records(sample_records())
        assert as_packed(packed) is packed

    def test_plain_iterable(self):
        packed = as_packed(iter(sample_records()), name="gen")
        assert packed.name == "gen"
        assert packed.to_records() == sample_records()

    def test_generator_matches_trace(self):
        workload = get_workload("470.lbm")
        from_gen = as_packed(generate_records(workload, 2000, 7, 65536),
                             name="470.lbm")
        from_build = as_packed(build_trace(workload, 2000, 7, 65536))
        assert from_gen == from_build


class TestStreamingBuilder:
    """build_trace must emit exactly what the record generator emits."""

    @pytest.mark.parametrize("name", ["435.gromacs", "429.mcf", "605.mcf"])
    def test_matches_generate_records(self, name):
        workload = get_workload(name)
        streamed = build_trace(workload, 3000, 5, 65536)
        reference = PackedTrace.from_records(
            generate_records(workload, 3000, 5, 65536))
        assert streamed == reference

    def test_build_trace_is_packed_backed(self):
        trace = build_trace(get_workload("470.lbm"), 1000, 1, 65536)
        assert isinstance(trace, PackedTrace)
        assert len(trace) == len(trace.flags) == 1000
