"""Unit tests for trace records."""

import pytest

from repro.trace.record import TraceRecord


class TestTraceRecord:
    def test_defaults(self):
        record = TraceRecord(pc=0x400000)
        assert record.load_addr is None
        assert record.store_addr is None
        assert not record.is_branch
        assert not record.taken
        assert not record.dependent

    def test_is_memory_load(self):
        assert TraceRecord(0x400000, load_addr=0x1000).is_memory

    def test_is_memory_store(self):
        assert TraceRecord(0x400000, store_addr=0x1000).is_memory

    def test_is_memory_false_for_alu(self):
        assert not TraceRecord(0x400000).is_memory

    def test_equality(self):
        a = TraceRecord(1, load_addr=2, is_branch=True, taken=True)
        b = TraceRecord(1, load_addr=2, is_branch=True, taken=True)
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality(self):
        a = TraceRecord(1, load_addr=2)
        b = TraceRecord(1, load_addr=3)
        assert a != b

    def test_not_equal_to_other_types(self):
        assert TraceRecord(1) != "TraceRecord"

    def test_slots_prevent_new_attributes(self):
        record = TraceRecord(1)
        with pytest.raises(AttributeError):
            record.bogus = 1

