"""The hashed perceptron's inlined index hash against a plain reference.

:class:`HashedPerceptronPredictor` folds each table's hash inline and sums
the selected weights in the same loop. The reference below is the
predictor written plainly on :func:`repro.util.bitops.fold_xor`, one call
per table; over random PCs, outcome streams, table sizes and history
lengths the two must agree on every index, output, prediction and weight.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch.hashed_perceptron import HashedPerceptronPredictor
from repro.util.bitops import fold_xor, ilog2


class ReferenceHashedPerceptron:
    """Plain hashed perceptron: ``fold_xor`` per table, ``sum`` per lookup."""

    def __init__(self, table_size, history_lengths, weight_bits):
        self.index_bits = ilog2(table_size)
        self.mask = table_size - 1
        self.history_lengths = tuple(history_lengths)
        self.max_history = max(self.history_lengths)
        self.weight_max = (1 << (weight_bits - 1)) - 1
        self.weight_min = -(1 << (weight_bits - 1))
        self.threshold = int(2.14 * len(self.history_lengths) + 20.58)
        self.tables = [[0] * table_size for _ in self.history_lengths]
        self.history = 0
        self.lookups = self.mispredictions = 0

    def indices(self, pc):
        result = []
        for length in self.history_lengths:
            segment = self.history & ((1 << length) - 1) if length else 0
            hashed = fold_xor((pc >> 2) ^ (segment * 0x9E3779B1),
                              self.index_bits)
            result.append(hashed & self.mask)
        return result

    def output(self, pc):
        return sum(table[index]
                   for table, index in zip(self.tables, self.indices(pc)))

    def update(self, pc, taken):
        indices = self.indices(pc)
        output = sum(table[index] for table, index in zip(self.tables, indices))
        self.lookups += 1
        correct = (output >= 0) == taken
        if not correct:
            self.mispredictions += 1
        if not correct or abs(output) <= self.threshold:
            delta = 1 if taken else -1
            for table, index in zip(self.tables, indices):
                table[index] = max(self.weight_min,
                                   min(self.weight_max, table[index] + delta))
        self.history = (((self.history << 1) | int(taken))
                        & ((1 << self.max_history) - 1))
        return correct


steps = st.lists(st.tuples(st.integers(min_value=0, max_value=(1 << 48) - 1),
                           st.booleans()),
                 min_size=1, max_size=150)


@settings(max_examples=150, deadline=None)
@given(table_bits=st.integers(min_value=1, max_value=12),
       history_lengths=st.lists(st.integers(min_value=0, max_value=40),
                                min_size=1, max_size=6),
       weight_bits=st.integers(min_value=2, max_value=8),
       stream=steps,
       repeat=st.integers(min_value=1, max_value=4))
def test_matches_fold_xor_reference(table_bits, history_lengths, weight_bits,
                                    stream, repeat):
    table_size = 1 << table_bits
    predictor = HashedPerceptronPredictor(table_size, tuple(history_lengths),
                                          weight_bits)
    reference = ReferenceHashedPerceptron(table_size, history_lengths,
                                          weight_bits)
    # Repeating the stream revisits the same PCs under trained weights and
    # a full history register, where saturation and threshold matter.
    for pc, taken in stream * repeat:
        indices, output = predictor._lookup(pc)
        assert indices == reference.indices(pc)
        assert output == reference.output(pc)
        assert predictor.predict(pc) == (reference.output(pc) >= 0)
        assert predictor.update(pc, taken) == reference.update(pc, taken)
        assert predictor._history == reference.history
    assert predictor._tables == reference.tables
    assert predictor.stats.lookups == reference.lookups
    assert predictor.stats.mispredictions == reference.mispredictions


def test_single_entry_tables_rejected():
    # A 1-entry table has a 0-bit index, which fold_xor cannot fold to.
    with pytest.raises(ValueError):
        HashedPerceptronPredictor(table_size=1)
