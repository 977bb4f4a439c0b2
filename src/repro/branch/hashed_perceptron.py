"""Hashed perceptron branch predictor.

Multiple weight tables, each indexed by a hash of the PC with a different
history length (geometric series), summed to a single output — the
organisation behind modern TAGE-like/hashed-perceptron predictors and the
most accurate option in the paper's case study.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.branch.base import BranchPredictor
from repro.util.bitops import ilog2


class HashedPerceptronPredictor(BranchPredictor):
    """Sum of per-table weights selected by (pc, history-segment) hashes.

    :meth:`update` is the whole predict-score-train step (the base class's
    ``_train`` hook is never reached), with each table's index and the
    weight sum computed once, in one loop.
    """

    name = "hashed_perceptron"

    def __init__(self, table_size: int = 4096,
                 history_lengths: (tuple) = (0, 3, 8, 16, 32),
                 weight_bits: int = 7) -> None:
        super().__init__()
        self._index_bits = ilog2(table_size)
        if not self._index_bits:
            raise ValueError("table_size must be at least 2")
        self._mask = table_size - 1
        self.history_lengths = tuple(history_lengths)
        self._segment_masks = tuple((1 << length) - 1
                                    for length in self.history_lengths)
        self._max_history = max(self.history_lengths)
        self._weight_max = (1 << (weight_bits - 1)) - 1
        self._weight_min = -(1 << (weight_bits - 1))
        self.threshold = int(2.14 * len(self.history_lengths) + 20.58)
        self._tables: List[List[int]] = [
            [0] * table_size for _ in self.history_lengths
        ]
        self._history = 0  # packed global history, LSB = most recent

    def _lookup(self, pc: int) -> Tuple[List[int], int]:
        """Each table's index and the summed weight they select.

        A table's index is the PC XOR its hashed history segment, folded to
        the index width by :func:`~repro.util.bitops.fold_xor` (inlined).
        """
        bits = self._index_bits
        mask = self._mask
        pc_bits = pc >> 2
        history = self._history
        indices = []
        output = 0
        for table, segment_mask in zip(self._tables, self._segment_masks):
            value = pc_bits ^ ((history & segment_mask) * 0x9E3779B1)
            index = 0
            while value:
                index ^= value & mask
                value >>= bits
            indices.append(index)
            output += table[index]
        return indices, output

    def _predict(self, pc: int) -> bool:
        return self._lookup(pc)[1] >= 0

    def update(self, pc: int, taken: bool) -> bool:
        """Predict + train with the index hashes computed once."""
        indices, output = self._lookup(pc)
        prediction = output >= 0
        self.stats.lookups += 1
        correct = prediction == taken
        if not correct:
            self.stats.mispredictions += 1
        if not correct or abs(output) <= self.threshold:
            delta = 1 if taken else -1
            for table, index in zip(self._tables, indices):
                weight = table[index] + delta
                if weight > self._weight_max:
                    weight = self._weight_max
                elif weight < self._weight_min:
                    weight = self._weight_min
                table[index] = weight
        self._history = ((self._history << 1) | int(taken)) & (
            (1 << self._max_history) - 1
        )
        return correct
