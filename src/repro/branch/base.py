"""Branch predictor interface and bookkeeping.

All predictors expose ``predict(pc) -> bool`` and ``update(pc, taken)`` and
accumulate accuracy statistics; the core model charges a flush penalty per
misprediction. The four concrete predictors match the paper's case-study set
(Section III-C d): bimodal, gshare, perceptron, hashed perceptron.
"""

from __future__ import annotations

from itertools import chain


class BranchStats:
    """Prediction accuracy counters."""

    __slots__ = ("lookups", "mispredictions")

    def __init__(self) -> None:
        self.lookups = 0
        self.mispredictions = 0

    @property
    def accuracy(self) -> float:
        """Fraction of correct predictions (1.0 when no branches were seen)."""
        if self.lookups == 0:
            return 1.0
        return 1.0 - self.mispredictions / self.lookups

    def reset(self) -> None:
        self.lookups = 0
        self.mispredictions = 0


class BranchPredictor:
    """Common base: subclasses implement ``_predict`` and ``_train``."""

    name = "base"

    def __init__(self) -> None:
        self.stats = BranchStats()

    def predict(self, pc: int) -> bool:
        """Return the predicted direction for the branch at ``pc``."""
        return self._predict(pc)

    def update(self, pc: int, taken: bool) -> bool:
        """Record the outcome; returns True when the prediction was correct.

        This is the single entry point the core model calls per branch: it
        predicts, scores, and trains in one step so stats can never get out
        of sync with training.
        """
        prediction = self._predict(pc)
        self.stats.lookups += 1
        correct = prediction == taken
        if not correct:
            self.stats.mispredictions += 1
        self._train(pc, taken)
        return correct

    def _predict(self, pc: int) -> bool:
        raise NotImplementedError

    def _train(self, pc: int, taken: bool) -> None:
        raise NotImplementedError


#: Leaf values a predictor's state is made of.
_SCALARS = {int, float, bool, str, type(None)}


def predictor_state(predictor: BranchPredictor) -> tuple:
    """A deep value copy of everything ``predictor`` predicts and trains
    from, its statistics left out.

    Two snapshots are equal exactly when the two states are: tables and
    histories are copied by value, so later updates never reach a
    snapshot, and a component predictor (a tournament's bimodal and gshare)
    is snapshotted in turn rather than compared by identity. State of any
    other type makes the snapshot equal to no other.
    """
    if any(vars(cls).get("__slots__") for cls in type(predictor).__mro__):
        return (type(predictor), object())  # slots: state this cannot see
    return (type(predictor), tuple(
        (name, _state_value(value))
        for name, value in sorted(vars(predictor).items())
        if name != "stats"))


def _state_value(value):
    if isinstance(value, BranchPredictor):
        return predictor_state(value)
    if isinstance(value, (list, tuple)):
        types = set(map(type, value))
        if types <= _SCALARS:
            return tuple(value)
        if types == {list}:
            # A table of rows (the perceptron's weights): copied row by row
            # in C when every row holds only scalars.
            rows = tuple(map(tuple, value))
            if set(map(type, chain.from_iterable(rows))) <= _SCALARS:
                return rows
        return tuple(map(_state_value, value))
    if type(value) in _SCALARS:
        return value
    # A value this cannot copy: equal to no other snapshot, so such a
    # predictor's state never looks repeated.
    return object()


class AlwaysTakenPredictor(BranchPredictor):
    """Static predict-taken baseline (useful in tests and ablations)."""

    name = "always_taken"

    def _predict(self, pc: int) -> bool:
        return True

    def _train(self, pc: int, taken: bool) -> None:
        pass
