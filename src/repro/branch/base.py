"""Branch predictor interface and bookkeeping.

All predictors expose ``predict(pc) -> bool`` and ``update(pc, taken)`` and
accumulate accuracy statistics; the core model charges a flush penalty per
misprediction. The four concrete predictors match the paper's case-study set
(Section III-C d): bimodal, gshare, perceptron, hashed perceptron.
"""

from __future__ import annotations


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


class AlwaysTakenPredictor(BranchPredictor):
    """Static predict-taken baseline (useful in tests and ablations)."""

    name = "always_taken"

    def _predict(self, pc: int) -> bool:
        return True

    def _train(self, pc: int, taken: bool) -> None:
        pass
