"""Branch prediction substrate (paper Section III-C d)."""

from repro.branch.base import (
    AlwaysTakenPredictor,
    BranchPredictor,
    BranchStats,
    predictor_state,
)
from repro.branch.bimodal import BimodalPredictor
from repro.branch.gshare import GSharePredictor
from repro.branch.hashed_perceptron import HashedPerceptronPredictor
from repro.branch.perceptron import PerceptronPredictor
from repro.branch.tournament import TournamentPredictor
from repro.components import ComponentRegistry

PREDICTORS = ComponentRegistry("branch predictor", {
    BimodalPredictor.name: BimodalPredictor,
    GSharePredictor.name: GSharePredictor,
    PerceptronPredictor.name: PerceptronPredictor,
    HashedPerceptronPredictor.name: HashedPerceptronPredictor,
    TournamentPredictor.name: TournamentPredictor,
    AlwaysTakenPredictor.name: AlwaysTakenPredictor,
})


def make_predictor(name: str, **kwargs) -> BranchPredictor:
    """Instantiate a branch predictor by registry name."""
    cls = PREDICTORS[name]
    return cls(**kwargs)


__all__ = [
    "AlwaysTakenPredictor",
    "BimodalPredictor",
    "BranchPredictor",
    "BranchStats",
    "GSharePredictor",
    "HashedPerceptronPredictor",
    "PREDICTORS",
    "PerceptronPredictor",
    "TournamentPredictor",
    "make_predictor",
    "predictor_state",
]
