"""Unambiguous comparison of unknown unitary channels via process POVMs."""

from .comparator import (
    ComparisonReport,
    NoErrorReport,
    Strategy,
    UniquenessProbe,
    average_success,
    average_success_mc,
    make_strategy,
    overall_success,
    random_unambiguous_ppovm,
    run_pair,
    sequential_witness,
    success_bound,
    uniqueness_probe,
    verify_no_error,
)
from .haar import McEstimate, average_channel_exact, average_channel_mc, haar_sample, twirl_exact
from .qobj import (
    Ppovm,
    QState,
    UnitaryOp,
    choi_of_unitary,
    outcome_probability,
    ppovm_from_experiment,
)
from .symmetry import (
    eigenbasis,
    projector,
    random_antisymmetric_state,
    random_symmetric_state,
    twirl_choi,
    uniform_antisymmetric_state,
    uniform_symmetric_state,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "McEstimate",
    "NoErrorReport",
    "Ppovm",
    "QState",
    "Strategy",
    "UnitaryOp",
    "UniquenessProbe",
    "average_channel_exact",
    "average_channel_mc",
    "average_success",
    "average_success_mc",
    "choi_of_unitary",
    "eigenbasis",
    "haar_sample",
    "make_strategy",
    "outcome_probability",
    "overall_success",
    "ppovm_from_experiment",
    "projector",
    "random_antisymmetric_state",
    "random_symmetric_state",
    "random_unambiguous_ppovm",
    "run_pair",
    "sequential_witness",
    "success_bound",
    "twirl_choi",
    "twirl_exact",
    "uniform_antisymmetric_state",
    "uniform_symmetric_state",
    "uniqueness_probe",
    "verify_no_error",
    "__version__",
]
