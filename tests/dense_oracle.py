"""The dense oracle of a comparison strategy, built from the test state xi it was made from.

A strategy keeps only xi's factor; tests that check it against the dense
d^2 x d^2 effects or the d^4 x d^4 process POVM build them here.  The
twirl's Choi operator, which the library fills from the swap's index map,
is built here in its projector form.
"""

from chancomp.linalg import tensor
from chancomp.qobj import Ppovm, QState, ppovm_from_experiment
from chancomp.symmetry import projector, qudit_dim

# Swap eigenvalue of the effect that reads 'diff', per strategy kind; written out
# here, not read from comparator, so the oracle checks the library's choice.
DIFF_SIGN = {"antisym_optimal": 1, "symmetric": -1}


def swap_effects(d, kind):
    """The strategy's measurement: the swap eigenprojectors, 'diff' on the one xi avoids."""
    s = DIFF_SIGN[kind]
    return {"diff": projector(d, s), "inconclusive": projector(d, -s)}


def dense_ppovm(xi: QState, kind) -> Ppovm:
    """The process POVM {xi^T (x) F} of sending xi through the boxes and measuring swap_effects."""
    return ppovm_from_experiment(xi, swap_effects(qudit_dim(xi.dim), kind))


def twirl_choi_projector_form(d):
    """The two-copy twirl's Choi operator as P+ (x) P+ / d+ + P- (x) P- / d-, from two tensor products."""
    p_plus, p_minus = projector(d, 1), projector(d, -1)
    return tensor(p_plus, p_plus) / (d * (d + 1) // 2) + tensor(p_minus, p_minus) / (d * (d - 1) // 2)
