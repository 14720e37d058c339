"""The dense oracle of a comparison strategy, built from the test state xi it was made from.

A strategy keeps only xi's factor; tests that check it against the dense
d^2 x d^2 effects or the d^4 x d^4 process POVM build them here.  The
twirl's Choi operator, which the library fills from the swap's index map,
is built here in its projector form, and each operator's two-copy twirl
is estimated here draw by draw.  The isometry onto the cross subspace,
which the library never forms, is built here too.
"""

import numpy as np

from chancomp.haar import _haar_chunks, _mc_mean, _square
from chancomp.linalg import _conjugate_stack, kron_stack, tensor
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


def twirl_mc(y, n, rng):
    """Monte Carlo estimate of the two-copy twirl of Y, conjugated by U (x) U draw by draw.

    The per-draw oracle for the twirl that twirl-verify reads off one Choi estimate.
    """
    m = _square(y)
    d = qudit_dim(m.shape[0])
    return _mc_mean(_conjugate_stack(kron_stack(u, u), m) for (u,) in _haar_chunks(d, n, rng))


def cross_isometry(bp, bm):
    """The (d^4, m) isometry [B+ (x) B-, B- (x) B+] onto the cross subspace P+ (x) P- + P- (x) P+."""
    return np.hstack([np.kron(bp, bm), np.kron(bm, bp)])
