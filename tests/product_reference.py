"""The pre-expectation product as one ``np.bincount``, as a reference.

``qmu.core.pre_expectation_all`` gathers through a per-transition slot
table.  This module keeps the earlier kernel, which scatters every edge's
term to its source state with ``np.bincount``; both add each state's terms
in edge order from 0.0 and then its weight, so tests require the two to be
byte-identical.
"""

import numpy as np

from qmu.core import Transition


def bincount_product(t: Transition, post: np.ndarray) -> np.ndarray:
    """``t.s.$ + sum_s' t.s.s' * post[s']`` for every state ``s``."""
    sources = np.repeat(np.arange(t.n_states), np.diff(t.indptr))
    return np.bincount(sources, weights=t.probs * post[t.indices],
                       minlength=t.n_states) + t.weights
