"""Row-level reference for the Monte-Carlo truth in tokenimpact.synthetic.

Each function keeps one group-indicator row and one poor probability per
draw. The property test in test_synthetic.py compares them with the
library's truth, which works on the draw's group-pattern counts.
"""

import numpy as np
from scipy.special import expit

from tokenimpact.synthetic import MonteCarloImpact, _draw_tokens


def group_matrix(tokens, partition):
    """One indicator column per group: any member token fired."""
    out = np.zeros((tokens.shape[0], max(partition) + 1), dtype=bool)
    for j, g in enumerate(partition):
        out[:, g] |= tokens[:, j]
    return out


def linear_predictor(spec, indicators):
    eta = spec.glm_intercept + indicators @ np.asarray(spec.glm_group_effects)
    for (a, b), coef in zip(spec.glm_interactions, spec.glm_interaction_effects):
        eta = eta + coef * (indicators[:, a] * indicators[:, b])
    return eta


def truth_draw(spec, n_mc, seed):
    """Group indicators of the truth's draws and their poor probability."""
    tokens = _draw_tokens(spec, np.random.default_rng([seed, 1]), n_mc)
    indicators = group_matrix(tokens, spec.group_partition).astype(np.float64)
    return indicators, expit(linear_predictor(spec, indicators))


def fix_impact(spec, indicators, p_orig, group_index):
    """Relative reduction and its delta-method SE, row by row."""
    n_mc = len(p_orig)
    fixed = indicators.copy()
    fixed[:, group_index] = 0.0
    p_fix = expit(linear_predictor(spec, fixed))
    m0 = float(p_orig.mean())
    m1 = float(p_fix.mean())
    # the ratio's per-draw influence; its mean square over n_mc is the
    # delta-method variance, without the cancellation of the three-moment form
    influence = (m1 / m0 * (p_orig - m0) - (p_fix - m1)) / m0
    var = float(np.mean(influence * influence)) / n_mc
    return MonteCarloImpact(
        reduction=1.0 - m1 / m0, mc_se=float(np.sqrt(var)), n_mc=n_mc
    )
