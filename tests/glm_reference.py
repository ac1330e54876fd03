"""Record-level reference for the pattern-level estimators in tokenimpact.glm.

Each function works on one design row per record. The property test in
test_glm.py compares them with the library's estimators, which work on the
distinct group-indicator patterns, on random designs. ``fit`` also takes
binomial rows; fitted one design at a time, it is the per-candidate loop
that the library's stacked IRLS is checked against.
"""

from typing import NamedTuple

import numpy as np
from scipy.special import expit
from scipy.stats import rankdata


def assemble(indicators, pairs, fixed=()):
    """Record-level design (intercept first); ``fixed`` groups forced to zero."""
    indicators = np.array(indicators, dtype=np.float64)
    indicators[:, list(fixed)] = 0.0
    cols = [np.ones(indicators.shape[0]), *indicators.T]
    cols += [indicators[:, a] * indicators[:, b] for a, b in pairs]
    return np.column_stack(cols)


def scores(matrix, beta):
    # a row-wise reduction gives identical records identical scores
    return expit((matrix * beta).sum(axis=1))


class Fit(NamedTuple):
    beta: np.ndarray
    loglik: float
    converged: bool
    iterations: int
    halvings: int  # step halvings over the whole fit


def fit(matrix, successes, trials=None, ridge=1e-6, tol=1e-8, max_iter=100):
    """Penalized IRLS with step halving on one design: each row a binomial
    count with ``trials`` records (one Bernoulli trial per row by default)."""
    y = np.asarray(successes, dtype=np.float64)
    trials = np.ones(y.shape) if trials is None else np.asarray(trials, dtype=np.float64)
    p = matrix.shape[1]
    penalized = np.r_[0.0, np.ones(p - 1)]
    beta = np.zeros(p)
    prevalence = y.sum() / trials.sum()
    beta[0] = np.log(prevalence / (1.0 - prevalence))

    def loglik(b):
        eta = matrix @ b
        return y @ eta - trials @ np.logaddexp(0.0, eta)

    def objective(b):
        return loglik(b) - 0.5 * ridge * (penalized * b * b).sum()

    current = objective(beta)
    converged, iterations, halvings = False, 0, 0
    for iterations in range(1, max_iter + 1):
        mu = expit(matrix @ beta)
        weights = trials * np.clip(mu * (1.0 - mu), 1e-10, None)
        gradient = matrix.T @ (y - trials * mu) - ridge * penalized * beta
        hessian = (matrix * weights[:, None]).T @ matrix + ridge * np.diag(penalized)
        delta = np.linalg.solve(hessian, gradient)
        step = 1.0
        candidate = beta + delta
        value = objective(candidate)
        while value < current - 1e-12 and step > 1e-10:
            step *= 0.5
            halvings += 1
            candidate = beta + step * delta
            value = objective(candidate)
        if value < current - 1e-12:
            break
        change = np.max(np.abs(candidate - beta))
        beta, current = candidate, value
        if change < tol:
            converged = True
            break
    return Fit(beta, float(loglik(beta)), converged, iterations, halvings)


def reduction(beta, matrix, fixed_matrix):
    """Relative drop in the mean predicted poor probability over records."""
    return float(1.0 - scores(fixed_matrix, beta).mean() / scores(matrix, beta).mean())


def bootstrap_ci(beta, covariance, indicators, pairs, n_boot, seed):
    """Each group's percentile CI over one set of replicates that reweight
    record rows.

    Each replicate's per-pattern record counts are drawn as the library
    draws them (Multinomial(n, trials / n), patterns in the design's code
    order, from the stream ``[seed, 0, 2]``), then spread evenly over that
    pattern's rows as record weights. Every group's fix is scored on the
    same replicates, one record row and one replicate at a time.
    """
    indicators = np.asarray(indicators, dtype=np.int64)
    matrix = assemble(indicators, pairs)
    codes = (indicators << np.arange(indicators.shape[1])).sum(axis=1)
    _, pattern = np.unique(codes, return_inverse=True)
    trials = np.bincount(pattern).astype(np.float64)
    n = matrix.shape[0]
    factor = np.linalg.cholesky(covariance)
    rng = np.random.default_rng([seed, 0, 2])
    counts = rng.multinomial(n, trials / n, size=n_boot)
    noise = rng.standard_normal((n_boot, len(beta)))
    cis = []
    for g in range(indicators.shape[1]):
        fixed_matrix = assemble(indicators, pairs, [g])
        replicates = []
        for pattern_counts, z in zip(counts, noise):
            weights = pattern_counts[pattern] / trials[pattern]
            draw = beta + factor @ z
            fixed_mean = weights @ scores(fixed_matrix, draw)
            replicates.append(1.0 - fixed_mean / (weights @ scores(matrix, draw)))
        cis.append(tuple(np.percentile(replicates, [2.5, 97.5])))
    return cis


def cumulative(beta, indicators, pairs):
    """Running reduction, groups fixed by descending single reduction."""
    matrix = assemble(indicators, pairs)
    n_groups = np.shape(indicators)[1]
    singles = [
        reduction(beta, matrix, assemble(indicators, pairs, [g])) for g in range(n_groups)
    ]
    order = sorted(range(n_groups), key=lambda g: (-singles[g], g))
    return [
        (g, reduction(beta, matrix, assemble(indicators, pairs, order[: i + 1])))
        for i, g in enumerate(order)
    ]


def auc(score, labels):
    """Mann-Whitney AUC with average ranks for ties."""
    y = np.asarray(labels, dtype=bool)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    return float((rankdata(score)[y].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def roc(score, labels):
    """(fpr, tpr, thresholds) with one point per distinct score, highest first."""
    y = np.asarray(labels, dtype=bool)
    order = np.argsort(-score, kind="stable")
    sorted_scores, sorted_labels = score[order], y[order]
    distinct = np.r_[np.flatnonzero(np.diff(sorted_scores)), y.size - 1]
    tp = np.cumsum(sorted_labels)[distinct]
    fp = np.cumsum(~sorted_labels)[distinct]
    return (
        np.r_[0.0, fp / fp[-1]],
        np.r_[0.0, tp / tp[-1]],
        np.r_[np.inf, sorted_scores[distinct]],
    )
