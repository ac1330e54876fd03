"""Logistic model on problem-group indicators and counterfactual reductions.

A group indicator is the OR of its member tokens. The model predicts the
poor-call label from the indicators plus selected pairwise interactions;
"fixing" a group zeroes its indicator everywhere (recomputing interactions)
and the relative drop in the mean predicted poor probability is the group's
impact. A record enters only through its indicators, so every estimator
works on the distinct indicator patterns and their record and poor counts:
a grouped-binomial fit (McCullagh & Nelder), bootstrap resamples as pattern
counts, and a tie-merged ROC.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from itertools import combinations

import numpy as np

from .errors import GlmError
from .factors import ProblemGrouping
from .special import expit, quantile
from .survey import MAX_GROUPS, SurveyDataset, group_patterns


@dataclass(frozen=True)
class DesignSpec:
    """Model terms: one main effect per group plus optional interactions."""

    grouping: ProblemGrouping
    interactions: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        pairs = []
        seen = set()
        n = len(self.grouping.groups)
        for a, b in self.interactions:
            a, b = int(a), int(b)
            if a == b or not (0 <= a < n and 0 <= b < n):
                raise GlmError(f"bad interaction pair ({a}, {b})")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise GlmError(f"duplicate interaction pair {key}")
            seen.add(key)
            pairs.append(key)
        object.__setattr__(self, "interactions", tuple(pairs))


@dataclass(frozen=True, eq=False)
class Design:
    """One ``matrix`` row (intercept first) per distinct indicator pattern,
    with its record count (``trials``) and poor count (``successes``), plus
    the any-token baseline's counts: ``baseline[a, p]`` counts the records
    with any token (``a = 1``) or none (``a = 0``) and poor label ``p``. A
    token outside every group counts as a token."""

    columns: tuple[str, ...]
    matrix: np.ndarray
    trials: np.ndarray
    successes: np.ndarray
    baseline: np.ndarray
    group_names: tuple[str, ...]
    interactions: tuple[tuple[int, int], ...]

    @property
    def n_records(self) -> int:
        return int(self.trials.sum())

    @property
    def group_indicators(self) -> np.ndarray:
        """Group indicators of each pattern (the main-effect columns)."""
        return self.matrix[:, 1 : 1 + len(self.group_names)]

    def fixed_matrix(self, fixed) -> np.ndarray:
        """Pattern rows with the given group indicators forced to zero."""
        indicators = self.group_indicators.copy()
        indicators[:, list(fixed)] = 0.0
        return _assemble(indicators, self.interactions)


def _assemble(indicators: np.ndarray, pairs) -> np.ndarray:
    cols = [np.ones(indicators.shape[0])]
    cols.extend(indicators.T)
    for a, b in pairs:
        cols.append(indicators[:, a] * indicators[:, b])
    return np.column_stack(cols)


def _with_interactions(design: Design, pairs) -> Design:
    names = design.group_names
    return replace(
        design,
        columns=("intercept",) + names + tuple(f"{names[a]}:{names[b]}" for a, b in pairs),
        matrix=_assemble(design.group_indicators, pairs),
        interactions=tuple(pairs),
    )


def build_design(ds: SurveyDataset, spec: DesignSpec) -> Design:
    """Group indicators (OR of member tokens) with interactions, collapsed to
    distinct patterns; the response is the poor-call label. The only pass
    over the records."""
    grouping = spec.grouping
    if not grouping.groups:
        raise GlmError("grouping has no groups")
    n_groups = len(grouping.groups)
    if n_groups > MAX_GROUPS:
        raise GlmError(f"{n_groups} groups; at most {MAX_GROUPS} are supported")
    for group in grouping.groups:
        if not group.members:
            raise GlmError(f"group {group.name} is empty")
    indicators, row_pattern = group_patterns(
        ds.token_matrix,
        [[ds.vocabulary.index(tok) for tok in g.members] for g in grouping.groups],
    )
    poor = ds.poor_mask
    base = Design(
        columns=(),
        matrix=_assemble(indicators, ()),
        trials=np.bincount(row_pattern).astype(np.float64),
        successes=np.bincount(row_pattern, weights=poor),
        baseline=np.bincount(2 * ds.any_token_mask + poor, minlength=4).reshape(2, 2),
        group_names=grouping.group_names,
        interactions=(),
    )
    return _with_interactions(base, spec.interactions)


@dataclass(frozen=True, eq=False)
class LogisticModel:
    terms: tuple[str, ...]
    coefficients: np.ndarray
    covariance: np.ndarray  # asymptotic, from the penalized information matrix
    ridge: float
    converged: bool
    iterations: int
    loglik: float

    def predict_proba(self, matrix: np.ndarray) -> np.ndarray:
        return expit(matrix @ self.coefficients)

    def to_dict(self) -> dict:
        return {
            "terms": list(self.terms),
            "coefficients": [float(c) for c in self.coefficients],
            "ridge": self.ridge,
            "converged": self.converged,
            "iterations": self.iterations,
            "loglik": self.loglik,
        }


def _unpack(design, response):
    """Matrix, poor counts and record counts; a raw matrix row is one record."""
    if isinstance(design, Design):
        if response is not None:
            raise GlmError("a Design carries its own response")
        return design.matrix, design.successes, design.trials, design.columns
    matrix = np.asarray(design, dtype=np.float64)
    if response is None:
        raise GlmError("response required with a raw design matrix")
    y = np.asarray(response, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != y.shape[0]:
        raise GlmError("design matrix and response shapes do not match")
    return matrix, y, np.ones(y.shape), tuple(f"x{j}" for j in range(matrix.shape[1]))


# Newton convergence: largest coefficient step, and the iteration cap
_TOL = 1e-8
_MAX_ITER = 100


def _irls(
    matrices: np.ndarray,
    successes: np.ndarray,
    trials: np.ndarray,
    ridge: float,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Penalized IRLS of a ``(k, patterns, terms)`` stack of designs that
    share their poor and record counts, in one Newton loop.

    Each member keeps its own step halving and stops on its own: converged
    once its step is below ``tol``, stalled once no halved step ascends.
    Returns each member's coefficients, ``converged``, ``iterations``,
    log-likelihood and covariance; a singular system in any member raises.
    """
    n_poor, n = successes.sum(), trials.sum()
    if not 0 < n_poor < n:
        raise GlmError("response must contain both classes")
    k, _, p = matrices.shape
    penalized = np.ones(p)
    penalized[0] = 0.0
    prevalence = n_poor / n
    beta = np.zeros((k, p))
    beta[:, 0] = np.log(prevalence / (1.0 - prevalence))

    def linear(x: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (x @ b[:, :, None])[:, :, 0]

    def loglik(eta: np.ndarray) -> np.ndarray:
        return eta @ successes - np.logaddexp(0.0, eta) @ trials

    def objective(x: np.ndarray, b: np.ndarray) -> np.ndarray:
        return loglik(linear(x, b)) - 0.5 * ridge * (penalized * b * b).sum(axis=1)

    def information(x: np.ndarray, mu: np.ndarray) -> np.ndarray:
        weights = trials * np.clip(mu * (1.0 - mu), 1e-10, None)
        return (x * weights[:, :, None]).transpose(0, 2, 1) @ x + ridge * np.diag(penalized)

    current = objective(matrices, beta)
    converged = np.zeros(k, dtype=bool)
    iterations = np.zeros(k, dtype=np.int64)
    active = np.arange(k)
    for iteration in range(1, max_iter + 1):
        if active.size == 0:
            break
        iterations[active] = iteration
        x, b = matrices[active], beta[active]
        mu = expit(linear(x, b))
        residual = successes - trials * mu
        gradient = (residual[:, None, :] @ x)[:, 0] - ridge * penalized * b
        try:
            delta = np.linalg.solve(information(x, mu), gradient[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            raise GlmError("singular weighted system") from None
        floor = current[active] - 1e-12
        step = np.ones(active.size)
        candidate = b + delta
        value = objective(x, candidate)
        halve = np.flatnonzero(value < floor)
        while halve.size:
            step[halve] *= 0.5
            candidate[halve] = b[halve] + step[halve, None] * delta[halve]
            value[halve] = objective(x[halve], candidate[halve])
            halve = halve[(value[halve] < floor[halve]) & (step[halve] > 1e-10)]
        # a member with no ascent direction left keeps its best iterate
        ascended = value >= floor
        done = ascended & (np.max(np.abs(candidate - b), axis=1) < tol)
        beta[active[ascended]] = candidate[ascended]
        current[active[ascended]] = value[ascended]
        converged[active[done]] = True
        active = active[ascended & ~done]
    eta = linear(matrices, beta)
    try:
        covariance = np.linalg.inv(information(matrices, expit(eta)))
    except np.linalg.LinAlgError:
        raise GlmError("singular information matrix") from None
    return beta, converged, iterations, loglik(eta), covariance


def fit_logistic(
    design,
    response=None,
    ridge: float = 1e-6,
    tol: float = _TOL,
    max_iter: int = _MAX_ITER,
) -> LogisticModel:
    """Penalized maximum likelihood by iteratively reweighted least squares.

    Each design row is a binomial count (one trial per row of a raw matrix).
    The ridge penalty excludes the intercept (the first column). Newton
    steps are halved whenever they would decrease the penalized likelihood,
    so accepted iterates are monotone. Non-convergence is flagged, not
    fatal; a singular weighted system raises.
    """
    matrix, successes, trials, terms = _unpack(design, response)
    beta, converged, iterations, loglik, covariance = _irls(
        matrix[None], successes, trials, ridge, tol, max_iter
    )
    return LogisticModel(
        terms=terms,
        coefficients=beta[0],
        covariance=covariance[0],
        ridge=ridge,
        converged=bool(converged[0]),
        iterations=int(iterations[0]),
        loglik=float(loglik[0]),
    )


@dataclass(frozen=True, eq=False)
class RocCurve:
    """Tie-merged ROC; ``auc`` is its trapezoid area, which is the
    Mann-Whitney AUC with average ranks for ties."""

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray
    auc: float

    def tpr_at_fpr(self, fpr: float) -> float:
        return float(np.interp(fpr, self.fpr, self.tpr))


def _roc(scores, positives, negatives) -> RocCurve:
    """ROC of scores weighted by positive and negative counts; integer
    counts keep the area exact up to one rounding."""
    distinct, inverse = np.unique(scores, return_inverse=True)
    tp = np.r_[0.0, np.cumsum(np.bincount(inverse, weights=positives)[::-1])]
    fp = np.r_[0.0, np.cumsum(np.bincount(inverse, weights=negatives)[::-1])]
    n_pos, n_neg = tp[-1], fp[-1]
    if n_pos == 0 or n_neg == 0:
        raise GlmError("ROC and AUC require both classes")
    return RocCurve(
        fpr=fp / n_neg,
        tpr=tp / n_pos,
        thresholds=np.r_[np.inf, distinct[::-1]],
        auc=float(np.diff(fp) @ (tp[1:] + tp[:-1])) / (2.0 * n_pos * n_neg),
    )


def roc_curve(scores, labels) -> RocCurve:
    y = np.asarray(labels, dtype=bool)
    return _roc(np.asarray(scores, dtype=np.float64), y * 1.0, ~y * 1.0)


def auc_score(scores, labels) -> float:
    """Mann-Whitney AUC with average ranks for ties."""
    return roc_curve(scores, labels).auc


def evaluate(model: LogisticModel, design, response=None) -> RocCurve:
    """ROC and AUC of a fitted model's scores."""
    matrix, successes, trials, _ = _unpack(design, response)
    return _roc(model.predict_proba(matrix), successes, trials - successes)


@dataclass(frozen=True)
class GroupImpact:
    group: str
    reduction: float
    ci_lo: float
    ci_hi: float

    def to_dict(self) -> dict:
        return asdict(self)


def _relative_reduction(counts, beta, matrix, fixed_matrix) -> float:
    """Relative drop in the count-weighted mean poor probability."""
    return float(1.0 - (counts @ expit(fixed_matrix @ beta)) / (counts @ expit(matrix @ beta)))


def _descending(reductions) -> list[int]:
    """Group indices by descending reduction, ties by index."""
    return sorted(range(len(reductions)), key=lambda g: (-reductions[g], g))


def _coefficient_factor(covariance: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(covariance)
    except np.linalg.LinAlgError:
        eigvals, eigvecs = np.linalg.eigh(0.5 * (covariance + covariance.T))
        return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def group_fix_impact(
    model: LogisticModel,
    design: Design,
    group_index: int,
    n_boot: int = 200,
    *,
    seed: int,
) -> GroupImpact:
    """Relative reduction in mean predicted poor probability when one group
    is fixed, with a percentile bootstrap CI.

    Each replicate resamples records with replacement and draws coefficients
    from the fit's asymptotic normal, so the interval carries both sampling
    and estimation noise without refitting the model. A resample enters only
    through its record count per pattern, and binning n records drawn with
    replacement gives Multinomial(n, trials / n) counts (Efron & Tibshirani
    1993), so those counts are drawn directly. All replicates come from one
    stream ``[seed, group_index, 2]``, counts first and coefficients second,
    and are scored together. The tag 2 keeps group 0's stream apart from the
    bare seed's, which the restriction and ``balance_resample`` draw from:
    ``SeedSequence`` drops trailing zero words, so ``[seed, 0]`` would be it.
    """
    if not 0 <= group_index < len(design.group_names):
        raise GlmError(f"group index {group_index} out of range")
    fixed_matrix = design.fixed_matrix([group_index])
    n = design.n_records
    rng = np.random.default_rng([seed, group_index, 2])
    counts = rng.multinomial(n, design.trials / n, size=n_boot)
    noise = rng.standard_normal((n_boot, model.coefficients.size))
    betas = model.coefficients + noise @ _coefficient_factor(model.covariance).T
    fixed = (counts * expit(betas @ fixed_matrix.T)).sum(axis=1)
    original = (counts * expit(betas @ design.matrix.T)).sum(axis=1)
    lo, hi = quantile(1.0 - fixed / original, (0.025, 0.975))
    return GroupImpact(
        group=design.group_names[group_index],
        reduction=_relative_reduction(
            design.trials, model.coefficients, design.matrix, fixed_matrix
        ),
        ci_lo=float(lo),
        ci_hi=float(hi),
    )


def _separated_groups(design: Design) -> tuple[str, ...]:
    """Groups whose records with the indicator on are all poor or all good:
    quasi-complete separation (Albert & Anderson 1984), which leaves the
    group's coefficient held only by the ridge."""
    on = design.group_indicators
    trials, poor = design.trials @ on, design.successes @ on
    separated = (trials > 0) & ((poor == 0) | (poor == trials))
    return tuple(name for name, hit in zip(design.group_names, separated) if hit)


def cumulative_impact(
    model: LogisticModel, design: Design, order=None
) -> tuple[tuple[int, float], ...]:
    """Running relative reduction as groups are fixed one at a time.

    Default order is descending individual reduction (ties by group index).
    """
    n_groups = len(design.group_names)

    def reduction(fixed) -> float:
        return _relative_reduction(
            design.trials, model.coefficients, design.matrix, design.fixed_matrix(fixed)
        )

    if order is None:
        order = _descending([reduction([g]) for g in range(n_groups)])
    else:
        order = [int(g) for g in order]
        if sorted(order) != list(range(n_groups)):
            raise GlmError("order must be a permutation of all group indices")
    return tuple((g, reduction(order[: i + 1])) for i, g in enumerate(order))


@dataclass(frozen=True, eq=False)
class ImpactReport:
    """Per-group and cumulative counterfactual reductions plus model quality.

    ``separated_groups`` names the groups whose indicator separates the poor
    label (see ``_separated_groups``); their reductions rest on a
    ridge-limited coefficient.
    """

    groups: tuple[str, ...]
    individual: tuple[GroupImpact, ...]
    order: tuple[int, ...]
    cumulative: tuple[float, ...]
    auc: float
    baseline_auc: float
    tpr_at_fpr: tuple[float, float]
    baseline_pcr: float
    separated_groups: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "groups": list(self.groups),
            "individual": [g.to_dict() for g in self.individual],
            "order": list(self.order),
            "cumulative": list(self.cumulative),
            "auc": self.auc,
            "baseline_auc": self.baseline_auc,
            "tpr_at_fpr": list(self.tpr_at_fpr),
            "baseline_pcr": self.baseline_pcr,
            "separated_groups": list(self.separated_groups),
        }


def impact_report(
    model: LogisticModel,
    design: Design,
    n_boot: int = 200,
    *,
    seed: int,
    order=None,
) -> ImpactReport:
    """Assemble the full counterfactual report.

    The cumulative order defaults to descending individual reduction. The
    baseline classifier flags a record with any token; its AUC and false
    positive rate come from ``design.baseline``, and that rate anchors the
    reported model TPR so the comparison is at matched operating points.
    """
    individual = tuple(
        group_fix_impact(model, design, g, n_boot=n_boot, seed=seed)
        for g in range(len(design.group_names))
    )
    if order is None:
        order = _descending([g.reduction for g in individual])
    cumulative = cumulative_impact(model, design, order=order)
    evaluation = evaluate(model, design)
    good, poor = design.baseline.T
    baseline = _roc(np.array([0.0, 1.0]), poor, good)
    baseline_fpr = float(good[1] / good.sum())
    return ImpactReport(
        groups=design.group_names,
        individual=individual,
        order=tuple(g for g, _ in cumulative),
        cumulative=tuple(r for _, r in cumulative),
        auc=evaluation.auc,
        baseline_auc=baseline.auc,
        tpr_at_fpr=(baseline_fpr, evaluation.tpr_at_fpr(baseline_fpr)),
        baseline_pcr=float(design.successes.sum() / design.n_records),
        separated_groups=_separated_groups(design),
    )


def select_interactions_aic(
    ds: SurveyDataset,
    grouping: ProblemGrouping,
    ridge: float = 1e-6,
) -> tuple[tuple[int, int], ...]:
    """Greedy forward selection of interaction pairs by AIC; every candidate
    of a round is fitted in one stacked IRLS."""
    base = build_design(ds, DesignSpec(grouping=grouping))
    indicators = base.group_indicators
    candidates = list(combinations(range(len(grouping.groups)), 2))
    chosen: list[tuple[int, int]] = []

    def aic(stack) -> np.ndarray:
        matrices = np.stack([_assemble(indicators, pairs) for pairs in stack])
        loglik = _irls(matrices, base.successes, base.trials, ridge, _TOL, _MAX_ITER)[3]
        return 2.0 * matrices.shape[2] - 2.0 * loglik

    best = aic([chosen])[0]
    while candidates:
        scores = aic([chosen + [c] for c in candidates])
        pick = int(np.argmin(scores))
        if scores[pick] >= best:
            break
        best = scores[pick]
        chosen.append(candidates.pop(pick))
    return tuple(chosen)
