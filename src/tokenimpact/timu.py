"""Univariate counterfactual impact of problem selections on a quality metric.

The impact of a problem set is the improvement of the metric mean when the
metric is overwritten with a "fix value" on exactly those records, as if the
problem had not occurred. It is signed: for the poor-call indicator it is
``mean(original) - mean(fixed)`` (fewer poor calls is better), for durations
``mean(fixed) - mean(original)`` (longer calls are better), so a fix that
worsens the metric reads negative. The uncertainty combines the variances of
the original and fixed series with their covariance (propagation of errors).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError
from .survey import SurveyDataset

Z_95 = 1.96


class Metric(Enum):
    POOR_INDICATOR = "poor_indicator"
    DURATION_S = "duration_s"


@dataclass(frozen=True)
class MetricSpec:
    """Metric to analyze plus the counterfactual value assigned on the problem set.

    fix_value None selects the metric default: 0 for the poor indicator, the
    mean duration of calls with no reported problem for durations.
    """

    kind: Metric
    fix_value: float | None = None


def metric_series(ds: SurveyDataset, spec: MetricSpec) -> np.ndarray:
    if spec.kind is Metric.POOR_INDICATOR:
        return ds.poor_mask.astype(np.float64)
    return ds.durations.astype(np.float64)


def resolve_fix_value(ds: SurveyDataset, spec: MetricSpec) -> float:
    if spec.fix_value is not None:
        return float(spec.fix_value)
    if spec.kind is Metric.POOR_INDICATOR:
        return 0.0
    clean = ~ds.any_token_mask
    if not clean.any():
        raise ValidationError(
            "no problem-free calls to derive the duration fix value; "
            "pass fix_value explicitly"
        )
    return float(ds.durations[clean].mean())


Selector = str | Sequence[str] | np.ndarray


def selector_mask(ds: SurveyDataset, selector: Selector) -> np.ndarray:
    """Record mask for a token name, a token set (ANY semantics), or an
    explicit boolean mask such as ``ds.durations < 60``."""
    if isinstance(selector, str):
        return ds.token_matrix[:, ds.vocabulary.index(selector)].copy()
    if isinstance(selector, np.ndarray):
        mask = np.asarray(selector, dtype=bool)
        if mask.shape != (ds.n_records,):
            raise ValidationError("selector mask length must match record count")
        return mask
    cols = [ds.vocabulary.index(name) for name in selector]
    if not cols:
        return np.zeros(ds.n_records, dtype=bool)
    return ds.token_matrix[:, cols].any(axis=1)


def selector_label(selector: Selector) -> str:
    if isinstance(selector, str):
        return selector
    if isinstance(selector, np.ndarray):
        return f"<mask:{int(np.asarray(selector, bool).sum())} records>"
    return "|".join(selector)


@dataclass(frozen=True)
class TimuResult:
    token_or_set: str
    mean_impact: float
    ci95_halfwidth: float
    n: int

    def to_dict(self) -> dict:
        return {
            "token_or_set": self.token_or_set,
            "mean_impact": self.mean_impact,
            "ci95_halfwidth": self.ci95_halfwidth,
            "n": self.n,
        }


def timu(
    ds: SurveyDataset,
    problem_set: Selector,
    metric: MetricSpec,
    strict_delta: bool = False,
) -> TimuResult:
    """Signed counterfactual improvement of a metric from fixing a problem set.

    The combined standard deviation is sqrt(var_orig + var_fix - cov) by
    default; strict_delta uses the textbook variance of a difference of
    dependent means, sqrt(var_orig + var_fix - 2*cov).
    """
    n = ds.n_records
    if n == 0:
        raise ValidationError("empty dataset")
    series = metric_series(ds, metric)
    fix = resolve_fix_value(ds, metric)
    mask = selector_mask(ds, problem_set)
    fixed = series.copy()
    fixed[mask] = fix
    if metric.kind is Metric.POOR_INDICATOR:
        mean_impact = float(series.mean() - fixed.mean())
    else:
        mean_impact = float(fixed.mean() - series.mean())
    var_orig = float(series.var())
    var_fix = float(fixed.var())
    cov = float(((series - series.mean()) * (fixed - fixed.mean())).mean())
    combined_var = var_orig + var_fix - (2.0 * cov if strict_delta else cov)
    combined_std = np.sqrt(max(combined_var, 0.0))
    se = combined_std / np.sqrt(n)
    return TimuResult(
        token_or_set=selector_label(problem_set),
        mean_impact=mean_impact,
        ci95_halfwidth=float(Z_95 * se),
        n=n,
    )


def rank_tokens(
    ds: SurveyDataset, metric: MetricSpec, strict_delta: bool = False
) -> tuple[TimuResult, ...]:
    """Per-token impacts, sorted by impact descending (ties keep vocabulary order)."""
    if len(ds.vocabulary) < 1:
        raise ValidationError("at least one token required")
    results = [
        timu(ds, name, metric, strict_delta=strict_delta)
        for name in ds.vocabulary.names
    ]
    return tuple(sorted(results, key=lambda r: -r.mean_impact))
