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


def _impacts(
    ds: SurveyDataset,
    cells: tuple[np.ndarray, np.ndarray, np.ndarray],
    masks: np.ndarray,
    metric: MetricSpec,
    strict_delta: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Signed mean impact and CI half-width of each column of the
    (cells x sets) boolean ``masks``.

    ``cells`` holds each cell's record count, metric mean and centred sum
    of squares; a lone record is a cell of one with a sum of squares of 0.
    With m the metric's mean, ``delta`` a cell's mean less m and
    ``e = fix - m``, a cell's records sum to ``count * delta`` about m and
    their squares to ``m2 + count * delta**2``, the pairwise update of
    Chan, Golub & LeVeque (1983). The product of those sums with the masks
    gives each set's count c, sum s1 and centred sum of squares s2 about m.
    The moments follow in closed form from sums about m, never from
    E[x**2] - m**2; the fixed series' variance joins the untouched rest to
    the c records at e by the same update, so a fix far from m costs no
    precision.
    """
    n = ds.n_records
    if n == 0:
        raise ValidationError("empty dataset")
    counts, means, m2 = cells
    m = (counts * means).sum() / n
    e = resolve_fix_value(ds, metric) - m
    delta = means - m
    sums = counts * delta
    squares = m2 + sums * delta
    d1, d2 = sums.sum(), squares.sum()
    c, s1, s2 = np.stack([counts, sums, squares]) @ masks
    rest, rest_sum = n - c, d1 - s1  # the records the fix leaves alone
    rest_mean = rest_sum / np.maximum(rest, 1)
    shift = (c * e - s1) / n  # mean(fixed) - mean(series)
    var_orig = (d2 - d1 * d1 / n) / n
    var_fix = (d2 - s2 - rest_mean * rest_sum + (e - rest_mean) ** 2 * (c * rest / n)) / n
    cov = (d2 - s2 + e * s1 - d1 * (rest_sum + c * e) / n) / n
    combined_var = var_orig + var_fix - (2.0 * cov if strict_delta else cov)
    halfwidth = Z_95 * (np.sqrt(np.maximum(combined_var, 0.0)) / np.sqrt(n))
    impact = -shift if metric.kind is Metric.POOR_INDICATOR else shift
    return impact, halfwidth


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
    records = (np.ones(n), metric_series(ds, metric), np.zeros(n))
    mask = selector_mask(ds, problem_set)[:, None]
    (impact,), (halfwidth,) = _impacts(ds, records, mask, metric, strict_delta)
    return TimuResult(selector_label(problem_set), float(impact), float(halfwidth), ds.n_records)


def rank_tokens(
    ds: SurveyDataset, metric: MetricSpec, strict_delta: bool = False
) -> tuple[TimuResult, ...]:
    """Per-token impacts, sorted by impact descending (ties keep vocabulary
    order). A token's records are the union of the cells with its bit, so
    every token is scored from the cells at once; for the poor indicator a
    cell's mean is its poor label and its sum of squares is 0."""
    cells = ds.cells
    if metric.kind is Metric.POOR_INDICATOR:
        moments = (cells.counts, cells.poor.astype(np.float64), np.zeros(len(cells.counts)))
    else:
        moments = (cells.counts, cells.duration_mean, cells.duration_m2)
    impacts, halfwidths = _impacts(ds, moments, cells.patterns, metric, strict_delta)
    results = [
        TimuResult(name, impact, halfwidth, ds.n_records)
        for name, impact, halfwidth in zip(ds.vocabulary.names, impacts.tolist(),
                                           halfwidths.tolist())
    ]
    return tuple(sorted(results, key=lambda r: -r.mean_impact))
