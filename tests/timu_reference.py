"""Record-level reference for the one-pass estimator in tokenimpact.timu.

``timu`` overwrites the metric with the fix value on the selected records and
takes the means, variances and covariance of the two series row by row;
``rank_tokens`` calls it once per token. test_timu.py compares the library,
which works from each set's count, sum and centred sum of squares, with it.
"""

import numpy as np

from tokenimpact.timu import (
    Metric,
    TimuResult,
    Z_95,
    metric_series,
    resolve_fix_value,
    selector_label,
    selector_mask,
)


def timu(ds, problem_set, metric, strict_delta=False):
    n = ds.n_records
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
    se = np.sqrt(max(combined_var, 0.0)) / np.sqrt(n)
    return TimuResult(
        token_or_set=selector_label(problem_set),
        mean_impact=mean_impact,
        ci95_halfwidth=float(Z_95 * se),
        n=n,
    )


def rank_tokens(ds, metric, strict_delta=False):
    results = [timu(ds, name, metric, strict_delta) for name in ds.vocabulary.names]
    return tuple(sorted(results, key=lambda r: -r.mean_impact))
