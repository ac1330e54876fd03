"""Descriptive token statistics: response rates, entropy reduction, overlap."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .survey import SurveyDataset


@dataclass(frozen=True)
class TokenFrequency:
    token: str
    count_all: int
    count_poor: int
    rate_all_rated: float
    rate_poor: float | None  # None when the dataset has no poor calls


@dataclass(frozen=True)
class FrequencyReport:
    """Per-token selection rates for all rated calls and for poor calls."""

    n_all: int
    n_poor: int
    frequencies: tuple[TokenFrequency, ...]

    def sorted_by(self, population: str) -> tuple[TokenFrequency, ...]:
        """Descending rates; population is 'all_rated' or 'poor'."""
        if population == "all_rated":
            key = lambda f: -f.rate_all_rated
        elif population == "poor":
            key = lambda f: -(f.rate_poor if f.rate_poor is not None else -1.0)
        else:
            raise ValidationError(f"unknown population {population!r}")
        return tuple(sorted(self.frequencies, key=key))

    def to_dict(self) -> dict:
        return {
            "n_all": self.n_all,
            "n_poor": self.n_poor,
            "tokens": [
                {
                    "token": f.token,
                    "count_all": f.count_all,
                    "count_poor": f.count_poor,
                    "rate_all_rated": f.rate_all_rated,
                    "rate_poor": f.rate_poor,
                }
                for f in self.frequencies
            ],
        }


def token_frequencies(ds: SurveyDataset) -> FrequencyReport:
    """Selection rate of every token over all rated calls and over poor calls.

    With no poor calls the poor rate is undefined (None), not zero.
    """
    if ds.n_records == 0:
        raise ValidationError("empty dataset")
    tokens = ds.token_matrix
    poor = ds.poor_mask
    n = ds.n_records
    n_poor = int(poor.sum())
    count_all = tokens.sum(axis=0)
    count_poor = tokens[poor].sum(axis=0) if n_poor else np.zeros(tokens.shape[1], int)
    freqs = tuple(
        TokenFrequency(
            token=name,
            count_all=int(count_all[j]),
            count_poor=int(count_poor[j]),
            rate_all_rated=float(count_all[j] / n),
            rate_poor=float(count_poor[j] / n_poor) if n_poor else None,
        )
        for j, name in enumerate(ds.vocabulary.names)
    )
    return FrequencyReport(n_all=n, n_poor=n_poor, frequencies=freqs)


def _check_series(x) -> np.ndarray:
    arr = np.asarray(x, dtype=bool)
    if arr.ndim != 1:
        raise ValidationError("series must be one-dimensional")
    if arr.size == 0:
        raise ValidationError("series must be non-empty")
    return arr


def entropy_bits(x) -> float:
    """Shannon entropy of a boolean series in bits (0*log0 taken as 0)."""
    arr = _check_series(x)
    p = float(arr.mean())
    h = 0.0
    for q in (p, 1.0 - p):
        if q > 0.0:
            h -= q * np.log2(q)
    return float(h)


def information_gain(x, y) -> float:
    """Reduction in entropy of y when x is known: H(y) - H(y|x), in bits.

    Tiny negative rounding noise is clamped to zero so the result is
    always non-negative.
    """
    xa = _check_series(x)
    ya = _check_series(y)
    if xa.shape != ya.shape:
        raise ValidationError("series length mismatch")
    h_y = entropy_bits(ya)
    h_cond = 0.0
    for value in (False, True):
        mask = xa == value
        weight = float(mask.mean())
        if weight > 0.0:
            h_cond += weight * entropy_bits(ya[mask])
    return max(h_y - h_cond, 0.0)


@dataclass(frozen=True, eq=False)
class JaccardMatrix:
    """Pairwise token overlap |i and j| / |i or j|, diagonal forced to zero.

    Pairs with an empty union are reported as zero and flagged in
    ``undefined_pairs`` so the matrix stays total and plottable.
    """

    tokens: tuple[str, ...]
    values: np.ndarray
    undefined_pairs: tuple[tuple[str, str], ...]

    def to_dict(self) -> dict:
        return {
            "tokens": list(self.tokens),
            "values": [[float(v) for v in row] for row in self.values],
            "undefined_pairs": [list(p) for p in self.undefined_pairs],
        }


def jaccard_matrix(ds: SurveyDataset) -> JaccardMatrix:
    if len(ds.vocabulary) < 2:
        raise ValidationError("at least two tokens required")
    # float64 counts exactly below 2**53 and, unlike int64, goes to BLAS
    x = ds.token_matrix.astype(np.float64)
    inter = x.T @ x
    counts = x.sum(axis=0)
    union = counts[:, None] + counts[None, :] - inter
    with np.errstate(invalid="ignore", divide="ignore"):
        values = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
    np.fill_diagonal(values, 0.0)
    undefined = tuple(
        (ds.vocabulary.names[i], ds.vocabulary.names[j])
        for i in range(len(counts))
        for j in range(i + 1, len(counts))
        if union[i, j] == 0
    )
    values.setflags(write=False)
    return JaccardMatrix(
        tokens=ds.vocabulary.names, values=values, undefined_pairs=undefined
    )
