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


def token_frequencies(ds: SurveyDataset) -> FrequencyReport:
    """Selection rate of every token over all rated calls and over poor calls.

    With no poor calls the poor rate is undefined (None), not zero.
    """
    if ds.n_records == 0:
        raise ValidationError("empty dataset")
    cells = ds.cells
    n = ds.n_records
    poor_counts = cells.counts * cells.poor
    n_poor = int(poor_counts.sum())
    count_all = np.diagonal(ds.cooccurrence)
    count_poor = poor_counts @ cells.patterns
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


def _entropy(p) -> float:
    """Shannon entropy in bits of a Bernoulli(p) (0*log0 taken as 0)."""
    h = 0.0
    for q in (p, 1.0 - p):
        if q > 0.0:
            h -= q * np.log2(q)
    return float(h)


def entropy_bits(x) -> float:
    """Shannon entropy of a boolean series in bits (0*log0 taken as 0)."""
    return _entropy(float(_check_series(x).mean()))


@dataclass(frozen=True)
class InformationGain:
    """``bits = H(y) - H(y|x)``, its ``fraction`` of H(y) (None when y is
    constant), and whether x or y is constant (``degenerate``)."""

    bits: float
    fraction: float | None
    degenerate: bool


def table_information_gain(table) -> InformationGain:
    """Information gain of x about y under the joint distribution in
    proportion to a 2x2 table ``table[x, y]`` of non-negative weights, such
    as counts. Tiny negative rounding noise is clamped to zero."""
    t = np.asarray(table, dtype=np.float64)
    if t.shape != (2, 2) or not np.all(np.isfinite(t) & (t >= 0)) or not t.sum() > 0:
        raise ValidationError("table must be 2x2 of finite non-negative weights, not all 0")
    n, by_x = t.sum(), t.sum(axis=1)
    h_y = _entropy(t[:, 1].sum() / n)
    h_cond = 0.0
    for x in (0, 1):
        if by_x[x] > 0.0:
            h_cond += by_x[x] / n * _entropy(t[x, 1] / by_x[x])
    bits = float(max(h_y - h_cond, 0.0))
    return InformationGain(
        bits=bits,
        fraction=bits / h_y if h_y > 0 else None,
        degenerate=h_y == 0.0 or _entropy(by_x[1] / n) == 0.0,
    )


def information_gain(x, y) -> float:
    """Reduction in entropy of y when x is known: H(y) - H(y|x), in bits,
    from the 2x2 table of the two series' counts."""
    xa = _check_series(x)
    ya = _check_series(y)
    if xa.shape != ya.shape:
        raise ValidationError("series length mismatch")
    table = np.bincount(2 * xa + ya, minlength=4).reshape(2, 2)
    return table_information_gain(table).bits


@dataclass(frozen=True, eq=False)
class JaccardMatrix:
    """Pairwise token overlap |i and j| / |i or j|, diagonal forced to zero.

    Pairs with an empty union are reported as zero and flagged in
    ``undefined_pairs`` so the matrix stays total and plottable.
    """

    tokens: tuple[str, ...]
    values: np.ndarray
    undefined_pairs: tuple[tuple[str, str], ...]


def jaccard_matrix(ds: SurveyDataset) -> JaccardMatrix:
    if len(ds.vocabulary) < 2:
        raise ValidationError("at least two tokens required")
    inter = ds.cooccurrence
    counts = np.diagonal(inter)
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
