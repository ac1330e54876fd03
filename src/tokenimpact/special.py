"""Logistic function, standard normal CDF and quantile, and sample quantiles,
on numpy alone.

``expit`` is the logistic ``1 / (1 + exp(-x))``. ``ndtr`` is the normal CDF
as ``erfc(-x / sqrt(2)) / 2`` with the C library's ``erfc``, which keeps
its relative accuracy deep into the lower tail. ``ndtri`` is its inverse,
Wichura's rational approximation AS241 (1988), accurate to about 1e-16
relative. ``quantile`` is numpy's default sample quantile without the
``numpy.ma`` import that ``np.quantile`` makes.
"""

from __future__ import annotations

import math

import numpy as np

_ERFC = np.frompyfunc(math.erfc, 1, 1)


def expit(x) -> np.ndarray:
    """Logistic function, elementwise; exactly 0 below about -709.8, where
    ``exp(-x)`` overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def ndtr(x) -> np.ndarray:
    """Standard normal CDF, elementwise."""
    z = np.asarray(x, dtype=np.float64) * -math.sqrt(0.5)
    return 0.5 * np.asarray(_ERFC(z), dtype=np.float64)


def _horner(coefficients: tuple[float, ...], r: np.ndarray) -> np.ndarray:
    """Polynomial with ``coefficients`` from the highest power down."""
    out = np.full_like(r, coefficients[0])
    for c in coefficients[1:]:
        out = out * r + c
    return out


# AS241 PPND16: numerator and denominator of each region, highest power first
_CENTRAL = (
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0),
)
_INTERMEDIATE = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e0, 3.6478483247632045605e0, 5.7694972214606914055e0,
     4.6303378461565452959e0, 1.4234371107496835773e0),
    (1.05075007164441684324e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e0,
     2.0531916266377588219e0, 1.0),
)
_TAIL = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.2426609473880784386e-3,
     2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e0,
     5.4637849111641143699e0, 6.6579046435011037772e0),
    (2.04426310338993978564e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.8686913114561329059e-4, 1.4875361290850615025e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0),
)


def ndtri(p) -> np.ndarray:
    """Standard normal quantile, elementwise: -inf at 0, inf at 1 and NaN
    outside [0, 1]."""
    p = np.asarray(p, dtype=np.float64)
    q = p - 0.5
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = 0.180625 - q * q
        central = q * _horner(_CENTRAL[0], r) / _horner(_CENTRAL[1], r)
        s = np.sqrt(-np.log(np.where(q < 0.0, p, 1.0 - p)))
        near = s <= 5.0
        t = np.where(near, s - 1.6, s - 5.0)
        num = np.where(near, _horner(_INTERMEDIATE[0], t), _horner(_TAIL[0], t))
        den = np.where(near, _horner(_INTERMEDIATE[1], t), _horner(_TAIL[1], t))
        tail = np.copysign(num / den, q)
    out = np.where(np.abs(q) <= 0.425, central, tail)
    return np.where(p == 0.0, -np.inf, np.where(p == 1.0, np.inf, out))


def quantile(a, q, axis: int | None = None) -> np.ndarray:
    """Sample quantiles of ``a`` along ``axis`` (flattened when None), equal
    bit for bit to ``np.quantile(a, q, axis)`` with its default "linear"
    method (Hyndman & Fan 1996, type 7) on float64 data.

    It repeats numpy's arithmetic: the virtual index ``(n - 1) * q``, its
    neighbouring ranks clamped to the last, a partition at those ranks and
    numpy's two-sided interpolation, which steps down from the upper value
    when the weight is 0.5 or more. ``np.quantile`` reaches the partition
    through ``np.unique``, which imports ``numpy.ma``.
    """
    arr = np.array(a, dtype=np.float64)
    arr = arr.ravel() if axis is None else np.moveaxis(arr, axis, 0)
    q = np.asarray(q, dtype=np.float64)
    if not ((q >= 0.0) & (q <= 1.0)).all():
        raise ValueError("Quantiles must be in the range [0, 1]")
    n = arr.shape[0]
    virtual = (n - 1) * q.ravel()
    below = np.floor(virtual)
    above = below + 1
    top = virtual >= n - 1
    below[top] = above[top] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    ranks = np.sort(np.concatenate(([0, -1], below, above)))
    arr.partition(ranks[np.r_[True, ranks[1:] != ranks[:-1]]], axis=0)
    gamma = (virtual - below).reshape(virtual.shape + (1,) * (arr.ndim - 1))
    lo, hi = arr[below], arr[above]
    diff = hi - lo
    out = np.where(gamma >= 0.5, hi - diff * (1 - gamma), lo + diff * gamma)
    # a NaN sorts last, and numpy returns it for its whole slice
    out = np.where(np.isnan(arr[-1]), arr[-1], out)
    return out.reshape(q.shape + arr.shape[1:])
