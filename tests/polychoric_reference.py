"""Golden-section reference for the tetrachoric rho solve in tokenimpact.polychoric.

It maximizes each table's multinomial log-likelihood over rho directly,
without using that the maximum is the root of ``p11(rho) = n11 / N``. The
property test in test_polychoric.py compares the library's root solve with
it on random tables. ``newton_rho`` is the library's own root solve with the
orthant kernel run on its first step too, which the library replaces by
its closed form.
"""

import math

import numpy as np

from tokenimpact.polychoric import (
    _DEFAULT_TOL,
    _MAX_ITER,
    _RHO_BOUND,
    _THETA_BOUND,
    _bvn_upper,
    _loglik_batch,
    _p11_slope,
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def maximize_rho(cells, px, py, tx, ty, tol=1e-8):
    """Golden-section maximum of each table's likelihood over rho in (-1, 1).

    Runs lock-step over a batch of tables for the fixed number of sweeps
    that shrinks the bracket below ``tol``; returns (rho, loglik at rho).
    """
    m = cells.shape[0]
    lo = np.full(m, -_RHO_BOUND)
    hi = np.full(m, _RHO_BOUND)
    n_iter = int(math.ceil(math.log(tol / (2.0 * _RHO_BOUND)) / math.log(_GOLDEN)))
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1 = _loglik_batch(cells, px, py, tx, ty, x1)
    f2 = _loglik_batch(cells, px, py, tx, ty, x2)
    for _ in range(n_iter):
        left = f1 > f2
        hi = np.where(left, x2, hi)
        lo = np.where(left, lo, x1)
        x_new = np.where(left, hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo))
        f_new = _loglik_batch(cells, px, py, tx, ty, x_new)
        x1_old, f1_old = x1, f1
        x1 = np.where(left, x_new, x2)
        f1 = np.where(left, f_new, f2)
        x2 = np.where(left, x1_old, x_new)
        f2 = np.where(left, f1_old, f_new)
    rho = 0.5 * (lo + hi)
    return rho, _loglik_batch(cells, px, py, tx, ty, rho)


def newton_rho(cells, px, py, tx, ty, tol=_DEFAULT_TOL):
    """The library's bracketed Newton root solve with the orthant kernel run
    on every step, the first (at rho = 0) included; returns (rho, converged,
    boundary)."""
    m = cells.shape[0]
    target = cells[:, 3] / cells.sum(axis=1)
    theta = np.zeros(m)
    lo = np.full(m, -_THETA_BOUND)
    hi = np.full(m, _THETA_BOUND)
    converged = np.zeros(m, dtype=bool)
    active = np.arange(m)
    for _ in range(_MAX_ITER):
        if active.size == 0:
            break
        t, h, k = theta[active], tx[active], ty[active]
        residual = _bvn_upper(h, k, np.sin(t), px[active], py[active]) - target[active]
        below = np.where(residual < 0.0, t, lo[active])
        above = np.where(residual > 0.0, t, hi[active])
        lo[active], hi[active] = below, above
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            new = t - residual / _p11_slope(h, k, t)
        inside = (new >= below) & (new <= above)
        new = np.where(inside, new, 0.5 * (below + above))
        theta[active] = new
        done = np.abs(new - t) < tol
        converged[active[done]] = True
        active = active[~done]
    boundary = _THETA_BOUND - np.abs(theta) < tol
    return np.sin(theta), converged, boundary
