"""Golden-section reference for the tetrachoric rho solve in tokenimpact.polychoric.

It maximizes each table's multinomial log-likelihood over rho directly,
without using that the maximum is the root of ``p11(rho) = n11 / N``. The
property test in test_polychoric.py compares the library's root solve with
it on random tables.
"""

import math

import numpy as np

from tokenimpact.polychoric import _RHO_BOUND, _loglik_batch

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
