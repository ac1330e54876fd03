"""Latent-correlation (tetrachoric) estimation between binary problem tokens.

Each token is modelled as a dichotomised continuous trait: the pair of traits
is standard bivariate normal and a token fires when its trait exceeds a
threshold. The two-step estimator (Olsson 1979) takes each threshold from the
table's own marginal rate and then fits rho by maximum likelihood over the
observed 2x2 table.

With the thresholds fixed at the marginals, the four model cells can match
the observed proportions exactly, so the likelihood's maximum is the unique
root of ``p11(rho) = n11 / N``. ``p11`` rises strictly in rho with slope
equal to the bivariate-normal density at the thresholds (Plackett's
identity), and the root is found by a bracketed Newton iteration.

The numerical kernel is Genz's (2004) Gauss-Legendre scheme for the upper
orthant probability of the bivariate normal (Drezner-Wesolowsky integral for
moderate correlation, a singularity-subtracted expansion near |rho| = 1),
accurate to well below 1e-7 absolute error. As in Genz's BVNU, the node count
is tiered by |rho|: 6 nodes below 0.3, 12 below 0.75 and 20 above, where the
integrand is least smooth. It takes each table's own
marginal rates ``P(X > h)`` and ``P(Y > k)`` beside its thresholds, so the
root solve calls the normal CDF only for the tail term of the expansion
near |rho| = 1. It works element by element, so a table's estimate does not
depend on the other tables in its batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .errors import PolychoricError
from .special import ndtr, ndtri
from .survey import SurveyDataset

# (upper |rho| bound, nodes, weights) of the arcsine-path integral's tiers
_GL_TIERS = tuple(
    (bound, *np.polynomial.legendre.leggauss(order))
    for bound, order in ((0.3, 6), (0.75, 12), (0.925, 20))
)
# the last tier's 20-node rule, also the one of the |r| >= 0.925 expansion
_GL_NODES, _GL_WEIGHTS = _GL_TIERS[-1][1:]

# Likelihood cells are clipped here before taking logs: next to |rho| = 1,
# where the root solve's bracket ends, a model cell can round to zero.
_PROB_FLOOR = 1e-300

_RHO_BOUND = 1.0 - 1e-12
_DEFAULT_TOL = 1e-8
_MAX_ITER = 100


def _bvn_moderate(
    h: np.ndarray, k: np.ndarray, r: np.ndarray, ph: np.ndarray, pk: np.ndarray,
    nodes: np.ndarray, weights: np.ndarray,
) -> np.ndarray:
    """P(X > h, Y > k) for |r| < 0.925 via the arcsine-path integral on the
    given Gauss-Legendre rule."""
    asr = np.arcsin(r)
    hk = h * k
    hs = 0.5 * (h * h + k * k)
    sn = np.sin(0.5 * asr[..., None] * (nodes + 1.0))
    integrand = np.exp((sn * hk[..., None] - hs[..., None]) / (1.0 - sn * sn))
    # a row sum, not a BLAS product, keeps each table's value independent of
    # the batch it is evaluated in
    quadrature = (integrand * weights).sum(axis=-1)
    return ph * pk + (asr / (4.0 * np.pi)) * quadrature


def _bvn_extreme(
    h: np.ndarray, k: np.ndarray, r: np.ndarray, ph: np.ndarray, pk: np.ndarray,
) -> np.ndarray:
    """P(X > h, Y > k) for 0.925 <= |r| < 1; expansion around the |r| = 1 limit."""
    s = np.sign(r)
    k2 = k * s
    hk = h * k2
    a2s = (1.0 - r) * (1.0 + r)
    a = np.sqrt(a2s)
    bs = (h - k2) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    asr0 = -0.5 * (bs / a2s + hk)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        term0 = a * np.exp(np.where(asr0 > -100.0, asr0, -np.inf)) * (
            1.0 - c * (bs - a2s) * (1.0 - d * bs / 5.0) / 3.0 + c * d * a2s * a2s / 5.0
        )
        bvn = np.where(asr0 > -100.0, term0, 0.0)
        b = np.sqrt(bs)
        tail = (
            np.exp(np.where(hk > -100.0, -hk, 0.0) / 2.0)
            * math.sqrt(2.0 * math.pi)
            * ndtr(-b / a)
            * b
            * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0)
        )
        bvn = bvn - np.where(hk > -100.0, tail, 0.0)
        half = a / 2.0
        for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
            xs = (half * (node + 1.0)) ** 2
            rs = np.sqrt(1.0 - xs)
            asr_i = -0.5 * (bs / xs + hk)
            ok = asr_i > -100.0
            term = (
                half
                * weight
                * np.exp(np.where(ok, asr_i, -np.inf))
                * (
                    np.exp(-hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
                    - (1.0 + c * xs * (1.0 + d * xs))
                )
            )
            bvn = bvn + np.where(ok, term, 0.0)
    bvn = -bvn / (2.0 * math.pi)
    positive = bvn + np.minimum(ph, pk)
    negative = -bvn + np.maximum(0.0, ph + pk - 1.0)
    return np.where(s > 0, positive, negative)


def _bvn_upper(
    h: np.ndarray, k: np.ndarray, r: np.ndarray, ph: np.ndarray, pk: np.ndarray,
) -> np.ndarray:
    """P(X > h, Y > k) at correlation r, given the marginals
    ``ph = P(X > h)`` and ``pk = P(Y > k)``."""
    h, k, r, ph, pk = np.broadcast_arrays(
        *(np.asarray(v, dtype=np.float64) for v in (h, k, r, ph, pk))
    )
    out = np.empty(h.shape, dtype=np.float64)
    ar = np.abs(r)
    boundary = ar >= 1.0
    extreme = ~(ar < 0.925) & ~boundary  # a NaN r too, so every entry is set
    if boundary.any():
        phb, pkb = ph[boundary], pk[boundary]
        upper = np.minimum(phb, pkb)  # X = Y
        lower = np.maximum(0.0, phb + pkb - 1.0)  # X = -Y
        out[boundary] = np.where(r[boundary] > 0, upper, lower)
    if extreme.any():
        out[extreme] = _bvn_extreme(h[extreme], k[extreme], r[extreme], ph[extreme], pk[extreme])
    floor = 0.0
    for bound, nodes, weights in _GL_TIERS:
        tier = (ar >= floor) & (ar < bound)
        floor = bound
        if tier.any():
            out[tier] = _bvn_moderate(
                h[tier], k[tier], r[tier], ph[tier], pk[tier], nodes, weights
            )
    return np.clip(out, 0.0, 1.0)


def bvn_upper(tau_x: float, tau_y: float, rho: float) -> float:
    """P(X > tau_x, Y > tau_y) for a standard bivariate normal pair.

    Handles the degenerate boundaries rho = +-1 by their limit formulas.
    """
    if not abs(rho) <= 1.0:
        raise PolychoricError(f"correlation {rho!r} outside [-1, 1]")
    return float(_bvn_upper(tau_x, tau_y, rho, ndtr(-tau_x), ndtr(-tau_y)))


@dataclass(frozen=True)
class ContingencyTable2x2:
    """Cross-tabulated counts of two binary tokens.

    Cell ``nxy`` counts records with the first token equal to x and the
    second equal to y. Counts may be fractional (for example exact cell
    proportions); only relative weights enter the likelihood.
    """

    n00: float
    n01: float
    n10: float
    n11: float

    def __post_init__(self):
        cells = (self.n00, self.n01, self.n10, self.n11)
        # a NaN cell passes every comparison below, so it is refused first
        if not all(math.isfinite(c) for c in cells):
            raise PolychoricError("cell counts must be finite")
        if any(c < 0 for c in cells):
            raise PolychoricError("negative cell count")
        if sum(cells) < 1.0 - 1e-12:
            raise PolychoricError("table total must be at least 1")

    @classmethod
    def from_arrays(cls, x, y) -> "ContingencyTable2x2":
        xa = np.asarray(x, dtype=bool)
        ya = np.asarray(y, dtype=bool)
        if xa.shape != ya.shape:
            raise PolychoricError("series length mismatch")
        return cls(
            n00=float((~xa & ~ya).sum()),
            n01=float((~xa & ya).sum()),
            n10=float((xa & ~ya).sum()),
            n11=float((xa & ya).sum()),
        )


@dataclass(frozen=True)
class PolychoricEstimate:
    rho: float
    tau_x: float
    tau_y: float
    loglik: float
    converged: bool
    corrected: bool


def _loglik_batch(
    cells: np.ndarray, px: np.ndarray, py: np.ndarray,
    tx: np.ndarray, ty: np.ndarray, rho: np.ndarray,
) -> np.ndarray:
    """Multinomial log-likelihood of each table at its candidate rho."""
    p11 = _bvn_upper(tx, ty, rho, px, py)
    p10 = px - p11
    p01 = py - p11
    p00 = 1.0 - px - py + p11
    probs = np.stack([p00, p01, p10, p11], axis=-1)
    probs = np.clip(probs, _PROB_FLOOR, None)
    return np.sum(cells * np.log(probs), axis=-1)


def _p11_slope(h: np.ndarray, k: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """d p11 / d theta at rho = sin(theta).

    By Plackett's identity d p11 / d rho is the bivariate-normal density
    ``phi2(h, k, rho)``; times d rho / d theta = cos(theta) it is
    ``exp(-Q / 2) / (2 pi)``, which stays finite as |rho| -> 1.
    """
    rho = np.sin(theta)
    quad = (h * h - 2.0 * rho * h * k + k * k) / np.cos(theta) ** 2
    return np.exp(-0.5 * quad) / (2.0 * math.pi)


_THETA_BOUND = math.asin(_RHO_BOUND)


def _maximize_rho(
    cells: np.ndarray, px: np.ndarray, py: np.ndarray,
    tx: np.ndarray, ty: np.ndarray, tol: float = _DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximum-likelihood rho of each table, with its convergence and
    boundary flags.

    At the marginal thresholds the likelihood peaks where the model's
    ``p11(rho)`` equals the observed ``n11 / N``, and ``p11`` is strictly
    increasing in rho. The root is solved in theta = arcsin(rho), where the
    slope ``phi2(tx, ty, rho) * cos(theta)`` stays bounded as |rho| -> 1, so
    a small step means a small residual even next to the boundary. Each table
    starts at rho = 0 inside the bracket ``[-_RHO_BOUND, _RHO_BOUND]``, where
    the orthant kernel returns exactly ``px * py`` (its quadrature term is
    ``asin(0) * q = 0``), so the first residual skips the kernel. It then
    takes Newton steps, narrowing the bracket by the sign of the residual and
    bisecting whenever a step is not finite or leaves the bracket. A table is
    frozen once its step is below ``tol`` (``converged``), so its rho does not
    depend on which tables share the batch; one still moving after
    ``_MAX_ITER`` steps is returned where it stands with ``converged`` False.
    A table whose solve ends within ``tol`` of a bracket edge is flagged
    ``boundary``: its root lies at |rho| = 1 or too close to it to tell
    apart (Olsson 1979). ``px`` and ``py`` are the marginal rates that the
    thresholds ``tx`` and ``ty`` were taken from.
    """
    m = cells.shape[0]
    target = cells[:, 3] / cells.sum(axis=1)
    theta = np.zeros(m)
    lo = np.full(m, -_THETA_BOUND)
    hi = np.full(m, _THETA_BOUND)
    converged = np.zeros(m, dtype=bool)
    active = np.arange(m)
    # _bvn_upper at rho = 0, bit for bit; no clip is needed, as px and py lie in (0, 1)
    residual = px * py - target
    for step in range(_MAX_ITER):
        if active.size == 0:
            break
        t, h, k = theta[active], tx[active], ty[active]
        if step:
            residual = _bvn_upper(h, k, np.sin(t), px[active], py[active]) - target[active]
        below = np.where(residual < 0.0, t, lo[active])
        above = np.where(residual > 0.0, t, hi[active])
        lo[active], hi[active] = below, above
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            new = t - residual / _p11_slope(h, k, t)
        inside = (new >= below) & (new <= above)  # False for a non-finite step
        new = np.where(inside, new, 0.5 * (below + above))
        theta[active] = new
        done = np.abs(new - t) < tol
        converged[active[done]] = True
        active = active[~done]
    boundary = _THETA_BOUND - np.abs(theta) < tol
    return np.sin(theta), converged, boundary


def _prepare_tables(
    raw_cells: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Continuity-correct zero cells and derive marginals and thresholds."""
    cells = raw_cells.astype(np.float64).copy()
    corrected = (cells == 0).any(axis=1)
    cells[cells == 0] = 0.5
    totals = cells.sum(axis=1)
    px = (cells[:, 2] + cells[:, 3]) / totals
    py = (cells[:, 1] + cells[:, 3]) / totals
    bad = (px <= 0) | (px >= 1) | (py <= 0) | (py >= 1)
    if bad.any():
        raise PolychoricError("degenerate marginal")
    tx = -ndtri(px)
    ty = -ndtri(py)
    return cells, px, py, tx, ty, corrected


def estimate_polychoric(table: ContingencyTable2x2) -> PolychoricEstimate:
    """Two-step maximum-likelihood latent correlation for one 2x2 table.

    Thresholds come from the inverse normal of the marginal proportions; rho
    maximizes the multinomial likelihood of the four cells at those
    thresholds. Zero cells receive a +0.5 continuity correction (flagged via
    ``corrected``) since they would otherwise force |rho| = 1. ``converged``
    is the root solve's own flag.
    """
    raw = np.array([[table.n00, table.n01, table.n10, table.n11]], dtype=np.float64)
    cells, px, py, tx, ty, corrected = _prepare_tables(raw)
    rho, converged, _ = _maximize_rho(cells, px, py, tx, ty)
    loglik = _loglik_batch(cells, px, py, tx, ty, rho)
    return PolychoricEstimate(
        rho=float(rho[0]),
        tau_x=float(tx[0]),
        tau_y=float(ty[0]),
        loglik=float(loglik[0]),
        converged=bool(converged[0]),
        corrected=bool(corrected[0]),
    )


@dataclass(frozen=True, eq=False)
class PolychoricMatrix:
    """Symmetric latent-correlation matrix with unit diagonal.

    When the pairwise estimates assemble into an indefinite matrix it is
    repaired by eigenvalue clipping and rescaled back to unit diagonal;
    ``psd_repaired`` records that, with the offending eigenvalue kept for
    the report. ``corrected_pairs`` lists the token pairs whose table had a
    zero cell continuity-corrected, ``unconverged_pairs`` those whose rho
    solve did not converge and ``boundary_pairs`` those whose rho solve
    ended at the edge of its bracket, next to |rho| = 1.
    """

    tokens: tuple[str, ...]
    values: np.ndarray
    psd_repaired: bool
    min_eigenvalue_before: float
    corrected_pairs: tuple[tuple[str, str], ...] = ()
    unconverged_pairs: tuple[tuple[str, str], ...] = ()
    boundary_pairs: tuple[tuple[str, str], ...] = ()


_EIG_FLOOR = 1e-8


def repair_to_psd(values: np.ndarray, floor: float = _EIG_FLOOR) -> tuple[np.ndarray, bool, float]:
    """Clip eigenvalues at ``floor`` and rescale to unit diagonal.

    Rescaling can pull the smallest eigenvalue slightly back under the
    floor, so the clip level is raised geometrically until the repaired
    matrix clears it.
    """
    sym = 0.5 * (values + values.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    min_before = float(eigvals.min())
    if min_before >= floor:
        out = sym.copy()
        np.fill_diagonal(out, 1.0)
        return out, False, min_before
    level = floor
    for _ in range(64):
        clipped = np.clip(eigvals, level, None)
        rebuilt = (eigvecs * clipped) @ eigvecs.T
        scale = np.sqrt(np.diag(rebuilt))
        repaired = rebuilt / np.outer(scale, scale)
        repaired = 0.5 * (repaired + repaired.T)
        np.fill_diagonal(repaired, 1.0)
        if np.linalg.eigvalsh(repaired).min() >= floor:
            return repaired, True, min_before
        level *= 4.0
    raise PolychoricError("positive semidefinite repair did not converge")


def _gram_cells(both: np.ndarray, n: int) -> np.ndarray:
    """2x2 cell counts of every pair (i, j) with i < j, in
    ``np.triu_indices(p, 1)`` order, from the Gram ``both`` of n rows of 0/1
    columns. A stack of Grams gives a stack of cell blocks."""
    counts = np.diagonal(both, axis1=-2, axis2=-1)
    iu, ju = np.triu_indices(both.shape[-1], k=1)
    n11 = both[..., iu, ju]
    n10 = counts[..., iu] - n11
    n01 = counts[..., ju] - n11
    n00 = n - counts[..., iu] - counts[..., ju] + n11
    return np.stack([n00, n01, n10, n11], axis=-1)


def _correlation_matrices(p: int, rho: np.ndarray) -> np.ndarray:
    """Unit-diagonal symmetric matrices from pair values in
    ``np.triu_indices(p, 1)`` order; a stack of value rows gives a stack of
    matrices."""
    values = np.broadcast_to(np.eye(p), (*rho.shape[:-1], p, p)).copy()
    iu, ju = np.triu_indices(p, k=1)
    values[..., iu, ju] = rho
    values[..., ju, iu] = rho
    return values


def _gram_correlations(
    grams: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unrepaired latent-correlation matrix of the Gram of n rows of 0/1
    columns, or one matrix per Gram of a stack, with the per-pair
    continuity-correction, convergence and boundary flags in
    ``np.triu_indices(p, 1)`` order.

    The tables of every Gram go through one root solve; a table's root does
    not depend on the batch it is solved in, so neither does a Gram's matrix.
    """
    raw_cells = _gram_cells(grams, n)
    pair_shape = raw_cells.shape[:-1]
    cells, px, py, tx, ty, corrected = _prepare_tables(raw_cells.reshape(-1, 4))
    rho, converged, boundary = _maximize_rho(cells, px, py, tx, ty)
    values = _correlation_matrices(grams.shape[-1], rho.reshape(pair_shape))
    return (
        values,
        corrected.reshape(pair_shape),
        converged.reshape(pair_shape),
        boundary.reshape(pair_shape),
    )


def polychoric_matrix(ds: SurveyDataset) -> PolychoricMatrix:
    """Latent-correlation matrix over all token pairs of a dataset."""
    if len(ds.vocabulary) < 2:
        raise PolychoricError("at least two tokens required")
    if ds.n_records == 0:
        raise PolychoricError("empty dataset")
    raw, corrected, converged, boundary = _gram_correlations(ds.cooccurrence, ds.n_records)
    values, repaired, min_before = repair_to_psd(raw)
    values.setflags(write=False)
    names = ds.vocabulary.names
    pairs = list(zip(*np.triu_indices(len(names), k=1)))

    def named(mask: np.ndarray) -> tuple[tuple[str, str], ...]:
        return tuple((names[i], names[j]) for (i, j), hit in zip(pairs, mask) if hit)

    return PolychoricMatrix(
        tokens=names,
        values=values,
        psd_repaired=repaired,
        min_eigenvalue_before=min_before,
        corrected_pairs=named(corrected),
        unconverged_pairs=named(~converged),
        boundary_pairs=named(boundary),
    )
