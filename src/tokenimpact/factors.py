"""Factor structure over the latent-correlation matrix.

Pipeline: pick the factor count by parallel analysis against simulated
structure-free references, extract loadings by iterated principal-axis
factoring, varimax-rotate toward simple structure, then partition tokens
into problem groups by their dominant rotated loading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FactorAnalysisError
from .polychoric import _EIG_FLOOR, PolychoricMatrix, _gram_correlations, repair_to_psd
from .special import quantile as _quantile
from .survey import SurveyDataset


@dataclass(frozen=True, eq=False)
class FactorModel:
    """Loadings of each token on each extracted factor.

    variance_explained is per factor, as a fraction of total (token count)
    variance; factors are ordered by it, descending. Heywood tokens had
    their communality clamped to 1 during extraction. ``converged`` and
    ``n_iter`` describe the extraction; ``rotation_converged`` and
    ``rotation_iterations`` the varimax rotation (0 sweeps when none ran).
    """

    tokens: tuple[str, ...]
    loadings: np.ndarray
    communalities: np.ndarray
    variance_explained: np.ndarray
    rotation: str  # "none" | "varimax"
    converged: bool
    n_iter: int
    heywood_tokens: tuple[str, ...] = ()
    rotation_iterations: int = 0
    rotation_converged: bool = True

    @property
    def n_factors(self) -> int:
        return self.loadings.shape[1]

    def to_dict(self) -> dict:
        return {
            "tokens": list(self.tokens),
            "loadings": [[float(v) for v in row] for row in self.loadings],
            "communalities": [float(v) for v in self.communalities],
            "variance_explained": [float(v) for v in self.variance_explained],
            "rotation": self.rotation,
            "converged": self.converged,
            "n_iter": self.n_iter,
            "heywood_tokens": list(self.heywood_tokens),
            "rotation_iterations": self.rotation_iterations,
            "rotation_converged": self.rotation_converged,
        }


@dataclass(frozen=True)
class ProblemGroup:
    name: str
    members: tuple[str, ...]
    variance_explained: float


@dataclass(frozen=True)
class ProblemGrouping:
    """Partition of tokens into problem groups by dominant loading."""

    groups: tuple[ProblemGroup, ...]
    unassigned: tuple[str, ...]
    threshold: float

    @property
    def group_names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.groups)

    def to_dict(self) -> dict:
        return {
            "groups": [
                {
                    "name": g.name,
                    "members": list(g.members),
                    "variance_explained": g.variance_explained,
                }
                for g in self.groups
            ],
            "unassigned": list(self.unassigned),
            "threshold": self.threshold,
        }


@dataclass(frozen=True, eq=False)
class ParallelAnalysisResult:
    n_factors: int
    observed_eigenvalues: np.ndarray
    reference_quantiles: np.ndarray
    reps: int
    quantile: float

    def to_dict(self) -> dict:
        return {
            "n_factors": self.n_factors,
            "observed_eigenvalues": [float(v) for v in self.observed_eigenvalues],
            "reference_quantiles": [float(v) for v in self.reference_quantiles],
            "reps": self.reps,
            "quantile": self.quantile,
        }


# Reference tables per root solve: enough to spread the solver's fixed
# per-call cost (3 solves for 100 reps of 15 tokens), few enough that its
# transient arrays stay near 2 MB. At 1e4 rows, 100 reps and 15 tokens this
# size raised the command's peak by 0.6 MB over chunks of 1024 tables; one
# solve of all 10 500 tables needs 5 MB and raised it by 3 MB.
_CHUNK_TABLES = 4096

# Reference reps drawn together on one stream: enough to spread each
# column's binomial call over many cells, few enough that the live cells
# stay within _DRAW_REPS * min(n, 2**p).
_DRAW_REPS = 10


def _reference_grams(prevalences: np.ndarray, n: int, seed: int, reps: int) -> np.ndarray:
    """Float64 co-occurrence Grams (reps x p x p) of reps draws of n rows of
    independent binary columns with the given prevalences.

    A Gram depends only on the draw's token-pattern counts, so those are
    drawn directly. Reps go in blocks of ``_DRAW_REPS``, block ``b`` on its
    own stream ``[seed, b, 1]``; the tag 1 keeps it apart from the bootstrap
    streams ``[seed, g, 2]`` and must be nonzero, as ``SeedSequence`` drops
    trailing zero words. From one cell of n rows per rep, each column splits
    every live cell of the block binomially by its prevalence, in one call;
    a cell's two children stay next to each other, so each rep's cells stay
    contiguous, and empty cells drop, so at most min(n, 2**p) per rep stay
    live. Each rep's Gram ``(X * counts).T @ X`` is formed on its own, in
    float64, exact below 2**53 rows.
    """
    p = prevalences.size
    grams = np.empty((reps, p, p))
    for block, start in enumerate(range(0, reps, _DRAW_REPS)):
        size = min(_DRAW_REPS, reps - start)
        rng = np.random.default_rng([seed, block, 1])
        ends = np.arange(1, size + 1)  # one past each rep's last cell
        counts = np.full(size, n, dtype=np.int64)
        patterns = np.zeros((size, p), dtype=bool)
        for j, q in enumerate(prevalences):
            fired = rng.binomial(counts, q)
            # child 2c keeps cell c's rows without token j, child 2c + 1 those with it
            counts = np.stack([counts - fired, fired], axis=1).ravel()
            live = np.flatnonzero(counts)
            ends = np.searchsorted(live, 2 * ends)
            patterns = patterns[live >> 1]
            patterns[:, j] = live & 1
            counts = counts[live]
        starts = np.r_[0, ends[:-1]]
        for i in range(size):
            cells = slice(starts[i], ends[i])
            x = patterns[cells].astype(np.float64)
            grams[start + i] = (x * counts[cells, None]).T @ x
    return grams


def _reference_eigenvalues(grams: np.ndarray, n: int) -> np.ndarray:
    """Descending eigenvalues of the reference matrix of each Gram of n rows,
    one row per Gram.

    The matrices come from one root solve over the tables of all the Grams
    and are decomposed as one stack; only those with an eigenvalue under
    ``_EIG_FLOOR`` go through ``repair_to_psd``.
    """
    values = _gram_correlations(grams, n)[0]
    eigenvalues = np.linalg.eigvalsh(values)
    for i in np.flatnonzero(eigenvalues[:, 0] < _EIG_FLOOR):
        eigenvalues[i] = np.linalg.eigvalsh(repair_to_psd(values[i])[0])
    return np.sort(eigenvalues, axis=1)[:, ::-1]


def parallel_analysis_detail(
    corr: PolychoricMatrix,
    ds: SurveyDataset,
    reps: int = 100,
    quantile: float = 0.95,
    *,
    seed: int,
) -> ParallelAnalysisResult:
    """Factor count plus the eigenvalue evidence behind it (Horn 1965).

    References are independent binary columns with the observed marginal
    prevalences, run through the identical latent-correlation estimator, so
    the noise floor reflects the estimator and not just sampling. The reps'
    token-pattern counts are drawn in blocks of ``_DRAW_REPS``, block ``b``
    on its own stream ``[seed, b, 1]`` (see ``_reference_grams``). All the
    Grams are drawn first and then solved in chunks of about
    ``_CHUNK_TABLES`` tables; a rep's eigenvalues do not depend on its
    chunk, so neither does the result. The
    kept count is the number of leading observed eigenvalues above the
    per-rank reference quantile; it is 0 when none is, and the caller
    decides what that means.
    """
    if reps < 10:
        raise FactorAnalysisError("reps must be at least 10")
    if corr.tokens != ds.vocabulary.names:
        raise FactorAnalysisError("correlation matrix does not match dataset tokens")
    observed = np.sort(np.linalg.eigvalsh(corr.values))[::-1]
    n = ds.n_records
    prevalences = np.diagonal(ds.cooccurrence) / n
    grams = _reference_grams(prevalences, n, seed, reps)
    pairs = prevalences.size * (prevalences.size - 1) // 2
    per_chunk = max(1, _CHUNK_TABLES // max(pairs, 1))
    reference = [
        _reference_eigenvalues(grams[r : r + per_chunk], n)
        for r in range(0, reps, per_chunk)
    ]
    ref_q = _quantile(np.concatenate(reference), quantile, axis=0)
    k = 0
    for obs, ref in zip(observed, ref_q):
        if obs > ref:
            k += 1
        else:
            break
    return ParallelAnalysisResult(
        n_factors=k,
        observed_eigenvalues=observed,
        reference_quantiles=ref_q,
        reps=reps,
        quantile=quantile,
    )


def _initial_communalities(values: np.ndarray) -> np.ndarray:
    """Squared multiple correlations; falls back to the largest absolute
    off-diagonal correlation per row when the matrix cannot be inverted."""
    p = values.shape[0]
    try:
        inv = np.linalg.inv(values)
        diag = np.diag(inv)
        if (diag <= 0).any() or not np.isfinite(diag).all():
            raise np.linalg.LinAlgError
        smc = 1.0 - 1.0 / diag
        return np.clip(smc, 0.0, 1.0)
    except np.linalg.LinAlgError:
        off = np.abs(values - np.eye(p))
        return off.max(axis=1)


def _ordered_factors(loadings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Loadings with each column's largest loading positive and the columns
    sorted by explained variance (descending, stable), with that variance
    as a fraction of the token count."""
    out = loadings.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            out[:, j] = -col
    explained = (out**2).sum(axis=0) / out.shape[0]
    order = np.argsort(-explained, kind="stable")
    return out[:, order], explained[order]


def extract_factors(
    corr: PolychoricMatrix, k: int, max_iter: int = 100, tol: float = 1e-6
) -> FactorModel:
    """Iterated principal-axis factoring of the correlation matrix.

    Communalities start at the squared multiple correlations and are refined
    by reconstructing from the top-k eigenpairs of the reduced matrix until
    the largest change falls under ``tol``. Communalities above 1 (Heywood)
    are clamped and flagged. Non-convergence returns the best iterate with
    ``converged`` False.
    """
    values = corr.values
    p = values.shape[0]
    if not 1 <= k < p:
        raise FactorAnalysisError(f"factor count {k} must be in 1..{p - 1}")
    h2 = _initial_communalities(values)
    heywood = np.zeros(p, dtype=bool)
    loadings = np.zeros((p, k))
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        reduced = values.copy()
        np.fill_diagonal(reduced, h2)
        eigvals, eigvecs = np.linalg.eigh(reduced)
        top = slice(p - 1, p - 1 - k, -1)
        lam = np.clip(eigvals[top], 0.0, None)
        loadings = eigvecs[:, top] * np.sqrt(lam)
        h2_new = (loadings**2).sum(axis=1)
        over = h2_new > 1.0
        if over.any():
            heywood |= over
            scale = np.ones(p)
            scale[over] = 1.0 / np.sqrt(h2_new[over])
            loadings = loadings * scale[:, None]
            h2_new = np.minimum(h2_new, 1.0)
        change = np.max(np.abs(h2_new - h2))
        h2 = h2_new
        if change < tol:
            converged = True
            break
    loadings, explained = _ordered_factors(loadings)
    return FactorModel(
        tokens=corr.tokens,
        loadings=loadings,
        communalities=h2,
        variance_explained=explained,
        rotation="none",
        converged=converged,
        n_iter=it,
        heywood_tokens=tuple(
            corr.tokens[i] for i in range(p) if heywood[i]
        ),
    )


def varimax_criterion(loadings: np.ndarray, normalize: bool = False) -> float:
    """Sum over factors of the variance of squared loadings."""
    lam = np.asarray(loadings, dtype=np.float64)
    if normalize:
        h = np.sqrt((lam**2).sum(axis=1))
        lam = lam / np.where(h > 0, h, 1.0)[:, None]
    sq = lam**2
    return float(sq.var(axis=0).sum())


def _varimax_rotation(
    lam: np.ndarray, tol: float, max_iter: int
) -> tuple[np.ndarray, int, bool]:
    """Orthogonal rotation maximizing the varimax criterion (SVD updates).

    The singular-value sum is the objective surrogate and is non-decreasing
    across sweeps. Returns the rotation, the sweeps run and whether the
    objective stopped rising by more than ``tol`` before ``max_iter``.
    """
    p, k = lam.shape
    rotation = np.eye(k)
    objective = 0.0
    it = 0
    converged = False
    for it in range(1, max_iter + 1):
        basis = lam @ rotation
        gradient = lam.T @ (
            basis**3 - basis @ np.diag((basis**2).sum(axis=0)) / p
        )
        u, s, vt = np.linalg.svd(gradient)
        rotation = u @ vt
        new_objective = s.sum()
        if new_objective <= objective * (1.0 + tol):
            converged = True
            break
        objective = new_objective
    return rotation, it, converged


def varimax(model: FactorModel, tol: float = 1e-8, max_iter: int = 1000) -> FactorModel:
    """Varimax-rotate a factor model (row-normalized during rotation).

    Rotation is orthogonal, so per-token communalities are preserved. The
    rotated factors are re-sorted by explained variance and sign-fixed so
    each column's largest loading is positive. A single factor is returned
    unchanged apart from the rotation tag.
    """
    lam = model.loadings
    k = lam.shape[1]
    sweeps, rotation_converged = 0, True
    if k == 1:
        rotated = lam.copy()
    else:
        h = np.sqrt((lam**2).sum(axis=1))
        h_safe = np.where(h > 0, h, 1.0)
        normalized = lam / h_safe[:, None]
        rotation, sweeps, rotation_converged = _varimax_rotation(normalized, tol, max_iter)
        rotated = (normalized @ rotation) * h_safe[:, None]
    rotated, explained = _ordered_factors(rotated)
    return FactorModel(
        tokens=model.tokens,
        loadings=rotated,
        communalities=(rotated**2).sum(axis=1),
        variance_explained=explained,
        rotation="varimax",
        converged=model.converged,
        n_iter=model.n_iter,
        heywood_tokens=model.heywood_tokens,
        rotation_iterations=sweeps,
        rotation_converged=rotation_converged,
    )


def assign_groups(model: FactorModel, threshold: float = 0.5) -> ProblemGrouping:
    """Partition tokens by dominant absolute loading at or above ``threshold``.

    Ties go to the lower factor index. Groups keep the factor order, which
    is descending explained variance, and are named group_1..group_k for the
    analyst to rename.
    """
    if model.rotation == "none" and model.n_factors > 1:
        raise FactorAnalysisError("assign_groups expects a rotated model")
    absolute = np.abs(model.loadings)
    dominant = absolute.argmax(axis=1)
    strength = absolute[np.arange(len(model.tokens)), dominant]
    assigned = strength >= threshold
    if not assigned.any():
        raise FactorAnalysisError("every token is below the loading threshold")
    groups = tuple(
        ProblemGroup(
            name=f"group_{f + 1}",
            members=tuple(
                tok
                for i, tok in enumerate(model.tokens)
                if assigned[i] and dominant[i] == f
            ),
            variance_explained=float(model.variance_explained[f]),
        )
        for f in range(model.n_factors)
    )
    unassigned = tuple(
        tok for i, tok in enumerate(model.tokens) if not assigned[i]
    )
    return ProblemGrouping(groups=groups, unassigned=unassigned, threshold=threshold)
