"""Latent-trait survey generator with planted ground truth.

Tokens are dichotomised from a linear factor model: a record draws a factor
vector and independent residuals, and token j fires when its latent trait
exceeds threshold j. The residuals are never drawn: each token decides its
residual's side of the threshold by inversion from one 32-bit uniform, at
a resolution of 2**-32 (``_token_chunks``). The poor-call label is drawn
from a logistic model on the planted group indicators, so every estimator
in the pipeline has an exact oracle to recover.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import ValidationError
from .special import expit, ndtr, ndtri
from .survey import (
    MAX_GROUPS,
    CallIds,
    SurveyDataset,
    TokenVocabulary,
    _check_records,
    code_indicators,
    default_vocabulary,
    group_codes,
    group_patterns,
)

DEFAULT_PARTITION = (0,) * 5 + (1,) * 5 + (2,) * 2 + (3,) * 2 + (4,)

# cells per chunk of the token draw, which also serves the truth draw:
# 512 KiB as float64, so one chunk's temporaries stay within a per-core L2
# cache
_CHUNK_CELLS = 1 << 16


def _chunk_rows(width: int) -> int:
    """Rows per chunk of a ``width``-token draw: ``_CHUNK_CELLS // width``
    rounded down to an even count, and at least 2, so that a chunk of an
    odd width still has an even number of cells."""
    return max(2, _CHUNK_CELLS // width // 2 * 2)


def _integer(name: str, value) -> int:
    """``value`` as an int; a ValidationError names the field ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name}: {value!r} is not an integer") from None


@dataclass(frozen=True)
class DurationModel:
    """Lognormal call duration with multiplicative per-group penalties.

    The lognormal is mean-corrected so a record with no active groups has
    expected duration ``base_mean_s``.
    """

    base_mean_s: float = 300.0
    group_penalties: tuple[float, ...] = ()
    sigma: float = 0.5

    def __post_init__(self):
        if not 0 < self.base_mean_s < math.inf:
            raise ValidationError("base_mean_s must be positive and finite")
        if not 0 <= self.sigma < math.inf:
            raise ValidationError("sigma must be non-negative and finite")
        if not all(0 < p < math.inf for p in self.group_penalties):
            raise ValidationError("group penalties must be positive finite multipliers")


@dataclass(frozen=True, eq=False)
class GeneratorSpec:
    """Planted world: factor loadings, thresholds, grouping and outcome model."""

    loadings: np.ndarray  # tokens x factors
    thresholds: np.ndarray  # per token, standard-normal scale
    group_partition: tuple[int, ...]  # token index -> group index
    glm_intercept: float
    glm_group_effects: tuple[float, ...]
    n: int
    seed: int
    glm_interactions: tuple[tuple[int, int], ...] = ()
    glm_interaction_effects: tuple[float, ...] = ()
    duration: DurationModel = field(default_factory=DurationModel)
    token_names: tuple[str, ...] = ()

    def __post_init__(self):
        loadings = np.asarray(self.loadings, dtype=np.float64)
        if loadings.ndim != 2:
            raise ValidationError("loadings must be a tokens x factors matrix")
        thresholds = np.asarray(self.thresholds, dtype=np.float64)
        try:
            pairs = tuple(
                (_integer("glm_interactions", a), _integer("glm_interactions", b))
                for a, b in self.glm_interactions
            )
        except (TypeError, ValueError):  # an item that is not a pair
            raise ValidationError("glm_interactions must hold pairs of group indices") from None
        for name, value in (
            ("loadings", loadings),
            ("thresholds", thresholds),
            ("group_partition", tuple(_integer("group_partition", g) for g in self.group_partition)),
            ("glm_group_effects", tuple(self.glm_group_effects)),
            ("glm_interactions", pairs),
            ("glm_interaction_effects", tuple(self.glm_interaction_effects)),
            ("n", _integer("n", self.n)),
            ("seed", _integer("seed", self.seed)),
            ("token_names", tuple(self.token_names)),
        ):
            object.__setattr__(self, name, value)
        p = loadings.shape[0]
        if thresholds.shape != (p,):
            raise ValidationError("thresholds length must match token count")
        # every comparison with a NaN is false, so a NaN would slip past the
        # checks below and reach the draw
        for name in ("loadings", "thresholds", "glm_intercept", "glm_group_effects",
                     "glm_interaction_effects"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValidationError(f"{name} must be finite")
        if len(self.group_partition) != p:
            raise ValidationError("group_partition length must match token count")
        communality = (loadings**2).sum(axis=1)
        if (communality > 1.0 + 1e-12).any():
            raise ValidationError("per-token squared loadings must sum to at most 1")
        groups = self.n_groups
        if sorted(set(self.group_partition)) != list(range(groups)):
            raise ValidationError("group indices must be contiguous from 0")
        if groups > MAX_GROUPS:
            raise ValidationError(f"at most {MAX_GROUPS} groups")
        if len(self.glm_group_effects) != groups:
            raise ValidationError("one GLM effect per group required")
        if len(self.glm_interaction_effects) != len(self.glm_interactions):
            raise ValidationError("one effect per interaction pair required")
        for a, b in self.glm_interactions:
            if not (0 <= a < groups and 0 <= b < groups and a != b):
                raise ValidationError(f"bad interaction pair ({a}, {b})")
        if self.duration.group_penalties and len(
            self.duration.group_penalties
        ) != groups:
            raise ValidationError("one duration penalty per group required")
        if self.n < 1:
            raise ValidationError("n must be at least 1")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")
        if self.token_names and len(self.token_names) != p:
            raise ValidationError("token_names length must match token count")

    @property
    def n_tokens(self) -> int:
        return self.loadings.shape[0]

    @property
    def n_factors(self) -> int:
        return self.loadings.shape[1]

    @property
    def n_groups(self) -> int:
        return max(self.group_partition) + 1

    def vocabulary(self) -> TokenVocabulary:
        if self.token_names:
            return TokenVocabulary(names=self.token_names)
        if self.n_tokens == len(default_vocabulary()):
            return default_vocabulary()
        return TokenVocabulary(
            names=tuple(f"token_{i:02d}" for i in range(self.n_tokens))
        )


@dataclass(frozen=True)
class MonteCarloImpact:
    reduction: float
    mc_se: float
    n_mc: int


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Oracle quantities derived deterministically from a GeneratorSpec."""

    rho: np.ndarray
    partition: tuple[int, ...]
    n_factors: int
    group_reductions: tuple[MonteCarloImpact, ...]


def _linear_predictor(spec: GeneratorSpec, indicators: np.ndarray) -> np.ndarray:
    eta = spec.glm_intercept + indicators @ np.asarray(
        spec.glm_group_effects, dtype=np.float64
    )
    for (a, b), coef in zip(spec.glm_interactions, spec.glm_interaction_effects):
        eta = eta + coef * (indicators[:, a] * indicators[:, b])
    return eta


def _token_chunks(spec: GeneratorSpec, rng: np.random.Generator, n: int):
    """Tokens of ``n`` latent draws, as ``(rows, tokens)`` for each chunk of
    rows: the whole factor matrix ``F`` is drawn first, then one 32-bit
    uniform per token cell, chunk by chunk. A chunk is ``_chunk_rows`` rows
    of the token count, so its float64 and index temporaries stay
    cache-sized.

    Token j fires when its residual ``e`` exceeds
    ``c = tau_j / s_j - F . lambda_j / s_j``, with ``s_j`` the residual
    scale. With ``u`` the cell's uniform, the token fires when
    ``(u + 0.5) / 2**32 > ndtr(c)``: inversion of the normal CDF at a
    resolution of 2**-32, which decides the sign without drawing ``e``. A
    guide table (Chen & Asau 1974; Devroye 1986, section III.2) on the top
    ``_GUIDE_BITS`` bits of ``u`` decides almost every cell from ``c``
    alone (``_guide_bounds``); only a cell whose ``c`` falls inside its own
    bin calls ``ndtr``. A token with no residual (``s_j = 0``) fires when
    ``F . lambda_j > tau_j``.

    The chunks take the stream's 64-bit words in order, each as two
    uint32 (its low half first); every chunk but the last has an even
    number of rows, hence of cells, so the uniforms are those of one
    ``(n, tokens)`` draw, and the tokens do not depend on the chunk size.
    """
    lo, hi = _guide_bounds()
    loadings = spec.loadings
    scale = np.sqrt(np.maximum(1.0 - (loadings**2).sum(axis=1), 0.0))
    exact = scale == 0.0
    divisor = np.where(exact, 1.0, scale)
    weights = (loadings / -divisor[:, None]).T
    offset = spec.thresholds / divisor
    factors = rng.standard_normal((n, spec.n_factors))
    p = spec.n_tokens
    rows = _chunk_rows(p)
    start = 0
    while start < n:
        # a lone last row would take numpy's matrix-vector product, which
        # rounds its sums differently, so it joins the chunk before it
        stop = n if n - start <= rows + 1 else start + rows
        cells = (stop - start) * p
        u = rng.bit_generator.random_raw((cells + 1) // 2).view(np.uint32)[:cells]
        c = factors[start:stop] @ weights
        c += offset
        if exact.any():
            c[:, exact] = np.where(c[:, exact] < 0.0, -np.inf, np.inf)
        c = c.ravel()
        bins = np.right_shift(u, 32 - _GUIDE_BITS, dtype=np.intp)
        tokens = c < lo.take(bins)
        inside = np.flatnonzero((c < hi.take(bins)) & ~tokens)
        tokens[inside] = (u[inside] + 0.5) / 2.0**32 > ndtr(c[inside])
        yield slice(start, stop), tokens.reshape(stop - start, p)
        start = stop


# bits of a token's uniform that pick its guide-table bin
_GUIDE_BITS = 12


@cache
def _guide_bounds() -> tuple[np.ndarray, np.ndarray]:
    """Per bin k of ``2**_GUIDE_BITS``, the ``c`` below which a uniform in
    that bin always fires and the ``c`` from which it never does.

    A uniform ``(u + 0.5) / 2**32`` in bin k lies strictly between
    ``k / 2**_GUIDE_BITS`` and ``(k + 1) / 2**_GUIDE_BITS``, so it fires when
    ``ndtr(c)`` is at most the first and not when it is at least the second.
    The bin edges ``ndtri(k / 2**_GUIDE_BITS)`` are widened outward by 1e-9.
    Every finite edge lies within 3.5 of 0, where that moves the CDF by at
    least 8e-13, far beyond the 1e-15 that ``ndtri`` and ``ndtr`` may be
    off, so ``ndtr`` of each bound lies on its side of the edge, and so does
    ``ndtr`` of every ``c`` beyond it. Built on the first draw, not at import,
    and read-only, since every draw shares them.
    """
    edges = ndtri(np.arange(2**_GUIDE_BITS + 1) / 2**_GUIDE_BITS)
    bounds = edges[:-1] - 1e-9, edges[1:] + 1e-9
    for b in bounds:
        b.setflags(write=False)
    return bounds


def _draw_tokens(spec: GeneratorSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """The token matrix of ``n`` latent draws (``_token_chunks``)."""
    tokens = np.empty((n, spec.n_tokens), dtype=bool)
    for rows, chunk in _token_chunks(spec, rng, n):
        tokens[rows] = chunk
    return tokens


def _members(partition: tuple[int, ...]) -> list[list[int]]:
    """The token columns of each group of a token -> group partition."""
    members = [[] for _ in range(max(partition) + 1)]
    for j, g in enumerate(partition):
        members[g].append(j)
    return members


def _call_ids(start: int, stop: int) -> CallIds:
    """``f"c{i:07d}"`` for ``i`` in ``range(start, stop)``, its digits
    written straight into the byte buffer."""
    chunks = []  # one per id width
    while start < stop:
        width = max(7, len(str(start)))
        end = min(stop, 10**width)
        rest = np.arange(start, end)
        text = np.empty((end - start, width + 1), dtype=np.uint8)
        for k in range(width, 0, -1):
            rest, text[:, k] = np.divmod(rest, 10)
        text[:, 1:] += ord("0")
        text[:, 0] = ord("c")
        chunks.append(CallIds(text.ravel(), np.arange(0, text.size + 1, width + 1)))
        start = end
    return CallIds.concat(chunks)


def generate(
    spec: GeneratorSpec, truth_mc_n: int | None = 200_000
) -> tuple[SurveyDataset, GroundTruth]:
    """Draw one survey dataset plus its ground truth, deterministic per seed.
    One Monte-Carlo draw of ``truth_mc_n`` calls, on its own stream, serves
    every group's truth; ``None`` skips it and leaves ``group_reductions``
    empty. The dataset is the same either way."""
    draws = [] if truth_mc_n is None else [_truth_draw(spec, truth_mc_n, spec.seed)]
    reductions = tuple(_fix_impact(spec, d, g) for d in draws for g in range(spec.n_groups))
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    tokens = _draw_tokens(spec, rng, n)
    indicators, row_pattern = group_patterns(tokens, _members(spec.group_partition))
    poor = rng.random(n) < expit(_linear_predictor(spec, indicators))[row_pattern]
    # every token is in a group, so a row has a token when its pattern's
    # code is not 0
    has_token = indicators.any(axis=1)[row_pattern]

    ratings = np.empty(n, dtype=np.int64)
    ratings[poor] = rng.integers(1, 3, size=int(poor.sum()))
    good_tokened = ~poor & has_token
    good_clean = ~poor & ~has_token
    # a rating of 5 means the questionnaire was never shown, so it is only
    # possible for token-free records
    ratings[good_tokened] = rng.integers(3, 5, size=int(good_tokened.sum()))
    ratings[good_clean] = rng.integers(3, 6, size=int(good_clean.sum()))

    penalties = np.ones(len(indicators))
    if spec.duration.group_penalties:
        penalty_row = np.asarray(spec.duration.group_penalties, dtype=np.float64)
        penalties = np.prod(
            np.where(indicators > 0, penalty_row, 1.0), axis=1
        )
    sigma = spec.duration.sigma
    # a duration that overflows is named by the row check below
    with np.errstate(over="ignore"):
        noise = np.exp(sigma * rng.standard_normal(n) - 0.5 * sigma * sigma)
        durations = spec.duration.base_mean_s * penalties[row_pattern] * noise

    call_ids = _call_ids(0, n)
    # the columns are new and only the duration model can break a survey
    # rule, so they are checked once and handed over without a copy
    _check_records(call_ids, ratings, durations, has_token, has_token)
    ds = SurveyDataset._adopt(
        spec.vocabulary(), call_ids, ratings, durations, has_token, tokens,
        (f"generate(seed={spec.seed}, n={n})",),
    )
    rho = spec.loadings @ spec.loadings.T
    np.fill_diagonal(rho, 1.0)
    truth = GroundTruth(
        rho=rho,
        partition=spec.group_partition,
        n_factors=spec.n_factors,
        group_reductions=reductions,
    )
    return ds, truth


def ground_truth_impact(
    spec: GeneratorSpec, group_index: int, n_mc: int = 200_000, *, seed: int
) -> MonteCarloImpact:
    """True relative poor-call-rate reduction from fixing one group.

    Simulates the planted world with and without the group's tokens, using
    the expected poor probability per draw (lower variance than sampling the
    label). The relative reduction comes with a delta-method standard error.
    """
    if not 0 <= group_index < spec.n_groups:
        raise ValidationError(f"group index {group_index} out of range")
    return _fix_impact(spec, _truth_draw(spec, n_mc, seed), group_index)


def _truth_draw(
    spec: GeneratorSpec, n_mc: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Group-indicator patterns of ``n_mc`` planted-world draws and their counts.

    A draw enters the truth only through its pattern, so the counts are
    sufficient for every group's counterfactual. Each chunk of draws is
    reduced to its group-pattern codes, so no token matrix is kept.
    """
    if n_mc < 1:
        raise ValidationError("the Monte-Carlo truth needs at least 1 draw")
    # its own stream: the bare seed's first draws are the data's
    rng = np.random.default_rng([seed, 1])
    members = _members(spec.group_partition)
    codes = np.empty(n_mc, dtype=np.int64)
    for rows, tokens in _token_chunks(spec, rng, n_mc):
        codes[rows] = group_codes(tokens, members)
    patterns, counts = np.unique(codes, return_counts=True)
    return code_indicators(patterns, len(members)), counts


def _fix_impact(
    spec: GeneratorSpec, draw: tuple[np.ndarray, np.ndarray], group_index: int
) -> MonteCarloImpact:
    """Relative reduction, with its delta-method SE, from fixing one group of a draw.

    The means of the per-draw poor probability with and without the group
    are count-weighted over the draw's patterns. The variance of the ratio
    is that of its per-draw influence ``e = R * d0 - d1`` over ``m0``, with
    ``R = m1 / m0`` and two-pass deviations ``d``: one sum of squares, which
    is exactly 0 when the fix moves no draw.
    """
    indicators, counts = draw
    n_mc = int(counts.sum())
    fixed = indicators.copy()
    fixed[:, group_index] = 0.0  # equals forcing the member tokens absent
    p_orig = expit(_linear_predictor(spec, indicators))
    p_fix = expit(_linear_predictor(spec, fixed))
    m0 = float(counts @ p_orig) / n_mc
    m1 = float(counts @ p_fix) / n_mc
    reduction = 1.0 - m1 / m0
    e = m1 / m0 * (p_orig - m0) - (p_fix - m1)
    var = float(counts @ (e * e)) / n_mc / n_mc / m0**2
    return MonteCarloImpact(reduction=reduction, mc_se=math.sqrt(var), n_mc=n_mc)


def default_world_spec(n: int = 20_000, seed: int = 0) -> GeneratorSpec:
    """Planted world over the default 15-token vocabulary, grouped 5/5/2/2/1.

    Each token loads dominantly on its group factor. The singleton
    reliability group would be invisible to a correlation-based factor count
    on its own (an isolated variable contributes an eigenvalue of exactly 1),
    so a few realistic weak cross-loadings below the grouping threshold tie
    it into the correlation structure.
    """
    rng = np.random.default_rng(seed)
    partition = DEFAULT_PARTITION
    p = len(partition)
    k = max(partition) + 1
    loadings = np.zeros((p, k))
    dominants = rng.uniform(0.65, 0.85, size=p)
    for j, g in enumerate(partition):
        loadings[j, g] = dominants[j]
    # cross-loadings: unreliable transport also surfaces as noise, freezes
    # and stopped video; interruptions relate to one-way audio
    loadings[4, 4] = 0.35  # audio.noise on reliability
    loadings[9, 4] = 0.35  # video.freeze on reliability
    loadings[6, 4] = 0.30  # video.stopped on reliability
    loadings[0, 3] = 0.25  # audio.interrupt on one-way audio
    loadings[7, 0] = 0.20  # video.av_sync leans on audio quality
    thresholds = rng.uniform(1.0, 1.5, size=p)
    return GeneratorSpec(
        loadings=loadings,
        thresholds=thresholds,
        group_partition=partition,
        glm_intercept=-3.0,
        glm_group_effects=(1.6, 1.4, 1.8, 2.2, 1.0),
        glm_interactions=((0, 1), (0, 3)),
        glm_interaction_effects=(-0.5, -0.4),
        n=n,
        seed=seed,
        duration=DurationModel(
            base_mean_s=300.0,
            group_penalties=(0.9, 0.95, 0.85, 0.7, 0.5),
            sigma=0.5,
        ),
    )
