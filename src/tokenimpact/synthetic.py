"""Latent-trait survey generator with planted ground truth.

Tokens are dichotomised from a linear factor model: a record draws a factor
vector and independent residuals, and token j fires when its latent trait
exceeds threshold j. The poor-call label is drawn from a logistic model on
the planted group indicators, so every estimator in the pipeline has an
exact oracle to recover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .special import expit
from .survey import (
    MAX_GROUPS,
    CallIds,
    SurveyDataset,
    TokenVocabulary,
    code_indicators,
    default_vocabulary,
    group_codes,
    group_patterns,
)

DEFAULT_PARTITION = (0,) * 5 + (1,) * 5 + (2,) * 2 + (3,) * 2 + (4,)

_REQUIRED = object()  # marks a GeneratorSpec.from_dict key without a default


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
        if self.base_mean_s <= 0:
            raise ValidationError("base_mean_s must be positive")
        if self.sigma < 0:
            raise ValidationError("sigma must be non-negative")
        if any(p <= 0 for p in self.group_penalties):
            raise ValidationError("group penalties must be positive multipliers")


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
        object.__setattr__(self, "loadings", loadings)
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "group_partition", tuple(self.group_partition))
        object.__setattr__(self, "glm_group_effects", tuple(self.glm_group_effects))
        object.__setattr__(
            self,
            "glm_interactions",
            tuple((int(a), int(b)) for a, b in self.glm_interactions),
        )
        object.__setattr__(
            self, "glm_interaction_effects", tuple(self.glm_interaction_effects)
        )
        object.__setattr__(self, "token_names", tuple(self.token_names))
        p = loadings.shape[0]
        if thresholds.shape != (p,):
            raise ValidationError("thresholds length must match token count")
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

    def to_dict(self) -> dict:
        return {
            "loadings": [[float(v) for v in row] for row in self.loadings],
            "thresholds": [float(v) for v in self.thresholds],
            "group_partition": list(self.group_partition),
            "glm_intercept": self.glm_intercept,
            "glm_group_effects": list(self.glm_group_effects),
            "glm_interactions": [list(p) for p in self.glm_interactions],
            "glm_interaction_effects": list(self.glm_interaction_effects),
            "n": self.n,
            "seed": self.seed,
            "duration": {
                "base_mean_s": self.duration.base_mean_s,
                "group_penalties": list(self.duration.group_penalties),
                "sigma": self.duration.sigma,
            },
            "token_names": list(self.token_names),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GeneratorSpec":
        """The spec of a ``to_dict`` mapping; a missing or malformed key is a
        ValidationError that names it."""

        def value(key, convert, source=data, default=_REQUIRED):
            if key not in source:
                if default is _REQUIRED:
                    raise ValidationError(f"spec key {key!r} is missing")
                return default
            try:
                return convert(source[key])
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"spec key {key!r} is malformed: {exc}") from None

        def floats(v):
            return tuple(float(x) for x in v)

        def pairs(v):
            return tuple((int(a), int(b)) for a, b in v)

        def mapping(v):
            if not isinstance(v, dict):
                raise TypeError("expected an object")
            return v

        dur = value("duration", mapping, default={})
        return cls(
            loadings=value("loadings", lambda v: np.asarray(v, dtype=np.float64)),
            thresholds=value("thresholds", lambda v: np.asarray(v, dtype=np.float64)),
            group_partition=value("group_partition", lambda v: tuple(int(g) for g in v)),
            glm_intercept=value("glm_intercept", float),
            glm_group_effects=value("glm_group_effects", floats),
            glm_interactions=value("glm_interactions", pairs, default=()),
            glm_interaction_effects=value("glm_interaction_effects", floats, default=()),
            n=value("n", int),
            seed=value("seed", int),
            duration=DurationModel(
                base_mean_s=value("base_mean_s", float, dur, 300.0),
                group_penalties=value("group_penalties", floats, dur, ()),
                sigma=value("sigma", float, dur, 0.5),
            ),
            token_names=value("token_names", tuple, default=()),
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

    def to_dict(self) -> dict:
        return {
            "rho": [[float(v) for v in row] for row in self.rho],
            "partition": list(self.partition),
            "n_factors": self.n_factors,
            "group_reductions": [
                {"reduction": g.reduction, "mc_se": g.mc_se, "n_mc": g.n_mc}
                for g in self.group_reductions
            ],
        }


# latent rows drawn, formed and thresholded at a time
_DRAW_ROWS = 16_384


def _linear_predictor(spec: GeneratorSpec, indicators: np.ndarray) -> np.ndarray:
    eta = spec.glm_intercept + indicators @ np.asarray(
        spec.glm_group_effects, dtype=np.float64
    )
    for (a, b), coef in zip(spec.glm_interactions, spec.glm_interaction_effects):
        eta = eta + coef * (indicators[:, a] * indicators[:, b])
    return eta


def _token_chunks(spec: GeneratorSpec, rng: np.random.Generator, n: int):
    """Tokens of ``n`` latent draws, as ``(rows, tokens)`` for each chunk of
    rows: the whole factor matrix is drawn first, then residuals chunk by
    chunk.

    ``standard_normal`` fills its output row by row from the stream, so the
    chunked residuals are the rows one ``(n, tokens)`` draw would give, and
    each chunk's latent rows are those of the one-shot product.
    """
    loadings = spec.loadings
    residual_scale = np.sqrt(1.0 - (loadings**2).sum(axis=1))
    factors = rng.standard_normal((n, spec.n_factors))
    start = 0
    while start < n:
        # a lone last row would take numpy's matrix-vector product, which
        # rounds its sums differently, so it joins the chunk before it
        stop = n if n - start <= _DRAW_ROWS + 1 else start + _DRAW_ROWS
        residuals = rng.standard_normal((stop - start, spec.n_tokens))
        residuals *= residual_scale
        latent = factors[start:stop] @ loadings.T
        latent += residuals
        yield slice(start, stop), latent > spec.thresholds
        start = stop


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


def _group_patterns(
    tokens: np.ndarray, partition: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """``group_patterns`` of the tokens grouped by a token -> group partition."""
    return group_patterns(tokens, _members(partition))


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


def generate(spec: GeneratorSpec, truth_mc_n: int = 200_000) -> tuple[SurveyDataset, GroundTruth]:
    """Draw one survey dataset plus its ground truth, deterministic per seed."""
    # one Monte-Carlo draw serves every group's counterfactual
    draw = _truth_draw(spec, truth_mc_n, spec.seed)
    reductions = tuple(_fix_impact(spec, draw, g) for g in range(spec.n_groups))
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    tokens = _draw_tokens(spec, rng, n)
    indicators, row_pattern = _group_patterns(tokens, spec.group_partition)
    poor = rng.random(n) < expit(_linear_predictor(spec, indicators))[row_pattern]
    has_token = tokens.any(axis=1)

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
    noise = np.exp(sigma * rng.standard_normal(n) - 0.5 * sigma * sigma)
    durations = spec.duration.base_mean_s * penalties[row_pattern] * noise

    ds = SurveyDataset(
        vocabulary=spec.vocabulary(),
        call_ids=_call_ids(0, n),
        ratings=ratings,
        durations=durations,
        ptq_submitted=has_token,
        token_matrix=tokens,
        provenance=(f"generate(seed={spec.seed}, n={n})",),
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
