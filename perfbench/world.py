"""Seeded planted-world survey generator for the benchmark's analysis inputs.

The benchmark owns this generator so that the program under test receives
only a CSV: a later change to ``tokenimpact.synthetic`` cannot change what
the analysis workloads are timed on. The world's composition is fixed; only
the sample depends on the seed.

Fifteen problem tokens are dichotomised from a five-factor latent model and
fall into planted groups of 5, 5, 2, 2 and 1 tokens. Weak cross-loadings
below the grouping threshold tie the singleton group into the correlation
structure, so a correlation-based factor count can see it. The poor-call
label follows a logistic model on the group indicators with two negative
interactions.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

TOKENS = (
    "audio.interrupt", "audio.distorted", "audio.low_volume", "audio.echo",
    "audio.noise", "video.dark", "video.stopped", "video.av_sync",
    "video.poor_image", "video.freeze", "oneway.no_video_recv",
    "oneway.no_video_sent", "oneway.no_audio_recv", "oneway.no_audio_sent",
    "reliability.drop",
)
PARTITION = (0,) * 5 + (1,) * 5 + (2,) * 2 + (3,) * 2 + (4,)
DOMINANT = (
    0.78, 0.72, 0.70, 0.80, 0.74,
    0.76, 0.70, 0.72, 0.78, 0.74,
    0.80, 0.76,
    0.82, 0.78,
    0.80,
)
# (token, factor, loading): transport failures also surface as noise,
# freezes and stopped video; interruptions relate to one-way audio
CROSS_LOADINGS = ((4, 4, 0.35), (9, 4, 0.35), (6, 4, 0.30), (0, 3, 0.25), (7, 0, 0.20))
THRESHOLDS = (
    1.10, 1.30, 1.45, 1.20, 1.05,
    1.40, 1.25, 1.50, 1.15, 1.00,
    1.35, 1.45,
    1.30, 1.40,
    1.20,
)
INTERCEPT = -2.6
GROUP_EFFECTS = (1.5, 1.3, 1.7, 2.0, 1.1)
INTERACTIONS = (((0, 1), -0.5), ((0, 3), -0.4))
# share of rated-below-5 calls without a token that still submit the
# (empty) questionnaire
EMPTY_SUBMIT_RATE = 0.3
# keeps the sample streams apart from any stream that uses the bare seed
STREAM_TAG = 0x5EED


def loadings() -> np.ndarray:
    lam = np.zeros((len(TOKENS), max(PARTITION) + 1))
    lam[np.arange(len(TOKENS)), PARTITION] = DOMINANT
    for token, factor, value in CROSS_LOADINGS:
        lam[token, factor] = value
    return lam


def planted_prevalences() -> np.ndarray:
    """Token rates implied by the thresholds: each latent trait is N(0, 1)."""
    return np.array([0.5 * math.erfc(t / math.sqrt(2.0)) for t in THRESHOLDS])


def planted_groups() -> set[frozenset[str]]:
    groups: dict[int, set[str]] = {}
    for name, g in zip(TOKENS, PARTITION):
        groups.setdefault(g, set()).add(name)
    return {frozenset(members) for members in groups.values()}


def sample(n: int, seed: int) -> dict[str, np.ndarray]:
    """Draw ``n`` rated calls; the same seed gives the same columns."""
    rng = np.random.default_rng([STREAM_TAG, seed])
    lam = loadings()
    residual_scale = np.sqrt(1.0 - (lam**2).sum(axis=1))
    latent = rng.standard_normal((n, lam.shape[1])) @ lam.T
    latent += rng.standard_normal((n, len(TOKENS))) * residual_scale
    tokens = latent > np.asarray(THRESHOLDS)

    groups = np.zeros((n, lam.shape[1]))
    for j, g in enumerate(PARTITION):
        groups[:, g] = np.maximum(groups[:, g], tokens[:, j])
    eta = INTERCEPT + groups @ np.asarray(GROUP_EFFECTS)
    for (a, b), coef in INTERACTIONS:
        eta += coef * groups[:, a] * groups[:, b]
    poor = rng.random(n) < 1.0 / (1.0 + np.exp(-eta))

    has_token = tokens.any(axis=1)
    ratings = np.where(poor, rng.integers(1, 3, n), 0)
    ratings = np.where(~poor & has_token, rng.integers(3, 5, n), ratings)
    # a 5 means the questionnaire was never shown, so only token-free calls get it
    ratings = np.where(~poor & ~has_token, rng.integers(3, 6, n), ratings)
    ptq = has_token | ((ratings < 5) & (rng.random(n) < EMPTY_SUBMIT_RATE))
    durations = 300.0 * np.exp(0.5 * rng.standard_normal(n) - 0.125)
    durations *= np.where(groups[:, 3] > 0, 0.7, 1.0) * np.where(groups[:, 4] > 0, 0.5, 1.0)
    return {"ratings": ratings, "durations": durations, "ptq": ptq, "tokens": tokens}


def write_csv(columns: dict[str, np.ndarray], path: Path) -> None:
    """Write the program's survey schema with booleans as 0/1."""
    flags = np.column_stack([columns["ptq"], columns["tokens"]]).astype(np.uint8)
    width = 2 * flags.shape[1] - 1
    text = np.full((flags.shape[0], width), ord(","), dtype=np.uint8)
    text[:, 0::2] = flags + ord("0")
    flag_text = text.view(f"S{width}").ravel()
    header = ["call_id", "rating", "duration_s", "ptq_submitted"]
    header += [f"token_{name}" for name in TOKENS]
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(
            f"c{i:07d},{r},{d:.2f},{f.decode()}\n"
            for i, (r, d, f) in enumerate(
                zip(columns["ratings"].tolist(), columns["durations"].tolist(), flag_text)
            )
        )
    tmp.replace(path)
