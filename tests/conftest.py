import numpy as np
import pytest

from tokenimpact.factors import ProblemGroup, ProblemGrouping
from tokenimpact.survey import SurveyDataset, TokenVocabulary
from tokenimpact.synthetic import DurationModel, GeneratorSpec


def make_vocab(n_tokens: int) -> TokenVocabulary:
    return TokenVocabulary(names=tuple(f"tok{i}" for i in range(n_tokens)))


def make_dataset(rows, n_tokens: int = 2, vocabulary: TokenVocabulary | None = None):
    """Rows of (rating, duration, token_bits) or (rating, duration, token_bits, ptq)."""
    vocab = vocabulary or make_vocab(n_tokens)
    bits = [[bool(b) for b in row[2]] for row in rows]
    return SurveyDataset(
        vocabulary=vocab,
        call_ids=[f"c{i}" for i in range(len(rows))],
        ratings=[row[0] for row in rows],
        durations=[row[1] for row in rows],
        ptq_submitted=[row[3] if len(row) > 3 else any(b) for row, b in zip(rows, bits)],
        token_matrix=np.array(bits, dtype=bool).reshape(-1, len(vocab)),
    )


def grouping_from_partition(names, partition) -> ProblemGrouping:
    """Planted partition as a grouping (for building designs in tests)."""
    n_groups = max(partition) + 1
    groups = tuple(
        ProblemGroup(
            name=f"group_{g + 1}",
            members=tuple(n for n, p in zip(names, partition) if p == g),
            variance_explained=0.0,
        )
        for g in range(n_groups)
    )
    return ProblemGrouping(groups=groups, unassigned=(), threshold=0.5)


def block_world(
    n: int,
    seed: int,
    group_sizes=(3, 3),
    loading: float = 0.75,
    threshold: float = 0.8,
    intercept: float = -2.5,
    effects=(1.8, 1.2),
    interactions=(),
    interaction_effects=(),
) -> GeneratorSpec:
    """Simple planted world: one factor per group, uniform loadings."""
    partition = tuple(g for g, size in enumerate(group_sizes) for _ in range(size))
    p = len(partition)
    k = len(group_sizes)
    loadings = np.zeros((p, k))
    for j, g in enumerate(partition):
        loadings[j, g] = loading
    return GeneratorSpec(
        loadings=loadings,
        thresholds=np.full(p, threshold),
        group_partition=partition,
        glm_intercept=intercept,
        glm_group_effects=tuple(effects),
        glm_interactions=tuple(interactions),
        glm_interaction_effects=tuple(interaction_effects),
        n=n,
        seed=seed,
        duration=DurationModel(group_penalties=(0.8,) * k),
    )


@pytest.fixture
def timu_fixture():
    """10 calls, 4 poor; token A on 3 poor and 1 good; planted impact 0.3."""
    rows = [
        (1, 100.0, (1, 0)),
        (2, 120.0, (1, 0)),
        (1, 90.0, (1, 0)),
        (2, 80.0, (0, 0), True),  # poor, submitted an empty questionnaire
        (3, 200.0, (1, 0)),
        (4, 300.0, (0, 0)),
        (4, 250.0, (0, 0)),
        (5, 400.0, (0, 0)),
        (5, 350.0, (0, 0)),
        (3, 280.0, (0, 0)),
    ]
    return make_dataset(rows, n_tokens=2, vocabulary=TokenVocabulary(
        names=("audio.noise", "video.freeze")
    ))
