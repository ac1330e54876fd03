import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit, ndtr

from tokenimpact.errors import ValidationError
from tokenimpact.survey import write_csv
from tokenimpact.synthetic import (
    _DRAW_ROWS,
    DEFAULT_PARTITION,
    DurationModel,
    GeneratorSpec,
    _call_ids,
    _draw_tokens,
    _group_patterns,
    _truth_draw,
    default_world_spec,
    generate,
    ground_truth_impact,
)

import synthetic_reference
from conftest import block_world


class TestSpecValidation:
    def test_communality_cap(self):
        with pytest.raises(ValidationError, match="at most 1"):
            GeneratorSpec(
                loadings=np.array([[0.9, 0.6]]),
                thresholds=np.zeros(1),
                group_partition=(0,),
                glm_intercept=-1.0,
                glm_group_effects=(1.0,),
                n=10,
                seed=0,
            )

    def test_partition_must_be_contiguous(self):
        with pytest.raises(ValidationError, match="contiguous"):
            GeneratorSpec(
                loadings=np.array([[0.5], [0.5]]),
                thresholds=np.zeros(2),
                group_partition=(0, 2),
                glm_intercept=-1.0,
                glm_group_effects=(1.0, 1.0, 1.0),
                n=10,
                seed=0,
            )

    def test_effect_length_must_match_groups(self):
        with pytest.raises(ValidationError, match="one GLM effect per group"):
            block_world(n=10, seed=0, group_sizes=(2, 2), effects=(1.0,))

    def test_at_most_64_groups(self):
        with pytest.raises(ValidationError, match="at most 64 groups"):
            block_world(n=10, seed=0, group_sizes=(1,) * 65, effects=(1.0,) * 65)

    def test_duration_penalties(self):
        with pytest.raises(ValidationError):
            DurationModel(base_mean_s=0.0)
        with pytest.raises(ValidationError):
            DurationModel(group_penalties=(0.0,))

    def test_json_round_trip(self):
        spec = default_world_spec(n=100, seed=3)
        data = json.loads(json.dumps(spec.to_dict()))
        again = GeneratorSpec.from_dict(data)
        assert np.array_equal(again.loadings, spec.loadings)
        assert np.array_equal(again.thresholds, spec.thresholds)
        assert again.group_partition == spec.group_partition
        assert again.glm_interactions == spec.glm_interactions
        assert again.duration == spec.duration


class TestGenerate:
    def test_same_seed_is_byte_identical(self, tmp_path):
        spec = block_world(n=500, seed=11)
        ds1, _ = generate(spec, truth_mc_n=1000)
        ds2, _ = generate(spec, truth_mc_n=1000)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(ds1, a)
        write_csv(ds2, b)
        assert a.read_bytes() == b.read_bytes()

    def test_prevalence_matches_thresholds(self):
        spec = block_world(n=50000, seed=5, group_sizes=(3,), threshold=1.0, effects=(1.0,))
        ds, _ = generate(spec, truth_mc_n=1000)
        target = float(ndtr(-1.0))
        se = math.sqrt(target * (1 - target) / spec.n)
        prev = ds.token_matrix.mean(axis=0)
        assert np.all(np.abs(prev - target) < 3 * se + 1e-9)

    def test_zero_loadings_give_independent_tokens(self):
        spec = GeneratorSpec(
            loadings=np.zeros((3, 1)),
            thresholds=np.zeros(3),
            group_partition=(0, 0, 0),
            glm_intercept=-2.0,
            glm_group_effects=(1.0,),
            n=50000,
            seed=2,
        )
        ds, truth = generate(spec, truth_mc_n=1000)
        x = ds.token_matrix.astype(float)
        corr = np.corrcoef(x, rowvar=False)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.abs(off).max() < 0.02
        assert np.array_equal(truth.rho, np.eye(3))

    def test_extreme_threshold_never_fires(self):
        spec = GeneratorSpec(
            loadings=np.array([[0.5], [0.5]]),
            thresholds=np.array([8.0, 0.0]),
            group_partition=(0, 0),
            glm_intercept=-2.0,
            glm_group_effects=(1.0,),
            n=5000,
            seed=0,
        )
        ds, _ = generate(spec, truth_mc_n=1000)
        assert ds.token_matrix[:, 0].sum() == 0

    def test_pairwise_hit_rate_matches_orthant_probability(self):
        spec = GeneratorSpec(
            loadings=np.array([[0.8], [0.8]]),
            thresholds=np.zeros(2),
            group_partition=(0, 0),
            glm_intercept=-2.0,
            glm_group_effects=(1.0,),
            n=50000,
            seed=8,
        )
        ds, _ = generate(spec, truth_mc_n=1000)
        both = (ds.token_matrix[:, 0] & ds.token_matrix[:, 1]).mean()
        expected = 0.25 + math.asin(0.64) / (2 * math.pi)
        assert both == pytest.approx(expected, abs=0.01)

    def test_token_draw_equals_one_line_expression(self):
        class Capture:
            """Thresholds that keep every latent block they are compared with."""

            __array_ufunc__ = None  # `latent > capture` calls capture.__lt__

            def __init__(self):
                self.blocks = []

            def __lt__(self, latent):
                self.blocks.append(latent.copy())
                return latent > spec.thresholds

        spec = default_world_spec(n=10, seed=4)
        scale = np.sqrt(1.0 - (spec.loadings**2).sum(axis=1))
        for n in (_DRAW_ROWS - 1, _DRAW_ROWS, _DRAW_ROWS + 1, 20_000):
            capture = Capture()
            view = SimpleNamespace(
                loadings=spec.loadings, n_factors=spec.n_factors,
                n_tokens=spec.n_tokens, thresholds=capture,
            )
            tokens = _draw_tokens(view, np.random.default_rng(9), n)
            rng = np.random.default_rng(9)
            factors = rng.standard_normal((n, spec.n_factors))
            residuals = rng.standard_normal((n, spec.n_tokens))
            latent = factors @ spec.loadings.T + residuals * scale
            # a lone last row joins the chunk before it
            assert len(capture.blocks) == (2 if n == 20_000 else 1)
            assert np.concatenate(capture.blocks).tobytes() == latent.tobytes()
            assert np.array_equal(tokens, latent > spec.thresholds)

    @pytest.mark.parametrize("groups", [3, 18])
    def test_group_patterns_index_each_rows_indicators(self, groups):
        rng = np.random.default_rng(groups)
        partition = tuple(rng.permutation(np.arange(2 * groups) % groups).tolist())
        tokens = rng.random((500, 2 * groups)) < 0.2
        indicators, row_pattern = _group_patterns(tokens, partition)
        want = synthetic_reference.group_matrix(tokens, partition)
        assert np.array_equal(indicators[row_pattern], want)

    @pytest.mark.parametrize("i", [0, 9_999_999, 10_000_000, 123_456_789])
    def test_call_ids_match_the_format(self, i):
        assert _call_ids(i, i + 1).tolist() == [f"c{i:07d}"]
        assert _call_ids(max(i - 2, 0), i + 3).tolist() == [
            f"c{k:07d}" for k in range(max(i - 2, 0), i + 3)
        ]

    def test_records_respect_survey_invariants(self):
        ds, _ = generate(default_world_spec(n=3000, seed=1), truth_mc_n=1000)
        rows = zip(ds.ratings.tolist(), ds.ptq_submitted.tolist(), ds.token_matrix.tolist())
        for rating, ptq, tokens in rows:
            if rating == 5:
                assert not any(tokens) and not ptq
            if any(tokens):
                assert ptq

    def test_duration_penalties_shift_means(self):
        spec = block_world(n=40000, seed=6, group_sizes=(2,), effects=(1.0,))
        ds, _ = generate(spec, truth_mc_n=1000)
        active = ds.any_token_mask
        clean_mean = ds.durations[~active].mean()
        hit_mean = ds.durations[active].mean()
        assert clean_mean == pytest.approx(300.0, rel=0.05)
        assert hit_mean == pytest.approx(240.0, rel=0.05)  # 0.8 penalty

    def test_default_world_shape(self):
        spec = default_world_spec(n=50, seed=0)
        assert spec.group_partition == DEFAULT_PARTITION
        assert spec.n_tokens == 15 and spec.n_factors == 5
        assert spec.vocabulary().names[4] == "audio.noise"
        communality = (spec.loadings**2).sum(axis=1)
        assert (communality <= 1.0).all()


class TestGroundTruth:
    def test_zero_effect_group_has_no_impact(self):
        spec = block_world(
            n=100, seed=1, group_sizes=(2, 2), effects=(1.5, 0.0)
        )
        impact = ground_truth_impact(spec, 1, n_mc=50000, seed=3)
        assert abs(impact.reduction) <= 3 * impact.mc_se + 1e-12

    def test_single_group_closed_form(self):
        spec = block_world(
            n=100, seed=1, group_sizes=(3,), loading=0.7, threshold=0.8,
            intercept=-3.0, effects=(2.0,),
        )
        # P(group) from the MC world itself would be circular; use a huge
        # independent draw for the mixture weight instead
        rng = np.random.default_rng(99)
        f = rng.standard_normal((400000, 1))
        e = rng.standard_normal((400000, 3))
        z = f @ spec.loadings.T + e * np.sqrt(1 - (spec.loadings**2).sum(axis=1))
        p_g = float((z > 0.8).any(axis=1).mean())
        pcr = (1 - p_g) * expit(-3.0) + p_g * expit(-1.0)
        expected = 1.0 - expit(-3.0) / pcr
        impact = ground_truth_impact(spec, 0, n_mc=200000, seed=5)
        assert impact.reduction == pytest.approx(expected, abs=0.005)

    def test_interaction_world_is_non_additive(self):
        spec = block_world(
            n=100, seed=1, group_sizes=(2, 2), intercept=-2.5,
            effects=(1.8, 1.2), interactions=((0, 1),), interaction_effects=(-0.8,),
        )
        both = _fix_both_reduction(spec, n_mc=200000, seed=7)
        r0 = ground_truth_impact(spec, 0, n_mc=200000, seed=7).reduction
        r1 = ground_truth_impact(spec, 1, n_mc=200000, seed=7).reduction
        assert abs(both - (r0 + r1)) > 0.02

    def test_group_index_validated(self):
        spec = block_world(n=10, seed=0)
        with pytest.raises(ValidationError):
            ground_truth_impact(spec, 5, n_mc=100, seed=0)

    @pytest.mark.parametrize("n_mc", [0, -5])
    def test_truth_needs_a_draw(self, n_mc):
        spec = block_world(n=10, seed=0)
        with pytest.raises(ValidationError, match="at least 1 draw"):
            generate(spec, truth_mc_n=n_mc)
        with pytest.raises(ValidationError, match="at least 1 draw"):
            ground_truth_impact(spec, 0, n_mc=n_mc, seed=0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        sizes=st.lists(st.integers(1, 3), min_size=1, max_size=4),
        # a zero or tiny effect barely moves p, where a cancelling SE formula
        # would be rounding noise
        effects=st.lists(
            st.one_of(st.floats(-2.0, 2.5), st.sampled_from([0.0, 1e-5, -1e-5])),
            min_size=4, max_size=4,
        ),
        interaction=st.one_of(st.none(), st.floats(-1.5, 1.5)),
        n_mc=st.one_of(
            st.integers(1, 400), st.integers(_DRAW_ROWS - 2, _DRAW_ROWS + 2)
        ),
        seed=st.integers(0, 2**16),
    )
    @example(sizes=[2, 3], effects=[1.5, 0.8, 1, 1], interaction=None,
             n_mc=_DRAW_ROWS - 1, seed=3)
    @example(sizes=[3, 1, 2], effects=[1.5, 0.8, 2.0, 1], interaction=-0.6,
             n_mc=_DRAW_ROWS + 2, seed=4)
    def test_pattern_counts_match_row_level_reference(
        self, sizes, effects, interaction, n_mc, seed
    ):
        pairs = ((0, len(sizes) - 1),) if interaction is not None and len(sizes) > 1 else ()
        spec = block_world(
            n=10, seed=seed, group_sizes=tuple(sizes), threshold=0.6,
            effects=effects[: len(sizes)], interactions=pairs,
            interaction_effects=(interaction,) * len(pairs),
        )
        indicators, p_orig = synthetic_reference.truth_draw(spec, n_mc, seed)
        for g in range(len(sizes)):
            want = synthetic_reference.fix_impact(spec, indicators, p_orig, g)
            got = ground_truth_impact(spec, g, n_mc=n_mc, seed=seed)
            assert got.n_mc == want.n_mc == n_mc
            assert abs(got.reduction - want.reduction) <= 1e-12
            # a draw of one pattern has a variance of 0 up to the rounding
            # of its mean, about 1e-17 here
            assert got.mc_se == pytest.approx(want.mc_se, rel=1e-10, abs=1e-15)

    def test_generate_attaches_reductions(self):
        spec = block_world(n=200, seed=4)
        _, truth = generate(spec, truth_mc_n=5000)
        assert len(truth.group_reductions) == 2
        assert truth.n_factors == 2
        assert all(g.n_mc == 5000 for g in truth.group_reductions)

    @pytest.mark.parametrize("n_mc", [1, _DRAW_ROWS + 1, 2 * _DRAW_ROWS + 5])
    def test_truth_draw_equals_patterns_of_the_token_matrix(self, n_mc):
        spec = default_world_spec(n=10, seed=9)
        indicators, counts = _truth_draw(spec, n_mc, seed=4)
        tokens = _draw_tokens(spec, np.random.default_rng([4, 1]), n_mc)
        want, row_pattern = _group_patterns(tokens, spec.group_partition)
        assert indicators.tobytes() == want.tobytes()
        assert counts.tolist() == np.bincount(row_pattern).tolist()

    def test_shared_truth_draw_equals_single_group_function(self):
        spec = default_world_spec(n=100, seed=9)
        _, truth = generate(spec, truth_mc_n=20000)
        assert truth.group_reductions == tuple(
            ground_truth_impact(spec, g, n_mc=20000, seed=spec.seed)
            for g in range(spec.n_groups)
        )


def _fix_both_reduction(spec, n_mc, seed):
    """Joint-fix reduction via the same latent draw as ground_truth_impact."""
    indicators, p0 = synthetic_reference.truth_draw(spec, n_mc, seed)
    p1 = expit(synthetic_reference.linear_predictor(spec, np.zeros_like(indicators)))
    return 1.0 - p1.mean() / p0.mean()
