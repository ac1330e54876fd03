from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, logit

import glm_reference as reference
from tokenimpact.errors import GlmError
from tokenimpact.glm import (
    DesignSpec,
    LogisticModel,
    _assemble,
    _irls,
    auc_score,
    build_design,
    cumulative_impact,
    evaluate,
    fit_logistic,
    group_fix_impact,
    impact_report,
    roc_curve,
    select_interactions_aic,
)
from tokenimpact.synthetic import generate

from conftest import block_world, encoded, grouping_from_partition, make_dataset


def auc_oracle(scores, labels):
    """All-pairs concordance with half credit for ties."""
    scores = np.asarray(scores, float)
    labels = np.asarray(labels, bool)
    pos = scores[labels]
    neg = scores[~labels]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def make_design(indicators, y, pairs=()):
    """Design of records whose group j is token j; poor records are rated 1."""
    indicators = np.asarray(indicators, dtype=bool)
    rows = [(1 if poor else 4, 60.0, tuple(bits)) for bits, poor in zip(indicators, y)]
    ds = make_dataset(rows, n_tokens=indicators.shape[1])
    grouping = grouping_from_partition(ds.vocabulary.names, range(indicators.shape[1]))
    return build_design(ds, DesignSpec(grouping=grouping, interactions=tuple(pairs)))


def make_model(coefficients, terms=None):
    coefficients = np.asarray(coefficients, dtype=np.float64)
    return LogisticModel(
        terms=tuple(terms or (f"x{j}" for j in range(coefficients.size))),
        coefficients=coefficients,
        covariance=np.zeros((coefficients.size, coefficients.size)),
        ridge=0.0,
        converged=True,
        iterations=1,
        loglik=0.0,
    )


class TestBuildDesign:
    def _dataset(self):
        rows = [
            (1, 1.0, (1, 0, 1, 0)),
            (2, 1.0, (0, 1, 0, 0)),
            (4, 1.0, (0, 0, 0, 1)),
            (4, 1.0, (0, 0, 0, 0)),
        ]
        return make_dataset(rows, n_tokens=4)

    def test_indicator_and_interaction_columns(self):
        ds = self._dataset()
        grouping = grouping_from_partition(ds.vocabulary.names, (0, 0, 1, 1))
        design = build_design(ds, DesignSpec(grouping=grouping, interactions=((0, 1),)))
        assert design.columns == ("intercept", "group_1", "group_2", "group_1:group_2")
        # four records, four distinct patterns in ascending code order
        # (bit g is group g + 1), each seen once
        np.testing.assert_array_equal(
            design.matrix,
            [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]],
        )
        np.testing.assert_array_equal(design.trials, [1, 1, 1, 1])
        np.testing.assert_array_equal(design.successes, [0, 1, 0, 1])

    def test_baseline_counts_any_token_against_poor(self):
        ds = self._dataset()
        # token 4 is in no group, and its record still counts as flagged
        grouping = grouping_from_partition(ds.vocabulary.names[:3], (0, 0, 1))
        design = build_design(ds, DesignSpec(grouping=grouping))
        # rows: no token / any token; columns: good / poor
        np.testing.assert_array_equal(design.baseline, [[1, 0], [1, 2]])
        assert design.n_records == 4

    def test_column_means_equal_prevalences(self):
        ds = self._dataset()
        grouping = grouping_from_partition(ds.vocabulary.names, (0, 0, 1, 1))
        design = build_design(ds, DesignSpec(grouping=grouping))
        g1 = ds.token_matrix[:, :2].any(axis=1).mean()
        g2 = ds.token_matrix[:, 2:].any(axis=1).mean()
        assert design.trials @ design.matrix[:, 1] / design.n_records == g1
        assert design.trials @ design.matrix[:, 2] / design.n_records == g2

    def test_empty_group_rejected(self):
        ds = self._dataset()
        grouping = grouping_from_partition(ds.vocabulary.names, (0, 0, 1, 1))
        empty = grouping.groups[0].__class__(name="group_3", members=(), variance_explained=0.0)
        bad = grouping.__class__(
            groups=grouping.groups + (empty,), unassigned=(), threshold=0.5
        )
        with pytest.raises(GlmError, match="empty"):
            build_design(ds, DesignSpec(grouping=bad))

    def test_group_count_limit(self):
        # 64 groups fill every bit of the int64 pattern code, the sign included
        rows = [(1, 1.0, [j == 63 for j in range(65)]), (4, 1.0, [j == 0 for j in range(65)])]
        ds = make_dataset(rows, n_tokens=65)
        names = ds.vocabulary.names
        design = build_design(ds, DesignSpec(grouping_from_partition(names[:64], range(64))))
        # bit 63 is the sign bit, so the token-63 pattern sorts first
        indicators = design.group_indicators
        np.testing.assert_array_equal(indicators[:, [0, 63]], [[0, 1], [1, 0]])
        assert indicators.sum() == 2
        np.testing.assert_array_equal(design.trials, [1, 1])
        with pytest.raises(GlmError, match="at most 64"):
            build_design(ds, DesignSpec(grouping_from_partition(names, range(65))))

    def test_interaction_validation(self):
        ds = self._dataset()
        grouping = grouping_from_partition(ds.vocabulary.names, (0, 0, 1, 1))
        with pytest.raises(GlmError):
            DesignSpec(grouping=grouping, interactions=((0, 0),))
        with pytest.raises(GlmError):
            DesignSpec(grouping=grouping, interactions=((0, 5),))
        with pytest.raises(GlmError):
            DesignSpec(grouping=grouping, interactions=((0, 1), (1, 0)))


class TestFitLogistic:
    def test_intercept_only_closed_form(self):
        x = np.ones((400, 1))
        y = np.r_[np.ones(100), np.zeros(300)]
        model = fit_logistic(x, y)
        assert model.converged
        assert model.coefficients[0] == pytest.approx(logit(0.25), abs=1e-6)

    def test_perfect_separation_stays_finite(self):
        x = np.column_stack([np.ones(40), np.r_[np.zeros(20), np.ones(20)]])
        y = np.r_[np.zeros(20), np.ones(20)]
        model = fit_logistic(x, y, max_iter=500)
        assert np.isfinite(model.coefficients).all()
        assert model.converged

    def test_coefficient_recovery_on_planted_world(self):
        spec = block_world(
            n=60000, seed=21, group_sizes=(3,), intercept=-3.0, effects=(2.0,)
        )
        ds, _ = generate(spec, truth_mc_n=100)
        grouping = grouping_from_partition(ds.vocabulary.names, spec.group_partition)
        design = build_design(ds, DesignSpec(grouping=grouping))
        model = fit_logistic(design)
        assert model.coefficients[0] == pytest.approx(-3.0, abs=0.1)
        assert model.coefficients[1] == pytest.approx(2.0, abs=0.1)

    def test_mean_prediction_matches_prevalence(self):
        spec = block_world(n=5000, seed=3, group_sizes=(2, 2), effects=(1.5, 1.0))
        ds, _ = generate(spec, truth_mc_n=100)
        grouping = grouping_from_partition(ds.vocabulary.names, spec.group_partition)
        design = build_design(ds, DesignSpec(grouping=grouping))
        model = fit_logistic(design)
        mean = design.trials @ model.predict_proba(design.matrix) / design.n_records
        assert mean == pytest.approx(ds.pcr(), abs=1e-4)
        assert ((model.predict_proba(design.matrix) > 0) &
                (model.predict_proba(design.matrix) < 1)).all()

    def test_single_class_rejected(self):
        x = np.ones((10, 1))
        with pytest.raises(GlmError, match="both classes"):
            fit_logistic(x, np.zeros(10))

    def test_raw_matrix_needs_response(self):
        with pytest.raises(GlmError):
            fit_logistic(np.ones((5, 1)))


class TestEvaluation:
    def test_constant_scores_give_half(self):
        assert auc_score([0.5] * 6, [1, 0, 1, 0, 1, 0]) == 0.5

    def test_perfect_ordering_gives_one(self):
        assert auc_score([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_six_point_example(self):
        scores = [0.1, 0.4, 0.35, 0.8, 0.35, 0.7]
        labels = [0, 1, 0, 1, 1, 0]
        assert auc_score(scores, labels) == pytest.approx(auc_oracle(scores, labels))

    def test_brute_force_random_with_ties(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(5, 200))
            scores = rng.integers(0, 6, size=n) / 5.0
            labels = rng.random(n) < 0.4
            if labels.all() or not labels.any():
                continue
            assert auc_score(scores, labels) == pytest.approx(
                auc_oracle(scores, labels), abs=1e-12
            )

    def test_single_class_rejected(self):
        with pytest.raises(GlmError):
            auc_score([0.1, 0.2], [1, 1])

    def test_roc_interpolation(self):
        scores = [0.9, 0.8, 0.7, 0.6, 0.3, 0.2]
        labels = [1, 1, 0, 1, 0, 0]
        roc = roc_curve(scores, labels)
        assert roc.tpr_at_fpr(0.0) == pytest.approx(2 / 3)
        assert roc.tpr_at_fpr(1.0) == 1.0
        assert (np.diff(roc.fpr) >= 0).all() and (np.diff(roc.tpr) >= 0).all()

    def test_evaluate_uses_model_scores(self):
        x = np.column_stack([np.ones(6), [0, 0, 0, 1, 1, 1]])
        y = np.array([0, 0, 1, 1, 1, 1.0])
        model = fit_logistic(x, y)
        result = evaluate(model, x, y)
        assert result.auc == pytest.approx(auc_oracle(model.predict_proba(x), y))


class TestCounterfactuals:
    def test_unreported_group_has_zero_impact(self):
        indicators = np.zeros((10, 1))
        y = np.r_[np.ones(3), np.zeros(7)]
        design = make_design(indicators, y)
        model = make_model([-1.0, 2.0])
        (impact,) = group_fix_impact(model, design, n_boot=50, seed=0)
        assert impact.reduction == 0.0
        assert impact.ci_lo == impact.ci_hi == 0.0

    def test_hand_computed_reduction(self):
        # 4 of 10 records carry the group; steep positive effect
        indicators = np.r_[np.ones(4), np.zeros(6)][:, None]
        y = np.r_[np.ones(4), np.zeros(6)]
        design = make_design(indicators, y)
        model = make_model([-2.0, 3.0])
        p_orig = (4 * expit(1.0) + 6 * expit(-2.0)) / 10
        expected = 1.0 - expit(-2.0) / p_orig
        (impact,) = group_fix_impact(model, design, n_boot=100, seed=1)
        assert impact.reduction == pytest.approx(expected, abs=1e-12)
        assert impact.ci_lo <= impact.reduction <= impact.ci_hi

    def test_bootstrap_is_deterministic(self):
        rng = np.random.default_rng(2)
        indicators = (rng.random((200, 2)) < 0.3).astype(float)
        y = rng.random(200) < 0.3
        design = make_design(indicators, y)
        model = make_model([-1.5, 1.0, 0.5])
        a = group_fix_impact(model, design, n_boot=80, seed=9)
        assert group_fix_impact(model, design, n_boot=80, seed=9) == a

    def test_groups_share_their_replicates(self):
        # two groups on the same records with equal effects: fixing either
        # moves every replicate alike, so only a shared draw gives equal CIs
        rng = np.random.default_rng(2)
        on = rng.random((200, 1)) < 0.3
        design = make_design(np.c_[on, on], rng.random(200) < 0.3)
        model = make_model([-1.5, 0.8, 0.8])
        first, second = group_fix_impact(model, design, n_boot=50, seed=9)
        assert first.ci_lo < first.ci_hi
        assert (first.reduction, first.ci_lo, first.ci_hi) == (
            second.reduction, second.ci_lo, second.ci_hi,
        )

    def test_bootstrap_stream_is_apart_from_the_bare_seed(self, monkeypatch):
        # the restriction and balance_resample draw from default_rng(seed)
        rng = np.random.default_rng(2)
        design = make_design((rng.random((200, 3)) < 0.3).astype(float), rng.random(200) < 0.3)
        model = make_model([-1.5, 1.0, 0.5, 0.2])
        real = np.random.default_rng
        seeds = []

        def spy(seed):
            seeds.append(seed)
            return real(seed)

        monkeypatch.setattr(np.random, "default_rng", spy)
        group_fix_impact(model, design, n_boot=10, seed=9)
        monkeypatch.undo()
        firsts = {real(seed).random() for seed in seeds + [9]}
        assert len(seeds) == 1 and len(firsts) == 2

    def test_positive_effect_fix_never_increases_pcr(self):
        rng = np.random.default_rng(3)
        indicators = (rng.random((500, 3)) < 0.25).astype(float)
        y = rng.random(500) < 0.3
        design = make_design(indicators, y, pairs=((0, 1),))
        model = make_model([-2.0, 1.5, 1.0, 0.8, 0.3])
        p_orig = model.predict_proba(design.matrix)
        for g in range(3):
            p_fix = model.predict_proba(design.fixed_matrix([g]))
            assert (p_fix <= p_orig + 1e-12).all()

    def test_single_group_cumulative_equals_individual(self):
        indicators = np.r_[np.ones(4), np.zeros(6)][:, None]
        design = make_design(indicators, np.r_[np.ones(4), np.zeros(6)])
        model = make_model([-2.0, 3.0])
        (single,) = group_fix_impact(model, design, n_boot=10, seed=0)
        cumulative = cumulative_impact(model, design)
        assert cumulative == ((0, pytest.approx(single.reduction)),)

    def test_all_fixed_matches_intercept_only_prediction(self):
        rng = np.random.default_rng(4)
        indicators = (rng.random((300, 2)) < 0.4).astype(float)
        y = rng.random(300) < 0.4
        design = make_design(indicators, y, pairs=((0, 1),))
        model = make_model([-1.2, 0.9, 0.7, -0.5])
        cumulative = cumulative_impact(model, design)
        p_orig = design.trials @ model.predict_proba(design.matrix) / design.n_records
        expected_final = 1.0 - expit(-1.2) / p_orig
        assert cumulative[-1][1] == pytest.approx(expected_final, abs=1e-12)

    def test_cumulative_order_is_monotone_for_positive_effects(self):
        rng = np.random.default_rng(5)
        indicators = (rng.random((400, 3)) < 0.3).astype(float)
        y = rng.random(400) < 0.3
        design = make_design(indicators, y)
        model = make_model([-2.0, 1.0, 0.6, 1.4])
        values = [r for _, r in cumulative_impact(model, design)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_non_additivity_with_interaction(self):
        indicators = np.array(
            [[1, 1], [1, 0], [0, 1], [0, 0]] * 25, dtype=float
        )
        y = np.tile([1, 1, 0, 0], 25).astype(float)
        design = make_design(indicators, y, pairs=((0, 1),))
        model = make_model([-2.0, 1.5, 1.2, -0.9])
        singles = [i.reduction for i in group_fix_impact(model, design, n_boot=10, seed=0)]
        final = cumulative_impact(model, design, order=(0, 1))[-1][1]
        assert abs(final - sum(singles)) > 0.01

    def test_order_validation(self):
        indicators = np.ones((4, 2))
        design = make_design(indicators, [1, 0, 1, 0])
        model = make_model([0.0, 0.1, 0.2])
        with pytest.raises(GlmError):
            cumulative_impact(model, design, order=(0,))


class TestImpactReport:
    def test_report_shape_and_baseline(self):
        spec = block_world(n=8000, seed=6, group_sizes=(2, 2), effects=(1.8, 1.2))
        ds, _ = generate(spec, truth_mc_n=100)
        grouping = grouping_from_partition(ds.vocabulary.names, spec.group_partition)
        design = build_design(ds, DesignSpec(grouping=grouping))
        model = fit_logistic(design)
        report = impact_report(model, design, n_boot=50, seed=5)
        assert report.groups == ("group_1", "group_2")
        assert len(report.cumulative) == 2
        assert report.cumulative[-1] <= 1.0
        assert all(0.0 <= g.reduction <= 1.0 for g in report.individual)
        assert report.auc > report.baseline_auc
        assert report.baseline_pcr == pytest.approx(ds.pcr())
        fpr, tpr = report.tpr_at_fpr
        assert 0.0 <= fpr <= 1.0 and 0.0 <= tpr <= 1.0

    def test_baseline_counts_tokens_outside_every_group(self):
        spec = block_world(n=8000, seed=6, group_sizes=(2, 2, 1), effects=(1.8, 1.2, 1.0))
        ds, _ = generate(spec, truth_mc_n=100)
        names = ds.vocabulary.names
        planted = grouping_from_partition(names, spec.group_partition)
        grouping = replace(planted, groups=planted.groups[:2], unassigned=names[4:])
        design = build_design(ds, DesignSpec(grouping=grouping))
        report = impact_report(fit_logistic(design), design, n_boot=20, seed=5)
        any_token, poor = ds.any_token_mask, ds.poor_mask
        any_group = ds.token_matrix[:, :4].any(axis=1)
        # the unassigned token is the only one on some records
        assert (any_token & ~any_group).any()
        assert report.baseline_auc == pytest.approx(reference.auc(any_token, poor), abs=1e-12)
        assert report.baseline_auc != pytest.approx(reference.auc(any_group, poor), abs=1e-3)
        assert report.tpr_at_fpr[0] == any_token[~poor].mean()
        assert report.baseline_pcr == ds.pcr()

    def test_separated_group_flagged(self):
        # group_1 is reported only on poor calls, group_3 only on good ones;
        # group_4 is never reported, which is no evidence of separation
        indicators = np.array(
            [[1, 0, 0, 0]] * 6 + [[0, 1, 0, 0]] * 8 + [[0, 0, 1, 0]] * 5 + [[0, 0, 0, 0]] * 11
        )
        y = np.r_[np.ones(6), np.ones(3), np.zeros(5), np.zeros(5), np.ones(2), np.zeros(9)]
        design = make_design(indicators, y)
        model = make_model([-1.0, 2.0, 0.5, -0.5, 0.0])
        report = impact_report(model, design, n_boot=20, seed=0)
        assert report.separated_groups == ("group_1", "group_3")
        assert encoded(report)["separated_groups"] == ["group_1", "group_3"]

    def test_no_group_flagged_on_planted_world(self):
        spec = block_world(n=8000, seed=6, group_sizes=(2, 2), effects=(1.8, 1.2))
        ds, _ = generate(spec, truth_mc_n=100)
        grouping = grouping_from_partition(ds.vocabulary.names, spec.group_partition)
        design = build_design(ds, DesignSpec(grouping=grouping))
        report = impact_report(fit_logistic(design), design, n_boot=20, seed=5)
        assert report.separated_groups == ()

    def test_aic_selection_finds_planted_interaction(self):
        spec = block_world(
            n=40000, seed=8, group_sizes=(2, 2), intercept=-2.5,
            effects=(1.8, 1.4), interactions=((0, 1),), interaction_effects=(-1.2,),
        )
        ds, _ = generate(spec, truth_mc_n=100)
        grouping = grouping_from_partition(ds.vocabulary.names, spec.group_partition)
        chosen = select_interactions_aic(build_design(ds, DesignSpec(grouping=grouping)))
        assert (0, 1) in chosen

    def test_aic_selection_matches_a_loop_of_single_fits(self):
        spec = block_world(
            n=20000, seed=8, group_sizes=(2, 2, 2, 2), effects=(1.8, 1.4, 1.0, 0.6),
            interactions=((0, 1), (2, 3)), interaction_effects=(-1.2, 0.8),
        )
        ds, _ = generate(spec, truth_mc_n=100)
        grouping = grouping_from_partition(ds.vocabulary.names, spec.group_partition)
        base = build_design(ds, DesignSpec(grouping=grouping))

        def aic(pairs):
            x = _assemble(base.group_indicators, pairs)
            return 2.0 * x.shape[1] - 2.0 * reference.fit(x, base.successes, base.trials).loglik

        chosen, candidates = [], list(combinations(range(4), 2))
        best = aic(chosen)
        while candidates:
            value, pair = min((aic(chosen + [c]), c) for c in candidates)
            if value >= best:
                break
            best = value
            chosen.append(pair)
            candidates.remove(pair)
        assert len(chosen) >= 2
        assert select_interactions_aic(base) == tuple(chosen)


class TestStackedFit:
    """One stacked IRLS against a loop of single fits over its members."""

    @staticmethod
    def _round():
        # every pattern of three groups; with these counts the (0, 2) member
        # halves its first step, while the others, which stop after 7
        # iterations, take full steps
        indicators = np.array(list(product((0.0, 1.0), repeat=3)))
        rng = np.random.default_rng(78)
        trials = rng.integers(1, 60, 8).astype(float)
        successes = rng.binomial(trials.astype(int), rng.uniform(0, 1, 8) ** 4).astype(float)
        matrices = np.stack([_assemble(indicators, [pair]) for pair in combinations(range(3), 2)])
        return matrices, successes, trials

    @pytest.mark.parametrize("max_iter", [100, 6])
    def test_members_match_single_fits(self, max_iter):
        matrices, successes, trials = self._round()
        beta, converged, iterations, loglik, _ = _irls(
            matrices, successes, trials, 1e-6, 1e-8, max_iter
        )
        loop = [reference.fit(x, successes, trials, max_iter=max_iter) for x in matrices]
        assert [f.halvings > 0 for f in loop] == [False, True, False]
        assert converged.tolist() == [f.converged for f in loop]
        assert iterations.tolist() == [f.iterations for f in loop]
        np.testing.assert_allclose(beta, [f.beta for f in loop], rtol=0, atol=1e-10)
        np.testing.assert_allclose(loglik, [f.loglik for f in loop], rtol=1e-12, atol=0)
        if max_iter == 6:
            assert converged.tolist() == [False, True, False]

    def test_singular_member_raises(self):
        matrices, successes, trials = self._round()
        singular = matrices[0].copy()
        singular[:, -1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            reference.fit(singular, successes, trials, ridge=0.0)
        stack = np.concatenate([matrices, singular[None]])
        with pytest.raises(GlmError, match="singular weighted system"):
            _irls(stack, successes, trials, 0.0, 1e-8, 100)

    def test_fit_logistic_is_a_stack_of_one(self):
        matrices, successes, trials = self._round()
        x = np.repeat(matrices[1], trials.astype(int), axis=0)
        y = np.concatenate([np.r_[np.ones(int(s)), np.zeros(int(t - s))]
                            for s, t in zip(successes, trials)])
        model = fit_logistic(x, y)
        want = reference.fit(x, y)
        assert (model.converged, model.iterations) == (want.converged, want.iterations)
        np.testing.assert_allclose(model.coefficients, want.beta, rtol=0, atol=1e-10)


class TestMultinomialResampling:
    @pytest.mark.parametrize("row_pattern", [(0, 1), (0, 0, 1), (0, 1, 1, 2), (0, 0, 1, 2, 2)])
    def test_binned_index_resamples_follow_the_multinomial_pmf(self, row_pattern):
        # every one of the n**n equally likely index resamples, binned by pattern
        row_pattern = np.array(row_pattern)
        n = row_pattern.size
        trials = np.bincount(row_pattern)
        tally = Counter(
            tuple(np.bincount(row_pattern[list(idx)], minlength=trials.size))
            for idx in product(range(n), repeat=n)
        )
        total = Fraction(0)
        for counts, hits in tally.items():
            pmf = Fraction(factorial(n), prod(factorial(c) for c in counts)) * prod(
                Fraction(int(t), n) ** c for t, c in zip(trials, counts)
            )
            assert Fraction(hits, n**n) == pmf
            total += pmf
        # so no count vector of positive probability is missing
        assert total == 1


@st.composite
def indicator_designs(draw):
    """Random records over 1-4 groups with interactions; many records share
    each indicator pattern, so scores tie."""
    n_groups = draw(st.integers(1, 4))
    all_pairs = list(combinations(range(n_groups), 2))
    pairs = draw(st.lists(st.sampled_from(all_pairs), unique=True)) if all_pairs else []
    n = draw(st.integers(20, 250))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    indicators = rng.random((n, n_groups)) < rng.uniform(0.1, 0.6, n_groups)
    y = rng.random(n) < expit(-1.0 + indicators @ rng.normal(1.0, 0.7, n_groups))
    # a poor and a good record for every pattern present: no pattern is
    # separated, so the maximum likelihood fit is interior and well defined
    patterns = np.unique(indicators, axis=0)
    indicators = np.r_[indicators, patterns, patterns]
    y = np.r_[y, np.ones(len(patterns), bool), np.zeros(len(patterns), bool)]
    return indicators, y, tuple(pairs)


class TestPatternPathMatchesRowReference:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(indicator_designs())
    def test_fit_counterfactuals_and_roc(self, case):
        indicators, y, pairs = case
        design = make_design(indicators, y, pairs)
        rows = reference.assemble(indicators, pairs)
        model = fit_logistic(design)
        np.testing.assert_allclose(
            model.coefficients, reference.fit(rows, y).beta, rtol=0, atol=1e-10
        )
        beta = model.coefficients
        impacts = group_fix_impact(model, design, n_boot=25, seed=3)
        cis = reference.bootstrap_ci(beta, model.covariance, indicators, pairs, 25, 3)
        assert len(impacts) == len(cis) == indicators.shape[1]
        for g, (impact, (lo, hi)) in enumerate(zip(impacts, cis)):
            fixed = reference.assemble(indicators, pairs, [g])
            np.testing.assert_allclose(
                [impact.reduction, impact.ci_lo, impact.ci_hi],
                [reference.reduction(beta, rows, fixed), lo, hi],
                rtol=0, atol=1e-12,
            )
        got = cumulative_impact(model, design)
        want = reference.cumulative(beta, indicators, pairs)
        assert [g for g, _ in got] == [g for g, _ in want]
        np.testing.assert_allclose(
            [r for _, r in got], [r for _, r in want], rtol=0, atol=1e-12
        )
        scores = reference.scores(rows, beta)
        roc = evaluate(model, design)
        assert roc.auc == pytest.approx(reference.auc(scores, y), abs=1e-12)
        for got_values, want_values in zip(
            (roc.fpr, roc.tpr, roc.thresholds), reference.roc(scores, y)
        ):
            np.testing.assert_allclose(got_values, want_values, rtol=0, atol=1e-12)
