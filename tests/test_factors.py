import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product
from math import factorial, prod, sqrt

import numpy as np
import pytest

import factors_reference
from tokenimpact import factors
from tokenimpact.errors import FactorAnalysisError
from tokenimpact.factors import (
    FactorModel,
    _reference_eigenvalues,
    _reference_grams,
    assign_groups,
    extract_factors,
    parallel_analysis_detail,
    varimax,
    varimax_criterion,
)
from tokenimpact.polychoric import PolychoricMatrix, polychoric_matrix
from tokenimpact.survey import clean_uninformative
from tokenimpact.synthetic import default_world_spec, generate

from conftest import block_world, make_dataset


def matrix_from(values, names=None) -> PolychoricMatrix:
    values = np.asarray(values, dtype=np.float64)
    names = names or tuple(f"tok{i}" for i in range(values.shape[0]))
    return PolychoricMatrix(
        tokens=tuple(names),
        values=values,
        psd_repaired=False,
        min_eigenvalue_before=float(np.linalg.eigvalsh(values).min()),
    )


def rank_one_matrix(loading: float, p: int) -> PolychoricMatrix:
    lam = np.full((p, 1), loading)
    values = lam @ lam.T
    np.fill_diagonal(values, 1.0)
    return matrix_from(values)


def model_from_loadings(loadings, rotation="varimax") -> FactorModel:
    loadings = np.asarray(loadings, dtype=np.float64)
    p, k = loadings.shape
    explained = (loadings**2).sum(axis=0) / p
    return FactorModel(
        tokens=tuple(f"tok{i}" for i in range(p)),
        loadings=loadings,
        communalities=(loadings**2).sum(axis=1),
        variance_explained=explained,
        rotation=rotation,
        converged=True,
        n_iter=1,
    )


class TestParallelAnalysis:
    def test_independent_tokens_have_no_factor(self):
        rng = np.random.default_rng(0)
        rows = [(1, 1.0, tuple(rng.random(5) < 0.3)) for _ in range(4000)]
        ds = make_dataset(rows, n_tokens=5)
        pm = polychoric_matrix(ds)
        assert parallel_analysis_detail(pm, ds, reps=40, seed=1).n_factors == 0

    def test_planted_single_factor(self):
        spec = block_world(n=8000, seed=2, group_sizes=(5,), loading=0.7, effects=(1.0,))
        ds, _ = generate(spec, truth_mc_n=1000)
        pm = polychoric_matrix(ds)
        assert parallel_analysis_detail(pm, ds, reps=40, seed=3).n_factors == 1

    def test_reps_floor(self):
        spec = block_world(n=500, seed=2, group_sizes=(3,), effects=(1.0,))
        ds, _ = generate(spec, truth_mc_n=100)
        pm = polychoric_matrix(ds)
        with pytest.raises(FactorAnalysisError, match="reps"):
            parallel_analysis_detail(pm, ds, reps=5, seed=0)

    def test_chunking_does_not_change_result(self, monkeypatch):
        spec = block_world(n=3000, seed=7, group_sizes=(3, 3), effects=(1.2, 1.2))
        ds, _ = generate(spec, truth_mc_n=100)
        pm = polychoric_matrix(ds)
        one = parallel_analysis_detail(pm, ds, reps=23, seed=5)
        # 60 tables are 4 reps of 15 pairs: chunks of 4, 4, 4, 4, 4 and 3 reps
        for chunk_tables in (factors._CHUNK_TABLES, 60):
            monkeypatch.setattr(factors, "_CHUNK_TABLES", chunk_tables)
            other = parallel_analysis_detail(pm, ds, reps=23, seed=5)
            assert one.n_factors == other.n_factors
            assert np.array_equal(one.reference_quantiles, other.reference_quantiles)

    def test_chunked_solve_keeps_peak_memory_bounded(self):
        # 100 reps of 15 tokens are 10 500 tables. At 1e4 rows the traced
        # peak was 2.7 MB in chunks of 1024 or 4096 tables and 5.4 MB in
        # one solve of all of them.
        spec = block_world(
            n=10_000, seed=4, group_sizes=(5, 5, 2, 2, 1), effects=(1.0,) * 5
        )
        ds, _ = generate(spec, truth_mc_n=100)
        pm = polychoric_matrix(ds)
        tracemalloc.start()
        try:
            result = parallel_analysis_detail(pm, ds, reps=100, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.reference_quantiles) == 15
        assert peak < 3_500_000

    def test_token_mismatch_rejected(self):
        spec = block_world(n=500, seed=2, group_sizes=(3,), effects=(1.0,))
        ds, _ = generate(spec, truth_mc_n=100)
        pm = matrix_from(np.eye(3), names=("x", "y", "z"))
        with pytest.raises(FactorAnalysisError, match="match"):
            parallel_analysis_detail(pm, ds, reps=10, seed=0)


def expanded_grams(prevalences, n, seed, reps):
    """Each rep's Gram of its n rows, from a cell-by-cell rerun of the block
    draw: blocks of ``_DRAW_REPS`` reps, block b on stream [seed, b, 1], one
    binomial call per column over the block's live cells in order, and a
    cell's two children next to each other. Each rep's cells are expanded
    back to rows and multiplied in int64."""
    grams = []
    for block, start in enumerate(range(0, reps, factors._DRAW_REPS)):
        size = min(factors._DRAW_REPS, reps - start)
        rng = np.random.default_rng([seed, block, 1])
        cells = [(r, (), n) for r in range(size)]
        for q in prevalences:
            fired = rng.binomial([count for _, _, count in cells], q).tolist()
            cells = [
                child
                for (r, bits, count), f in zip(cells, fired)
                for child in ((r, bits + (0,), count - f), (r, bits + (1,), f))
                if child[2] > 0
            ]
        for r in range(size):
            mine = [(bits, count) for rr, bits, count in cells if rr == r]
            x = np.repeat(
                np.array([bits for bits, _ in mine], dtype=np.int64),
                [count for _, count in mine],
                axis=0,
            )
            assert x.shape == (n, prevalences.size)
            grams.append(x.T @ x)
    return np.stack(grams)


def gram_law(prevalences, n):
    """Exact law of the Gram of n independent rows: the multinomial law of
    the 2**p pattern counts, pushed through the map to the Gram's upper
    triangle."""
    p = len(prevalences)
    q = [Fraction(v) for v in prevalences]
    cell = [prod(q[j] if c >> j & 1 else 1 - q[j] for j in range(p)) for c in range(2**p)]
    law = Counter()
    for k in product(range(n + 1), repeat=2**p):
        if sum(k) != n:
            continue
        pmf = Fraction(factorial(n), prod(factorial(c) for c in k)) * prod(
            pc**c for pc, c in zip(cell, k)
        )
        key = tuple(
            sum(kc for c, kc in enumerate(k) if c >> i & 1 and c >> j & 1)
            for i in range(p) for j in range(i, p)
        )
        law[key] += pmf
    assert sum(law.values()) == 1
    return law


def gram_keys(grams):
    iu, ju = np.triu_indices(grams.shape[-1])
    return [tuple(row) for row in grams[:, iu, ju].astype(np.int64).tolist()]


def assert_follows(tally, law, draws):
    """Every outcome's rate within 5 SE of its probability, and no outcome
    outside the law."""
    assert set(tally) <= set(law)
    for key, pmf in law.items():
        se = sqrt(float(pmf * (1 - pmf)) / draws)
        assert abs(tally[key] / draws - float(pmf)) <= 5.0 * se


class TestReferenceDraws:
    def test_chunked_path_matches_per_rep_float64_reference(self):
        prevalences = np.array([0.05, 0.1, 0.2, 0.3, 0.15, 0.4])
        n, seed, reps = 3000, 4, 12
        got = _reference_eigenvalues(_reference_grams(prevalences, n, seed, reps), n)
        grams = expanded_grams(prevalences, n, seed, reps)
        assert np.array_equal(got, factors_reference.eigenvalues(grams, n))

    def test_repaired_reps_match_per_rep_reference(self):
        # at 20 rows the sparse tables give indefinite matrices, so some reps
        # leave the stacked decomposition for repair_to_psd
        prevalences = np.array([0.05, 0.1, 0.2, 0.3, 0.15, 0.4])
        n, seed, reps = 20, 4, 12
        got = _reference_eigenvalues(_reference_grams(prevalences, n, seed, reps), n)
        assert (got[:, -1] < 1e-6).any() and (got[:, -1] > 1e-3).any()
        grams = expanded_grams(prevalences, n, seed, reps)
        assert np.array_equal(got, factors_reference.eigenvalues(grams, n))

    def test_gram_equals_the_expanded_rows_gram(self):
        # 23 reps: two full blocks and a partial one
        prevalences = np.array([0.05, 0.1, 0.2, 0.3, 0.15, 0.4, 0.0, 1.0])
        n, seed, reps = 5000, 2, 23
        got = _reference_grams(prevalences, n, seed, reps)
        assert got.dtype == np.float64
        assert np.array_equal(got, expanded_grams(prevalences, n, seed, reps))

    @pytest.mark.parametrize("n, prevalences", [
        (4, (0.4, 0.6)), (2, (0.3, 0.6, 0.5)), (3, (0.4, 0.6, 0.5)),
    ])
    def test_counts_follow_the_multinomial_law(self, n, prevalences):
        # seen through the Grams they give, which is all the solve reads
        reps = 20_000
        law = gram_law(prevalences, n)
        keys = gram_keys(_reference_grams(np.array(prevalences), n, 9, reps))
        tally = Counter(keys)
        # every Gram of positive probability appears, at its rate
        assert set(tally) == set(law)
        assert_follows(tally, law, reps)
        # and so at each position in a block
        for i in range(factors._DRAW_REPS):
            mine = keys[i :: factors._DRAW_REPS]
            assert_follows(Counter(mine), law, len(mine))

    def test_reps_of_a_block_are_independent(self):
        prevalences, n = (0.3, 0.6), 2
        law = gram_law(prevalences, n)
        joint = Counter({(a, b): pa * pb for a, pa in law.items() for b, pb in law.items()})
        keys = gram_keys(_reference_grams(np.array(prevalences), n, 13, 40_000))
        # neighbours (0, 1), (2, 3), ... within each block of ten
        pairs = list(zip(keys[0::2], keys[1::2]))
        assert_follows(Counter(pairs), joint, len(pairs))

    def test_draws_follow_prevalences(self):
        prevalences = np.array([1.0, 0.0, 0.5, 0.02, 0.3])
        n = 10**7
        grams = _reference_grams(prevalences, n, 0, factors._DRAW_REPS + 1)
        # a prevalence of 0 or 1 draws a constant column
        assert (grams[:, 0, 0] == n).all() and not grams[:, 1].any()
        totals = np.diagonal(grams, axis1=1, axis2=2)
        se = np.sqrt(prevalences * (1.0 - prevalences) / n)
        assert (np.abs(totals / n - prevalences) <= 5.0 * se).all()
        # the reps of a block, and the blocks, have their own draws
        assert np.unique(totals[:, 2:], axis=0).shape[0] == totals.shape[0]

    def test_eigenvalue_law_matches_row_level_draws(self):
        # per rank, the mean and SD of the reference eigenvalues agree with
        # those of rows drawn one by one; both go through the same solve
        prevalences = np.array([0.02, 0.05, 0.08, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5])
        n, reps = 2000, 300
        got = _reference_eigenvalues(_reference_grams(prevalences, n, 21, reps), n)
        rows = factors_reference.bernoulli_grams(prevalences, n, 22, reps)
        want = _reference_eigenvalues(rows.astype(np.float64), n)

        def moments(values):
            mean, sd = values.mean(axis=0), values.std(axis=0, ddof=1)
            m4 = ((values - mean) ** 4).mean(axis=0)
            # delta-method SE of the SD from the fourth central moment
            return mean, sd, sd**2 / reps, (m4 - sd**4) / (4.0 * sd**2 * reps)

        mean_a, sd_a, var_mean_a, var_sd_a = moments(got)
        mean_b, sd_b, var_mean_b, var_sd_b = moments(want)
        assert (np.abs(mean_a - mean_b) <= 4.0 * np.sqrt(var_mean_a + var_mean_b)).all()
        assert (np.abs(sd_a - sd_b) <= 4.0 * np.sqrt(var_sd_a + var_sd_b)).all()

    def test_memory_does_not_grow_with_rows(self):
        # a block of reps at 2**24 rows: as booleans, the rows of one rep
        # would take 2**24 * p bytes, but at most 2**p cells per rep are live
        n, reps = 2**24, factors._DRAW_REPS
        for p, bound in ((3, 4_000_000), (15, 24_000_000)):
            tracemalloc.start()
            try:
                grams = _reference_grams(np.full(p, 0.5), n, 0, reps)
                got = _reference_eigenvalues(grams, n)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert got.shape == (reps, p) and np.isfinite(got).all()
            assert peak < bound


class TestExtractFactors:
    def test_rank_one_analytic(self):
        pm = rank_one_matrix(0.8, 6)
        model = extract_factors(pm, 1)
        assert model.converged
        assert np.allclose(model.loadings[:, 0], 0.8, atol=1e-4)
        assert np.allclose(model.communalities, 0.64, atol=1e-4)
        assert model.variance_explained[0] == pytest.approx(0.64, abs=1e-3)

    def test_identity_matrix_degenerates_gracefully(self):
        pm = matrix_from(np.eye(6))
        model = extract_factors(pm, 5)
        assert np.abs(model.loadings).max() < 1e-6
        assert not model.heywood_tokens

    def test_k_range_validated(self):
        pm = rank_one_matrix(0.5, 4)
        with pytest.raises(FactorAnalysisError):
            extract_factors(pm, 0)
        with pytest.raises(FactorAnalysisError):
            extract_factors(pm, 4)

    def test_variance_explained_sorted_and_totals(self):
        spec = default_world_spec(n=20000, seed=3)
        ds, _ = generate(spec, truth_mc_n=1000)
        ds, _ = clean_uninformative(ds)
        pm = polychoric_matrix(ds)
        model = extract_factors(pm, 5)
        assert np.all(np.diff(model.variance_explained) <= 1e-12)
        planted_total = float((spec.loadings**2).sum() / spec.n_tokens)
        assert model.variance_explained.sum() == pytest.approx(planted_total, abs=0.05)
        assert model.variance_explained.sum() <= 1.0


class TestVarimax:
    def test_single_factor_identity(self):
        model = model_from_loadings(np.full((5, 1), 0.7), rotation="none")
        rotated = varimax(model)
        assert rotated.rotation == "varimax"
        assert np.allclose(rotated.loadings, model.loadings)
        assert (rotated.rotation_iterations, rotated.rotation_converged) == (0, True)

    def test_rotation_iterations_reported(self):
        rng = np.random.default_rng(3)
        model = model_from_loadings(rng.uniform(-1, 1, size=(12, 4)) * 0.45, rotation="none")
        rotated = varimax(model)
        assert rotated.rotation_converged and rotated.rotation_iterations >= 2
        capped = varimax(model, max_iter=1)
        assert (capped.rotation_iterations, capped.rotation_converged) == (1, False)
        assert capped.to_dict()["rotation_converged"] is False

    def test_simple_structure_is_fixed_point(self):
        loadings = np.zeros((6, 2))
        loadings[:3, 0] = 0.8
        loadings[3:, 1] = 0.7
        rotated = varimax(model_from_loadings(loadings, rotation="none"))
        # identical up to column order and sign
        got = np.abs(rotated.loadings)
        want = np.abs(loadings)
        assert (
            np.allclose(got, want, atol=1e-6)
            or np.allclose(got, want[:, ::-1], atol=1e-6)
        )

    def test_criterion_never_decreases(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            lam = rng.uniform(-1, 1, size=(15, 5)) * 0.4
            model = model_from_loadings(lam, rotation="none")
            rotated = varimax(model)
            assert varimax_criterion(rotated.loadings) >= varimax_criterion(lam) - 1e-12

    def test_communalities_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            lam = rng.uniform(-1, 1, size=(12, 4)) * 0.45
            model = model_from_loadings(lam, rotation="none")
            rotated = varimax(model)
            assert np.allclose(
                rotated.communalities, model.communalities, atol=1e-9
            )

    def test_column_space_preserved(self):
        rng = np.random.default_rng(2)
        lam = rng.uniform(-1, 1, size=(10, 3)) * 0.5
        rotated = varimax(model_from_loadings(lam, rotation="none"))
        # projection onto the original column space reproduces the rotation
        q, _ = np.linalg.qr(lam)
        projected = q @ (q.T @ rotated.loadings)
        assert np.allclose(projected, rotated.loadings, atol=1e-9)


class TestAssignGroups:
    def test_dominant_loading_assigns(self):
        lam = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.3]])
        grouping = assign_groups(model_from_loadings(lam))
        assert grouping.groups[0].members == ("tok0", "tok2")
        assert grouping.groups[1].members == ("tok1",)
        assert grouping.unassigned == ()

    def test_below_threshold_unassigned(self):
        lam = np.array([[0.9, 0.0], [0.4, 0.45]])
        grouping = assign_groups(model_from_loadings(lam))
        assert grouping.unassigned == ("tok1",)

    def test_all_unassigned_is_error(self):
        lam = np.array([[0.3, 0.1], [0.2, 0.25]])
        with pytest.raises(FactorAnalysisError):
            assign_groups(model_from_loadings(lam))

    def test_tie_prefers_lower_factor_index(self):
        lam = np.array([[0.6, 0.6], [0.0, 0.7]])
        grouping = assign_groups(model_from_loadings(lam))
        assert grouping.groups[0].members == ("tok0",)

    def test_sign_flip_invariance(self):
        lam = np.array([[0.9, 0.1], [0.2, -0.8], [0.55, 0.3]])
        a = assign_groups(model_from_loadings(lam))
        flipped = lam.copy()
        flipped[:, 1] = -flipped[:, 1]
        b = assign_groups(model_from_loadings(flipped))
        assert [g.members for g in a.groups] == [g.members for g in b.groups]

    def test_requires_rotated_model(self):
        lam = np.array([[0.9, 0.1], [0.2, 0.8]])
        with pytest.raises(FactorAnalysisError, match="rotated"):
            assign_groups(model_from_loadings(lam, rotation="none"))


class TestPipelineRecovery:
    def test_planted_partition_recovered(self):
        spec = default_world_spec(n=20000, seed=12)
        ds, _ = generate(spec, truth_mc_n=1000)
        ds, _ = clean_uninformative(ds)
        pm = polychoric_matrix(ds)
        k = parallel_analysis_detail(pm, ds, reps=60, seed=99).n_factors
        assert k == 5
        grouping = assign_groups(varimax(extract_factors(pm, k)))
        assert grouping.unassigned == ()
        got = {tok: gi for gi, g in enumerate(grouping.groups) for tok in g.members}
        mapping = {}
        for token, planted in zip(spec.vocabulary().names, spec.group_partition):
            mapping.setdefault(planted, got[token])
            assert mapping[planted] == got[token]
        assert len(set(mapping.values())) == 5
        sizes = sorted((len(g.members) for g in grouping.groups), reverse=True)
        assert sizes == [5, 5, 2, 2, 1]
