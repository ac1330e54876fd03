import importlib

import numpy as np
import pytest

import timu_reference as reference
from tokenimpact.errors import ValidationError
from tokenimpact.survey import SurveyDataset
from tokenimpact.synthetic import generate
from tokenimpact.timu import (
    Metric,
    MetricSpec,
    rank_tokens,
    resolve_fix_value,
    selector_mask,
    timu,
)

from conftest import block_world, make_dataset, make_timu_fixture

# the package exports the function timu under the module's name
timu_module = importlib.import_module("tokenimpact.timu")

PCR = MetricSpec(Metric.POOR_INDICATOR)
ACD = MetricSpec(Metric.DURATION_S)

# far from every duration mean, so the fixed series' mean moves far from the
# original's
FAR_ACD = MetricSpec(Metric.DURATION_S, fix_value=1e4)


class TestTimuHandFixture:
    def test_planted_impact(self, timu_fixture):
        result = timu(timu_fixture, "audio.noise", PCR)
        assert result.mean_impact == pytest.approx(0.3, abs=1e-12)
        assert result.n == 10

    def test_combined_uncertainty(self, timu_fixture):
        # orig = 4/10 poor, fixed = 1/10: var 0.24 and 0.09, cov 0.06
        expected = 1.96 * np.sqrt(0.24 + 0.09 - 0.06) / np.sqrt(10)
        result = timu(timu_fixture, "audio.noise", PCR)
        assert result.ci95_halfwidth == pytest.approx(expected, abs=1e-12)

    def test_strict_delta_variant(self, timu_fixture):
        expected = 1.96 * np.sqrt(0.24 + 0.09 - 2 * 0.06) / np.sqrt(10)
        result = timu(timu_fixture, "audio.noise", PCR, strict_delta=True)
        assert result.mean_impact == pytest.approx(0.3, abs=1e-12)
        assert result.ci95_halfwidth == pytest.approx(expected, abs=1e-12)


class TestTimuEdges:
    def test_empty_problem_set(self, timu_fixture):
        result = timu(timu_fixture, "video.freeze", PCR)
        assert result.mean_impact == 0.0
        # fixed series identical: combined variance collapses to var_orig
        expected = 1.96 * np.sqrt(0.24) / np.sqrt(10)
        assert result.ci95_halfwidth == pytest.approx(expected, abs=1e-12)

    def test_fix_everything_recovers_pcr(self, timu_fixture):
        mask = np.ones(10, dtype=bool)
        result = timu(timu_fixture, mask, PCR)
        assert result.mean_impact == pytest.approx(timu_fixture.pcr(), abs=1e-12)

    def test_empty_dataset_is_error(self):
        ds = make_dataset([], n_tokens=1)
        with pytest.raises(ValidationError):
            timu(ds, "tok0", PCR)

    def test_selector_kinds(self, timu_fixture):
        by_name = timu(timu_fixture, "audio.noise", PCR)
        by_set = timu(timu_fixture, ["audio.noise"], PCR)
        by_mask = timu(timu_fixture, timu_fixture.token_matrix[:, 0], PCR)
        assert by_name.mean_impact == by_set.mean_impact == by_mask.mean_impact
        assert by_mask.token_or_set == "<mask:4 records>"

    def test_worsening_fix_reads_negative(self):
        # the problem calls are longer than the problem-free mean, and an
        # explicit poor-indicator fix of 1 makes every fixed call poor
        rows = [(4, 600.0, (1, 0)), (4, 500.0, (1, 0)), (1, 100.0, (0, 0)), (3, 300.0, (0, 0))]
        ds = make_dataset(rows, n_tokens=2)
        acd = timu(ds, "tok0", ACD)
        assert acd.mean_impact == pytest.approx((2 * 200.0 - 1100.0) / 4, abs=1e-12)
        worse_pcr = timu(ds, "tok0", MetricSpec(Metric.POOR_INDICATOR, fix_value=1.0))
        assert worse_pcr.mean_impact == pytest.approx(-0.5, abs=1e-12)
        # a worsening fix ranks below the never-reported tok1
        assert [r.token_or_set for r in rank_tokens(ds, ACD)] == ["tok1", "tok0"]

    def test_token_set_any_semantics(self, timu_fixture):
        mask = selector_mask(timu_fixture, ["audio.noise", "video.freeze"])
        expected = timu_fixture.token_matrix.any(axis=1)
        assert np.array_equal(mask, expected)

    def test_duration_fix_value_default(self):
        rows = [(1, 100.0, (1,)), (3, 200.0, (0,)), (4, 400.0, (0,))]
        ds = make_dataset(rows, n_tokens=1)
        assert resolve_fix_value(ds, ACD) == pytest.approx(300.0)
        assert resolve_fix_value(ds, PCR) == 0.0
        assert resolve_fix_value(ds, MetricSpec(Metric.DURATION_S, fix_value=5.0)) == 5.0

    def test_duration_fix_value_requires_clean_calls(self):
        ds = make_dataset([(1, 100.0, (1,))], n_tokens=1)
        with pytest.raises(ValidationError, match="fix_value"):
            resolve_fix_value(ds, ACD)


class TestRanking:
    def test_single_token(self, timu_fixture):
        ds = make_dataset([(1, 1.0, (1,)), (4, 1.0, (0,))], n_tokens=1)
        ranking = rank_tokens(ds, PCR)
        assert len(ranking) == 1

    def test_full_coverage_vs_absent(self):
        # tok0 on every poor call, tok1 never set
        rows = [(1, 1.0, (1, 0))] * 4 + [(4, 1.0, (0, 0))] * 6
        ds = make_dataset(rows, n_tokens=2)
        ranking = rank_tokens(ds, PCR)
        assert ranking[0].token_or_set == "tok0"
        assert ranking[0].mean_impact == pytest.approx(ds.pcr())
        assert ranking[1].mean_impact == 0.0

    def test_ties_keep_vocabulary_order(self):
        rows = [(1, 1.0, (1, 0)), (1, 1.0, (0, 1)), (4, 1.0, (0, 0))]
        ds = make_dataset(rows, n_tokens=2)
        ranking = rank_tokens(ds, PCR)
        assert [r.token_or_set for r in ranking] == ["tok0", "tok1"]

    def test_pcr_and_acd_orders_differ_on_constructed_dataset(self):
        # tok0 drives poor ratings at typical durations; tok1 sits on short
        # good calls, so fixing it lengthens calls but leaves the poor rate
        rows = [(1, 300.0, (1, 0))] * 5
        rows += [(4, 30.0, (0, 1))] * 5
        rows += [(4, 300.0, (0, 0))] * 10
        ds = make_dataset(rows, n_tokens=2)
        pcr_order = [r.token_or_set for r in rank_tokens(ds, PCR)]
        acd_order = [r.token_or_set for r in rank_tokens(ds, ACD)]
        assert pcr_order == ["tok0", "tok1"]
        assert acd_order == ["tok1", "tok0"]
        assert pcr_order != acd_order


class TestProperties:
    def test_overestimation_vs_union(self):
        # summed per-token impacts can only overcount shared poor calls
        for seed in range(20):
            spec = block_world(
                n=2000,
                seed=seed,
                group_sizes=(2, 2),
                loading=0.6,
                threshold=0.6,
                intercept=-2.0,
                effects=(1.5, 1.0),
            )
            ds, _ = generate(spec, truth_mc_n=1000)
            total = sum(timu(ds, t, PCR).mean_impact for t in ds.vocabulary.names)
            union = timu(ds, list(ds.vocabulary.names), PCR).mean_impact
            assert total >= union - 1e-12

    def test_overestimation_equality_for_disjoint_tokens(self):
        rows = [(1, 1.0, (1, 0)), (1, 1.0, (0, 1)), (4, 1.0, (0, 0)), (4, 1.0, (0, 0))]
        ds = make_dataset(rows, n_tokens=2)
        total = sum(timu(ds, t, PCR).mean_impact for t in ds.vocabulary.names)
        union = timu(ds, list(ds.vocabulary.names), PCR).mean_impact
        assert total == pytest.approx(union, abs=1e-12)

    def test_scale_equivariance_of_duration(self):
        rows = [(1, 100.0, (1,)), (3, 200.0, (0,)), (4, 400.0, (0,)), (2, 50.0, (1,))]
        ds = make_dataset(rows, n_tokens=1)
        scaled = SurveyDataset(
            vocabulary=ds.vocabulary,
            call_ids=ds.call_ids,
            ratings=ds.ratings,
            durations=ds.durations * 3.0,
            ptq_submitted=ds.ptq_submitted,
            token_matrix=ds.token_matrix,
        )
        base = timu(ds, "tok0", ACD)
        tripled = timu(scaled, "tok0", ACD)
        assert tripled.mean_impact == pytest.approx(3.0 * base.mean_impact, rel=1e-12)
        assert tripled.ci95_halfwidth == pytest.approx(3.0 * base.ci95_halfwidth, rel=1e-12)

    def test_ci_shrinks_with_replication(self):
        spec = block_world(n=500, seed=0, group_sizes=(2,), effects=(1.5,))
        ds, _ = generate(spec, truth_mc_n=1000)
        base = timu(ds, ds.vocabulary.names[0], PCR).ci95_halfwidth
        for seed in range(20):
            rng = np.random.default_rng(seed)
            idx = rng.integers(0, ds.n_records, size=4 * ds.n_records)
            rep = ds.select(idx.tolist(), note=f"bootstrap x4 (seed={seed})")
            ratio = timu(rep, ds.vocabulary.names[0], PCR).ci95_halfwidth / base
            assert 0.4 <= ratio <= 0.6


def _reference_datasets():
    spec = block_world(n=3000, seed=6, group_sizes=(3, 2), effects=(1.4, 0.9))
    world, _ = generate(spec, truth_mc_n=1000)
    orders = [(1, 300.0, (1, 0))] * 5 + [(4, 30.0, (0, 1))] * 5 + [(4, 300.0, (0, 0))] * 10
    # 70 tokens, so a cell's key spans two 64-bit words; rare tokens make
    # both repeated and one-record cells
    wide_spec = block_world(n=2000, seed=8, group_sizes=(36, 34), threshold=2.2,
                            effects=(1.4, 0.9))
    wide_world, _ = generate(wide_spec, truth_mc_n=1000)
    return {
        "hand": make_timu_fixture(),
        "orders": make_dataset(orders, n_tokens=2),
        "block_world": world,
        "wide_world": wide_world,
    }


REFERENCE_DATASETS = _reference_datasets()


def _selectors(ds):
    names = ds.vocabulary.names
    return [
        names[0],
        list(names[:2]),
        list(names),
        [],
        ds.durations < np.median(ds.durations),
        np.zeros(ds.n_records, dtype=bool),
        np.ones(ds.n_records, dtype=bool),
    ]


def _assert_matches_reference(got, want, ds, metric):
    """Relative tolerance 1e-12; below a magnitude of 1e-12, an absolute
    tolerance of 1e-12 times the metric's standard deviation."""
    scale = float(timu_module.metric_series(ds, metric).std())
    assert got.token_or_set == want.token_or_set and got.n == want.n
    for field in ("mean_impact", "ci95_halfwidth"):
        a, b = getattr(got, field), getattr(want, field)
        tol = 1e-12 * (abs(b) if abs(b) >= 1e-12 else scale)
        assert abs(a - b) <= tol, (field, a, b)


@pytest.mark.parametrize("strict_delta", [False, True])
@pytest.mark.parametrize("metric", [PCR, ACD, FAR_ACD], ids=["pcr", "acd", "acd_far"])
@pytest.mark.parametrize("name", sorted(REFERENCE_DATASETS))
class TestAgainstRecordLevelReference:
    def test_timu_matches_reference(self, name, metric, strict_delta):
        ds = REFERENCE_DATASETS[name]
        for selector in _selectors(ds):
            got = timu(ds, selector, metric, strict_delta=strict_delta)
            want = reference.timu(ds, selector, metric, strict_delta=strict_delta)
            _assert_matches_reference(got, want, ds, metric)

    def test_rank_tokens_matches_reference(self, name, metric, strict_delta):
        ds = REFERENCE_DATASETS[name]
        got = rank_tokens(ds, metric, strict_delta=strict_delta)
        want = reference.rank_tokens(ds, metric, strict_delta=strict_delta)
        by_name = {r.token_or_set: r for r in got}
        for w in want:
            _assert_matches_reference(by_name[w.token_or_set], w, ds, metric)
        if name == "block_world":
            assert [r.token_or_set for r in got] == [r.token_or_set for r in want]


def test_rank_tokens_is_one_pass_with_one_fix_value(monkeypatch):
    ds = REFERENCE_DATASETS["block_world"]
    calls = {"_impacts": 0, "resolve_fix_value": 0}
    for fname in calls:
        original = getattr(timu_module, fname)

        def counted(*args, _original=original, _name=fname, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(timu_module, fname, counted)
    for metric in (PCR, ACD):
        calls.update(dict.fromkeys(calls, 0))
        assert len(rank_tokens(ds, metric)) == len(ds.vocabulary)
        assert calls == {"_impacts": 1, "resolve_fix_value": 1}
