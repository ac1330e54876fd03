import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenimpact.descriptives import (
    entropy_bits,
    information_gain,
    jaccard_matrix,
    table_information_gain,
    token_frequencies,
)
from tokenimpact.errors import ValidationError

from conftest import encoded, make_dataset


def ig_oracle(x, y):
    """Independent decomposition: IG = H(x) + H(y) - H(x, y)."""
    x = np.asarray(x, bool)
    y = np.asarray(y, bool)
    n = x.size

    def h(counts):
        total = sum(counts)
        return -sum(c / total * math.log2(c / total) for c in counts if c)

    joint = [
        int(((x == a) & (y == b)).sum()) for a in (False, True) for b in (False, True)
    ]
    hx = h([int((~x).sum()), int(x.sum())])
    hy = h([int((~y).sum()), int(y.sum())])
    return hx + hy - h(joint)


class TestTokenFrequencies:
    def test_hand_counts(self):
        # 10 calls, 3 tokened; 4 poor, 1 of them tokened
        rows = [(1, 1.0, (1,))] + [(1, 1.0, (0,), True)] * 3
        rows += [(3, 1.0, (1,))] * 2 + [(4, 1.0, (0,))] * 4
        report = token_frequencies(make_dataset(rows, n_tokens=1))
        f = report.frequencies[0]
        assert f.rate_all_rated == pytest.approx(0.3)
        assert f.rate_poor == pytest.approx(0.25)
        assert report.n_all == 10 and report.n_poor == 4

    def test_extremes(self):
        rows = [(1, 1.0, (1, 0))] * 5
        report = token_frequencies(make_dataset(rows, n_tokens=2))
        assert report.frequencies[0].rate_all_rated == 1.0
        assert report.frequencies[1].rate_all_rated == 0.0

    def test_no_poor_calls_rate_is_undefined(self):
        report = token_frequencies(make_dataset([(4, 1.0, (1,))] * 3, n_tokens=1))
        assert report.frequencies[0].rate_poor is None
        assert encoded(report)["frequencies"][0]["rate_poor"] is None

    def test_empty_dataset_is_error(self):
        with pytest.raises(ValidationError):
            token_frequencies(make_dataset([], n_tokens=1))

    def test_sort_orders_can_differ(self):
        # tok0 frequent overall but rare among poor; tok1 the reverse
        rows = [(4, 1.0, (1, 0))] * 6 + [(1, 1.0, (0, 1))] * 3 + [(1, 1.0, (1, 0))]
        report = token_frequencies(make_dataset(rows, n_tokens=2))
        by_all = [f.token for f in report.sorted_by("all_rated")]
        by_poor = [f.token for f in report.sorted_by("poor")]
        assert by_all == ["tok0", "tok1"]
        assert by_poor == ["tok1", "tok0"]


class TestInformationGain:
    def test_perfect_balanced_predictor(self):
        y = [1, 1, 0, 0]
        assert information_gain(y, y) == pytest.approx(1.0, abs=1e-12)

    def test_independent_is_zero(self):
        x = [0, 0, 1, 1]
        y = [0, 1, 0, 1]
        assert information_gain(x, y) == pytest.approx(0.0, abs=1e-12)

    def test_derived_value(self):
        y = [1, 1, 0, 0]
        x = [1, 0, 0, 0]
        expected = 1.0 - 0.75 * ig_oracle([1, 0, 0], [1, 0, 0])  # = 0.3113
        assert information_gain(x, y) == pytest.approx(0.3113, abs=1e-4)
        assert information_gain(x, y) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            information_gain([1, 0], [1, 0, 1])
        with pytest.raises(ValidationError):
            information_gain([], [])

    def test_exhaustive_small_against_oracle(self):
        for length in (1, 2, 3, 4):
            for xs in itertools.product((0, 1), repeat=length):
                for ys in itertools.product((0, 1), repeat=length):
                    got = information_gain(xs, ys)
                    assert got == pytest.approx(ig_oracle(xs, ys), abs=1e-10)

    @given(st.integers(1, 20), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_series_properties(self, length, seed):
        rng = np.random.default_rng(seed)
        x = rng.random(length) < 0.5
        y = rng.random(length) < 0.5
        ig = information_gain(x, y)
        assert ig == pytest.approx(ig_oracle(x, y), abs=1e-10)
        assert ig >= 0.0
        assert ig <= min(entropy_bits(x), entropy_bits(y)) + 1e-12
        # relabeling symmetry: flipping every bit of both changes nothing
        assert information_gain(~x, ~y) == pytest.approx(ig, abs=1e-12)
        # symmetry of the mutual information itself
        assert information_gain(y, x) == pytest.approx(ig, abs=1e-10)


class TestTableInformationGain:
    @given(st.integers(1, 30), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_counts_give_the_figures_of_their_series(self, length, seed):
        rng = np.random.default_rng(seed)
        x = rng.random(length) < 0.3
        y = rng.random(length) < 0.6
        table = [[np.sum(~x & ~y), np.sum(~x & y)], [np.sum(x & ~y), np.sum(x & y)]]
        ig = table_information_gain(table)
        assert ig.bits == information_gain(x, y)
        h_y = entropy_bits(y)
        assert ig.fraction == (ig.bits / h_y if h_y > 0 else None)
        assert ig.degenerate == (h_y == 0.0 or entropy_bits(x) == 0.0)

    def test_weights_act_through_their_proportions(self):
        table = np.array([[6.0, 1.0], [2.0, 3.0]])
        ig = table_information_gain(table)
        assert table_information_gain(table * 0.37).bits == pytest.approx(ig.bits, abs=1e-15)
        # each column scaled to sum to 1: the two classes weigh the same
        balanced = table_information_gain(table / table.sum(axis=0))
        h = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert balanced.bits == pytest.approx(1.0 - h, abs=1e-12)
        assert balanced.fraction == pytest.approx(1.0 - h, abs=1e-12)

    @pytest.mark.parametrize("table", [
        [[1, 2, 3], [4, 5, 6]], [1, 2, 3, 4], [[0, 0], [0, 0]], [[1, -1], [2, 3]],
        [[1, float("nan")], [2, 3]], [[1, float("inf")], [2, 3]],
    ], ids=["shape", "flat", "zero", "negative", "nan", "inf"])
    def test_bad_tables_are_refused(self, table):
        with pytest.raises(ValidationError, match="2x2"):
            table_information_gain(table)


class TestJaccard:
    def test_identical_columns(self):
        ds = make_dataset([(1, 1.0, (1, 1))] * 3 + [(3, 1.0, (0, 0))] * 2, n_tokens=2)
        jm = jaccard_matrix(ds)
        assert jm.values[0, 1] == 1.0
        assert jm.values[0, 0] == 0.0  # diagonal forced to zero

    def test_disjoint_columns(self):
        ds = make_dataset([(1, 1.0, (1, 0))] * 2 + [(1, 1.0, (0, 1))] * 2, n_tokens=2)
        assert jaccard_matrix(ds).values[0, 1] == 0.0

    def test_derived_third(self):
        rows = [(1, 1.0, (1, 1)), (1, 1.0, (1, 0)), (1, 1.0, (0, 1)), (3, 1.0, (0, 0))]
        ds = make_dataset(rows, n_tokens=2)
        assert jaccard_matrix(ds).values[0, 1] == pytest.approx(1 / 3)

    def test_undefined_pair_flagged_as_zero(self):
        ds = make_dataset([(3, 1.0, (0, 0))] * 3, n_tokens=2)
        jm = jaccard_matrix(ds)
        assert jm.values[0, 1] == 0.0
        assert jm.undefined_pairs == (("tok0", "tok1"),)

    def test_single_token_is_error(self):
        with pytest.raises(ValidationError):
            jaccard_matrix(make_dataset([(1, 1.0, (1,))], n_tokens=1))

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(5)
        rows = [(1, 1.0, tuple(rng.random(4) < 0.3)) for _ in range(1000)]
        ds = make_dataset(rows, n_tokens=4)
        jm = jaccard_matrix(ds)
        x = ds.token_matrix
        for i in range(4):
            for j in range(4):
                if i == j:
                    assert jm.values[i, j] == 0.0
                    continue
                si = {k for k in range(1000) if x[k, i]}
                sj = {k for k in range(1000) if x[k, j]}
                expected = len(si & sj) / len(si | sj) if (si | sj) else 0.0
                assert jm.values[i, j] == expected
        assert np.array_equal(jm.values, jm.values.T)
