import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ndtr
from scipy.stats import norm

from tokenimpact import polychoric
from tokenimpact.errors import PolychoricError
from tokenimpact.polychoric import (
    ContingencyTable2x2,
    _bvn_upper,
    _loglik_batch,
    _maximize_rho,
    _prepare_tables,
    bvn_upper,
    estimate_polychoric,
    polychoric_matrix,
    repair_to_psd,
)
from tokenimpact.synthetic import generate

import polychoric_reference
from conftest import block_world, make_dataset


def bvn_quadrature(a: float, b: float, rho: float) -> float:
    """Independent oracle: reduce the orthant to a 1-D integral and quadrature it."""
    if rho == 1.0:
        return float(norm.sf(max(a, b)))
    if rho == -1.0:
        return float(max(0.0, norm.cdf(-b) - norm.cdf(a)))
    scale = math.sqrt(1.0 - rho * rho)
    value, _ = integrate.quad(
        lambda x: norm.pdf(x) * norm.sf((b - rho * x) / scale),
        a,
        np.inf,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    return value


class TestBvnUpper:
    def test_zero_threshold_identities(self):
        assert bvn_upper(0, 0, 0.0) == pytest.approx(0.25, abs=1e-12)
        assert bvn_upper(0, 0, 1.0) == pytest.approx(0.5, abs=1e-12)
        expected = 0.25 + math.asin(0.5) / (2 * math.pi)
        assert bvn_upper(0, 0, 0.5) == pytest.approx(expected, abs=1e-9)

    def test_degenerate_boundaries(self):
        assert bvn_upper(0, 0, -1.0) == 0.0
        assert bvn_upper(-1, -0.5, -1.0) == pytest.approx(
            norm.cdf(1) - norm.cdf(-0.5), abs=1e-12
        )
        assert bvn_upper(-1.2, 0.3, 1.0) == pytest.approx(norm.sf(0.3), abs=1e-12)

    def test_against_quadrature_grid(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(150):
            a, b = rng.uniform(-3, 3, size=2)
            rho = rng.uniform(-0.9999, 0.9999)
            err = abs(bvn_upper(a, b, rho) - bvn_quadrature(a, b, rho))
            worst = max(worst, err)
        assert worst < 1e-7

    def test_monotone_in_rho(self):
        for a, b in [(-1.0, 0.5), (0.0, 0.0), (1.5, -2.0), (2.0, 2.0)]:
            values = [bvn_upper(a, b, r) for r in np.linspace(-1, 1, 401)]
            diffs = np.diff(values)
            assert (diffs >= -1e-9).all()

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = rng.uniform(-2.5, 2.5, size=2)
            rho = rng.uniform(-0.99, 0.99)
            assert bvn_upper(a, b, rho) == pytest.approx(bvn_upper(b, a, rho), abs=1e-14)

    def test_rho_out_of_range(self):
        with pytest.raises(PolychoricError):
            bvn_upper(0, 0, 1.5)

    def test_node_tiers_match_the_20_node_rule(self):
        # Genz's 6-node (|r| < 0.3) and 12-node (|r| < 0.75) tiers, with the
        # tier edges and the last doubles below them on the grid
        edges = np.array([0.3, 0.75])
        near = np.r_[edges, np.nextafter(edges, 0.0)]
        r = np.r_[np.linspace(-0.92, 0.92, 93), near, -near]
        h, k, rr = np.meshgrid(np.linspace(-4, 4, 41), np.linspace(-4, 4, 41), r, indexing="ij")
        ph, pk = ndtr(-h), ndtr(-k)
        twenty = polychoric._bvn_moderate(
            h, k, rr, ph, pk, polychoric._GL_NODES, polychoric._GL_WEIGHTS
        )
        twenty = np.clip(twenty, 0.0, 1.0)
        assert np.abs(_bvn_upper(h, k, rr, ph, pk) - twenty).max() <= 1e-15

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)), min_size=1))
    def test_independence_is_the_product_of_marginals(self, taus):
        # the root solve's first step relies on this holding bit for bit
        h, k = np.array(taus).T
        ph, pk = ndtr(-h), ndtr(-k)
        assert np.array_equal(_bvn_upper(h, k, 0.0, ph, pk), ph * pk)


class TestEstimate:
    def test_exact_independence(self):
        est = estimate_polychoric(ContingencyTable2x2(2500, 2500, 2500, 2500))
        assert abs(est.rho) < 0.01
        assert not est.corrected
        assert est.converged

    def test_zero_threshold_inversion(self):
        # at zero thresholds the latent correlation is sin(2*pi*(p11 - 1/4))
        for p11 in (0.30, 0.375):
            off = 0.5 - p11
            est = estimate_polychoric(ContingencyTable2x2(p11, off, off, p11))
            assert est.rho == pytest.approx(math.sin(2 * math.pi * (p11 - 0.25)), abs=0.02)
            assert est.tau_x == pytest.approx(0.0, abs=1e-12)

    def test_perfect_concordance_corrected(self):
        est = estimate_polychoric(ContingencyTable2x2(5000, 0, 0, 5000))
        assert est.corrected
        assert est.rho > 0.99

    def test_sign_symmetry_under_recoding(self):
        t = ContingencyTable2x2(1200, 300, 500, 900)
        flipped = ContingencyTable2x2(500, 900, 1200, 300)  # first token recoded
        a = estimate_polychoric(t)
        b = estimate_polychoric(flipped)
        assert a.rho == pytest.approx(-b.rho, abs=1e-6)

    def test_loglik_is_maximum(self):
        t = ContingencyTable2x2(1200, 300, 500, 900)
        est = estimate_polychoric(t)
        cells = np.array([t.n00, t.n01, t.n10, t.n11])
        px = (cells[2] + cells[3]) / cells.sum()
        py = (cells[1] + cells[3]) / cells.sum()

        def ll(rho):
            p11 = bvn_upper(est.tau_x, est.tau_y, rho)
            probs = np.array([1 - px - py + p11, py - p11, px - p11, p11])
            return float(cells @ np.log(probs))

        assert ll(est.rho) == pytest.approx(est.loglik, abs=1e-9)
        for delta in (-0.01, 0.01):
            assert ll(est.rho + delta) <= est.loglik + 1e-12

    def test_bad_tables(self):
        with pytest.raises(PolychoricError):
            ContingencyTable2x2(-1, 2, 3, 4)
        with pytest.raises(PolychoricError):
            ContingencyTable2x2(0.1, 0.1, 0.1, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cell", range(4))
    def test_non_finite_cell_rejected(self, bad, cell):
        cells = [10.0, 10.0, 10.0, 10.0]
        cells[cell] = bad
        with pytest.raises(PolychoricError, match="finite"):
            ContingencyTable2x2(*cells)

    def test_converged_flag_is_computed(self, monkeypatch):
        t = ContingencyTable2x2(1200, 300, 500, 900)
        assert estimate_polychoric(t).converged
        monkeypatch.setattr(polychoric, "_MAX_ITER", 1)
        assert not estimate_polychoric(t).converged

    def test_consistency_improves_with_n(self):
        taus = (0.3, -0.2)
        errors = {2000: [], 50000: []}
        for seed in range(20):
            rng = np.random.default_rng(seed)
            for n in errors:
                z1 = rng.standard_normal(n)
                z2 = 0.6 * z1 + math.sqrt(1 - 0.36) * rng.standard_normal(n)
                t = ContingencyTable2x2.from_arrays(z1 > taus[0], z2 > taus[1])
                errors[n].append(abs(estimate_polychoric(t).rho - 0.6))
        assert np.median(errors[50000]) < np.median(errors[2000])


class TestMatrix:
    def test_independent_tokens_near_identity(self):
        rng = np.random.default_rng(3)
        rows = [(1, 1.0, tuple(rng.random(4) < 0.3)) for _ in range(8000)]
        ds = make_dataset(rows, n_tokens=4)
        pm = polychoric_matrix(ds)
        off = pm.values[~np.eye(4, dtype=bool)]
        assert np.abs(off).max() < 0.08
        assert not pm.psd_repaired
        assert np.all(np.diag(pm.values) == 1.0)

    def test_one_factor_model_offdiagonals(self):
        spec = block_world(
            n=20000, seed=4, group_sizes=(4,), loading=0.8, threshold=0.0, effects=(1.0,)
        )
        ds, _ = generate(spec, truth_mc_n=1000)
        pm = polychoric_matrix(ds)
        off = pm.values[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 0.64, atol=0.05)

    def test_duplicate_column_high_rho_and_unit_diagonal(self):
        rng = np.random.default_rng(9)
        bits = rng.random(500) < 0.4
        other = rng.random(500) < 0.3
        rows = [
            (1 if bits[i] else 4, 1.0, (bool(bits[i]), bool(bits[i]), bool(other[i])))
            for i in range(500)
        ]
        ds = make_dataset(rows, n_tokens=3)
        pm = polychoric_matrix(ds)
        assert pm.values[0, 1] > 0.99
        assert np.all(np.diag(pm.values) == 1.0)
        assert np.linalg.eigvalsh(pm.values).min() >= 1e-8
        # the duplicated pair has two empty off-diagonal cells
        assert pm.corrected_pairs == (("tok0", "tok1"),)
        assert pm.unconverged_pairs == ()
        # the correction keeps the root inside the bracket
        assert pm.boundary_pairs == ()

    def test_boundary_pairs_named(self, monkeypatch):
        rng = np.random.default_rng(9)
        x = rng.random((500, 3)) < 0.4
        x[:, 1] = x[:, 0]  # corrected rho ~ 0.999, beyond a bracket narrowed to 0.9
        ds = make_dataset([(1, 1.0, tuple(r)) for r in x], n_tokens=3)
        monkeypatch.setattr(polychoric, "_THETA_BOUND", math.asin(0.9))
        pm = polychoric_matrix(ds)
        assert pm.boundary_pairs == (("tok0", "tok1"),)
        assert pm.values[0, 1] == pytest.approx(0.9, abs=1e-8)
        assert pm.to_dict()["boundary_pairs"] == [["tok0", "tok1"]]

    def test_unconverged_pairs_named(self, monkeypatch):
        rng = np.random.default_rng(9)
        x = rng.random((500, 3)) < 0.4
        x[:, 1] |= x[:, 0]  # far from rho = 0, so one Newton step cannot settle it
        ds = make_dataset([(1, 1.0, tuple(r)) for r in x], n_tokens=3)
        monkeypatch.setattr(polychoric, "_MAX_ITER", 1)
        pm = polychoric_matrix(ds)
        assert ("tok0", "tok1") in pm.unconverged_pairs
        assert pm.to_dict()["unconverged_pairs"] == [list(p) for p in pm.unconverged_pairs]

    def test_repair_on_constructed_singular_matrix(self):
        raw = np.array([[1.0, 1.0, 0.3], [1.0, 1.0, 0.3], [0.3, 0.3, 1.0]])
        repaired, flag, min_before = repair_to_psd(raw)
        assert flag
        assert min_before < 1e-8
        assert np.all(np.diag(repaired) == 1.0)
        assert np.linalg.eigvalsh(repaired).min() >= 1e-8
        assert np.linalg.norm(repaired - raw) < 0.1

    def test_repair_noop_on_psd(self):
        raw = np.array([[1.0, 0.2], [0.2, 1.0]])
        repaired, flag, min_before = repair_to_psd(raw)
        assert not flag
        assert min_before == pytest.approx(0.8)
        assert np.array_equal(repaired, raw)

    def test_matrix_matches_scalar_estimates(self):
        rng = np.random.default_rng(11)
        z = rng.standard_normal((3000, 3))
        z[:, 1] = 0.5 * z[:, 0] + math.sqrt(0.75) * z[:, 1]
        x = z > 0.4
        rows = [(1, 1.0, tuple(x[i])) for i in range(3000)]
        ds = make_dataset(rows, n_tokens=3)
        pm = polychoric_matrix(ds)
        for i in range(3):
            for j in range(i + 1, 3):
                t = ContingencyTable2x2.from_arrays(x[:, i], x[:, j])
                assert pm.values[i, j] == pytest.approx(
                    estimate_polychoric(t).rho, abs=1e-6
                )

    def test_sign_symmetry_of_column_recode(self):
        rng = np.random.default_rng(13)
        z = rng.standard_normal((4000, 3))
        z[:, 2] = 0.4 * z[:, 0] + math.sqrt(1 - 0.16) * z[:, 2]
        x = z > 0.2
        flipped = x.copy()
        flipped[:, 0] = ~flipped[:, 0]
        mk = lambda m: make_dataset([(1, 1.0, tuple(r)) for r in m], n_tokens=3)
        a = polychoric_matrix(mk(x)).values
        b = polychoric_matrix(mk(flipped)).values
        assert a[0, 1] == pytest.approx(-b[0, 1], abs=1e-6)
        assert a[0, 2] == pytest.approx(-b[0, 2], abs=1e-6)
        assert a[1, 2] == pytest.approx(b[1, 2], abs=1e-12)

    def test_too_few_tokens(self):
        ds = make_dataset([(1, 1.0, (1,))], n_tokens=1)
        with pytest.raises(PolychoricError):
            polychoric_matrix(ds)

    def test_empty_dataset(self):
        ds = make_dataset([], n_tokens=2)
        with pytest.raises(PolychoricError):
            polychoric_matrix(ds)


@st.composite
def latent_tables(draw, max_total):
    """2x2 counts of a dichotomised bivariate normal, sometimes with an empty cell.

    One branch draws 0.925 <= |rho| < 1, where the orthant kernel takes its
    expansion around |rho| = 1.
    """
    sign = draw(st.sampled_from((-1.0, 1.0)))
    rho = draw(st.one_of(
        st.floats(-0.92, 0.92), st.floats(0.925, 0.9999).map(lambda r: sign * r)
    ))
    tau_x, tau_y = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    total = draw(st.integers(20, max_total))
    px, py = ndtr(-tau_x), ndtr(-tau_y)
    p11 = float(_bvn_upper(tau_x, tau_y, rho, px, py))
    probs = np.clip([1.0 - px - py + p11, py - p11, px - p11, p11], 0.0, 1.0)
    cells = np.round(probs * total)
    empty = draw(st.sampled_from((None, 0, 1, 2, 3)))
    if empty is not None:
        cells[empty] = 0.0
    if cells.sum() < 1.0:
        cells[3] = 1.0
    return cells


def _solve(raw_rows):
    """Prepared tables and the solver's (rho, loglik, converged) for them."""
    cells, px, py, tx, ty, _ = _prepare_tables(np.asarray(raw_rows, dtype=np.float64))
    rho, converged, _ = _maximize_rho(cells, px, py, tx, ty)
    loglik = _loglik_batch(cells, px, py, tx, ty, rho)
    return (cells, px, py, tx, ty), (rho, loglik, converged)


def _residual(prepared, rho):
    cells, px, py, tx, ty = prepared
    return abs(float(_bvn_upper(tx, ty, rho, px, py)[0]) - cells[0, 3] / cells[0].sum())


class TestRootSolve:
    """The Newton root of p11(rho) = n11 / N against the golden-section search.

    The golden search compares log-likelihoods of size ~N near a flat
    maximum, so its own error grows with N (about 1e-6 at N = 1e5 with a
    near-empty margin); the rho comparison keeps N <= 5000, where it stays
    below 5e-7. The residual and log-likelihood checks hold at any N.
    """

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(latent_tables(max_total=5000))
    # a Newton step that rounds to zero lands on the bracket edge just set;
    # bisecting there instead of stopping leaves a residual of 1.3e-9
    @example(np.array([50.0, 1639.0, 1053.0, 101.0]))
    def test_matches_golden_section_reference(self, raw):
        prepared, (rho, loglik, converged) = _solve([raw])
        ref_rho, ref_loglik = polychoric_reference.maximize_rho(*prepared)
        assert converged[0]
        assert _residual(prepared, rho) <= 1e-9
        assert loglik[0] >= ref_loglik[0] - 1e-9
        assert abs(rho[0] - ref_rho[0]) <= 1e-6

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(latent_tables(max_total=200_000))
    def test_root_at_survey_scale(self, raw):
        prepared, (rho, loglik, converged) = _solve([raw])
        _, ref_loglik = polychoric_reference.maximize_rho(*prepared)
        assert converged[0]
        assert _residual(prepared, rho) <= 1e-9
        assert loglik[0] >= ref_loglik[0] - 1e-9

    def test_boundary_flag_at_bracket_edge(self):
        # uncorrected tables at tx = ty = 0: empty off-diagonal cells put the
        # root at rho = +1 or -1, outside the bracket; a balanced one is interior
        cells = np.array([[50.0, 0.0, 0.0, 50.0], [0.0, 50.0, 50.0, 0.0], [40.0, 10.0, 10.0, 40.0]])
        half, zero = np.full(3, 0.5), np.zeros(3)
        rho, converged, boundary = _maximize_rho(cells, half, half, zero, zero)
        assert converged.all()
        assert boundary.tolist() == [True, True, False]
        assert np.allclose(np.abs(rho[:2]), 1.0, rtol=0.0, atol=2e-12)
        # p11 = 1/4 + asin(rho) / (2 pi) at zero thresholds
        assert rho[2] == pytest.approx(math.sin(2.0 * math.pi * (0.4 - 0.25)), abs=1e-9)

    def test_closed_form_first_step_changes_no_bit(self):
        rng = np.random.default_rng(8)
        extreme = rng.choice([-1.0, 1.0], 100) * rng.uniform(0.93, 0.9999, 100)
        rho = np.r_[rng.uniform(-0.9, 0.9, 300), extreme]
        tau = rng.uniform(-2.5, 2.5, (400, 2))
        px, py = ndtr(-tau[:, 0]), ndtr(-tau[:, 1])
        p11 = _bvn_upper(tau[:, 0], tau[:, 1], rho, px, py)
        probs = np.stack([1.0 - px - py + p11, py - p11, px - p11, p11], axis=1)
        raw = np.round(np.clip(probs, 0.0, 1.0) * rng.integers(20, 200_000, (400, 1)))
        raw[::9, 2] = 0.0
        spec = block_world(n=3000, seed=4, group_sizes=(4, 3), effects=(1.0, 1.0))
        ds, _ = generate(spec, truth_mc_n=100)
        observed = polychoric._gram_cells(ds.cooccurrence, ds.n_records)
        prepared = _prepare_tables(np.r_[raw, observed])[:5]
        # uncorrected tables at zero thresholds with roots at rho = +1 and -1
        edge = (np.array([[50.0, 0.0, 0.0, 50.0], [0.0, 50.0, 50.0, 0.0]]),
                np.full(2, 0.5), np.full(2, 0.5), np.zeros(2), np.zeros(2))
        tables = [np.concatenate(pair) for pair in zip(prepared, edge)]
        got = _maximize_rho(*tables)
        want = polychoric_reference.newton_rho(*tables)
        assert got[2][-2:].all()
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_batch_does_not_change_a_table(self):
        rng = np.random.default_rng(21)
        extreme = rng.choice([-1.0, 1.0], 40) * rng.uniform(0.93, 0.9999, 40)
        rho = np.r_[rng.uniform(-0.9, 0.9, 60), extreme]
        tau = rng.uniform(-2.0, 2.0, (100, 2))
        px, py = ndtr(-tau[:, 0]), ndtr(-tau[:, 1])
        p11 = _bvn_upper(tau[:, 0], tau[:, 1], rho, px, py)
        probs = np.stack([1.0 - px - py + p11, py - p11, px - p11, p11], axis=1)
        raw = np.round(np.clip(probs, 0.0, 1.0) * rng.integers(50, 50_000, (100, 1)))
        raw[::7, 1] = 0.0
        _, (batch, _, _) = _solve(raw)
        alone = np.array([_solve(raw[i : i + 1])[1][0][0] for i in range(100)])
        assert np.array_equal(alone, batch)
