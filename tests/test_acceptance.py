"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Oracle- and property-based at desk scale; every tolerance is stated inline.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy import integrate
from scipy.special import expit, logit, ndtr
from scipy.stats import norm

from tokenimpact import factors
from tokenimpact.cli import main as cli_main
from tokenimpact.descriptives import entropy_bits, information_gain, jaccard_matrix
from tokenimpact.factors import (
    assign_groups,
    extract_factors,
    parallel_analysis_detail,
    varimax,
    varimax_criterion,
)
from tokenimpact.glm import (
    DesignSpec,
    auc_score,
    build_design,
    cumulative_impact,
    evaluate,
    fit_logistic,
    group_fix_impact,
)
from tokenimpact.polychoric import ContingencyTable2x2, bvn_upper, estimate_polychoric, polychoric_matrix
from tokenimpact.survey import clean_uninformative, write_csv
from tokenimpact.synthetic import default_world_spec, generate, ground_truth_impact
from tokenimpact.timu import Metric, MetricSpec, timu

from conftest import block_world, grouping_from_partition, make_dataset


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {num:02d} ({name}): {status}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, f"criterion {num:02d} ({name}) failed {detail}"


_WORLDS = {}


def _world(key: str):
    """Planted worlds shared by the counterfactual and dominance criteria."""
    if key not in _WORLDS:
        specs = {
            "two_group": block_world(
                n=40000, seed=100, group_sizes=(3, 3), intercept=-2.5,
                effects=(1.8, 1.2),
            ),
            "three_group": block_world(
                n=40000, seed=202, group_sizes=(2, 3, 2), intercept=-2.8,
                effects=(1.5, 1.0, 2.0),
            ),
            "interacting": block_world(
                n=40000, seed=306, group_sizes=(3, 3), intercept=-2.5,
                effects=(1.8, 1.2), interactions=((0, 1),),
                interaction_effects=(-0.8,),
            ),
        }
        spec = specs[key]
        ds, _ = generate(spec, truth_mc_n=1000)
        grouping = grouping_from_partition(ds.vocabulary.names, spec.group_partition)
        design = build_design(
            ds, DesignSpec(grouping=grouping, interactions=spec.glm_interactions)
        )
        model = fit_logistic(design)
        _WORLDS[key] = (spec, ds, design, model)
    return _WORLDS[key]


def test_criterion_01_polychoric_analytic_oracle():
    start = time.perf_counter()
    worst = 0.0
    for p11 in (0.25, 0.30, 0.375):
        off = 0.5 - p11
        est = estimate_polychoric(ContingencyTable2x2(p11, off, off, p11))
        expected = math.sin(2 * math.pi * (p11 - 0.25))
        worst = max(worst, abs(est.rho - expected))
    elapsed = time.perf_counter() - start
    _verdict(
        1, "polychoric analytic oracle",
        worst < 0.01 and elapsed < 1.0,
        f"max err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_polychoric_consistency():
    start = time.perf_counter()
    n = 50_000
    taus = (0.3, -0.2)
    medians = {}
    for rho in (-0.5, 0.0, 0.3, 0.7):
        errors = []
        for seed in range(20):
            rng = np.random.default_rng([seed, abs(hash(rho)) % 2**32])
            z1 = rng.standard_normal(n)
            z2 = rho * z1 + math.sqrt(1 - rho * rho) * rng.standard_normal(n)
            table = ContingencyTable2x2.from_arrays(z1 > taus[0], z2 > taus[1])
            errors.append(abs(estimate_polychoric(table).rho - rho))
        medians[rho] = float(np.median(errors))
    elapsed = time.perf_counter() - start
    _verdict(
        2, "polychoric consistency",
        all(m < 0.03 for m in medians.values()) and elapsed < 30.0,
        f"median errors {medians}, {elapsed:.1f}s",
    )


def test_criterion_03_bvn_kernel():
    start = time.perf_counter()

    def oracle(a, b, rho):
        scale = math.sqrt(1.0 - rho * rho)
        value, _ = integrate.quad(
            lambda x: norm.pdf(x) * norm.sf((b - rho * x) / scale),
            a, np.inf, epsabs=1e-13, epsrel=1e-13, limit=200,
        )
        return value

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        a, b = rng.uniform(-3, 3, size=2)
        rho = rng.uniform(-0.999, 0.999)
        worst = max(worst, abs(bvn_upper(a, b, rho) - oracle(a, b, rho)))
    identity_err = max(
        abs(bvn_upper(0, 0, 0.0) - 0.25),
        abs(bvn_upper(0, 0, 1.0) - 0.5),
        abs(bvn_upper(0, 0, 0.5) - (0.25 + math.asin(0.5) / (2 * math.pi))),
    )
    elapsed = time.perf_counter() - start
    _verdict(
        3, "bivariate normal kernel",
        worst < 1e-6 and identity_err < 1e-6 and elapsed < 10.0,
        f"grid err {worst:.2e}, identities {identity_err:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_factor_pipeline_recovery():
    start = time.perf_counter()
    k_hits = 0
    partition_hits = 0
    for seed in range(10):
        spec = default_world_spec(n=20_000, seed=seed)
        ds, _ = generate(spec, truth_mc_n=1000)
        ds, _ = clean_uninformative(ds)
        corr = polychoric_matrix(ds)
        pa = parallel_analysis_detail(corr, ds, reps=100, quantile=0.95, seed=1000 + seed)
        if pa.n_factors == 5:
            k_hits += 1
        grouping = assign_groups(varimax(extract_factors(corr, 5)))
        got = {tok: g for g, grp in enumerate(grouping.groups) for tok in grp.members}
        recovered = not grouping.unassigned and len(got) == 15
        if recovered:
            mapping = {}
            for token, planted in zip(spec.vocabulary().names, spec.group_partition):
                mapping.setdefault(planted, got[token])
                recovered &= mapping[planted] == got[token]
            recovered &= len(set(mapping.values())) == 5
        partition_hits += bool(recovered)
    elapsed = time.perf_counter() - start
    _verdict(
        4, "factor pipeline recovery",
        k_hits >= 9 and partition_hits >= 9 and elapsed < 300.0,
        f"k=5 in {k_hits}/10, partition in {partition_hits}/10, {elapsed:.0f}s",
    )


def test_criterion_05_varimax_properties():
    from tokenimpact.factors import FactorModel

    rng = np.random.default_rng(12345)
    ok = True
    for _ in range(50):
        lam = rng.uniform(-1, 1, size=(15, 5)) * 0.4
        model = FactorModel(
            tokens=tuple(f"t{i}" for i in range(15)),
            loadings=lam,
            communalities=(lam**2).sum(axis=1),
            variance_explained=(lam**2).sum(axis=0) / 15,
            rotation="none",
            converged=True,
            n_iter=1,
        )
        rotated = varimax(model)
        ok &= varimax_criterion(rotated.loadings) >= varimax_criterion(lam) - 1e-12
        ok &= bool(
            np.all(np.abs(rotated.communalities - model.communalities) < 1e-9)
        )
    _verdict(5, "varimax criterion and communalities", ok)


def test_criterion_06_information_gain_oracle():
    def oracle(x, y):
        x = np.asarray(x, bool)
        y = np.asarray(y, bool)

        def h(counts):
            total = sum(counts)
            return -sum(c / total * math.log2(c / total) for c in counts if c)

        joint = [
            int(((x == a) & (y == b)).sum())
            for a in (False, True)
            for b in (False, True)
        ]
        return (
            h([int((~x).sum()), int(x.sum())])
            + h([int((~y).sum()), int(y.sum())])
            - h(joint)
        )

    ok = True
    for length in (1, 2, 3, 4):
        for xs in itertools.product((0, 1), repeat=length):
            for ys in itertools.product((0, 1), repeat=length):
                ok &= abs(information_gain(xs, ys) - oracle(xs, ys)) < 1e-10
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(1, 21))
        x = rng.random(n) < rng.uniform(0.2, 0.8)
        y = rng.random(n) < rng.uniform(0.2, 0.8)
        ok &= abs(information_gain(x, y) - oracle(x, y)) < 1e-10
    y = np.r_[np.ones(500, bool), np.zeros(500, bool)]
    perfect = abs(information_gain(y, y) - 1.0) < 1e-12
    x_big = rng.random(100_000) < 0.5
    y_big = rng.random(100_000) < 0.5
    independent = information_gain(x_big, y_big) < 0.01
    _verdict(6, "information gain oracle", ok and perfect and independent)


def test_criterion_07_jaccard_oracle():
    rng = np.random.default_rng(7)
    ok = True
    for density in (0.05, 0.3, 0.7):
        rows = [(1, 1.0, tuple(rng.random(5) < density)) for _ in range(1000)]
        ds = make_dataset(rows, n_tokens=5)
        jm = jaccard_matrix(ds)
        x = ds.token_matrix
        for i in range(5):
            for j in range(5):
                if i == j:
                    ok &= jm.values[i, j] == 0.0
                    continue
                si = {k for k in range(1000) if x[k, i]}
                sj = {k for k in range(1000) if x[k, j]}
                expected = len(si & sj) / len(si | sj) if (si | sj) else 0.0
                ok &= jm.values[i, j] == expected
    _verdict(7, "jaccard set oracle", ok)


def test_criterion_08_timu(timu_fixture):
    result = timu(timu_fixture, "audio.noise", MetricSpec(Metric.POOR_INDICATOR))
    exact = abs(result.mean_impact - 0.3) < 1e-12
    over = True
    for seed in range(20):
        spec = block_world(
            n=2000, seed=seed, group_sizes=(2, 2), loading=0.6, threshold=0.6,
            intercept=-2.0, effects=(1.5, 1.0),
        )
        ds, _ = generate(spec, truth_mc_n=100)
        pcr = MetricSpec(Metric.POOR_INDICATOR)
        total = sum(timu(ds, t, pcr).mean_impact for t in ds.vocabulary.names)
        union = timu(ds, list(ds.vocabulary.names), pcr).mean_impact
        over &= total >= union - 1e-12
    _verdict(8, "timu fixture and overestimation", exact and over)


def test_criterion_09_glm_recovery():
    spec = block_world(
        n=100_000, seed=42, group_sizes=(3,), intercept=-3.0, effects=(2.0,)
    )
    ds, _ = generate(spec, truth_mc_n=100)
    grouping = grouping_from_partition(ds.vocabulary.names, spec.group_partition)
    model = fit_logistic(build_design(ds, DesignSpec(grouping=grouping)))
    recovery = (
        abs(model.coefficients[0] + 3.0) < 0.1 and abs(model.coefficients[1] - 2.0) < 0.1
    )

    x = np.ones((400, 1))
    y = np.r_[np.ones(100), np.zeros(300)]
    intercept_only = abs(
        fit_logistic(x, y).coefficients[0] - logit(0.25)
    ) < 1e-6

    def auc_oracle(scores, labels):
        pos = scores[labels]
        neg = scores[~labels]
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        return wins / (len(pos) * len(neg))

    rng = np.random.default_rng(9)
    auc_ok = True
    for _ in range(10):
        n = int(rng.integers(10, 201))
        scores = rng.integers(0, 7, size=n) / 6.0
        labels = rng.random(n) < 0.4
        if labels.all() or not labels.any():
            continue
        auc_ok &= abs(auc_score(scores, labels) - auc_oracle(scores, labels)) < 1e-12
    _verdict(
        9, "glm recovery and auc oracle",
        recovery and intercept_only and auc_ok,
        f"coefficients {np.round(model.coefficients, 3).tolist()}",
    )


def test_criterion_10_timm_counterfactual():
    covered = True
    details = []
    for key in ("two_group", "three_group", "interacting"):
        spec, ds, design, model = _world(key)
        impacts = group_fix_impact(model, design, n_boot=300, seed=50)
        for g, est in enumerate(impacts):
            truth = ground_truth_impact(spec, g, n_mc=200_000, seed=999)
            lo = est.ci_lo - 3 * truth.mc_se
            hi = est.ci_hi + 3 * truth.mc_se
            covered &= lo <= truth.reduction <= hi
            details.append(f"{key}/g{g}: {est.reduction:.3f} vs {truth.reduction:.3f}")
    spec, ds, design, model = _world("interacting")
    singles = [i.reduction for i in group_fix_impact(model, design, n_boot=10, seed=1)]
    final = cumulative_impact(model, design)[-1][1]
    non_additive = abs(final - sum(singles)) > 0.01
    _verdict(
        10, "timm counterfactual vs ground truth",
        covered and non_additive,
        "; ".join(details) + f"; non-additivity gap {abs(final - sum(singles)):.3f}",
    )


def test_criterion_11_baseline_dominance():
    ok = True
    aucs = []
    for key in ("two_group", "three_group", "interacting"):
        _, ds, design, model = _world(key)
        glm_auc = evaluate(model, design).auc
        baseline = auc_score(ds.any_token_mask.astype(float), ds.poor_mask)
        ok &= glm_auc > baseline
        aucs.append(f"{key}: {glm_auc:.3f} > {baseline:.3f}")
    spec = default_world_spec(n=20_000, seed=77)
    ds, _ = generate(spec, truth_mc_n=100)
    grouping = grouping_from_partition(ds.vocabulary.names, spec.group_partition)
    design = build_design(
        ds, DesignSpec(grouping=grouping, interactions=spec.glm_interactions)
    )
    model = fit_logistic(design)
    glm_auc = evaluate(model, design).auc
    baseline = auc_score(ds.any_token_mask.astype(float), ds.poor_mask)
    ok &= glm_auc > baseline
    aucs.append(f"default_world: {glm_auc:.3f} > {baseline:.3f}")
    _verdict(11, "glm dominates any-token baseline", ok, "; ".join(aucs))


def test_criterion_12_cli_determinism(tmp_path, monkeypatch):
    data = tmp_path / "data.csv"
    rc = cli_main([
        "simulate", "--preset", "default-world", "--n", "3000", "--seed", "11",
        "--out", str(data), "--truth", str(tmp_path / "truth.json"),
        "--truth-mc", "5000",
    ])
    assert rc == 0
    data2 = tmp_path / "data2.csv"
    rc = cli_main([
        "simulate", "--preset", "default-world", "--n", "3000", "--seed", "11",
        "--out", str(data2), "--truth-mc", "5000",
    ])
    assert rc == 0
    ok = data.read_bytes() == data2.read_bytes()

    def artifacts(outdir):
        return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}

    runs = {
        "describe": ["describe"],
        "timu": ["timu"],
        "timm": ["timm", "impact", "--reps", "20", "--bootstrap", "40"],
    }
    default_chunk = factors._CHUNK_TABLES
    for name, argv in runs.items():
        snaps = []
        # the third run solves the parallel-analysis references in chunks of
        # 60 tables instead of about 1k
        for run_id, chunk_tables in (("a", default_chunk), ("b", default_chunk), ("c", 60)):
            monkeypatch.setattr(factors, "_CHUNK_TABLES", chunk_tables)
            out = tmp_path / f"{name}_{run_id}"
            rc = cli_main(
                argv + ["--input", str(data), "--outdir", str(out), "--seed", "13"]
            )
            assert rc == 0, name
            snaps.append(artifacts(out))
        ok &= snaps[0] == snaps[1] == snaps[2]
    _verdict(12, "cli determinism across reruns and chunking", ok)
