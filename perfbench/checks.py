"""Correctness checks on each workload's artifacts.

Every check compares against a computation made here, apart from the
program, or against a property the method must have; none compares against
a stored copy of earlier output. Each function returns a list of problems,
empty when the artifacts pass.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import world

POOR_RATING_MAX = 2


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(path: Path):
    """Parse JSON, refusing NaN and Infinity."""
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def _json_problems(outdir: Path) -> list[str]:
    problems = []
    for path in sorted(outdir.glob("*.json")):
        try:
            strict_json(path)
        except ValueError as exc:
            problems.append(f"{path.name}: {exc}")
    return problems


def read_survey(path: Path) -> dict:
    """Survey columns read with the csv module: ratings, ptq flags, tokens."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    tokens = [c[len("token_"):] for c in header[4:]]
    flags = np.array([[v in ("1", "true") for v in row[3:]] for row in rows], dtype=bool)
    return {
        "tokens": tokens,
        "ratings": np.array([int(row[1]) for row in rows]),
        "ptq": flags[:, 0] if rows else np.zeros(0, dtype=bool),
        "x": flags[:, 1:] if rows else np.zeros((0, len(tokens)), dtype=bool),
    }


def _close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol


def check_simulate(csv_path: Path, truth_path: Path, n: int) -> list[str]:
    problems = _json_problems(truth_path.parent)
    if problems:
        return problems
    survey = read_survey(csv_path)
    ratings, ptq, x = survey["ratings"], survey["ptq"], survey["x"]
    if len(ratings) != n:
        problems.append(f"{len(ratings)} rows, expected {n}")
    if ((ratings < 1) | (ratings > 5)).any():
        problems.append("rating outside 1..5")
    five = ratings == 5
    if (x[five].any(axis=1) | ptq[five]).any():
        problems.append("a rating of 5 carries tokens or ptq_submitted")
    if (x.any(axis=1) & ~ptq).any():
        problems.append("tokens without ptq_submitted")

    truth = strict_json(truth_path)
    spec = truth["spec"]
    for name, t, rate in zip(survey["tokens"], spec["thresholds"], x.mean(axis=0)):
        p = 0.5 * math.erfc(t / math.sqrt(2.0))
        se = math.sqrt(p * (1.0 - p) / len(ratings))
        if abs(rate - p) > 5.0 * se:
            problems.append(f"token {name} rate {rate:.4f}, planted {p:.4f} (se {se:.4f})")
    lam = np.asarray(spec["loadings"])
    rho = np.asarray(truth["truth"]["rho"])
    off = ~np.eye(len(rho), dtype=bool)
    if not np.allclose(rho[off], (lam @ lam.T)[off], rtol=0.0, atol=1e-12):
        problems.append("truth rho differs from loadings @ loadings.T")
    if not np.all(np.diag(rho) == 1.0):
        problems.append("truth rho diagonal is not 1")
    reductions = truth["truth"]["group_reductions"]
    if len(reductions) != max(spec["group_partition"]) + 1:
        problems.append("one ground-truth reduction per group expected")
    for g, r in enumerate(reductions):
        if not (0.0 < r["reduction"] < 1.0 and r["mc_se"] > 0.0):
            problems.append(f"group {g} reduction {r['reduction']} mc_se {r['mc_se']}")
    return problems


def _read_matrix(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return [r[0] for r in rows[1:]], np.array([[float(v) for v in r[1:]] for r in rows[1:]])


def check_factors(outdir: Path) -> list[str]:
    problems = _json_problems(outdir)
    if problems:
        return problems
    report = strict_json(outdir / "factors_report.json")
    if report["n_factors"] != len(world.planted_groups()):
        problems.append(f"n_factors {report['n_factors']}, planted {len(world.planted_groups())}")
    grouping = strict_json(outdir / "grouping.json")["grouping"]
    found = {frozenset(g["members"]) for g in grouping["groups"]}
    if found != world.planted_groups() or grouping["unassigned"]:
        problems.append(f"grouping {sorted(map(sorted, found))} is not the planted partition")
    tokens, corr = _read_matrix(outdir / "polychoric.csv")
    if corr.shape != (len(tokens), len(tokens)) or not np.array_equal(corr, corr.T):
        problems.append("polychoric.csv is not symmetric")
        return problems
    if not np.all(np.diag(corr) == 1.0):
        problems.append("polychoric.csv diagonal is not 1")
    eig = np.sort(np.linalg.eigvalsh(corr))[::-1]
    observed = np.asarray(report["parallel_analysis"]["observed_eigenvalues"])
    if observed.shape != eig.shape or not np.allclose(observed, eig, rtol=0.0, atol=1e-9):
        problems.append("observed_eigenvalues differ from eigenvalues of polychoric.csv")
    if not _close(float(eig.sum()), float(len(tokens)), 1e-9):
        problems.append(f"eigenvalues sum to {eig.sum()}, not {len(tokens)}")
    return problems


def _restricted_size(poor: np.ndarray, ptq: np.ndarray) -> int:
    """Rows kept by the restriction to tokened poor calls at the input PCR:
    every poor call with feedback, plus good calls downsampled by the same
    retention fraction."""
    kept_poor = int((poor & ptq).sum())
    n_good = int((~poor).sum())
    return kept_poor + min(n_good, int(round(kept_poor / int(poor.sum()) * n_good)))


def check_report(input_csv: Path, outdir: Path) -> list[str]:
    problems = _json_problems(outdir)
    if problems:
        return problems
    survey = read_survey(input_csv)
    x, ptq = survey["x"], survey["ptq"]
    poor = survey["ratings"] <= POOR_RATING_MAX
    names = survey["tokens"]

    describe = strict_json(outdir / "describe_report.json")
    freq = describe["frequencies"]
    if (freq["n_all"], freq["n_poor"]) != (len(poor), int(poor.sum())):
        problems.append("describe n_all / n_poor differ from the input")
    for j, entry in enumerate(freq["tokens"]):
        expect = (names[j], int(x[:, j].sum()), int((x[:, j] & poor).sum()))
        if (entry["token"], entry["count_all"], entry["count_poor"]) != expect:
            problems.append(f"describe counts for {entry['token']} differ from the input")
    both = x.T.astype(np.int64) @ x.astype(np.int64)
    either = x.sum(axis=0)[:, None] + x.sum(axis=0)[None, :] - both
    jaccard = np.where(either > 0, both / np.maximum(either, 1), 0.0)
    np.fill_diagonal(jaccard, 0.0)
    _, csv_values = _read_matrix(outdir / "jaccard.csv")
    for label, values in (("describe_report.json", describe["jaccard"]["values"]),
                          ("jaccard.csv", csv_values)):
        if not np.allclose(np.asarray(values), jaccard, rtol=0.0, atol=1e-12):
            problems.append(f"{label} Jaccard values differ from the input")

    n = _restricted_size(poor, ptq)
    pcr = {r["token_or_set"]: r for r in strict_json(outdir / "timu_report.json")["rankings"]["pcr"]}
    if sorted(pcr) != sorted(names):
        problems.append("timu PCR ranking does not cover every token")
    for j, name in enumerate(names):
        r = pcr.get(name)
        if r and (r["n"] != n or not _close(r["mean_impact"], int((x[:, j] & poor).sum()) / n)):
            problems.append(f"timu PCR impact of {name} is not count(poor and token) / n")

    impact = strict_json(outdir / "impact_report.json")["impact"]
    singles = []
    for g in impact["individual"]:
        singles.append(g["reduction"])
        if not 0.0 < g["ci_lo"] <= g["reduction"] <= g["ci_hi"] < 1.0:
            problems.append(f"{g['group']}: reduction {g['reduction']} outside "
                            f"0 < [{g['ci_lo']}, {g['ci_hi']}] < 1")
    if not singles or impact["cumulative"][-1] < max(singles) - 1e-12:
        problems.append("final cumulative reduction is below the largest single one")
    if not impact["auc"] > impact["baseline_auc"]:
        problems.append(f"auc {impact['auc']} does not beat baseline {impact['baseline_auc']}")
    # the report runs the factor stage too and writes the same artifacts
    return problems + check_factors(outdir)
