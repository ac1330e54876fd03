"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench -q``.

They stay out of the repository's tier-1 run, which collects ``tests/`` only.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path[:0] = [str(BENCH_DIR), str(SRC)]

import checks  # noqa: E402
import tracer  # noqa: E402
import world  # noqa: E402
from tokenimpact.cli import main as cli_main  # noqa: E402


def _rewrite_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _first_row(rows, predicate) -> list[str]:
    return next(r for r in rows[1:] if predicate(r))


def _set_nan(data: dict) -> None:
    data["nan_probe"] = float("nan")


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    out = tmp_path_factory.mktemp("simulate")
    rc = cli_main(["simulate", "--preset", "default-world", "--n", "4000", "--seed", "3",
                   "--truth-mc", "20000", "--out", str(out / "survey.csv"),
                   "--truth", str(out / "truth.json")])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def factors(tmp_path_factory):
    out = tmp_path_factory.mktemp("factors")
    world.write_csv(world.sample(10_000, 4), out / "input.csv")
    rc = cli_main(["timm", "factors", "--input", str(out / "input.csv"),
                   "--outdir", str(out / "art"), "--seed", "4"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def reported(tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    world.write_csv(world.sample(10_000, 5), out / "input.csv")
    rc = cli_main(["report", "--input", str(out / "input.csv"), "--outdir", str(out / "art"),
                   "--seed", "5", "--interactions", "aic", "--bootstrap", "50", "--reps", "20"])
    assert rc == 0
    return out


def _corrupt(src: Path, dst: Path, name: str, edit) -> Path:
    """Copy the artifacts in ``src`` to ``dst`` and apply ``edit`` to file ``name``."""
    dst.mkdir()
    for path in src.iterdir():
        if path.is_file():
            (dst / path.name).write_bytes(path.read_bytes())
    (_rewrite_csv if name.endswith(".csv") else _rewrite_json)(dst / name, edit)
    return dst


def _assert_caught(problems: list[str], expected: str, label: str) -> None:
    assert any(expected in p for p in problems), (label, problems)


SIMULATE_CORRUPTIONS = {
    "row dropped": ("rows, expected", "survey.csv", lambda rows: rows.pop()),
    "token on a 5": ("rating of 5", "survey.csv", lambda rows: _first_row(
        rows, lambda r: r[1] == "5").__setitem__(4, "1")),
    "token without ptq": ("without ptq_submitted", "survey.csv", lambda rows: _first_row(
        rows, lambda r: "1" in r[4:]).__setitem__(3, "0")),
    "prevalence off": ("planted", "truth.json", lambda d: d["spec"]["thresholds"].__setitem__(
        2, d["spec"]["thresholds"][2] - 0.3)),
    "rho off": ("loadings @ loadings.T", "truth.json", lambda d: d["truth"]["rho"][0].__setitem__(
        1, d["truth"]["rho"][0][1] + 1e-6)),
    "reduction above 1": ("group 0 reduction", "truth.json", lambda d: d["truth"]["group_reductions"][0].__setitem__(
        "reduction", 1.2)),
    "zero mc_se": ("group 1 reduction", "truth.json", lambda d: d["truth"]["group_reductions"][1].__setitem__(
        "mc_se", 0.0)),
    "NaN in JSON": ("NaN", "truth.json", _set_nan),
}


def test_simulate_check_passes_then_catches_each_corruption(simulated, tmp_path):
    assert checks.check_simulate(simulated / "survey.csv", simulated / "truth.json", 4000) == []
    for label, (expected, name, edit) in SIMULATE_CORRUPTIONS.items():
        out = _corrupt(simulated, tmp_path / label.replace(" ", "_"), name, edit)
        _assert_caught(checks.check_simulate(out / "survey.csv", out / "truth.json", 4000),
                       expected, label)


def _swap_member(d: dict) -> None:
    groups = d["grouping"]["groups"]
    groups[1]["members"].append(groups[0]["members"].pop())


def _bump(rows, i, j, delta) -> None:
    rows[i][j] = repr(float(rows[i][j]) + delta)


FACTOR_CORRUPTIONS = {
    "factor count": ("n_factors 4", "factors_report.json", lambda d: d.__setitem__("n_factors", 4)),
    "grouping": ("planted partition", "grouping.json", _swap_member),
    "asymmetric": ("not symmetric", "polychoric.csv", lambda rows: _bump(rows, 1, 2, 1e-3)),
    "diagonal": ("diagonal is not 1", "polychoric.csv", lambda rows: _bump(rows, 3, 3, 1e-3)),
    "eigenvalues": ("observed_eigenvalues differ", "factors_report.json", lambda d: d["parallel_analysis"][
        "observed_eigenvalues"].__setitem__(0, d["parallel_analysis"]["observed_eigenvalues"][0] + 1e-3)),
    "NaN in JSON": ("NaN", "factors_report.json", _set_nan),
}


def test_factors_check_passes_then_catches_each_corruption(factors, tmp_path):
    assert checks.check_factors(factors / "art") == []
    for label, (expected, name, edit) in FACTOR_CORRUPTIONS.items():
        out = _corrupt(factors / "art", tmp_path / label.replace(" ", "_"), name, edit)
        _assert_caught(checks.check_factors(out), expected, label)


def _group(d: dict, key: str, value) -> None:
    d["impact"]["individual"][0][key] = value


REPORT_CORRUPTIONS = {
    "describe count": ("describe counts", "describe_report.json", lambda d: d["frequencies"]["tokens"][2].__setitem__(
        "count_all", d["frequencies"]["tokens"][2]["count_all"] + 1)),
    "describe jaccard": ("describe_report.json Jaccard", "describe_report.json", lambda d: d["jaccard"]["values"][0].__setitem__(
        1, d["jaccard"]["values"][0][1] + 1e-6)),
    "jaccard.csv": ("jaccard.csv Jaccard", "jaccard.csv", lambda rows: _bump(rows, 2, 1, 1e-6)),
    "timu impact": ("timu PCR impact", "timu_report.json", lambda d: d["rankings"]["pcr"][0].__setitem__(
        "mean_impact", d["rankings"]["pcr"][0]["mean_impact"] + 1e-9)),
    "ci above reduction": ("outside 0 <", "impact_report.json", lambda d: _group(
        d, "ci_lo", d["impact"]["individual"][0]["reduction"] + 1e-6)),
    "ci reaches 1": ("outside 0 <", "impact_report.json", lambda d: _group(d, "ci_hi", 1.0)),
    "cumulative below single": ("final cumulative", "impact_report.json", lambda d: d["impact"]["cumulative"].__setitem__(
        -1, max(g["reduction"] for g in d["impact"]["individual"]) - 1e-6)),
    "auc at baseline": ("does not beat baseline", "impact_report.json", lambda d: d["impact"].__setitem__(
        "auc", d["impact"]["baseline_auc"])),
    "NaN in JSON": ("NaN", "impact_report.json", _set_nan),
    "factor grouping": ("planted partition", "grouping.json", _swap_member),
}


def test_report_check_passes_then_catches_each_corruption(reported, tmp_path):
    assert checks.check_report(reported / "input.csv", reported / "art") == []
    for label, (expected, name, edit) in REPORT_CORRUPTIONS.items():
        out = _corrupt(reported / "art", tmp_path / label.replace(" ", "_"), name, edit)
        _assert_caught(checks.check_report(reported / "input.csv", out), expected, label)


def test_generator_recovers_planted_prevalences():
    n = 200_000
    rates = world.sample(n, 3)["tokens"].mean(axis=0)
    planted = world.planted_prevalences()
    se = np.sqrt(planted * (1 - planted) / n)
    assert np.all(np.abs(rates - planted) < 5 * se)
    assert planted[0] == pytest.approx(0.5 * math.erfc(world.THRESHOLDS[0] / math.sqrt(2)))


def test_generator_is_seeded_and_keeps_the_survey_rules(tmp_path):
    a, b = world.sample(2000, 8), world.sample(2000, 8)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert not np.array_equal(a["tokens"], world.sample(2000, 9)["tokens"])
    world.write_csv(a, tmp_path / "w.csv")
    survey = checks.read_survey(tmp_path / "w.csv")
    assert survey["tokens"] == list(world.TOKENS)
    assert np.array_equal(survey["x"], a["tokens"])
    five = survey["ratings"] == 5
    assert not survey["x"][five].any() and not survey["ptq"][five].any()
    assert np.all(survey["ptq"][survey["x"].any(axis=1)])


def _fake_package(name: str) -> dict[str, types.ModuleType]:
    """A package with one traced function, re-exported by a second module."""
    survey = types.ModuleType(f"{name}.survey")

    def load_csv(path, vocabulary=None):
        time.sleep(0.001)
        return types.SimpleNamespace(n_records=7)

    survey.load_csv = load_csv
    cli = types.ModuleType(f"{name}.cli")
    cli.load_csv = load_csv
    cli.run = lambda: cli.load_csv("x.csv")
    return {name: types.ModuleType(name), f"{name}.survey": survey, f"{name}.cli": cli}


def test_tracer_survives_missing_functions(monkeypatch):
    for mod_name, module in _fake_package("fakeprog").items():
        monkeypatch.setitem(sys.modules, mod_name, module)
    t = tracer.Tracer()
    t.install("fakeprog")
    assert t.installed == ["survey.load_csv"]
    assert "glm.fit_logistic" in t.missing and "survey.write_csv" in t.missing

    cli = sys.modules["fakeprog.cli"]
    span = t.open(tracer.COMMAND)
    cli.run()
    t.close(span)
    metrics = tracer.layer_metrics(t.spans, t.installed)
    assert metrics["survey.load_csv.calls"] == 1
    assert metrics["survey.rows_loaded"] == 7
    assert 0 < metrics["survey.load_csv.s"] <= metrics["cli.command.s"]
    assert metrics["cli.self.s"] == pytest.approx(
        metrics["cli.command.s"] - metrics["survey.load_csv.s"])
    assert not any(name.startswith("glm.") for name in metrics)


def test_tracer_drops_a_count_the_result_no_longer_carries(monkeypatch):
    package = _fake_package("fakeprog2")
    package["fakeprog2.survey"].load_csv = lambda path: object()
    package["fakeprog2.cli"].load_csv = package["fakeprog2.survey"].load_csv
    for mod_name, module in package.items():
        monkeypatch.setitem(sys.modules, mod_name, module)
    t = tracer.Tracer()
    t.install("fakeprog2")
    sys.modules["fakeprog2.cli"].load_csv("x.csv")
    metrics = tracer.layer_metrics(t.spans, t.installed)
    assert metrics["survey.load_csv.calls"] == 1
    assert "survey.rows_loaded" not in metrics


def test_traced_child_reports_layers_of_the_real_program(tmp_path):
    result = tmp_path / "result.json"
    out = tmp_path / "out"
    out.mkdir()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), repr(time.monotonic()), str(result), "1",
         str(SRC), str(min(os.sched_getaffinity(0))), "--", "simulate", "--preset", "default-world", "--n", "500", "--seed", "1",
         "--truth-mc", "2000", "--out", str(out / "s.csv"), "--truth", str(out / "t.json")],
        env={"PYTHONPATH": str(SRC), "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(result.read_text())
    assert data["rc"] == 0 and not data["missing"]
    assert len(data["ref_s"]) == 2 and min(data["ref_s"]) > 0
    metrics = tracer.layer_metrics(data["spans"], data["installed"])
    assert metrics["synthetic.ground_truth_impact.calls"] == 5
    assert metrics["synthetic.generate.s"] > 0 and metrics["survey.write_csv.s"] > 0
    assert metrics["survey.load_csv.calls"] == 0
    assert 0 <= metrics["cli.self.s"] < metrics["cli.command.s"]
    assert metrics["cli.command.s"] == pytest.approx(data["wall_s"], abs=1e-3)
