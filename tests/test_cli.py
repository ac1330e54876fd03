import dataclasses
import hashlib
import json
import logging
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import tokenimpact
from tokenimpact import cli, factors, glm, synthetic
from tokenimpact.cli import main
from tokenimpact.descriptives import InformationGain
from tokenimpact.survey import write_csv

from conftest import make_dataset


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def world_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("world")
    out = tmp / "data.csv"
    rc = run(
        "simulate", "--preset", "default-world", "--n", 4000, "--seed", 7,
        "--out", out, "--truth", tmp / "truth.json", "--truth-mc", 20000,
    )
    assert rc == 0
    return out


def snapshot(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


_SPEC = {
    "loadings": [[0.5, 0.0], [0.0, 0.6]], "thresholds": [0.0, 0.5], "group_partition": [0, 1],
    "glm_intercept": -1.0, "glm_group_effects": [1.0, 0.5], "n": 50, "seed": 1,
}
nan, inf = float("nan"), float("inf")


def _spec_body(**change) -> str:
    """The text of a valid two-group spec file with some keys changed."""
    return json.dumps({**_SPEC, **change})


class TestSimulate:
    def test_truth_file_contents(self, world_csv):
        truth = json.loads((world_csv.parent / "truth.json").read_text())
        assert truth["spec"]["n"] == 4000
        assert len(truth["truth"]["group_reductions"]) == 5
        assert truth["truth"]["n_factors"] == 5

    def test_rerun_is_byte_identical(self, tmp_path, world_csv):
        out = tmp_path / "again.csv"
        rc = run("simulate", "--preset", "default-world", "--n", 4000, "--seed", 7,
                 "--out", out, "--truth-mc", 1000)
        assert rc == 0
        assert out.read_bytes() == world_csv.read_bytes()

    def test_spec_file_round_trip(self, tmp_path, world_csv):
        spec = json.loads((world_csv.parent / "truth.json").read_text())["spec"]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "from_spec.csv"
        rc = run("simulate", "--spec", spec_path, "--out", out, "--truth-mc", 1000)
        assert rc == 0
        assert out.read_bytes() == world_csv.read_bytes()

    def test_spec_and_preset_are_exclusive(self, tmp_path):
        assert run("simulate", "--out", tmp_path / "x.csv") == 2

    @pytest.mark.parametrize("body, message", [
        ('{"loadings": ', "is not valid JSON"),
        ("[1, 2]", "must hold a JSON object"),
        ('{"loadings": [[0.5]]}', "spec key 'thresholds' is missing"),
        ('{"loadings": [[0.5]], "thresholds": [0.0], "group_partition": [0], '
         '"glm_intercept": -1.0, "glm_group_effects": [1.0], "n": "many", "seed": 1}',
         "spec key 'n' is malformed"),
        ('{"loadings": [[0.5]], "thresholds": [0.0], "group_partition": [0], '
         '"glm_intercept": -1.0, "glm_group_effects": [1.0], "n": 10, "seed": 1, '
         '"duration": [300.0]}', "spec key 'duration' is malformed"),
        ('{"loadings": [[0.5]], "thresholds": [0.0], "group_partition": [0], '
         '"glm_intercept": -1.0, "glm_group_effects": [1.0], "n": 200, "seed": 1, '
         '"duration": {"base_mean_s": 1e308}}', "non-finite duration inf"),
        # json writes nan and inf as NaN and Infinity, which json also reads
        (_spec_body(loadings=[[0.5, 0.0], [nan, 0.6]]), "loadings must be finite"),
        (_spec_body(thresholds=[0.0, inf]), "thresholds must be finite"),
        (_spec_body(glm_intercept=-inf), "glm_intercept must be finite"),
        (_spec_body(glm_group_effects=[1.0, nan]), "glm_group_effects must be finite"),
        (_spec_body(glm_interactions=[[0, 1]], glm_interaction_effects=[nan]),
         "glm_interaction_effects must be finite"),
        (_spec_body(duration={"base_mean_s": nan}), "base_mean_s must be positive and finite"),
        (_spec_body(duration={"sigma": inf}), "sigma must be non-negative and finite"),
        (_spec_body(duration={"group_penalties": [1.0, nan]}), "positive finite multipliers"),
        (_spec_body(n=2.7), "spec key 'n' is malformed: expected an integer, got 2.7"),
        (_spec_body(n="50"), "spec key 'n' is malformed"),
        (_spec_body(seed=True), "spec key 'seed' is malformed: expected an integer, got true"),
        (_spec_body(seed=-1), "seed must be non-negative"),
        (_spec_body(group_partition=[0.9, 1]), "spec key 'group_partition' is malformed"),
        (_spec_body(glm_intercept=False), "spec key 'glm_intercept' is malformed"),
        (_spec_body(glm_interactions=[[0, 1, 1]], glm_interaction_effects=[0.5]),
         "spec key 'glm_interactions' is malformed"),
        (_spec_body(token_names=["a", 2]), "spec key 'token_names' is malformed"),
        (_spec_body(glm_interaction_effect=[-0.5], duration={"sigmaa": 0.5}),
         "unknown spec keys: ['glm_interaction_effect', 'duration.sigmaa']"),
        (_spec_body(duration={"penalties": [1.0, 1.0]}), "unknown spec keys: ['duration.penalties']"),
        (_spec_body(duration={"sigma": "wide"}),
         "spec key 'duration.sigma' is malformed: expected a number, got \"wide\""),
        (_spec_body(duration={"group_penalties": [1.0, None]}),
         "spec key 'duration.group_penalties' is malformed: expected a number, got null"),
        (_spec_body(loadings=[[0.5, 0.0], [0.6]]), "spec key 'loadings' is malformed"),
        (_spec_body(thresholds=[[[0.0]], [0.5]]),
         "spec key 'thresholds' is malformed: expected a number, got [0.0]"),
    ])
    def test_bad_spec_exits_2(self, tmp_path, capsys, body, message):
        spec = tmp_path / "spec.json"
        spec.write_text(body)
        out, truth = tmp_path / "x.csv", tmp_path / "truth.json"
        assert run("simulate", "--spec", spec, "--out", out, "--truth", truth) == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["stage"] == "validation" and message in error["message"]
        assert not out.exists() and not truth.exists()

    def test_spec_integers_stand_for_floats(self, tmp_path):
        written = []
        for tag, numbers in (
            ("float", {"thresholds": [0.0, 1.0], "glm_intercept": -1.0}),
            ("int", {"thresholds": [0, 1], "glm_intercept": -1}),
        ):
            spec = tmp_path / f"{tag}.json"
            spec.write_text(_spec_body(**numbers))
            out, truth = tmp_path / tag / "x.csv", tmp_path / tag / "truth.json"
            assert run("simulate", "--spec", spec, "--out", out, "--truth", truth,
                       "--truth-mc", 100) == 0
            written.append((out.read_bytes(), truth.read_bytes()))
        assert written[0] == written[1]

    @pytest.mark.parametrize("option", [["--seed", 99], ["--n", 7], ["--n", 7, "--seed", 99]])
    def test_spec_refuses_preset_options(self, tmp_path, capsys, option):
        # the spec file holds its own seed and n
        spec = tmp_path / "spec.json"
        spec.write_text(_spec_body())
        out, truth = tmp_path / "x.csv", tmp_path / "truth.json"
        assert run("simulate", "--spec", spec, *option, "--out", out, "--truth", truth) == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["message"].startswith("--seed and --n are not read with --spec")
        assert not out.exists() and not truth.exists()

    @pytest.mark.parametrize("module", ["tokenimpact", "tokenimpact.cli"])
    def test_module_entry_point_writes_csv(self, tmp_path, module):
        out = tmp_path / "s.csv"
        src = str(Path(tokenimpact.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", module, "simulate", "--preset", "default-world",
             "--n", "300", "--seed", "1", "--out", str(out), "--truth-mc", "100"],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().startswith("call_id,rating,duration_s,ptq_submitted,")

    def test_commands_run_without_scipy(self, tmp_path):
        # scipy is a test oracle only: a fresh interpreter running simulate
        # and report must never import it, nor numpy.ma (about 15 ms) or
        # concurrent.futures (about 5 ms)
        src = str(Path(tokenimpact.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        script = (
            "import sys\n"
            "from tokenimpact.cli import main\n"
            "def loaded():\n"
            "    print(sorted(m for m in sys.modules\n"
            "                 if m.split('.')[0] in ('scipy', 'concurrent')\n"
            "                 or m.split('.')[:2] == ['numpy', 'ma']))\n"
            "d = sys.argv[1]\n"
            "assert main(['simulate', '--preset', 'default-world', '--n', '4000', '--seed', '7',\n"
            "             '--out', d + '/s.csv', '--truth', d + '/t.json', '--truth-mc', '1000']) == 0\n"
            "loaded()\n"
            "assert main(['report', '--input', d + '/s.csv', '--outdir', d + '/out',\n"
            "             '--seed', '3', '--interactions', 'aic']) == 0\n"
            "loaded()\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]", "[]"]
        assert (tmp_path / "out" / "impact_report.json").exists()

    def test_preset_seed_must_be_non_negative(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run("simulate", "--preset", "default-world", "--seed", -1, "--out", out) == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("draws", [0, -5])
    def test_truth_needs_a_draw(self, tmp_path, draws):
        out = tmp_path / "x.csv"
        rc = run("simulate", "--preset", "default-world", "--n", 100, "--seed", 1,
                 "--out", out, "--truth-mc", draws)
        assert rc == 2
        assert not out.exists()

    def test_truth_is_drawn_only_for_a_truth_file(self, tmp_path, monkeypatch):
        args = ("simulate", "--preset", "default-world", "--n", 500, "--seed", 4,
                "--truth-mc", 1000)
        assert run(*args, "--out", tmp_path / "with.csv", "--truth", tmp_path / "t.json") == 0

        def no_draw(*_):
            raise AssertionError("the truth was drawn without --truth")

        monkeypatch.setattr(synthetic, "_truth_draw", no_draw)
        assert run(*args, "--out", tmp_path / "without.csv") == 0
        # the truth has its own stream, so the data do not depend on it
        assert (tmp_path / "without.csv").read_bytes() == (tmp_path / "with.csv").read_bytes()

    def test_preset_requires_seed(self, tmp_path):
        rc = run("simulate", "--preset", "default-world", "--out", tmp_path / "x.csv")
        assert rc == 2

    def test_out_parent_directories_are_created(self, tmp_path):
        out = tmp_path / "new" / "dir" / "x.csv"
        rc = run("simulate", "--preset", "default-world", "--n", 100, "--seed", 1,
                 "--out", out, "--truth-mc", 100)
        assert rc == 0
        assert out.read_text().startswith("call_id,")

    @pytest.mark.parametrize("option", ["--out", "--truth"])
    def test_directory_as_output_file_exits_2(self, tmp_path, capsys, option):
        paths = {"--out": tmp_path / "x.csv", "--truth": tmp_path / "t.json", option: tmp_path}
        rc = run("simulate", "--preset", "default-world", "--n", 100, "--seed", 1,
                 "--truth-mc", 100, *(a for pair in paths.items() for a in pair))
        assert rc == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["stage"] == "validation"
        assert error["message"].startswith(f"cannot write {tmp_path}:")
        # both paths are checked before the data is generated: no file is written
        assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("target", ["dir", "missing"])
@pytest.mark.parametrize("command, option", [
    (("describe", "--outdir", "o", "--seed", 1), "--input"),
    (("report", "--outdir", "o", "--seed", 1, "--input", "x.csv"), "--config"),
    (("simulate", "--out", "o/x.csv"), "--spec"),
], ids=["describe-input", "report-config", "simulate-spec"])
def test_unreadable_input_path_exits_2(tmp_path, monkeypatch, capsys, command, option, target):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.csv").write_text("call_id,rating,duration_s,ptq_submitted,token_a\nc1,2,5,1,1\n")
    (tmp_path / "dir").mkdir()
    assert run(*command, option, tmp_path / target) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["stage"] == "validation"
    assert str(tmp_path / target) in error["message"]
    if target == "dir":
        assert error["message"].startswith("cannot read ")
    assert not (tmp_path / "o").exists()


def _run_cli(*argv, **kwargs) -> subprocess.CompletedProcess:
    """A CLI run in a fresh interpreter, killed after 60 s."""
    src = str(Path(tokenimpact.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "tokenimpact", *map(str, argv)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, timeout=60, **kwargs,
    )


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_input_that_is_not_a_regular_file_exits_2(tmp_path, world_csv):
    # a pipe can be read only once, so its SHA-256 could not be recorded;
    # a named pipe with no writer would block the open
    fifo = tmp_path / "fifo.csv"
    os.mkfifo(fifo)
    proc = _run_cli("describe", "--input", fifo, "--outdir", tmp_path / "o", "--seed", 1)
    assert proc.returncode == 2
    error = json.loads(proc.stderr)
    assert error["message"].startswith(f"cannot read {fifo}: --input must be a regular file")
    assert "SHA-256" in error["message"]
    proc = _run_cli("describe", "--input", "/dev/stdin", "--outdir", tmp_path / "o",
                    "--seed", 1, input=world_csv.read_bytes())
    assert proc.returncode == 2
    assert not (tmp_path / "o").exists()


def test_input_redirected_to_stdin_records_its_hash(tmp_path, world_csv):
    out = tmp_path / "o"
    with open(world_csv, "rb") as stdin:
        proc = _run_cli("describe", "--input", "/dev/stdin", "--outdir", out, "--seed", 1,
                        stdin=stdin)
    assert proc.returncode == 0, proc.stderr
    provenance = json.loads((out / "describe_report.json").read_text())["provenance"]
    assert provenance["input_sha256"] == hashlib.sha256(world_csv.read_bytes()).hexdigest()


class TestDescribe:
    def test_artifacts(self, tmp_path, world_csv):
        out = tmp_path / "out"
        assert run("describe", "--input", world_csv, "--outdir", out, "--seed", 3) == 0
        report = json.loads((out / "describe_report.json").read_text())
        assert report["information_gain"]["balanced"]["bits"] > 0
        assert report["provenance"]["seed"] == 3
        assert len(report["frequencies"]["tokens"]) == 15
        rates = (out / "token_rates.csv").read_text().splitlines()
        assert rates[0] == "token,population,rate"
        assert len(rates) == 1 + 2 * 15
        jac = (out / "jaccard.csv").read_text().splitlines()
        assert len(jac) == 16

    def test_seed_required(self, tmp_path, world_csv):
        assert run("describe", "--input", world_csv, "--outdir", tmp_path / "o") == 2

    def test_file_as_outdir_exits_2(self, tmp_path, world_csv, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run("describe", "--input", world_csv, "--outdir", taken, "--seed", 3) == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["stage"] == "validation"
        assert error["message"].startswith(f"cannot create --outdir {taken}:")
        assert taken.read_text() == ""

    def test_invalid_csv_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("call_id,rating,duration_s,ptq_submitted,token_a\nc1,9,5,0,0\n")
        assert run("describe", "--input", bad, "--outdir", tmp_path / "o", "--seed", 1) == 2

    def test_non_finite_duration_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("call_id,rating,duration_s,ptq_submitted,token_a\nc1,2,inf,1,1\n")
        out = tmp_path / "o"
        assert run("timu", "--input", bad, "--outdir", out, "--seed", 1) == 2
        assert "line 2: non-finite duration" in capsys.readouterr().err
        assert not (out / "timu_report.json").exists()

    @pytest.mark.parametrize(
        "body, message",
        [
            (b"c1,2,5,1,1\n" + b"c" * 200_000 + b",2,5,1,1\n", "line 3: field larger"),
            (b"c1,2,5,1,1\nc\xff,2,5,1,1\n", "line 3: not UTF-8 text"),
            (b"c1,2,5,1,1\nc2,3,5,0,0\nc1,4,5,0,0\n", "line 4: duplicate call_id 'c1'"),
        ],
        ids=["field_limit", "non_utf8", "duplicate_id"],
    )
    def test_malformed_file_exits_2(self, tmp_path, capsys, body, message):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"call_id,rating,duration_s,ptq_submitted,token_a\n" + body)
        assert run("describe", "--input", bad, "--outdir", tmp_path / "o", "--seed", 1) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ValidationError"
        assert error["message"].startswith(message)

    def test_rerun_byte_identical(self, tmp_path, world_csv):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("describe", "--input", world_csv, "--outdir", out, "--seed", 3) == 0
        assert snapshot(a) == snapshot(b)

    def test_seed_enters_only_the_provenance(self, tmp_path, world_csv):
        artifacts = []
        for seed in (1, 2):
            out = tmp_path / str(seed)
            assert run("describe", "--input", world_csv, "--outdir", out, "--seed", seed) == 0
            files = snapshot(out)
            report = json.loads(files.pop("describe_report.json"))
            provenance = report["provenance"]
            assert provenance.pop("seed") == provenance["config"].pop("seed") == seed
            artifacts.append((report, files))
        assert artifacts[0] == artifacts[1]

    def test_balanced_gain_weights_the_classes_equally(self, tmp_path):
        # poor: 3 calls with a token and 1 without; good: 2 with and 6 without
        rows = ([(1, 60.0, (1, 0))] * 3 + [(2, 60.0, (0, 0))] + [(4, 60.0, (0, 1))] * 2
                + [(3, 60.0, (0, 0))] * 6)
        data, out = tmp_path / "data.csv", tmp_path / "out"

        def gain(rows):
            write_csv(make_dataset(rows), data)
            assert run("describe", "--input", data, "--outdir", out, "--seed", 1) == 0
            return json.loads((out / "describe_report.json").read_text())["information_gain"]

        # each class weighs 1/2, so H(poor) is 1 bit; a token holds half the
        # weight, and P(poor | token) = 3/4 / (3/4 + 2/8) = 3/4, P(poor | none) = 1/4
        h = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        balanced = gain(rows)["balanced"]
        assert balanced["bits"] == pytest.approx(1.0 - h, abs=1e-12)
        assert balanced["fraction"] == pytest.approx(1.0 - h, abs=1e-12)
        assert balanced["degenerate"] is False
        # with one class only there is nothing to balance
        assert gain([r for r in rows if r[0] >= 3])["balanced"] is None
        assert gain([r for r in rows if r[0] <= 2])["balanced"] is None

    def test_non_finite_report_value_exits_2(self, tmp_path, world_csv, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "table_information_gain",
            lambda table: InformationGain(bits=float("nan"), fraction=None, degenerate=False),
        )
        out = tmp_path / "out"
        assert run("describe", "--input", world_csv, "--outdir", out, "--seed", 3) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ValidationError"
        assert "describe_report.json" in error["message"]
        assert not (out / "describe_report.json").exists()

    def test_empty_token_dataset_gets_degenerate_flag(self, tmp_path):
        rows = [(1, 60.0, (0, 0))] * 3 + [(4, 60.0, (0, 0))] * 5
        ds = make_dataset(rows, n_tokens=2)
        data = tmp_path / "empty.csv"
        write_csv(ds, data)
        out = tmp_path / "out"
        assert run("describe", "--input", data, "--outdir", out, "--seed", 1) == 0
        report = json.loads((out / "describe_report.json").read_text())
        rates = [t["rate_all_rated"] for t in report["frequencies"]["tokens"]]
        assert rates == [0.0, 0.0]
        ig = report["information_gain"]["representative"]
        assert ig["bits"] == 0.0 and ig["degenerate"] is True
        assert report["jaccard"]["undefined_pairs"] == [["tok0", "tok1"]]


class TestTimu:
    def test_report_both_metrics(self, tmp_path, world_csv):
        out = tmp_path / "out"
        assert run("timu", "--input", world_csv, "--outdir", out, "--seed", 3) == 0
        report = json.loads((out / "timu_report.json").read_text())
        assert set(report["rankings"]) == {"pcr", "acd"}
        assert report["fix_values"]["pcr"] == 0.0
        assert report["fix_values"]["acd"] > 0
        plot = (out / "timu_plot.csv").read_text().splitlines()
        assert plot[0] == "metric,token,impact,ci95_halfwidth"
        assert len(plot) == 1 + 2 * 15

    def test_hand_fixture_impact_through_cli(self, tmp_path, timu_fixture):
        data = tmp_path / "fixture.csv"
        write_csv(timu_fixture, data)
        out = tmp_path / "out"
        assert run("timu", "--input", data, "--outdir", out, "--seed", 1,
                   "--metric", "pcr") == 0
        report = json.loads((out / "timu_report.json").read_text())
        top = report["rankings"]["pcr"][0]
        assert top["token_or_set"] == "audio.noise"
        assert top["mean_impact"] == pytest.approx(0.3, abs=1e-12)

    def test_fix_value_requires_single_metric(self, tmp_path, world_csv):
        rc = run("timu", "--input", world_csv, "--outdir", tmp_path / "o",
                 "--seed", 1, "--fix-value", "0.5")
        assert rc == 2

    def test_strict_delta_narrows_interval(self, tmp_path, timu_fixture):
        data = tmp_path / "fixture.csv"
        write_csv(timu_fixture, data)
        cis = {}
        for name, extra in (("default", []), ("strict", ["--strict-delta"])):
            out = tmp_path / name
            assert run("timu", "--input", data, "--outdir", out, "--seed", 1,
                       "--metric", "pcr", *extra) == 0
            report = json.loads((out / "timu_report.json").read_text())
            top = report["rankings"]["pcr"][0]
            cis[name] = top["ci95_halfwidth"]
        # subtracting the covariance twice removes more shared variance here
        assert cis["strict"] < cis["default"]

    def test_pcr_acd_orders_differ_on_constructed_fixture(self, tmp_path):
        # fixing tok1 lengthens its short good calls to the 300 s clean mean
        rows = [(1, 300.0, (1, 0))] * 5
        rows += [(4, 30.0, (0, 1))] * 5
        rows += [(4, 300.0, (0, 0))] * 10
        ds = make_dataset(rows, n_tokens=2)
        data = tmp_path / "two.csv"
        write_csv(ds, data)
        out = tmp_path / "out"
        assert run("timu", "--input", data, "--outdir", out, "--seed", 1,
                   "--no-restrict") == 0
        report = json.loads((out / "timu_report.json").read_text())
        pcr_order = [r["token_or_set"] for r in report["rankings"]["pcr"]]
        acd_order = [r["token_or_set"] for r in report["rankings"]["acd"]]
        assert pcr_order != acd_order


class TestTimm:
    def test_factors_artifacts(self, tmp_path, world_csv):
        out = tmp_path / "out"
        rc = run("timm", "factors", "--input", world_csv, "--outdir", out,
                 "--seed", 5, "--reps", 25)
        assert rc == 0
        grouping = json.loads((out / "grouping.json").read_text())
        assert grouping["grouping"]["groups"]
        factors = json.loads((out / "factors_report.json").read_text())
        assert factors["n_factors"] >= 1
        assert len(factors["parallel_analysis"]["observed_eigenvalues"]) == 15
        assert factors["corrected_pairs"] == [] and factors["unconverged_pairs"] == []
        assert factors["boundary_pairs"] == []
        model = factors["factor_model"]
        assert model["rotation_converged"] and model["rotation_iterations"] >= 1
        poly = (out / "polychoric.csv").read_text().splitlines()
        assert poly[0].startswith("token,")
        assert len(poly) == 16

    def test_impact_artifacts(self, tmp_path, world_csv):
        out = tmp_path / "out"
        rc = run("timm", "impact", "--input", world_csv, "--outdir", out,
                 "--seed", 5, "--reps", 25, "--bootstrap", 50)
        assert rc == 0
        report = json.loads((out / "impact_report.json").read_text())
        impact = report["impact"]
        assert impact["auc"] > impact["baseline_auc"]
        assert len(impact["cumulative"]) == len(impact["groups"])
        assert impact["separated_groups"] == []
        plot = (out / "impact_plot.csv").read_text().splitlines()
        assert plot[0] == "group,individual,cumulative,ci_lo,ci_hi"

    def test_independent_world_exits_4(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = [(int(rng.integers(1, 5)), 60.0, tuple(rng.random(4) < 0.2))
                for _ in range(2500)]
        ds = make_dataset(rows, n_tokens=4)
        data = tmp_path / "indep.csv"
        write_csv(ds, data)
        rc = run("timm", "factors", "--input", data, "--outdir", tmp_path / "o",
                 "--seed", 2, "--reps", 25, "--no-restrict")
        assert rc == 4

    def test_structure_free_report_fails_with_no_factor_error(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rows = [(int(rng.integers(1, 5)), 60.0, tuple(rng.random(4) < 0.2))
                for _ in range(2500)]
        data = tmp_path / "indep.csv"
        write_csv(make_dataset(rows, n_tokens=4), data)
        rc = run("report", "--input", data, "--outdir", tmp_path / "o",
                 "--seed", 2, "--reps", 25, "--no-restrict")
        assert rc == 4
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error == {
            "error": "NoFactorError",
            "stage": "factor",
            "message": "no factor exceeds noise floor",
        }

    def test_force_k_overrides(self, tmp_path, world_csv):
        out = tmp_path / "out"
        rc = run("timm", "factors", "--input", world_csv, "--outdir", out,
                 "--seed", 5, "--reps", 25, "--force-k", 2)
        assert rc == 0
        factors = json.loads((out / "factors_report.json").read_text())
        assert factors["n_factors"] == 2

    def test_rerun_and_chunking_byte_identical(self, tmp_path, world_csv, monkeypatch):
        outs = [tmp_path / name for name in ("a", "b", "c")]
        # the third run solves the parallel-analysis references in chunks of
        # 60 tables instead of about 1k
        for out, chunk_tables in zip(outs, (factors._CHUNK_TABLES,) * 2 + (60,)):
            monkeypatch.setattr(factors, "_CHUNK_TABLES", chunk_tables)
            rc = run("timm", "impact", "--input", world_csv, "--outdir", out,
                     "--seed", 5, "--reps", 20, "--bootstrap", 40)
            assert rc == 0
        assert snapshot(outs[0]) == snapshot(outs[1])
        assert snapshot(outs[0]) == snapshot(outs[2])

    def test_config_file_supplies_options(self, tmp_path, world_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"reps": 20, "bootstrap": 30, "seed": 5}))
        out = tmp_path / "out"
        rc = run("timm", "impact", "--input", world_csv, "--outdir", out,
                 "--config", cfg)
        assert rc == 0
        report = json.loads((out / "impact_report.json").read_text())
        assert report["provenance"]["config"]["reps"] == 20

    def test_config_unknown_key_rejected(self, tmp_path, world_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"repz": 20}))
        rc = run("timm", "impact", "--input", world_csv, "--outdir", tmp_path / "o",
                 "--config", cfg, "--seed", 5)
        assert rc == 2

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key, value", [
        ("quantile", 1.5), ("quantile", -0.1), ("bootstrap", 0), ("bootstrap", -3),
        ("ridge", -1.0), ("ridge", float("inf")), ("min_positives", -1), ("min_positives", 0),
        ("reps", 5), ("reps", 9), ("threshold", 1.5), ("threshold", -1.0),
    ])
    def test_out_of_range_option_rejected_before_loading(
        self, tmp_path, world_csv, monkeypatch, capsys, key, value, source
    ):
        def no_load(cfg):
            raise AssertionError("input loaded before the options were checked")

        monkeypatch.setattr(cli, "_load_input", no_load)
        if source == "flag":
            option = ["--" + key.replace("_", "-"), value]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}))
            option = ["--config", cfg]
        out = tmp_path / "o"
        rc = run("report", "--input", world_csv, "--outdir", out, "--seed", 5, *option)
        assert rc == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["stage"] == "validation" and key in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("body, message", [
        ('{"quantile": "0.5"}',
         "config key 'quantile' is malformed: expected a number, got \"0.5\""),
        ('{"reps": true}', "config key 'reps' is malformed: expected an integer, got true"),
        ('{"reps": 20.0}', "config key 'reps' is malformed: expected an integer, got 20.0"),
        ('{"seed": "5"}',
         "config key 'seed' is malformed: expected an integer or null, got \"5\""),
        ('{"restrict": 0}', "config key 'restrict' is malformed: expected true or false, got 0"),
        ('{"quantile": ', "is not valid JSON"),
        ("[1, 2]", "must hold a JSON object"),
    ])
    def test_mistyped_config_rejected_before_loading(
        self, tmp_path, world_csv, monkeypatch, capsys, body, message
    ):
        def no_load(cfg):
            raise AssertionError("input loaded before the options were checked")

        monkeypatch.setattr(cli, "_load_input", no_load)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(body)
        rc = run("report", "--input", world_csv, "--outdir", tmp_path / "o",
                 "--seed", 5, "--config", cfg)
        assert rc == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["stage"] == "validation" and message in error["message"]

    @pytest.mark.parametrize("option, config, message", [
        (["--force-k", 0], None, "force_k must be at least 1"),
        (["--force-k", -2], None, "force_k must be at least 1"),
        (None, '{"force_k": 0}', "force_k must be at least 1"),
        (["--fix-value", "nan", "--metric", "pcr"], None, "fix_value must be finite"),
        (["--fix-value", "inf", "--metric", "acd"], None, "fix_value must be finite"),
        (None, '{"fix_value": NaN, "metric": "pcr"}', "fix_value must be finite"),
        (["--fix-value", 0.5], None, "--fix-value requires a single --metric"),
        (["--fix-value", 0.5, "--metric", "both"], None, "requires a single --metric"),
        (None, '{"fix_value": 0.5}', "requires a single --metric"),
        (None, '{"metric": "xyz"}', "unknown metric 'xyz'"),
        (["--interactions", "1-2"], None, "bad --interactions '1-2'"),
        (["--interactions", "auto"], None, "bad --interactions 'auto'"),
        (["--interactions", "0:1"], None, "bad --interactions '0:1'"),
        (["--interactions", "2:2"], None, "bad --interactions '2:2'"),
        (["--interactions", "1:2,"], None, "bad --interactions '1:2,'"),
        (None, '{"interactions": "1:x"}', "bad --interactions '1:x'"),
        # stage configs are checked in stage order: timu's before timm's reps
        (["--reps", 5, "--fix-value", 1], None, "--fix-value requires a single --metric"),
    ])
    def test_invalid_option_rejected_before_loading(
        self, tmp_path, world_csv, monkeypatch, capsys, option, config, message
    ):
        def no_load(cfg):
            raise AssertionError("input loaded before the options were checked")

        monkeypatch.setattr(cli, "_load_input", no_load)
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(config)
            option = ["--config", cfg]
        out = tmp_path / "o"
        out.mkdir()
        rc = run("report", "--input", world_csv, "--outdir", out, "--seed", 5, *option)
        assert rc == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["stage"] == "validation" and message in error["message"]
        assert list(out.iterdir()) == []

    def test_pair_beyond_the_groups_keeps_its_model_error(self, tmp_path, world_csv):
        rc = run("timm", "impact", "--input", world_csv, "--outdir", tmp_path / "o",
                 "--seed", 5, "--reps", 20, "--bootstrap", 30, "--interactions", "1:99")
        assert rc == 5

    def test_config_types_follow_the_options(self, tmp_path):
        # an integer stands for a float and is stored as one, and null
        # stands for an optional value
        cfg = tmp_path / "cfg.json"
        body = {"ridge": 0, "quantile": 1, "force_k": None, "fix_value": 2, "restrict": False}
        cfg.write_text(json.dumps(body))
        read = cli._read_fields(cli.RunConfig, cfg, "config")
        assert read == body
        assert {key: type(value) for key, value in read.items()} == {
            "ridge": float, "quantile": float, "force_k": type(None), "fix_value": float,
            "restrict": bool,
        }

    def test_config_nested_too_deep_to_parse_exits_2(self, tmp_path, world_csv, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"reps": ' + "[" * 100_000 + "]" * 100_000 + "}")
        rc = run("report", "--input", world_csv, "--outdir", tmp_path / "o", "--seed", 5,
                 "--config", cfg)
        assert rc == 2
        assert "is not valid JSON" in capsys.readouterr().err

    def test_config_writes_the_bytes_of_its_flags(self, tmp_path, world_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"quantile": 1, "ridge": 0}))
        args = ("timm", "factors", "--input", world_csv, "--seed", 5, "--reps", 20)
        assert run(*args, "--outdir", tmp_path / "config", "--config", cfg) == 0
        assert run(*args, "--outdir", tmp_path / "flags", "--quantile", 1, "--ridge", 0) == 0
        assert snapshot(tmp_path / "config") == snapshot(tmp_path / "flags")

    def test_config_keys_of_other_commands_warned_and_ignored(self, tmp_path, world_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"reps": 5, "metric": "acd"}))
        src = str(Path(tokenimpact.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "tokenimpact", "describe", "--input", str(world_csv),
             "--outdir", str(tmp_path / "with"), "--seed", "3", "--config", str(cfg)],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == (
            "WARNING tokenimpact: config keys not read by this command: metric, reps\n"
        )
        assert run("describe", "--input", world_csv, "--outdir", tmp_path / "without",
                   "--seed", 3) == 0
        assert snapshot(tmp_path / "with") == snapshot(tmp_path / "without")

    def test_full_config_warns_only_commands_that_skip_keys(
        self, tmp_path, world_csv, caplog
    ):
        full = cli.RunConfig(
            input=str(world_csv), seed=5, reps=20, bootstrap=30, interactions="none"
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dataclasses.asdict(full)))
        assert run("report", "--outdir", tmp_path / "report", "--config", cfg) == 0
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
        assert run("describe", "--outdir", tmp_path / "describe", "--config", cfg) == 0
        [warning] = [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert warning.getMessage().endswith(
            "bootstrap, fix_value, force_k, interactions, metric, min_positives, "
            "quantile, reps, restrict, ridge, strict_delta, threshold"
        )

    def test_threads_option_is_gone(self, tmp_path, world_csv):
        with pytest.raises(SystemExit) as exc:
            run("report", "--input", world_csv, "--outdir", tmp_path / "o",
                "--seed", 5, "--threads", 2)
        assert exc.value.code == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threads": 2}))
        rc = run("report", "--input", world_csv, "--outdir", tmp_path / "o",
                 "--seed", 5, "--config", cfg)
        assert rc == 2

    def test_auto_interactions_rejected(self, tmp_path, world_csv):
        rc = run("timm", "impact", "--input", world_csv, "--outdir", tmp_path / "o",
                 "--seed", 5, "--reps", 20, "--bootstrap", 30, "--interactions", "auto")
        assert rc == 2

    def test_explicit_interactions(self, tmp_path, world_csv):
        out = tmp_path / "out"
        rc = run("timm", "impact", "--input", world_csv, "--outdir", out,
                 "--seed", 5, "--reps", 20, "--bootstrap", 30,
                 "--interactions", "1:2")
        assert rc == 0
        report = json.loads((out / "impact_report.json").read_text())
        assert report["interactions"] == [[0, 1]]


class TestTimmRecovery:
    def test_grouping_matches_planted_partition_end_to_end(self, tmp_path):
        data = tmp_path / "big.csv"
        rc = run("simulate", "--preset", "default-world", "--n", 20000, "--seed", 3,
                 "--out", data, "--truth-mc", 1000)
        assert rc == 0
        out = tmp_path / "out"
        rc = run("timm", "factors", "--input", data, "--outdir", out,
                 "--seed", 21, "--reps", 60)
        assert rc == 0
        grouping = json.loads((out / "grouping.json").read_text())["grouping"]
        assert grouping["unassigned"] == []
        got = {frozenset(g["members"]) for g in grouping["groups"]}
        planted = {
            frozenset(["video.dark", "video.stopped", "video.av_sync",
                       "video.poor_image", "video.freeze"]),
            frozenset(["audio.interrupt", "audio.distorted", "audio.low_volume",
                       "audio.echo", "audio.noise"]),
            frozenset(["oneway.no_audio_recv", "oneway.no_audio_sent"]),
            frozenset(["oneway.no_video_recv", "oneway.no_video_sent"]),
            frozenset(["reliability.drop"]),
        }
        assert got == planted


class TestReport:
    def test_full_report(self, tmp_path, world_csv):
        out = tmp_path / "out"
        rc = run("report", "--input", world_csv, "--outdir", out,
                 "--seed", 5, "--reps", 20, "--bootstrap", 30)
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        for name in summary["artifacts"]:
            assert (out / name).exists(), name

    def test_aic_report_builds_the_design_once(self, tmp_path, world_csv, monkeypatch):
        calls = []
        build = glm.build_design

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        for module in (cli, glm):
            monkeypatch.setattr(module, "build_design", counted)
        rc = run("report", "--input", world_csv, "--outdir", tmp_path / "out",
                 "--seed", 5, "--reps", 20, "--bootstrap", 30, "--interactions", "aic")
        assert rc == 0
        assert len(calls) == 1

    def test_every_stream_of_a_report_is_apart(self, tmp_path, world_csv, monkeypatch):
        real = np.random.default_rng
        seeds = []

        def spy(seed):
            seeds.append(seed if isinstance(seed, int) else tuple(seed))
            return real(seed)

        monkeypatch.setattr(np.random, "default_rng", spy)
        rc = run("report", "--input", world_csv, "--outdir", tmp_path / "out",
                 "--seed", 5, "--interactions", "aic")
        monkeypatch.undo()
        assert rc == 0
        # the restriction, ten parallel-analysis blocks of 10 replicates and
        # one bootstrap draw for every group
        assert seeds == [5, *((5, b, 1) for b in range(10)), (5, 0, 2)]
        assert len({real(seed).random() for seed in seeds}) == len(seeds)

    def test_json_keys_are_pinned(self, tmp_path, world_csv):
        # a field that reaches a report, or leaves it, shows here
        def keys(value):
            """An object's keys, each with its value's; a list of objects
            as its first element's; None for anything else."""
            if isinstance(value, dict):
                return {key: keys(v) for key, v in value.items()}
            if isinstance(value, list) and value and isinstance(value[0], dict):
                return [keys(value[0])]
            return None

        def leaves(*names):
            return dict.fromkeys(names)

        config = leaves(
            "seed", "metric", "strict_delta", "restrict", "min_positives", "reps",
            "quantile", "threshold", "interactions", "bootstrap", "ridge",
        )
        provenance = {
            "config": config,
            **leaves("input", "input_sha256", "seed", "version", "dataset_lineage"),
        }
        information_gain = leaves("bits", "fraction", "degenerate")
        ranking = [leaves("token_or_set", "mean_impact", "ci95_halfwidth", "n")]
        expected = {
            "describe_report.json": {
                "provenance": provenance,
                "frequencies": {
                    **leaves("n_all", "n_poor"),
                    "tokens": [leaves(
                        "token", "count_all", "count_poor", "rate_all_rated", "rate_poor",
                    )],
                },
                "information_gain": {
                    "representative": information_gain, "balanced": information_gain,
                },
                "jaccard": leaves("tokens", "values", "undefined_pairs"),
            },
            "timu_report.json": {
                "provenance": provenance,
                "strict_delta": None,
                "fix_values": leaves("pcr", "acd"),
                "rankings": {"pcr": ranking, "acd": ranking},
            },
            "factors_report.json": {
                "provenance": provenance,
                **leaves(
                    "removed_tokens", "n_factors", "psd_repaired", "min_eigenvalue_before",
                    "corrected_pairs", "unconverged_pairs", "boundary_pairs",
                ),
                "parallel_analysis": leaves(
                    "n_factors", "observed_eigenvalues", "reference_quantiles", "reps",
                    "quantile",
                ),
                "factor_model": leaves(
                    "tokens", "loadings", "communalities", "variance_explained", "rotation",
                    "converged", "n_iter", "heywood_tokens", "rotation_iterations",
                    "rotation_converged",
                ),
            },
            "grouping.json": {
                "provenance": provenance,
                "grouping": {
                    "groups": [leaves("name", "members", "variance_explained")],
                    **leaves("unassigned", "threshold"),
                },
            },
            "impact_report.json": {
                "provenance": provenance,
                "interactions": None,
                "glm": leaves(
                    "terms", "coefficients", "ridge", "converged", "iterations", "loglik",
                ),
                "impact": {
                    **leaves(
                        "groups", "order", "cumulative", "auc", "baseline_auc",
                        "tpr_at_fpr", "baseline_pcr", "separated_groups",
                    ),
                    "individual": [leaves("group", "reduction", "ci_lo", "ci_hi")],
                },
            },
            "summary.json": leaves("version", "artifacts"),
            "truth.json": {
                "spec": {
                    **leaves(
                        "loadings", "thresholds", "group_partition", "glm_intercept",
                        "glm_group_effects", "glm_interactions", "glm_interaction_effects",
                        "n", "seed", "token_names",
                    ),
                    "duration": leaves("base_mean_s", "group_penalties", "sigma"),
                },
                "truth": {
                    **leaves("rho", "partition", "n_factors"),
                    "group_reductions": [leaves("reduction", "mc_se", "n_mc")],
                },
                "version": None,
            },
        }
        out = tmp_path / "out"
        rc = run("report", "--input", world_csv, "--outdir", out,
                 "--seed", 5, "--reps", 20, "--bootstrap", 30)
        assert rc == 0
        paths = {name: out / name for name in expected}
        paths["truth.json"] = world_csv.parent / "truth.json"
        for name, path in paths.items():
            assert keys(json.loads(path.read_text())) == expected[name], name

    def test_raw_dataset_released_before_impact_stage(self, tmp_path, world_csv, monkeypatch):
        loaded, alive = [], []
        write_factors = cli._write_factors

        def tracked_load(path):
            ds = tokenimpact.survey.load_csv(path)
            loaded.append(weakref.ref(ds))
            return ds

        def first_impact_step(*args):
            alive.append(loaded[0]() is not None)
            return write_factors(*args)

        monkeypatch.setattr(cli, "load_csv", tracked_load)
        monkeypatch.setattr(cli, "_write_factors", first_impact_step)
        rc = run("report", "--input", world_csv, "--outdir", tmp_path / "out",
                 "--seed", 5, "--reps", 20, "--bootstrap", 30)
        assert rc == 0
        assert alive == [False]

    # (options of every command, timu's options, timm's options)
    @pytest.mark.parametrize("shared, timu, timm", [
        ((), (), (("--reps", 20), ("--bootstrap", 30))),
        ((), (("--metric", "acd"), ("--strict-delta",)), (("--reps", 20), ("--bootstrap", 30))),
        ((), (("--no-restrict",),), (("--no-restrict",), ("--reps", 20), ("--bootstrap", 30))),
        ((), (), (("--interactions", "1:2"), ("--reps", 20), ("--bootstrap", 30))),
        ((("--config", "cfg.json"),), (), ()),
    ], ids=["defaults", "metric", "no-restrict", "interactions", "config"])
    def test_one_load_matches_stand_alone_commands(
        self, tmp_path, world_csv, monkeypatch, shared, timu, timm
    ):
        loads = []

        def counting_load(path):
            loads.append(path)
            return tokenimpact.survey.load_csv(path)

        (tmp_path / "cfg.json").write_text(
            json.dumps({"metric": "acd", "reps": 20, "bootstrap": 30})
        )
        monkeypatch.chdir(tmp_path)

        def flags(*groups):
            unique = dict.fromkeys(group for option in groups for group in option)
            return [token for group in unique for token in group]

        options = ("--input", world_csv, "--seed", 5)
        report, alone = tmp_path / "report", tmp_path / "alone"
        monkeypatch.setattr(cli, "load_csv", counting_load)
        assert run("report", *options, *flags(shared, timu, timm), "--outdir", report) == 0
        assert len(loads) == 1
        assert run("describe", *options, *flags(shared), "--outdir", alone) == 0
        assert run("timu", *options, *flags(shared, timu), "--outdir", alone) == 0
        assert run("timm", "impact", *options, *flags(shared, timm), "--outdir", alone) == 0
        written = snapshot(report)
        del written["summary.json"]
        assert written == snapshot(alone)

    def test_each_command_takes_its_stages_flags(self, capsys):
        source = {"--input", "--outdir", "--seed", "--config"}
        timu = source | {"--no-restrict", "--metric", "--fix-value", "--strict-delta"}
        timm = source | {
            "--no-restrict", "--min-positives", "--reps", "--quantile", "--threshold",
            "--force-k", "--interactions", "--bootstrap", "--ridge",
        }
        expected = {
            ("describe",): source, ("timu",): timu, ("timm", "factors"): timm,
            ("timm", "impact"): timm, ("report",): timu | timm,
        }
        values = {"--metric": "pcr", "--interactions": "none"}
        for command, flags in expected.items():
            accepted = set()
            for flag in timu | timm:
                argv = [*command, flag]
                if flag not in ("--no-restrict", "--strict-delta"):
                    argv.append(values.get(flag, "1"))
                try:
                    cli.build_parser().parse_args(argv)
                except SystemExit as exc:
                    assert exc.code == 2
                else:
                    accepted.add(flag)
            assert accepted == flags, command
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run("describe", "--reps", 20)
        assert exc.value.code == 2
        assert "unrecognized arguments: --reps 20" in capsys.readouterr().err
