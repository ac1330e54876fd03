"""Command-line orchestration: simulate, describe, rank, group and report.

Every artifact is written under an output directory and is byte-identical
across reruns with the same input, configuration and seed. Structured
errors go to stderr as JSON; exit codes are 0 (ok), 2 (validation), 3
(latent correlation), 4 (factor analysis), 5 (model).
"""

from __future__ import annotations

import argparse
import csv
import errno
import hashlib
import json
import logging
import os
import sys
import typing
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .descriptives import jaccard_matrix, table_information_gain, token_frequencies
from .errors import (
    FactorAnalysisError,
    GlmError,
    NoFactorError,
    PolychoricError,
    TokenImpactError,
    ValidationError,
)
from .factors import (
    ProblemGrouping,
    assign_groups,
    extract_factors,
    parallel_analysis_detail,
    varimax,
)
from .glm import DesignSpec, build_design, fit_logistic, impact_report, select_interactions_aic
from .polychoric import polychoric_matrix
from .survey import (
    SurveyDataset,
    clean_uninformative,
    load_csv,
    restrict_tokened_poor,
    write_csv,
)
from .synthetic import GeneratorSpec, default_world_spec, generate
from .timu import Metric, MetricSpec, rank_tokens, resolve_fix_value

log = logging.getLogger("tokenimpact")

EXIT_VALIDATION = 2
EXIT_POLYCHORIC = 3
EXIT_FACTOR = 4
EXIT_GLM = 5

@dataclass(frozen=True)
class RunConfig:
    """Merged command options (config file values overridden by flags)."""

    input: str | None = None
    outdir: str | None = None
    seed: int | None = None
    metric: str = "both"
    fix_value: float | None = None
    strict_delta: bool = False
    restrict: bool = True
    min_positives: int = 10
    reps: int = 100
    quantile: float = 0.95
    threshold: float = 0.5
    interactions: str = "aic"
    bootstrap: int = 200
    ridge: float = 1e-6
    force_k: int | None = None

    def __post_init__(self):
        if self.seed is not None and self.seed < 0:
            raise ValidationError("seed must be non-negative")
        if self.reps < 10:
            raise ValidationError("reps must be at least 10")
        if not 0.0 <= self.quantile <= 1.0:
            raise ValidationError("quantile must be in [0, 1]")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValidationError("threshold must be in [0, 1]")
        if self.bootstrap < 1:
            raise ValidationError("bootstrap must be at least 1")
        if not 0.0 <= self.ridge < np.inf:
            raise ValidationError("ridge must be finite and non-negative")
        if self.min_positives < 1:
            raise ValidationError("min_positives must be at least 1")
        if self.force_k is not None and self.force_k < 1:
            raise ValidationError("force_k must be at least 1")
        if self.metric not in ("pcr", "acd", "both"):
            raise ValidationError(f"unknown metric {self.metric!r}")
        if self.fix_value is not None:
            if not np.isfinite(self.fix_value):
                raise ValidationError("fix_value must be finite")
            if self.metric == "both":
                raise ValidationError("--fix-value requires a single --metric")
        if self.interactions != "aic":
            _parse_interactions(self.interactions)

    def require_seed(self) -> int:
        if self.seed is None:
            raise ValidationError(
                "a --seed is required for commands with stochastic steps"
            )
        return int(self.seed)


# the JSON type of a field's type, as an error names it; any other is a dataclass
_JSON_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string",
               type(None): "null", tuple: "an array", np.ndarray: "an array"}


def _read_fields(cls, path: Path, kind: str) -> dict:
    """The fields of dataclass ``cls`` that the JSON object of a ``kind``
    file (config or spec) gives, each read as its annotated type
    (``_json_value``). Unknown keys are named together, nested ones after a
    dot, and a field without a default must be given. Value checks are the
    dataclass's own."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:  # such as a missing file or a directory
        raise ValidationError(f"cannot read {kind} file {path}: {exc.strerror or exc}") from None
    except (ValueError, RecursionError) as exc:  # or nested too deep to parse
        raise ValidationError(f"{kind} file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{kind} file {path} must hold a JSON object")
    unknown = _unknown_keys(cls, data)
    if unknown:
        raise ValidationError(f"unknown {kind} keys: {unknown}")
    return _field_values(cls, data, kind)


def _unknown_keys(cls, data: dict, prefix: str = "") -> list[str]:
    """The keys of ``data`` that name no field of ``cls``, then those of its
    objects under dataclass fields, after the field's name and a dot."""
    hints = typing.get_type_hints(cls)
    unknown = sorted(prefix + key for key in data.keys() - hints.keys())
    for key, value in data.items():
        if is_dataclass(hints.get(key)) and type(value) is dict:
            unknown += _unknown_keys(hints[key], value, f"{prefix}{key}.")
    return unknown


def _field_values(cls, data: dict, kind: str, prefix: str = "") -> dict:
    """``_read_fields`` of ``data``, whose keys all name fields of ``cls``."""
    hints = typing.get_type_hints(cls)
    values = {}
    for f in fields(cls):
        key, hint = prefix + f.name, hints[f.name]
        if f.name not in data:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ValidationError(f"{kind} key {key!r} is missing")
        elif is_dataclass(hint) and type(data[f.name]) is dict:
            values[f.name] = hint(**_field_values(hint, data[f.name], kind, key + "."))
        else:
            try:
                values[f.name] = _json_value(hint, data[f.name])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"{kind} key {key!r} is malformed: {exc}") from None
    return values


def _json_value(hint, value):
    """A JSON value of its exact type as type ``hint``: an integer stands for
    a float and is stored as one, true and false are never numbers, null
    fits only ``X | None``, and a tuple or ``np.ndarray`` comes from an
    array. A TypeError names what was expected."""
    args = typing.get_args(hint)
    if type(value) is list and hint is np.ndarray:
        # each item is a number or a row of numbers; ragged rows are a ValueError
        rows = [_json_value(tuple[float, ...] if type(v) is list else float, v) for v in value]
        return np.array(rows, dtype=np.float64)
    if type(value) is list and typing.get_origin(hint) is tuple:
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        if len(value) == len(args):
            return tuple(map(_json_value, args, value))
    allowed = args if type(None) in args else (hint,)
    if type(value) in allowed:
        return value
    if float in allowed and type(value) is int:
        return float(value)
    expected = " or ".join(
        _JSON_NAMES.get(typing.get_origin(t) or t, "an object") for t in allowed
    )
    raise TypeError(f"expected {expected}, got {json.dumps(value)}")


def _merge_config(args: argparse.Namespace, file_cfg: dict, keys: tuple[str, ...]) -> RunConfig:
    values: dict = {}
    for key in keys:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
        elif key in file_cfg:
            values[key] = file_cfg[key]
    return RunConfig(**values)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _provenance(cfg: RunConfig, source: dict, lineage: tuple[str, ...]) -> dict:
    # the outdir is left out, so a rerun into another directory writes the
    # same bytes; the input path as given (in source and in the lineage) and
    # its SHA-256 are provenance
    config = {
        k: getattr(cfg, k)
        for k in RunConfig.__dataclass_fields__
        if k not in ("input", "outdir") and getattr(cfg, k) is not None
    }
    return {
        **source,
        "config": config,
        "seed": cfg.seed,
        "version": __version__,
        "dataset_lineage": list(lineage),
    }


@contextmanager
def _output(path: Path) -> Iterator[None]:
    """Create the parent directories of the file ``path``, written in the
    block. An OSError from either, such as ``path`` naming a directory, is a
    ValidationError naming the path."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        yield
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from None


def _check_output(path: Path) -> None:
    """Refuse, as ``_output`` would, an output file that names a directory,
    before the work that fills it."""
    with _output(path):
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))


def _jsonable(obj) -> object:
    """What ``json`` encodes for a value it cannot encode itself: a
    dataclass as a dict of its fields, an array as nested lists and a numpy
    scalar as its Python value."""
    if is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(path: Path, payload: dict) -> None:
    # serialize before opening, so a refused payload leaves no partial file
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False, default=_jsonable)
    except ValueError as exc:
        raise ValidationError(f"{path.name} would contain a non-finite number: {exc}") from None
    with _output(path), open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def _write_rows(path: Path, header: list[str], rows: list[list]) -> None:
    with _output(path), open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_matrix_csv(
    path: Path, tokens: tuple[str, ...], values: np.ndarray, columns: tuple[str, ...]
) -> None:
    rows = [
        [tok] + [repr(float(v)) for v in values[i]] for i, tok in enumerate(tokens)
    ]
    _write_rows(path, ["token"] + list(columns), rows)


def _load_input(cfg: RunConfig) -> tuple[dict, SurveyDataset]:
    """Provenance fields of the input CSV (path and SHA-256) and its dataset."""
    if not cfg.input:
        raise ValidationError("an --input CSV is required")
    path = Path(cfg.input)
    if path.exists() and not path.is_file():  # a stat: opening a named pipe would block
        raise ValidationError(f"cannot read {path}: --input must be a regular file, since "
                              "its SHA-256 goes into every report")
    ds = load_csv(path)
    return {"input": str(path), "input_sha256": _sha256(path)}, ds


def _outdir(cfg: RunConfig) -> Path:
    if not cfg.outdir:
        raise ValidationError("an --outdir is required")
    out = Path(cfg.outdir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create --outdir {out}: {exc.strerror or exc}") from None
    return out


def _write_describe(out: Path, cfg: RunConfig, source: dict, ds: SurveyDataset) -> None:
    report = token_frequencies(ds)
    jac = jaccard_matrix(ds)
    counts = ds.any_token_poor
    classes = counts.sum(axis=0)
    ig = {
        "representative": table_information_gain(counts),
        # each class weighted equally: what a class-balanced resample estimates
        "balanced": table_information_gain(counts / classes) if classes.all() else None,
    }

    payload = {
        "provenance": _provenance(cfg, source, ds.provenance),
        # the report's frequencies are written under "tokens"
        "frequencies": {
            "n_all": report.n_all, "n_poor": report.n_poor, "tokens": report.frequencies,
        },
        "information_gain": ig,
        "jaccard": jac,
    }
    _write_json(out / "describe_report.json", payload)
    rate_rows = []
    for f in report.frequencies:
        rate_rows.append([f.token, "all_rated", repr(f.rate_all_rated)])
        rate_rows.append(
            [f.token, "poor", repr(f.rate_poor) if f.rate_poor is not None else ""]
        )
    _write_rows(out / "token_rates.csv", ["token", "population", "rate"], rate_rows)
    _write_matrix_csv(out / "jaccard.csv", jac.tokens, jac.values, jac.tokens)
    log.info("describe: %d records, %d tokens", ds.n_records, len(ds.vocabulary))


def _write_timu(out: Path, cfg: RunConfig, source: dict, ds: SurveyDataset) -> None:
    kinds = {"pcr": Metric.POOR_INDICATOR, "acd": Metric.DURATION_S}
    rankings = {}
    fix_values = {}
    plot_rows = []
    for name in kinds if cfg.metric == "both" else (cfg.metric,):
        fix_values[name] = fix = resolve_fix_value(ds, MetricSpec(kinds[name], cfg.fix_value))
        ranking = rank_tokens(ds, MetricSpec(kinds[name], fix), strict_delta=cfg.strict_delta)
        rankings[name] = ranking
        for r in ranking:
            plot_rows.append(
                [name, r.token_or_set, repr(r.mean_impact), repr(r.ci95_halfwidth)]
            )
    payload = {
        "provenance": _provenance(cfg, source, ds.provenance),
        "strict_delta": cfg.strict_delta,
        "fix_values": fix_values,
        "rankings": rankings,
    }
    _write_json(out / "timu_report.json", payload)
    _write_rows(
        out / "timu_plot.csv",
        ["metric", "token", "impact", "ci95_halfwidth"],
        plot_rows,
    )


def _parse_interactions(text: str) -> tuple[tuple[int, int], ...]:
    if text == "none":
        return ()
    pairs = []
    for chunk in text.split(","):
        a, _, b = (part.strip() for part in chunk.partition(":"))
        if not (a.isdecimal() and b.isdecimal() and 0 < int(a) != int(b) > 0):
            raise ValidationError(
                f"bad --interactions {text!r}; expected 'aic', 'none' or "
                "pairs of distinct 1-based group numbers like 1:2,1:4"
            )
        pairs.append((int(a) - 1, int(b) - 1))
    return tuple(pairs)


def _write_factors(
    out: Path, cfg: RunConfig, source: dict, ds: SurveyDataset
) -> tuple[SurveyDataset, ProblemGrouping]:
    """Latent correlations, factor count, rotated loadings and grouping;
    returns the cleaned dataset and the grouping for the impact stage."""
    ds, removed = clean_uninformative(ds, min_positives=cfg.min_positives)
    if removed:
        log.info("dropped uninformative tokens: %s", ", ".join(removed))
    corr = polychoric_matrix(ds)
    if corr.psd_repaired:
        log.info(
            "correlation matrix repaired (min eigenvalue was %.3g)",
            corr.min_eigenvalue_before,
        )
    pa = parallel_analysis_detail(corr, ds, reps=cfg.reps, quantile=cfg.quantile, seed=cfg.seed)
    k = cfg.force_k if cfg.force_k is not None else pa.n_factors
    if k == 0 and cfg.force_k is None:
        raise NoFactorError("no factor exceeds noise floor")
    if not 1 <= k < len(ds.vocabulary):
        raise FactorAnalysisError(f"factor count {k} out of range")
    log.info("extracting %d factors over %d tokens", k, len(ds.vocabulary))
    model = varimax(extract_factors(corr, k))
    grouping = assign_groups(model, threshold=cfg.threshold)

    _write_matrix_csv(out / "polychoric.csv", corr.tokens, corr.values, corr.tokens)
    factors = tuple(f"factor_{j + 1}" for j in range(model.n_factors))
    _write_matrix_csv(out / "loadings.csv", model.tokens, model.loadings, factors)
    provenance = _provenance(cfg, source, ds.provenance)
    _write_json(out / "grouping.json", {"provenance": provenance, "grouping": grouping})
    # the matrix itself is in polychoric.csv; the report keeps its flags
    corr_flags = _jsonable(corr)
    del corr_flags["tokens"], corr_flags["values"]
    _write_json(
        out / "factors_report.json",
        {
            "provenance": provenance,
            "removed_tokens": removed,
            "parallel_analysis": pa,
            "n_factors": k,
            **corr_flags,
            "factor_model": model,
        },
    )
    return ds, grouping


def _write_impact(out: Path, cfg: RunConfig, source: dict, ds: SurveyDataset) -> None:
    ds, grouping = _write_factors(out, cfg, source, ds)
    design = build_design(ds, DesignSpec(grouping=grouping))
    if cfg.interactions == "aic":
        pairs = select_interactions_aic(design, ridge=cfg.ridge)
    else:
        pairs = _parse_interactions(cfg.interactions)
    design = design.with_interactions(pairs)
    glm = fit_logistic(design, ridge=cfg.ridge)
    report = impact_report(glm, design, n_boot=cfg.bootstrap, seed=cfg.seed)
    # the fit's covariance is left out of the report
    glm_fields = _jsonable(glm)
    del glm_fields["covariance"]
    _write_json(
        out / "impact_report.json",
        {
            "provenance": _provenance(cfg, source, ds.provenance),
            "interactions": pairs,
            "glm": glm_fields,
            "impact": report,
        },
    )
    # report.individual is in group order; the plot is in report.order
    rows = [
        [g.group, repr(g.reduction), repr(cumulative), repr(g.ci_lo), repr(g.ci_hi)]
        for g, cumulative in zip([report.individual[i] for i in report.order], report.cumulative)
    ]
    header = ["group", "individual", "cumulative", "ci_lo", "ci_hi"]
    _write_rows(out / "impact_plot.csv", header, rows)


def _write_summary(out: Path, cfg: RunConfig, source: dict, _: SurveyDataset) -> None:
    _write_json(
        out / "summary.json",
        {
            "version": __version__,
            "artifacts": [
                "describe_report.json", "token_rates.csv", "jaccard.csv",
                "timu_report.json", "timu_plot.csv",
                "polychoric.csv", "loadings.csv", "grouping.json",
                "factors_report.json", "impact_report.json", "impact_plot.csv",
            ],
        },
    )


@dataclass(frozen=True)
class _Stage:
    """One analysis step: the RunConfig fields it reads, whether it runs on
    the restricted dataset rather than the raw one, and the writer of its
    artifacts."""

    keys: tuple[str, ...]
    write: Callable[[Path, RunConfig, dict, SurveyDataset], object]
    restricted: bool = True


_SOURCE_KEYS = ("input", "outdir", "seed")
_TIMM_KEYS = _SOURCE_KEYS + (
    "restrict", "min_positives", "reps", "quantile", "threshold", "interactions",
    "bootstrap", "ridge", "force_k",
)
_DESCRIBE = _Stage(_SOURCE_KEYS, _write_describe, restricted=False)
_TIMU = _Stage(_SOURCE_KEYS + ("metric", "fix_value", "strict_delta", "restrict"), _write_timu)
_FACTORS = _Stage(_TIMM_KEYS, _write_factors)
_IMPACT = _Stage(_TIMM_KEYS, _write_impact)
_SUMMARY = _Stage((), _write_summary)


def _run(args: argparse.Namespace, *stages: _Stage) -> int:
    """Run the stages in order on one load of the input.

    Every stage's options are merged and checked, in stage order, before
    the input is read. Each stage sees only its own keys, so its artifacts
    are the ones its stand-alone command writes. The input is restricted
    once, before the first stage that runs on restricted data, and the raw
    dataset is released there: every raw-data stage comes first. Config file
    keys that no stage reads are named in one warning and otherwise ignored,
    so one file can serve every command.
    """
    file_cfg = _read_fields(RunConfig, Path(args.config), "config") if args.config else {}
    unread = sorted(set(file_cfg).difference(*(stage.keys for stage in stages)))
    if unread:
        log.warning("config keys not read by this command: %s", ", ".join(unread))
    cfgs = [_merge_config(args, file_cfg, stage.keys) for stage in stages]
    cfgs[0].require_seed()
    source, ds = _load_input(cfgs[0])
    out = _outdir(cfgs[0])
    restricted = None
    for stage, cfg in zip(stages, cfgs):
        if stage.restricted and restricted is None:
            restricted = restrict_tokened_poor(ds, cfg.seed) if cfg.restrict else ds
            ds = None
        stage.write(out, cfg, source, restricted if stage.restricted else ds)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if bool(args.spec) == bool(args.preset):
        raise ValidationError("exactly one of --spec or --preset is required")
    if args.spec:
        if args.seed is not None or args.n is not None:
            raise ValidationError("--seed and --n are not read with --spec: set seed and n in it")
        spec = GeneratorSpec(**_read_fields(GeneratorSpec, Path(args.spec), "spec"))
    else:
        if args.preset != "default-world":
            raise ValidationError(f"unknown preset {args.preset!r}")
        if args.seed is None:
            raise ValidationError("--seed is required with --preset")
        if args.seed < 0:
            raise ValidationError("seed must be non-negative")
        spec = default_world_spec(n=20_000 if args.n is None else args.n, seed=args.seed)
    if args.truth_mc < 1:
        raise ValidationError("the Monte-Carlo truth needs at least 1 draw")
    out = Path(args.out)
    for path in (out, Path(args.truth)) if args.truth else (out,):
        _check_output(path)
    ds, truth = generate(spec, truth_mc_n=args.truth_mc if args.truth else None)
    with _output(out):
        write_csv(ds, out)
    if args.truth:
        _write_json(Path(args.truth), {"spec": spec, "truth": truth, "version": __version__})
    log.info("simulate: wrote %d records to %s", ds.n_records, args.out)
    return 0


# Flag and argparse settings of each analysis option, keyed by its RunConfig
# field (``config`` is the runner's own). A command declares the options its
# stages read, in this order.
_OPTIONS: dict[str, tuple[str, dict]] = {
    "input": ("--input", {"help": "survey CSV to analyze"}),
    "outdir": ("--outdir", {"help": "directory for report artifacts"}),
    "seed": ("--seed", {"type": int, "help": "seed for every stochastic step"}),
    "config": ("--config", {"help": "JSON config file; flags override it"}),
    "restrict": ("--no-restrict", {
        "action": "store_const", "const": False,
        "help": "skip restricting to poor calls with questionnaire feedback",
    }),
    "min_positives": ("--min-positives", {
        "type": int, "help": "minimum positives for a token to be kept",
    }),
    "reps": ("--reps", {"type": int, "help": "parallel-analysis replicates"}),
    "quantile": ("--quantile", {"type": float, "help": "parallel-analysis reference quantile"}),
    "threshold": ("--threshold", {
        "type": float, "help": "dominant-loading threshold for grouping",
    }),
    "force_k": ("--force-k", {"type": int, "help": "override the factor count"}),
    "interactions": ("--interactions", {
        "help": "'aic' (default), 'none', or explicit pairs like 1:2,1:4",
    }),
    "bootstrap": ("--bootstrap", {"type": int, "help": "bootstrap resamples for impact CIs"}),
    "ridge": ("--ridge", {"type": float, "help": "ridge penalty for the logistic fit"}),
    "metric": ("--metric", {"choices": ["pcr", "acd", "both"], "help": "metric(s) to rank by"}),
    "fix_value": ("--fix-value", {
        "type": float, "help": "counterfactual metric value for the problem set",
    }),
    "strict_delta": ("--strict-delta", {
        "action": "store_const", "const": True,
        "help": "use var(X)+var(Y)-2cov for the combined variance",
    }),
}


def _add_command(sub, name: str, summary: str, *stages: _Stage) -> None:
    # _run releases the raw dataset at the first restricted stage
    assert list(stages) == sorted(stages, key=lambda stage: stage.restricted)
    p = sub.add_parser(name, help=summary)
    keys = {"config"}.union(*(stage.keys for stage in stages))
    for key, (flag, settings) in _OPTIONS.items():
        if key in keys:
            p.add_argument(flag, dest=key, **settings)
    p.set_defaults(func=lambda args: _run(args, *stages))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokenimpact",
        description="Rank call-quality impairments from problem-token surveys.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic survey with ground truth")
    p.add_argument("--spec", help="generator spec JSON")
    p.add_argument("--preset", help="built-in generator preset (default-world)")
    p.add_argument("--n", type=int, help="records for --preset (default 20000)")
    p.add_argument("--seed", type=int, help="seed for --preset")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--truth", help="ground-truth JSON path")
    p.add_argument("--truth-mc", dest="truth_mc", type=int, default=200_000,
                   help="Monte Carlo draws for ground-truth impacts")
    p.set_defaults(func=cmd_simulate)

    _add_command(sub, "describe", "token response rates, information gain, overlap", _DESCRIBE)
    _add_command(sub, "timu", "univariate token impact ranking", _TIMU)
    p = sub.add_parser("timm", help="multivariate problem-group pipeline")
    timm_sub = p.add_subparsers(dest="timm_command", required=True)
    _add_command(timm_sub, "factors", "latent correlations, loadings and grouping", _FACTORS)
    _add_command(timm_sub, "impact", "full pipeline with counterfactual reductions", _IMPACT)
    _add_command(
        sub, "report", "describe + timu + timm impact in one pass",
        _DESCRIBE, _TIMU, _IMPACT, _SUMMARY,
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    level = logging.WARNING
    if args.verbose == 1:
        level = logging.INFO
    elif args.verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ValidationError as exc:
        return _fail(EXIT_VALIDATION, "validation", exc)
    except PolychoricError as exc:
        return _fail(EXIT_POLYCHORIC, "polychoric", exc)
    except FactorAnalysisError as exc:
        return _fail(EXIT_FACTOR, "factor", exc)
    except GlmError as exc:
        return _fail(EXIT_GLM, "glm", exc)
    except TokenImpactError as exc:  # base-class fallback
        return _fail(EXIT_VALIDATION, "error", exc)


def _fail(code: int, stage: str, exc: Exception) -> int:
    print(
        json.dumps({"error": type(exc).__name__, "stage": stage, "message": str(exc)}),
        file=sys.stderr,
    )
    return code


def entrypoint() -> None:  # console script
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
