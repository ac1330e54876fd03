"""Command-line orchestration: simulate, describe, rank, group and report.

Every artifact is written under an output directory and is byte-identical
across reruns with the same input, configuration and seed. Structured
errors go to stderr as JSON; exit codes are 0 (ok), 2 (validation), 3
(latent correlation), 4 (factor analysis), 5 (model).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .descriptives import entropy_bits, information_gain, jaccard_matrix, token_frequencies
from .errors import (
    FactorAnalysisError,
    GlmError,
    NoFactorError,
    PolychoricError,
    TokenImpactError,
    ValidationError,
)
from .factors import (
    assign_groups,
    extract_factors,
    parallel_analysis_detail,
    varimax,
)
from .glm import DesignSpec, build_design, fit_logistic, impact_report, select_interactions_aic
from .polychoric import polychoric_matrix
from .survey import (
    SurveyDataset,
    balance_resample,
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

    def require_seed(self) -> int:
        if self.seed is None:
            raise ValidationError(
                "a --seed is required for commands with stochastic steps"
            )
        return int(self.seed)


_CONFIG_TYPES = typing.get_type_hints(RunConfig)


def _read_json_object(path: Path, kind: str) -> dict:
    """The JSON object held by a ``kind`` file (config or spec)."""
    if not path.exists():
        raise ValidationError(f"no such {kind} file: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValidationError(f"{kind} file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{kind} file {path} must hold a JSON object")
    return data


def _read_config(path: Path) -> dict:
    """The options of a JSON config file, each of its RunConfig field's type;
    an integer stands for a float."""
    file_cfg = _read_json_object(path, "config")
    unknown = set(file_cfg) - set(RunConfig.__dataclass_fields__)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    for key, value in file_cfg.items():
        allowed = typing.get_args(_CONFIG_TYPES[key]) or (_CONFIG_TYPES[key],)
        if float in allowed:
            allowed += (int,)
        # exact types, so that true and false are not integers
        if type(value) not in allowed:
            raise ValidationError(
                f"config key {key!r} must be {RunConfig.__annotations__[key]}, "
                f"got {json.dumps(value)}"
            )
    return file_cfg


def _merge_config(args: argparse.Namespace, keys: tuple[str, ...]) -> RunConfig:
    file_cfg: dict = {}
    if getattr(args, "config", None):
        file_cfg = _read_config(Path(args.config))
    values: dict = {}
    for key in keys:
        flag = getattr(args, key, None)
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
    # analysis parameters only; file locations must not leak into artifacts
    # or byte-identical regeneration across directories breaks
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


def _write_json(path: Path, payload: dict) -> None:
    # serialize before opening, so a refused payload leaves no partial file
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValidationError(f"{path.name} would contain a non-finite number: {exc}") from None
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def _write_rows(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_matrix_csv(path: Path, tokens: tuple[str, ...], values: np.ndarray) -> None:
    rows = [
        [tok] + [repr(float(v)) for v in values[i]] for i, tok in enumerate(tokens)
    ]
    _write_rows(path, ["token"] + list(tokens), rows)


def _load_input(cfg: RunConfig) -> tuple[dict, SurveyDataset]:
    """Provenance fields of the input CSV (path and SHA-256) and its dataset."""
    if not cfg.input:
        raise ValidationError("an --input CSV is required")
    path = Path(cfg.input)
    ds = load_csv(path)
    return {"input": str(path), "input_sha256": _sha256(path)}, ds


def _outdir(cfg: RunConfig) -> Path:
    if not cfg.outdir:
        raise ValidationError("an --outdir is required")
    out = Path(cfg.outdir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _ig_entry(x: np.ndarray, y: np.ndarray) -> dict:
    bits = information_gain(x, y)
    h_y = entropy_bits(y)
    return {
        "bits": bits,
        "fraction": bits / h_y if h_y > 0 else None,
        "degenerate": h_y == 0.0 or entropy_bits(x) == 0.0,
    }


_DESCRIBE_KEYS = ("input", "outdir", "seed")
_TIMU_KEYS = ("input", "outdir", "seed", "metric", "fix_value", "strict_delta", "restrict")


def cmd_describe(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, _DESCRIBE_KEYS)
    seed = cfg.require_seed()
    source, ds = _load_input(cfg)
    _write_describe(_outdir(cfg), cfg, source, ds, seed)
    return 0


def _write_describe(
    out: Path, cfg: RunConfig, source: dict, ds: SurveyDataset, seed: int
) -> None:
    report = token_frequencies(ds)
    jac = jaccard_matrix(ds)
    any_token = ds.any_token_mask
    poor = ds.poor_mask
    ig = {"representative": _ig_entry(any_token, poor)}
    try:
        balanced = balance_resample(ds, seed)
        ig["balanced"] = _ig_entry(balanced.any_token_mask, balanced.poor_mask)
    except ValidationError:
        ig["balanced"] = None

    payload = {
        "provenance": _provenance(cfg, source, ds.provenance),
        "frequencies": report.to_dict(),
        "information_gain": ig,
        "jaccard": jac.to_dict(),
    }
    _write_json(out / "describe_report.json", payload)
    rate_rows = []
    for f in report.frequencies:
        rate_rows.append([f.token, "all_rated", repr(f.rate_all_rated)])
        rate_rows.append(
            [f.token, "poor", repr(f.rate_poor) if f.rate_poor is not None else ""]
        )
    _write_rows(out / "token_rates.csv", ["token", "population", "rate"], rate_rows)
    _write_matrix_csv(out / "jaccard.csv", jac.tokens, jac.values)
    log.info("describe: %d records, %d tokens", ds.n_records, len(ds.vocabulary))


def _restricted(ds, cfg: RunConfig, seed: int):
    if not cfg.restrict:
        return ds
    return restrict_tokened_poor(ds, seed)


def cmd_timu(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, _TIMU_KEYS)
    seed = cfg.require_seed()
    source, ds = _load_input(cfg)
    out = _outdir(cfg)
    _write_timu(out, cfg, source, _restricted(ds, cfg, seed))
    return 0


def _write_timu(out: Path, cfg: RunConfig, source: dict, ds: SurveyDataset) -> None:
    metrics: dict[str, MetricSpec] = {}
    if cfg.metric in ("pcr", "both"):
        metrics["pcr"] = MetricSpec(Metric.POOR_INDICATOR, fix_value=cfg.fix_value)
    if cfg.metric in ("acd", "both"):
        metrics["acd"] = MetricSpec(Metric.DURATION_S, fix_value=cfg.fix_value)
    if not metrics:
        raise ValidationError(f"unknown metric {cfg.metric!r}")
    if cfg.fix_value is not None and cfg.metric == "both":
        raise ValidationError("--fix-value requires a single --metric")

    rankings = {}
    fix_values = {}
    plot_rows = []
    for name, spec in metrics.items():
        fix_values[name] = resolve_fix_value(ds, spec)
        ranking = rank_tokens(ds, spec, strict_delta=cfg.strict_delta)
        rankings[name] = [r.to_dict() for r in ranking]
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
        a, _, b = chunk.partition(":")
        try:
            pairs.append((int(a) - 1, int(b) - 1))
        except ValueError:
            raise ValidationError(
                f"bad --interactions {text!r}; expected e.g. 1:2,1:4"
            ) from None
    return tuple(pairs)


def _timm_pipeline(ds, cfg: RunConfig, seed: int, want_impact: bool) -> dict:
    """Shared body of `timm factors` and `timm impact`; returns artifacts."""
    ds, removed = clean_uninformative(ds, min_positives=cfg.min_positives)
    if removed:
        log.info("dropped uninformative tokens: %s", ", ".join(removed))
    corr = polychoric_matrix(ds)
    if corr.psd_repaired:
        log.info(
            "correlation matrix repaired (min eigenvalue was %.3g)",
            corr.min_eigenvalue_before,
        )
    pa = parallel_analysis_detail(corr, ds, reps=cfg.reps, quantile=cfg.quantile, seed=seed)
    k = cfg.force_k if cfg.force_k is not None else pa.n_factors
    if k == 0 and cfg.force_k is None:
        raise NoFactorError("no factor exceeds noise floor")
    if not 1 <= k < len(ds.vocabulary):
        raise FactorAnalysisError(f"factor count {k} out of range")
    log.info("extracting %d factors over %d tokens", k, len(ds.vocabulary))
    model = varimax(extract_factors(corr, k))
    grouping = assign_groups(model, threshold=cfg.threshold)
    artifacts = {
        "dataset": ds,
        "removed": removed,
        "corr": corr,
        "pa": pa,
        "k": k,
        "model": model,
        "grouping": grouping,
    }
    if not want_impact:
        return artifacts
    if cfg.interactions == "aic":
        pairs = select_interactions_aic(ds, grouping, ridge=cfg.ridge)
    else:
        pairs = _parse_interactions(cfg.interactions)
    design = build_design(ds, DesignSpec(grouping=grouping, interactions=pairs))
    glm = fit_logistic(design, ridge=cfg.ridge)
    report = impact_report(
        glm,
        design,
        n_boot=cfg.bootstrap,
        seed=seed,
        baseline_scores=ds.any_token_mask.astype(float),
    )
    artifacts.update({"pairs": pairs, "glm": glm, "impact": report})
    return artifacts


_TIMM_KEYS = (
    "input", "outdir", "seed", "restrict", "min_positives",
    "reps", "quantile", "threshold", "interactions", "bootstrap", "ridge",
    "force_k",
)


def _write_factor_artifacts(out: Path, cfg: RunConfig, source: dict, art: dict) -> None:
    ds = art["dataset"]
    corr = art["corr"]
    model = art["model"]
    _write_matrix_csv(out / "polychoric.csv", corr.tokens, corr.values)
    loading_rows = [
        [tok] + [repr(float(v)) for v in model.loadings[i]]
        for i, tok in enumerate(model.tokens)
    ]
    _write_rows(
        out / "loadings.csv",
        ["token"] + [f"factor_{j + 1}" for j in range(model.n_factors)],
        loading_rows,
    )
    _write_json(
        out / "grouping.json",
        {
            "provenance": _provenance(cfg, source, ds.provenance),
            "grouping": art["grouping"].to_dict(),
        },
    )
    _write_json(
        out / "factors_report.json",
        {
            "provenance": _provenance(cfg, source, ds.provenance),
            "removed_tokens": list(art["removed"]),
            "parallel_analysis": art["pa"].to_dict(),
            "n_factors": art["k"],
            "psd_repaired": corr.psd_repaired,
            "min_eigenvalue_before": corr.min_eigenvalue_before,
            "corrected_pairs": [list(pair) for pair in corr.corrected_pairs],
            "unconverged_pairs": [list(pair) for pair in corr.unconverged_pairs],
            "boundary_pairs": [list(pair) for pair in corr.boundary_pairs],
            "factor_model": model.to_dict(),
        },
    )


def cmd_timm_factors(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, _TIMM_KEYS)
    seed = cfg.require_seed()
    source, ds = _load_input(cfg)
    out = _outdir(cfg)
    art = _timm_pipeline(_restricted(ds, cfg, seed), cfg, seed, want_impact=False)
    _write_factor_artifacts(out, cfg, source, art)
    return 0


def cmd_timm_impact(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, _TIMM_KEYS)
    seed = cfg.require_seed()
    source, ds = _load_input(cfg)
    out = _outdir(cfg)
    _write_timm_impact(out, cfg, source, _restricted(ds, cfg, seed), seed)
    return 0


def _write_timm_impact(
    out: Path, cfg: RunConfig, source: dict, ds: SurveyDataset, seed: int
) -> None:
    art = _timm_pipeline(ds, cfg, seed, want_impact=True)
    _write_factor_artifacts(out, cfg, source, art)
    report = art["impact"]
    _write_json(
        out / "impact_report.json",
        {
            "provenance": _provenance(cfg, source, art["dataset"].provenance),
            "interactions": [list(p) for p in art["pairs"]],
            "glm": art["glm"].to_dict(),
            "impact": report.to_dict(),
        },
    )
    by_name = {g.group: g for g in report.individual}
    rows = []
    for position, group_index in enumerate(report.order):
        name = report.groups[group_index]
        g = by_name[name]
        rows.append(
            [
                name,
                repr(g.reduction),
                repr(report.cumulative[position]),
                repr(g.ci_lo),
                repr(g.ci_hi),
            ]
        )
    _write_rows(
        out / "impact_plot.csv",
        ["group", "individual", "cumulative", "ci_lo", "ci_hi"],
        rows,
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    if bool(args.spec) == bool(args.preset):
        raise ValidationError("exactly one of --spec or --preset is required")
    if args.spec:
        spec = GeneratorSpec.from_dict(_read_json_object(Path(args.spec), "spec"))
    else:
        if args.preset != "default-world":
            raise ValidationError(f"unknown preset {args.preset!r}")
        if args.seed is None:
            raise ValidationError("--seed is required with --preset")
        spec = default_world_spec(n=args.n, seed=args.seed)
    ds, truth = generate(spec, truth_mc_n=args.truth_mc)
    write_csv(ds, Path(args.out))
    if args.truth:
        _write_json(
            Path(args.truth),
            {"spec": spec.to_dict(), "truth": truth.to_dict(), "version": __version__},
        )
    log.info("simulate: wrote %d records to %s", ds.n_records, args.out)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """describe, timu and timm impact on one load and one restriction.

    Each stage keeps its own merged options, so its artifacts are the ones
    the stand-alone command writes.
    """
    describe_cfg = _merge_config(args, _DESCRIBE_KEYS)
    timu_cfg = _merge_config(args, _TIMU_KEYS)
    cfg = _merge_config(args, _TIMM_KEYS)
    seed = cfg.require_seed()
    source, ds = _load_input(cfg)
    out = _outdir(cfg)
    _write_describe(out, describe_cfg, source, ds, seed)
    restricted = _restricted(ds, cfg, seed)
    _write_timu(out, timu_cfg, source, restricted)
    _write_timm_impact(out, cfg, source, restricted, seed)
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
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="survey CSV to analyze")
    p.add_argument("--outdir", help="directory for report artifacts")
    p.add_argument("--seed", type=int, help="seed for every stochastic step")
    p.add_argument("--config", help="JSON config file; flags override it")


def _add_restrict(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--no-restrict",
        dest="restrict",
        action="store_const",
        const=False,
        help="skip restricting to poor calls with questionnaire feedback",
    )


def _add_timm_options(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    _add_restrict(p)
    p.add_argument("--min-positives", dest="min_positives", type=int,
                   help="minimum positives for a token to be kept")
    p.add_argument("--reps", type=int, help="parallel-analysis replicates")
    p.add_argument("--quantile", type=float, help="parallel-analysis reference quantile")
    p.add_argument("--threshold", type=float, help="dominant-loading threshold for grouping")
    p.add_argument("--force-k", dest="force_k", type=int, help="override the factor count")
    p.add_argument("--interactions",
                   help="'aic' (default), 'none', or explicit pairs like 1:2,1:4")
    p.add_argument("--bootstrap", type=int, help="bootstrap resamples for impact CIs")
    p.add_argument("--ridge", type=float, help="ridge penalty for the logistic fit")


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
    p.add_argument("--n", type=int, default=20_000, help="records for --preset")
    p.add_argument("--seed", type=int, help="seed for --preset")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--truth", help="ground-truth JSON path")
    p.add_argument("--truth-mc", dest="truth_mc", type=int, default=200_000,
                   help="Monte Carlo draws for ground-truth impacts")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("describe", help="token response rates, information gain, overlap")
    _add_common(p)
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("timu", help="univariate token impact ranking")
    _add_common(p)
    _add_restrict(p)
    p.add_argument("--metric", choices=["pcr", "acd", "both"], help="metric(s) to rank by")
    p.add_argument("--fix-value", dest="fix_value", type=float,
                   help="counterfactual metric value for the problem set")
    p.add_argument("--strict-delta", dest="strict_delta", action="store_const", const=True,
                   help="use var(X)+var(Y)-2cov for the combined variance")
    p.set_defaults(func=cmd_timu)

    p = sub.add_parser("timm", help="multivariate problem-group pipeline")
    timm_sub = p.add_subparsers(dest="timm_command", required=True)
    pf = timm_sub.add_parser("factors", help="latent correlations, loadings and grouping")
    _add_timm_options(pf)
    pf.set_defaults(func=cmd_timm_factors)
    pi = timm_sub.add_parser("impact", help="full pipeline with counterfactual reductions")
    _add_timm_options(pi)
    pi.set_defaults(func=cmd_timm_impact)

    p = sub.add_parser("report", help="describe + timu + timm impact in one pass")
    _add_timm_options(p)
    p.add_argument("--metric", choices=["pcr", "acd", "both"], help="metric(s) to rank by")
    p.add_argument("--fix-value", dest="fix_value", type=float)
    p.add_argument("--strict-delta", dest="strict_delta", action="store_const", const=True)
    p.set_defaults(func=cmd_report)

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
