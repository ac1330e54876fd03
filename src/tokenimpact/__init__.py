"""Analytics for end-of-call problem-token surveys.

Estimates and ranks the impact of reported quality impairments on call
metrics: a univariate counterfactual ranking (timu) and a multivariate
pipeline (timm) that groups correlated tokens via latent correlations and
factor analysis, then predicts counterfactual metric reductions per group
with a logistic model.
"""

__version__ = "0.1.0"

from .descriptives import (
    FrequencyReport,
    JaccardMatrix,
    entropy_bits,
    information_gain,
    jaccard_matrix,
    token_frequencies,
)
from .errors import (
    FactorAnalysisError,
    GlmError,
    NoFactorError,
    PolychoricError,
    TokenImpactError,
    ValidationError,
)
from .factors import (
    FactorModel,
    ProblemGroup,
    ProblemGrouping,
    assign_groups,
    extract_factors,
    parallel_analysis_detail,
    varimax,
    varimax_criterion,
)
from .glm import (
    Design,
    DesignSpec,
    ImpactReport,
    LogisticModel,
    auc_score,
    build_design,
    cumulative_impact,
    evaluate,
    fit_logistic,
    group_fix_impact,
    impact_report,
    roc_curve,
    select_interactions_aic,
)
from .polychoric import (
    ContingencyTable2x2,
    PolychoricEstimate,
    PolychoricMatrix,
    bvn_upper,
    estimate_polychoric,
    polychoric_matrix,
    repair_to_psd,
)
from .survey import (
    SurveyDataset,
    TokenVocabulary,
    balance_resample,
    clean_uninformative,
    default_vocabulary,
    load_csv,
    restrict_tokened_poor,
    write_csv,
)
from .synthetic import (
    DurationModel,
    GeneratorSpec,
    GroundTruth,
    MonteCarloImpact,
    default_world_spec,
    generate,
    ground_truth_impact,
)
from .timu import Metric, MetricSpec, TimuResult, rank_tokens, resolve_fix_value, timu

__all__ = [
    "__version__",
    # survey
    "TokenVocabulary", "SurveyDataset", "default_vocabulary", "load_csv", "write_csv",
    "clean_uninformative", "balance_resample", "restrict_tokened_poor",
    # descriptives
    "FrequencyReport", "JaccardMatrix", "token_frequencies", "entropy_bits",
    "information_gain", "jaccard_matrix",
    # timu
    "Metric", "MetricSpec", "TimuResult", "timu", "rank_tokens", "resolve_fix_value",
    # polychoric
    "ContingencyTable2x2", "PolychoricEstimate", "PolychoricMatrix",
    "bvn_upper", "estimate_polychoric", "polychoric_matrix", "repair_to_psd",
    # factors
    "FactorModel", "ProblemGroup", "ProblemGrouping", "parallel_analysis_detail",
    "extract_factors", "varimax",
    "varimax_criterion", "assign_groups",
    # glm
    "Design", "DesignSpec", "LogisticModel", "ImpactReport", "build_design",
    "fit_logistic", "evaluate", "auc_score", "roc_curve", "group_fix_impact",
    "cumulative_impact", "impact_report", "select_interactions_aic",
    # synthetic
    "GeneratorSpec", "DurationModel", "GroundTruth", "MonteCarloImpact",
    "generate", "ground_truth_impact", "default_world_spec",
    # errors
    "TokenImpactError", "ValidationError", "PolychoricError",
    "FactorAnalysisError", "NoFactorError", "GlmError",
]
