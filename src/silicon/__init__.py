"""Toolkit for LLM text annotation pipelines: chance-corrected agreement,
sampling-based confidence, threshold-routed multi-model voting, clustered
equivalence testing, reference-mixing sensitivity, and a Monte Carlo model of
annotation against an error-prone reference."""

__version__ = "0.1.0"

from .agreement import (
    AgreementReport,
    cohen_kappa,
    kappa_for_kind,
    mean_pairwise_kappa,
    set_weight,
    weighted_kappa,
)
from .confidence import FsdScore, fsd_from_probabilities, fsd_from_samples
from .core import (
    AnnotationRecord,
    Dataset,
    LabelValue,
    Role,
    SiliconError,
    SourceId,
    TaskKind,
    TaskSpec,
    TieRule,
    ValidationError,
    load_dataset,
    load_task_spec,
    majority_reference,
    majority_vote,
    save_dataset,
)
from .equivalence import (
    EquivalenceReport,
    MatchMatrix,
    ModelComparison,
    build_match_matrix,
    fit_equivalence,
)
from .gateway import (
    AnnotationCache,
    AuthError,
    GatewayError,
    ModelEndpoint,
    ParseFailure,
    Placement,
    PromptConfig,
    ReplayCacheMiss,
    RetryPolicy,
    ScriptedTransport,
    Strategy,
    TransportError,
    annotate,
    annotations_to_dataset,
    assemble_prompt,
    cache_key,
    parse_response,
)
from .noise_sim import ContrastReport, SimConfig, SimResult, contrast, simulate
from .routing import RoutingPlan, RoutingResult, SweepPoint, route, sweep
from .sensitivity import AlphaGap, MixConfig, mix_baseline, sensitivity_curve

__all__ = [
    "__version__",
    "AgreementReport", "cohen_kappa", "kappa_for_kind", "mean_pairwise_kappa",
    "set_weight", "weighted_kappa",
    "FsdScore", "fsd_from_probabilities", "fsd_from_samples",
    "AnnotationRecord", "Dataset", "LabelValue", "Role", "SiliconError",
    "SourceId", "TaskKind", "TaskSpec", "TieRule", "ValidationError",
    "load_dataset", "load_task_spec", "majority_reference", "majority_vote",
    "save_dataset",
    "EquivalenceReport", "MatchMatrix", "ModelComparison", "build_match_matrix",
    "fit_equivalence",
    "AnnotationCache", "AuthError", "GatewayError", "ModelEndpoint",
    "ParseFailure", "Placement", "PromptConfig", "ReplayCacheMiss",
    "RetryPolicy", "ScriptedTransport", "Strategy", "TransportError",
    "annotate", "annotations_to_dataset", "assemble_prompt", "cache_key",
    "parse_response",
    "ContrastReport", "SimConfig", "SimResult", "contrast", "simulate",
    "RoutingPlan", "RoutingResult", "SweepPoint", "route", "sweep",
    "AlphaGap", "MixConfig", "mix_baseline", "sensitivity_curve",
]
