"""negcamp: zero-shot classification of negative campaigning in multilingual
political messages, reliability benchmarking against human coders, and
party-level fixed-effects analysis."""

__version__ = "0.1.0"

from .annotate import (
    AnnotationCache,
    AnnotationResult,
    BatchResult,
    HttpTransport,
    MockTransport,
    ModelConfig,
    RetryPolicy,
    annotate_batch,
    classify_one,
    estimate_cost,
    parse_label,
)
from .codebook import Codebook, CodebookVariant, ContextLevel, PromptVariant, RenderedPrompt, builtin_codebooks, render
from .errors import (
    AuthenticationError,
    ConfigError,
    DesignError,
    EvaluationJoinError,
    IngestError,
    LabelFailure,
    MalformedResponse,
    NegcampError,
    RankDeficient,
    TransportError,
    TransportFailure,
    UndefinedMetric,
)
from .ingest import Corpus, Document, GoldLabel, PartyMeta, detect_retweet, ingest_documents, ingest_gold, ingest_party_meta
from .reliability import (
    ConfusionMatrix,
    RatingTable,
    ReliabilityReport,
    brennan_prediger,
    compare,
    confusion,
    f1_scores,
    grouped_report,
    krippendorff_alpha_nominal,
)
from .study import (
    AggregationFilters,
    DesignMatrix,
    ModelVariant,
    PartyAggregate,
    RegressionFit,
    aggregate_parties,
    build_design,
    cluster_robust_se,
    country_negativity,
    extremism,
    fit_model,
    fit_ols,
    marginal_means_family,
)

__all__ = [name for name in dir() if not name.startswith("_")]
