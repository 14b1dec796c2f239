"""Command-line entry point: annotate, evaluate, and study subcommands.

The pipeline hands files between subcommands so that expensive annotation
runs are cached and resumed independently of cheap re-analysis. Every
command writes a manifest with content digests of its inputs and a digest
of its semantic configuration; operational knobs (paths, concurrency) do
not enter the digest, so re-runs of the same analysis are byte-identical.

Exit statuses are a stable contract: 0 success, 2 configuration error,
3 annotation failures above threshold, 4 empty evaluation join, 5 rank
deficient design.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import __version__
from .annotate import (
    ENDPOINT_ENV,
    AnnotationCache,
    HttpTransport,
    ModelConfig,
    MOCK_RETRY,
    MockTransport,
    RetryPolicy,
    annotate_batch,
    label_map,
    read_annotations,
    write_annotations,
)
from .codebook import PromptVariant, resolve_codebook
from .errors import ConfigError, DesignError, EvaluationJoinError, IngestError, NegcampError, UndefinedMetric
from .ingest import Corpus, gold_label_map, ingest_documents, ingest_gold, ingest_party_meta
from .reliability import RatingTable, brennan_prediger, grouped_report, krippendorff_alpha_nominal, render_report_text
from .runio import canonical_float, sha256_file, sha256_text, stable_json_dumps, write_json, write_text
from .study import (
    AggregationFilters,
    ModelVariant,
    aggregate_parties,
    build_design,
    country_negativity,
    fit_model,
    marginal_means_family,
    render_regression_text,
)

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ANNOTATION_FAILURES = 3
EXIT_EMPTY_JOIN = 4
EXIT_DESIGN = 5

_MODEL_TITLES = {ModelVariant.MODEL1: "Model 1", ModelVariant.MODEL2: "Model 2", ModelVariant.FAMILY: "Family model"}


@dataclass
class RunConfig:
    """Resolved settings for one command invocation."""

    out: Path
    corpus: Path | None = None
    corpus_format: str = "jsonl"
    gold: Path | None = None
    gold_coder: str | None = None
    party_meta: Path | None = None
    annotations: Path | None = None
    cache: Path | None = None
    codebook: str = "main_study"
    variant: str = "no_context:original"
    model: str = "gpt-4o-mini-2024-07-18"
    mock: Path | None = None
    concurrency: int = 8
    failure_threshold: float = 0.01
    min_tweets: int = 500
    include_retweets: bool = False
    include_independents: bool = False
    model_variant: str = "m1"
    reference_country: str | None = None

    def require(self, field_name: str) -> Path:
        value = getattr(self, field_name)
        if value is None:
            raise ConfigError(f"missing required setting: {field_name}")
        if not Path(value).is_file():
            raise ConfigError(f"{field_name} path does not exist: {value}")
        return Path(value)

    def semantic_digest(self, command: str, codebook_digest: str | None = None) -> str:
        """Digest of the settings that shape ``command``'s outputs; only
        ``annotate`` passes a ``codebook_digest``."""
        payload = {
            "command": command,
            "codebook_digest": codebook_digest,
            "variant": self.variant if command == "annotate" else None,
            "model": self.model if command == "annotate" else None,
            "failure_threshold": self.failure_threshold if command == "annotate" else None,
            "gold_coder": self.gold_coder if command == "evaluate" else None,
            "min_tweets": self.min_tweets if command == "study" else None,
            "include_retweets": self.include_retweets if command == "study" else None,
            "include_independents": self.include_independents if command == "study" else None,
            "model_variant": self.model_variant if command == "study" else None,
            "reference_country": self.reference_country if command == "study" else None,
            "schema_version": SCHEMA_VERSION,
        }
        return sha256_text(stable_json_dumps(payload))


_PATH_FIELDS = ("out", "corpus", "gold", "party_meta", "annotations", "cache", "mock")


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    settings: dict[str, object] = {}
    if args.config is not None:
        try:
            file_settings = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from None
        if not isinstance(file_settings, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(file_settings) - set(RunConfig.__dataclass_fields__)
        if unknown:
            raise ConfigError("unknown config keys: " + ", ".join(sorted(unknown)))
        settings.update(file_settings)
    for name in RunConfig.__dataclass_fields__:
        value = getattr(args, name, None)
        if value is not None:
            settings[name] = value
    if "out" not in settings:
        raise ConfigError("missing required setting: out")
    for name in _PATH_FIELDS:
        if settings.get(name) is not None:
            settings[name] = Path(str(settings[name]))
    try:
        return RunConfig(**settings)  # type: ignore[arg-type]
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def _input_entry(path: Path, **extra: object) -> dict[str, object]:
    entry: dict[str, object] = {"name": path.name, "sha256": sha256_file(path)}
    entry.update(extra)
    return entry


def _load_corpus(config: RunConfig) -> tuple[Corpus, int, Path]:
    path = config.require("corpus")
    ingest = ingest_documents(path, fmt=config.corpus_format)
    if ingest.rejections:
        lines = "".join(
            stable_json_dumps({"line": r.line, "reason": r.reason, "doc_id": r.doc_id}) + "\n"
            for r in ingest.rejections
        )
        write_text(config.out / "rejections.jsonl", lines)
        logger.warning("%d corpus records rejected; see rejections.jsonl", len(ingest.rejections))
    return ingest.corpus, len(ingest.rejections), path


def cmd_annotate(config: RunConfig) -> int:
    corpus, n_rejected, corpus_path = _load_corpus(config)
    codebook = resolve_codebook(config.codebook)
    variant = PromptVariant.parse(config.variant)
    endpoint = os.environ.get(ENDPOINT_ENV) or None
    model_config = ModelConfig.for_model(config.model, endpoint_url=endpoint)

    if config.mock is not None:
        if not config.mock.is_file():
            raise ConfigError(f"mock path does not exist: {config.mock}")
        transport = MockTransport.from_jsonl(config.mock)
        retry = MOCK_RETRY
    else:
        transport = HttpTransport()
        retry = RetryPolicy()

    cache_path = config.cache if config.cache is not None else config.out / "cache.jsonl"
    cache = AnnotationCache(cache_path)
    try:
        batch = annotate_batch(
            corpus,
            codebook,
            variant,
            model_config,
            transport,
            cache=cache,
            concurrency_limit=config.concurrency,
            retry=retry,
        )
    finally:
        cache.close()

    write_annotations(config.out / "annotations.jsonl", batch.results)
    if batch.failures:
        lines = "".join(stable_json_dumps(f.to_record()) + "\n" for f in batch.failures)
        write_text(config.out / "failures.jsonl", lines)

    cost = (batch.input_tokens * model_config.price_per_1m_input + batch.output_tokens * model_config.price_per_1m_output) / 1e6
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "toolkit_version": __version__,
        "command": "annotate",
        "config_digest": config.semantic_digest("annotate", codebook.digest()),
        "model_id": model_config.model_id,
        "codebook": {"name": codebook.name, "digest": codebook.digest()},
        "variant": str(variant),
        "failure_threshold": config.failure_threshold,
        "inputs": {"corpus": _input_entry(corpus_path, n_documents=len(corpus), n_rejected=n_rejected)},
        "outputs": {
            "n_results": len(batch.results),
            "n_failures": len(batch.failures),
            "input_tokens": batch.input_tokens,
            "output_tokens": batch.output_tokens,
            "cost_usd": cost,
        },
    }
    write_json(config.out / "manifest_annotate.json", manifest)

    fraction = batch.failure_fraction(len(corpus))
    if fraction > config.failure_threshold:
        print(
            f"annotation failures {len(batch.failures)}/{len(corpus)} ({fraction:.1%}) "
            f"exceed threshold {config.failure_threshold:.1%}",
            file=sys.stderr,
        )
        return EXIT_ANNOTATION_FAILURES
    return EXIT_OK


def _human_irr(gold_labels) -> dict[str, object] | None:
    coders = sorted({g.coder_id for g in gold_labels})
    if len(coders) < 2:
        return None
    table = RatingTable.from_records((g.doc_id, g.coder_id, g.label) for g in gold_labels)
    flags = []
    try:
        alpha: float | None = krippendorff_alpha_nominal(table)
    except (UndefinedMetric, ValueError):
        alpha = None
        flags.append("alpha_undefined")
    try:
        kappa: float | None = brennan_prediger(table, q=2)
    except ValueError:
        # no document is coded twice, so there is no pair to agree
        kappa = None
        flags.append("kappa_undefined")
    return {
        "alpha_k": alpha,
        "kappa_bp": kappa,
        "n_items": len(table.items),
        "n_raters": len(coders),
        "flags": flags,
    }


def cmd_evaluate(config: RunConfig) -> int:
    corpus, _, corpus_path = _load_corpus(config)
    gold_path = config.require("gold")
    gold_labels = ingest_gold(gold_path)
    gold, n_conflicts = gold_label_map(gold_labels, coder=config.gold_coder)
    annotations_path = config.annotations if config.annotations is not None else config.out / "annotations.jsonl"
    if not annotations_path.is_file():
        raise ConfigError(f"annotations path does not exist: {annotations_path}")
    predicted = label_map(read_annotations(annotations_path))

    by_country = grouped_report(gold, predicted, {d.id: d.country for d in corpus})
    by_language = grouped_report(gold, predicted, {d.id: d.language for d in corpus}, pooled=by_country.pooled)
    if by_country.n_gold_only:
        logger.warning("%d gold labels reference documents outside the predictions; kept, join is on the intersection", by_country.n_gold_only)

    report = {
        "schema_version": SCHEMA_VERSION,
        "pooled": by_country.pooled.to_dict(),
        "by_country": {k: v.to_dict() for k, v in sorted(by_country.groups.items())},
        "by_language": {k: v.to_dict() for k, v in sorted(by_language.groups.items())},
        "n_gold_only": by_country.n_gold_only,
        "n_predicted_only": by_country.n_predicted_only,
        "n_conflicting_gold": n_conflicts,
        "human_irr": _human_irr(gold_labels),
    }
    write_json(config.out / "evaluation.json", report)
    text = (
        "by country:\n"
        + render_report_text(by_country, "country")
        + "\nby language:\n"
        + render_report_text(by_language, "language")
    )
    write_text(config.out / "evaluation.txt", text)

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "toolkit_version": __version__,
        "command": "evaluate",
        "config_digest": config.semantic_digest("evaluate"),
        "inputs": {
            "corpus": _input_entry(corpus_path, n_documents=len(corpus)),
            "gold": _input_entry(gold_path, n_labels=len(gold_labels)),
            "annotations": _input_entry(annotations_path, n_labels=len(predicted)),
        },
        "outputs": {
            "n_compared": by_country.pooled.n,
            "n_gold_only": by_country.n_gold_only,
            "n_predicted_only": by_country.n_predicted_only,
        },
    }
    write_json(config.out / "manifest_evaluate.json", manifest)
    return EXIT_OK


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def cmd_study(config: RunConfig) -> int:
    corpus, _, corpus_path = _load_corpus(config)
    annotations_path = config.annotations if config.annotations is not None else config.out / "annotations.jsonl"
    if not annotations_path.is_file():
        raise ConfigError(f"annotations path does not exist: {annotations_path}")
    labels = label_map(read_annotations(annotations_path))
    meta_path = config.require("party_meta")
    party_meta = ingest_party_meta(meta_path)
    try:
        variant = ModelVariant(config.model_variant)
    except ValueError:
        raise ConfigError(f"invalid model_variant {config.model_variant!r} (m1, m2, or family)") from None

    filters = AggregationFilters(
        exclude_retweets=not config.include_retweets,
        min_tweets=config.min_tweets,
        exclude_independents=not config.include_independents,
    )
    aggregates = aggregate_parties(corpus, labels, party_meta, filters)
    write_text(
        config.out / "aggregates.csv",
        _csv_text(
            ("party_id", "country", "n_total", "n_original", "n_negative_original", "pct_negative"),
            [(a.party_id, a.country, a.n_total, a.n_original, a.n_negative_original, a.pct_negative) for a in aggregates],
        ),
    )

    by_country = country_negativity(corpus, labels)
    write_text(
        config.out / "figure1_country.csv",
        _csv_text(
            ("country", "pct_original", "pct_retweet"),
            [
                (r.country, "" if r.pct_original is None else r.pct_original, "" if r.pct_retweet is None else r.pct_retweet)
                for r in by_country
            ],
        ),
    )
    write_text(
        config.out / "figure2_party.csv",
        _csv_text(
            ("party_id", "country", "pct_negative"),
            [(a.party_id, a.country, a.pct_negative) for a in aggregates],
        ),
    )

    design = build_design(aggregates, party_meta, variant, reference_country=config.reference_country)
    fit = fit_model(design)
    regression = {
        "schema_version": SCHEMA_VERSION,
        "model_variant": variant.value,
        "reference_country": design.reference_country,
        **fit.to_dict(),
    }
    write_json(config.out / "regression.json", regression)
    write_text(config.out / "regression.txt", render_regression_text(fit, _MODEL_TITLES[variant]))

    if variant is ModelVariant.FAMILY:
        means = marginal_means_family(fit, design)
        write_text(
            config.out / "marginal_means.csv",
            _csv_text(
                ("family", "predicted", "ci_low", "ci_high", "n_obs", "flags"),
                [
                    (m.family, canonical_float(m.predicted), canonical_float(m.ci_low), canonical_float(m.ci_high), m.n_obs, ";".join(m.flags))
                    for m in means
                ],
            ),
        )

    flagged = sorted(a.party_id for a in aggregates if "missing_meta" in a.flags)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "toolkit_version": __version__,
        "command": "study",
        "config_digest": config.semantic_digest("study"),
        "model_variant": variant.value,
        "reference_country": design.reference_country,
        "filters": {
            "exclude_retweets": filters.exclude_retweets,
            "min_tweets": filters.min_tweets,
            "exclude_independents": filters.exclude_independents,
        },
        "inputs": {
            "corpus": _input_entry(corpus_path, n_documents=len(corpus)),
            "annotations": _input_entry(annotations_path, n_labels=len(labels)),
            "party_meta": _input_entry(meta_path, n_parties=len(party_meta)),
        },
        "outputs": {
            "n_aggregates": len(aggregates),
            "n_missing_meta": len(flagged),
            "missing_meta_parties": flagged,
            "n_unlabeled_documents": sum(1 for d in corpus if d.id not in labels),
            "n_obs": fit.n_obs,
            "n_clusters": fit.n_clusters,
        },
    }
    write_json(config.out / "manifest_study.json", manifest)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negcamp",
        description="Zero-shot negative-campaigning annotation, reliability evaluation, and party-level analysis.",
    )
    parser.add_argument("--version", action="version", version=f"negcamp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, help="JSON config file; command-line flags override it")
        p.add_argument("--corpus", type=Path, help="corpus file (JSONL or CSV)")
        p.add_argument("--corpus-format", dest="corpus_format", choices=("jsonl", "csv"), default=None)
        p.add_argument("--out", type=Path, help="output directory")

    annotate = sub.add_parser("annotate", help="label a corpus via the chat-completion transport")
    common(annotate)
    annotate.add_argument("--codebook", help="builtin codebook name or JSON file path")
    annotate.add_argument(
        "--variant",
        help="prompt variant as context:codebook, with context in {no_context, system, system_user} "
        "and codebook in {original, adjusted}",
    )
    annotate.add_argument("--model", help="model id (default gpt-4o-mini-2024-07-18)")
    annotate.add_argument("--mock", type=Path, help="JSONL doc_id->response map; runs offline")
    annotate.add_argument("--concurrency", type=int, help="max in-flight requests (default 8)")
    annotate.add_argument("--cache", type=Path, help="annotation cache path (default OUT/cache.jsonl)")
    annotate.add_argument("--failure-threshold", dest="failure_threshold", type=float, help="max tolerated failure fraction (default 0.01)")
    annotate.set_defaults(func=cmd_annotate)

    evaluate = sub.add_parser("evaluate", help="score annotations against a gold standard")
    common(evaluate)
    evaluate.add_argument("--gold", type=Path, help="gold label CSV (doc_id,coder_id,label)")
    evaluate.add_argument("--gold-coder", dest="gold_coder", help="restrict the gold standard to one coder id")
    evaluate.add_argument("--annotations", type=Path, help="annotation JSONL (default OUT/annotations.jsonl)")
    evaluate.set_defaults(func=cmd_evaluate)

    study = sub.add_parser("study", help="aggregate to parties and fit the fixed-effects models")
    common(study)
    study.add_argument("--annotations", type=Path, help="annotation JSONL (default OUT/annotations.jsonl)")
    study.add_argument("--party-meta", dest="party_meta", type=Path, help="party covariate CSV")
    study.add_argument("--min-tweets", dest="min_tweets", type=int, help="minimum total tweets per party (default 500)")
    study.add_argument("--include-retweets", dest="include_retweets", action="store_const", const=True, help="count retweets in the analysis base")
    study.add_argument("--include-independents", dest="include_independents", action="store_const", const=True, help="keep documents with no party")
    study.add_argument("--model-variant", dest="model_variant", choices=("m1", "m2", "family"), help="predictor set (default m1)")
    study.add_argument("--reference-country", dest="reference_country", help="fixed-effects reference country (default alphabetically first)")
    study.set_defaults(func=cmd_study)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        config.out.mkdir(parents=True, exist_ok=True)
        return args.func(config)
    except (ConfigError, IngestError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EvaluationJoinError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_JOIN
    except DesignError as exc:
        print(f"design error: {exc}", file=sys.stderr)
        return EXIT_DESIGN
    except NegcampError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
