"""Exception types shared across the toolkit."""

from __future__ import annotations


class NegcampError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(NegcampError):
    """Invalid or incomplete run configuration (CLI exit status 2)."""


class IngestError(NegcampError):
    """A file-level ingestion problem that cannot be skipped record-wise."""


class MalformedResponse(NegcampError):
    """A model response that is not a bare 0/1 after trimming."""


class AuthenticationError(ConfigError):
    """The endpoint refused the API key (HTTP 401 or 403); the run stops."""


class TransportError(NegcampError):
    """A single failed transport attempt.

    ``retry_after`` carries a server-provided wait hint in seconds, if any.
    ``retryable`` is false when another attempt would get the same answer.
    """

    def __init__(self, message: str, retry_after: float | None = None, retryable: bool = True):
        super().__init__(message)
        self.retry_after = retry_after
        self.retryable = retryable


class TransportFailure(NegcampError):
    """Transport retries exhausted for one document."""

    def __init__(self, doc_id: str, attempts: int, last_error: str):
        super().__init__(f"transport failed for {doc_id!r} after {attempts} attempts: {last_error}")
        self.doc_id = doc_id
        self.attempts = attempts
        self.last_error = last_error


class LabelFailure(NegcampError):
    """Model output stayed malformed after the reinforced retry."""

    def __init__(self, doc_id: str, raw_response: str):
        super().__init__(f"unparseable label for {doc_id!r}: {raw_response!r}")
        self.doc_id = doc_id
        self.raw_response = raw_response


class UndefinedMetric(NegcampError):
    """A chance-corrected coefficient has no defined value on this data.

    Raised instead of returning a number, e.g. when the pairable ratings
    contain a single category and expected disagreement is zero.
    """


class DesignError(NegcampError):
    """The regression design cannot be estimated (CLI exit status 5)."""


class RankDeficient(DesignError):
    """Design matrix is rank deficient; ``columns`` names the offenders."""

    def __init__(self, columns: list[str]):
        super().__init__("design matrix is rank deficient; dependent columns: " + ", ".join(columns))
        self.columns = columns


class EvaluationJoinError(NegcampError):
    """Gold and predicted label sets share no document ids (CLI exit 4)."""
