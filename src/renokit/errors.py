"""Exception hierarchy shared across the toolkit."""

from __future__ import annotations


class RenokitError(Exception):
    """Base class for all toolkit errors."""


# --- ingest ---------------------------------------------------------------


class DecodeError(RenokitError):
    """Raw payload is not valid UTF-8."""


class EmptyAfterExtraction(RenokitError):
    """Record carries no usable text once markup, tables, and URLs are gone."""


# --- filters --------------------------------------------------------------


class LexiconMissing(RenokitError):
    """Configured sensitive-word lexicon file does not exist."""


# --- dedup ----------------------------------------------------------------


class EmptyShingleSet(RenokitError):
    """Jaccard is undefined when either shingle set is empty."""


# --- mixer ----------------------------------------------------------------


class EmptyDomain(RenokitError):
    """Mixing requires a non-empty domain dataset."""


class EmptyInput(RenokitError):
    """Both inputs to the instruction-pretraining union must be non-empty."""


class InsufficientGeneralData(RenokitError):
    """General pool too small for the requested ratio."""

    def __init__(self, message: str, shortfall: int = 0):
        super().__init__(message)
        self.shortfall = shortfall


# --- generation -----------------------------------------------------------


class GenerationError(RenokitError):
    """Base class for per-response generation failures (classified in reports)."""


class MalformedResponse(GenerationError):
    """Response did not contain a parseable value of the expected shape."""


class CategoryOutOfSet(GenerationError):
    """Generated category is not in the configured category list."""


class CountOutOfRange(GenerationError):
    """Question batch size outside the accepted 5..20 window."""


class RoleOrderViolation(GenerationError):
    """Dialogue roles do not alternate user/assistant starting with user."""


class OptionMismatch(GenerationError):
    """Declared correct option is not one of the option keys."""


class ArityError(GenerationError):
    """Option count does not match the question type."""


class EndpointError(GenerationError):
    """Transport failure that survived the retry schedule."""


class BudgetExhausted(RenokitError):
    """Request budget ran out before all work was dispatched."""


# --- evaluation -----------------------------------------------------------


class SchemaError(RenokitError):
    """A serialized record does not match its schema."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class ExemplarShortfall(RenokitError):
    """Fewer exemplars available than the requested shot count."""


class DatasetMismatch(RenokitError):
    """Reports being compared were not produced from the same dataset."""


# --- pipeline / cli -------------------------------------------------------


class ConfigError(RenokitError):
    """Pipeline or stage configuration failed validation."""


class StageFailure(RenokitError):
    """A pipeline stage failed; earlier stages are recorded in the manifest."""

    def __init__(self, stage: str, cause: str):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


class UnknownSchema(RenokitError):
    """File does not match any schema the stats command understands."""
