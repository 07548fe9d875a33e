"""Exception hierarchy shared by all repository components."""


class RepositoryError(Exception):
    """Base class for all errors raised by this package."""


class StoreError(RepositoryError):
    """Fatal storage failure (unwritable data directory, corrupt record)."""


class NotFoundError(RepositoryError):
    """The requested pid, handle, or identifier does not exist."""


class ObjectDeletedError(RepositoryError):
    """The object exists only as a tombstone."""


class ValidationError(RepositoryError):
    """A mutation was rejected; nothing was written.

    ``violations`` lists every individual problem so callers can report
    them all at once (a 422 response body, a CLI error list).
    """

    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        self.violations = list(violations or [])


class OperationNotSupportedError(RepositoryError):
    """The object does not bind a behavior providing the requested operation."""


class FormatUnavailableError(RepositoryError):
    """No stored record and no registered crosswalk can produce the format."""


class ModelIntegrityError(RepositoryError):
    """The relationship graph violates a content-model expectation
    (missing or duplicated mandatory edge, cycle in an augmentation chain)."""


class NoMetadataError(RepositoryError):
    """A merged-record computation was requested for a resource that no
    metadata object describes."""


class BrandMissingError(RepositoryError):
    """A role object reachable from a branding operation has no BRAND stream."""


class NotRepresentedError(RepositoryError):
    """The aggregation has no surrogate resource."""


class DisseminationError(RepositoryError):
    """A behavior failed while producing a representation (remote fetch
    failure, unexpected internal error). The original failure is chained."""


class QueryParseError(RepositoryError):
    """The textual graph query could not be parsed."""


class LimitExceededError(RepositoryError):
    """A request passed a size bound (query rows, candidate bindings, or
    body length) and was refused before the work was done."""


class HarvestProtocolError(RepositoryError):
    """The remote endpoint answered with a protocol-level error; the
    harvest was aborted and local state left unchanged."""

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        self.code = code
