"""Information-network overlay repository.

Typed digital objects with stored and computed representations, an
ontology-governed relationship graph, OAI-PMH ingest and provision, and a
REST gateway over the whole thing.
"""

from .errors import (
    BrandMissingError,
    DisseminationError,
    FormatUnavailableError,
    HarvestProtocolError,
    LimitExceededError,
    ModelIntegrityError,
    NoMetadataError,
    NotFoundError,
    NotRepresentedError,
    ObjectDeletedError,
    OperationNotSupportedError,
    QueryParseError,
    RepositoryError,
    StoreError,
    ValidationError,
)
from .model import Datastream, DigitalObject, Representation
from .store import Repository

__version__ = "0.1.0"

__all__ = [
    "BrandMissingError",
    "Datastream",
    "DigitalObject",
    "DisseminationError",
    "FormatUnavailableError",
    "HarvestProtocolError",
    "LimitExceededError",
    "ModelIntegrityError",
    "NoMetadataError",
    "NotFoundError",
    "NotRepresentedError",
    "ObjectDeletedError",
    "OperationNotSupportedError",
    "QueryParseError",
    "Repository",
    "RepositoryError",
    "Representation",
    "StoreError",
    "ValidationError",
    "__version__",
]
