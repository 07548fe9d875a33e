"""REST gateway: dissemination URLs, object management, and graph queries.

Paths:

    GET    /objects/{pid}                   object profile
    GET    /objects/{pid}/methods/{op}      dissemination (query params pass through)
    PUT    /objects/{pid}                   create/replace from canonical XML
    POST   /objects                         create/replace from canonical XML
    DELETE /objects/{pid}                   tombstone
    POST   /query                           textual graph query, rows out
    GET/POST /oai                           OAI-PMH endpoint

A dissemination response is byte-identical to resolve() on the same URI.
Handlers are stateless; management requests serialize through the
repository's write path, so reads stay responsive during harvests.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, fields
from pathlib import Path
from urllib.parse import parse_qsl

from .behaviors import paging
from .canonical import import_object
from .errors import (
    BrandMissingError,
    DisseminationError,
    FormatUnavailableError,
    LimitExceededError,
    ModelIntegrityError,
    NoMetadataError,
    NotFoundError,
    NotRepresentedError,
    ObjectDeletedError,
    OperationNotSupportedError,
    QueryParseError,
    RepositoryError,
    ValidationError,
)
from .graph import parse_query
from .oai import OaiProvider, ProtocolError
from .store import MAX_BODY_BYTES

_OBJECT_RE = re.compile(r"^/objects/([^/]+)$")
_METHOD_RE = re.compile(r"^/objects/([^/]+)/methods/([^/]+)$")

# Candidate bindings a query may examine per row of the cap, paged or not.
# A selective 3-clause join over a 2,000-record catalogue examines about
# 1,000, under one per row of a 2,500-row cap.
CANDIDATES_PER_CAPPED_ROW = 20


@dataclass
class GatewayConfig:
    """Gateway settings; every field can come from a JSON config file and
    be overridden by an OVERLAY_-prefixed environment variable."""

    listen: str = "127.0.0.1:8080"
    data_dir: str | None = None
    page_size: int = 250
    repository_id: str = "overlay.local"
    repository_name: str = "Overlay Repository"
    admin_email: str = "admin@localhost"
    query_row_cap: int = 10000
    base_url: str | None = None

    @property
    def host(self) -> str:
        return self.listen.rsplit(":", 1)[0]

    @property
    def port(self) -> int:
        return int(self.listen.rsplit(":", 1)[1])

    def oai_base_url(self) -> str:
        return self.base_url or f"http://{self.listen}/oai"


def load_config(path: str | Path | None = None,
                env: dict | None = None) -> GatewayConfig:
    env = os.environ if env is None else env
    values: dict = {}
    if path is not None:
        values.update(json.loads(Path(path).read_text("utf-8")))
    for field_info in fields(GatewayConfig):
        key = "OVERLAY_" + field_info.name.upper()
        if key in env:
            raw = env[key]
            values[field_info.name] = int(raw) if field_info.type == "int" else raw
    known = {f.name for f in fields(GatewayConfig)}
    values.pop("providers", None)  # provider list is consumed by the CLI
    unknown = set(values) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return GatewayConfig(**values)


class GatewayApp:
    """WSGI application tying the repository, the query surface, and the
    OAI provider together."""

    def __init__(self, repo, oai: OaiProvider | None = None,
                 query_row_cap: int = 10000):
        self.repo = repo
        self.oai = oai or OaiProvider(repo)
        self.query_row_cap = query_row_cap

    def __call__(self, environ, start_response):
        method = environ.get("REQUEST_METHOD", "GET")
        path = environ.get("PATH_INFO", "/")
        pairs = parse_qsl(environ.get("QUERY_STRING", ""))
        try:
            status, content_type, body = self._route(method, path, pairs, environ)
        except RepositoryError as exc:
            status, content_type, body = self._error_response(exc)
        except Exception as exc:  # pragma: no cover - last-resort guard
            status, content_type, body = (
                "500 Internal Server Error", "text/plain", f"{exc}\n".encode())
        start_response(status, [
            ("Content-Type", content_type),
            ("Content-Length", str(len(body))),
        ])
        return [body]

    # ------------------------------------------------------------------

    def _route(self, method, path, pairs, environ):
        if path == "/oai" or path.startswith("/oai/"):
            return self._oai(method, pairs, environ)
        if path == "/query" and method == "POST":
            return self._query(_arguments(pairs, QueryParseError), _read_body(environ))
        match = _METHOD_RE.match(path)
        if match and method == "GET":
            rep = self.repo.disseminate(
                match.group(1), match.group(2), _arguments(pairs, ValidationError))
            return "200 OK", rep.media_type, rep.body
        match = _OBJECT_RE.match(path)
        if match:
            return self._object(method, match.group(1), environ)
        if path == "/objects" and method == "POST":  # a PUT without a path pid
            return self._object("PUT", None, environ)
        return "404 Not Found", "text/plain", b"no such route\n"

    def _object(self, method, pid, environ):
        if method == "GET":
            rep = self.repo.disseminate(pid, None)
            return "200 OK", rep.media_type, rep.body
        if method == "DELETE":
            self.repo.delete_object(pid)
            return "204 No Content", "text/plain", b""
        if method == "PUT":
            obj, rels = import_object(_read_body(environ))
            if pid is not None and obj.pid != pid:
                return ("409 Conflict", "text/plain",
                        f"body pid {obj.pid} does not match path pid {pid}\n".encode())
            created = self.repo.restore_object(obj, _rels=rels)
            return ("201 Created" if created else "200 OK", "text/plain",
                    f"{obj.pid}\n".encode())
        return "405 Method Not Allowed", "text/plain", b"unsupported method\n"

    def _query(self, params, body):
        pattern = parse_query(body.decode("utf-8"))
        paged = "offset" in params or "limit" in params
        try:  # a bad value is a malformed query here: 400, not 422
            offset, limit = paging(params)
        except ValidationError as exc:
            raise QueryParseError(str(exc)) from exc
        rows = self.repo.graph.query(
            pattern, row_cap=None if paged else self.query_row_cap,
            max_candidates=CANDIDATES_PER_CAPPED_ROW * self.query_row_cap,
            offset=offset, limit=limit)
        text = "".join("\t".join(row) + "\n" for row in rows)
        return "200 OK", "text/plain; charset=utf-8", text.encode("utf-8")

    def _oai(self, method, pairs, environ):
        """OAI-PMH answers every request, errors included, with HTTP 200.
        An argument given twice, in the query string, the body or both, is
        a badArgument."""
        try:
            if method == "POST":
                pairs += parse_qsl(_read_body(environ).decode("utf-8"))
        except UnicodeDecodeError:
            error = "request body is not UTF-8"
        else:
            params = dict(pairs)
            error = None if len(params) == len(pairs) else "repeated argument"
        payload = self.oai.handle_request(params) if error is None else \
            self.oai._error_envelope("", {}, ProtocolError("badArgument", error))
        return "200 OK", "text/xml; charset=UTF-8", payload

    @staticmethod
    def _error_response(exc: RepositoryError):
        status = _STATUS.get(type(exc), "500 Internal Server Error")
        lines = [str(exc)]
        if isinstance(exc, ValidationError):
            lines.extend(exc.violations)
        return status, "text/plain; charset=utf-8", ("\n".join(lines) + "\n").encode()


_STATUS = {
    NotFoundError: "404 Not Found",
    FormatUnavailableError: "404 Not Found",
    ObjectDeletedError: "410 Gone",
    OperationNotSupportedError: "501 Not Implemented",
    ValidationError: "422 Unprocessable Entity",
    QueryParseError: "400 Bad Request",
    ModelIntegrityError: "409 Conflict",
    NoMetadataError: "409 Conflict",
    BrandMissingError: "409 Conflict",
    NotRepresentedError: "409 Conflict",
    DisseminationError: "502 Bad Gateway",
    LimitExceededError: "413 Payload Too Large",
}


def _arguments(pairs: list[tuple[str, str]], error: type[RepositoryError]) -> dict:
    """The query string's arguments; one given twice raises error."""
    params = dict(pairs)
    if len(params) < len(pairs):
        raise error("an argument is given more than once")
    return params


def _read_body(environ) -> bytes:
    try:
        length = max(0, int(environ.get("CONTENT_LENGTH") or 0))
    except ValueError:
        length = 0
    if length > MAX_BODY_BYTES:
        raise LimitExceededError(
            f"request body of {length} bytes exceeds {MAX_BODY_BYTES}")
    return environ["wsgi.input"].read(length) if length else b""


def make_server(app, host: str, port: int):
    """Threaded WSGI server; reads stay responsive during long writes."""
    from socketserver import ThreadingMixIn
    from wsgiref.simple_server import WSGIServer, make_server as _make

    class ThreadingWSGIServer(ThreadingMixIn, WSGIServer):
        daemon_threads = True

    return _make(host, port, app, server_class=ThreadingWSGIServer)
