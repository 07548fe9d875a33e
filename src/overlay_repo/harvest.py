"""OAI-PMH harvesting: incremental pulls from provider endpoints into the
content-model graph.

Each registered provider gets an agent object plus two role objects (a
metadata provider and an aggregator). Every harvested record becomes a
metadata object carrying the verbatim payload, the normalized nsdl_dc
derivative, and provenance; described resources are created once per
URL across all providers and collected into the provider's aggregation.
The stored payload keeps the upstream bindings of the prefixes its
xsi:type values use.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass, field, replace
from datetime import datetime
from pathlib import Path
from typing import Callable
from urllib.parse import urlencode
from xml.etree import ElementTree as ET

from . import records
from .behaviors import build_brand_doc
from .errors import HarvestProtocolError, NotFoundError, ValidationError
from .graph import Triple, rels_stream
from .model import (
    BRAND_DS, CONTENT_DS, SOURCE_DS, DigitalObject, _Refusing, build_source_doc,
    format_datestamp, is_absolute_url, local_stream, parse_datestamp, parse_xml,
    quoteattr, remote_stream)
from .oai import OAI_NS
from .ontology import base_predicate
from .store import _default_fetcher, _read_json, write_json

log = logging.getLogger(__name__)

DC_IDENTIFIER = f"{{{records.DC_NS}}}identifier"
XSI_TYPE = f"{{{records.XSI_NS}}}type"

# Transport seam: url -> response body. The default speaks HTTP; tests and
# in-process federation substitute direct calls.
Transport = Callable[[str], bytes]
PAGE_TIMEOUT = 30.0  # seconds one page request may take over HTTP


@dataclass
class ProviderConfig:
    """One harvest source and the repository objects standing for it."""

    name: str
    base_url: str
    format: str = "oai_dc"
    set_spec: str | None = None
    schedule_hint: int = 3600  # seconds between scheduled harvests
    brand_label: str | None = None
    brand_logo_url: str | None = None
    agent_pid: str | None = None
    provider_role_pid: str | None = None
    aggregator_role_pid: str | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}

    @classmethod
    def from_dict(cls, data: dict) -> "ProviderConfig":
        return cls(**data)


@dataclass
class HarvestState:
    """Incremental-harvest bookkeeping; last_success_until never decreases."""

    last_success_until: datetime | None = None
    pending_resumption: str | None = None
    pending_until: datetime | None = None
    consecutive_failures: int = 0

    def to_dict(self) -> dict:
        return {
            "last_success_until": _opt_stamp(self.last_success_until),
            "pending_resumption": self.pending_resumption,
            "pending_until": _opt_stamp(self.pending_until),
            "consecutive_failures": self.consecutive_failures,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HarvestState":
        return cls(
            last_success_until=_opt_parse(data.get("last_success_until")),
            pending_resumption=data.get("pending_resumption"),
            pending_until=_opt_parse(data.get("pending_until")),
            consecutive_failures=int(data.get("consecutive_failures", 0)),
        )


def _opt_stamp(dt: datetime | None) -> str | None:
    return None if dt is None else format_datestamp(dt)


def _opt_parse(value: str | None) -> datetime | None:
    return None if value is None else parse_datestamp(value)


@dataclass
class IngestReport:
    harvested: int = 0
    created: int = 0
    updated: int = 0
    deleted: int = 0
    rejected: int = 0
    rejects: list[tuple[str, str]] = field(default_factory=list)

    def check(self) -> None:
        assert self.harvested == self.created + self.updated + self.deleted + self.rejected


@dataclass(frozen=True)
class _Header:
    identifier: str
    datestamp: datetime
    deleted: bool


@dataclass(frozen=True)
class _Page:
    records: list
    resumption_token: str | None


class Harvester:
    def __init__(self, repo, transport: Transport | None = None):
        self.repo = repo
        self.transport = transport or (lambda url: _default_fetcher(url, PAGE_TIMEOUT))

    # ------------------------------------------------------------------
    # provisioning

    def register_provider(self, cfg: ProviderConfig) -> ProviderConfig:
        """Create the provider's agent and its two role objects (with
        brands), wiring hasRole edges; idempotent for an already
        provisioned config."""
        if cfg.agent_pid is not None:
            return cfg
        label = cfg.brand_label or cfg.name
        brand = local_stream(BRAND_DS, "application/xml",
                             build_brand_doc(label, cfg.brand_logo_url))
        provider_role = self.repo.mint_pid()
        self.repo.put_object(DigitalObject(
            pid=provider_role, behaviors=frozenset({"MetadataProvider"}),
            datastreams=(brand,)))
        aggregator_role = self.repo.mint_pid()
        self.repo.put_object(DigitalObject(
            pid=aggregator_role, behaviors=frozenset({"Aggregator"}),
            datastreams=(brand,)))
        agent = self.repo.mint_pid()
        self.repo.put_object(DigitalObject(
            pid=agent, behaviors=frozenset({"Agent"}), datastreams=(rels_stream(agent, [
                Triple(agent, base_predicate("hasRole"), provider_role),
                Triple(agent, base_predicate("hasRole"), aggregator_role),
            ]),)))
        self.repo.assign_handle(agent)
        return replace(cfg, agent_pid=agent, provider_role_pid=provider_role,
                       aggregator_role_pid=aggregator_role)

    # ------------------------------------------------------------------
    # harvesting

    def harvest(self, cfg: ProviderConfig,
                state: HarvestState | None = None) -> tuple[IngestReport, HarvestState]:
        """One full ListRecords pass: window [last_success_until, now),
        following resumption tokens to completion. The state advances only
        once the whole chain lands; a failed page leaves it resumable."""
        if cfg.agent_pid is None:
            raise HarvestProtocolError(f"provider {cfg.name} is not registered")
        state = state or HarvestState()
        report = IngestReport()
        if state.pending_resumption is not None:
            until = state.pending_until or self.repo.clock()
            params = {"verb": "ListRecords",
                      "resumptionToken": state.pending_resumption}
        else:
            until = self.repo.clock()
            params = {"verb": "ListRecords", "metadataPrefix": cfg.format}
            if state.last_success_until is not None:
                params["from"] = format_datestamp(state.last_success_until)
            params["until"] = format_datestamp(until)
            if cfg.set_spec:
                params["set"] = cfg.set_spec

        while True:
            try:
                page = self._fetch_page(cfg, params)
            except HarvestProtocolError as exc:
                state.consecutive_failures += 1
                if exc.code == "badResumptionToken":
                    state.pending_resumption = None
                    state.pending_until = None
                raise
            for header, metadata in page.records:
                report.harvested += 1
                identifier = "" if header is None else header.identifier
                if not identifier:
                    outcome = "no header" if header is None else "no header identifier"
                elif header.deleted:
                    self.handle_deleted(identifier, cfg)
                    report.deleted += 1
                    continue
                else:
                    outcome = self.ingest_record(header, metadata, cfg)
                if outcome == "created":
                    report.created += 1
                elif outcome == "updated":
                    report.updated += 1
                else:
                    report.rejected += 1
                    report.rejects.append((identifier, outcome))
            if page.resumption_token:
                state.pending_resumption = page.resumption_token
                state.pending_until = until
                params = {"verb": "ListRecords",
                          "resumptionToken": page.resumption_token}
                continue
            break

        state.pending_resumption = None
        state.pending_until = None
        state.consecutive_failures = 0
        if state.last_success_until is None or until > state.last_success_until:
            state.last_success_until = until
        report.check()
        return report, state

    # ------------------------------------------------------------------
    # transport plumbing

    def _fetch_page(self, cfg: ProviderConfig, params: dict) -> _Page:
        url = cfg.base_url + "?" + urlencode(params)
        try:
            body = self.transport(url)
        except Exception as exc:
            raise HarvestProtocolError(f"{cfg.name}: request failed: {exc}") from exc
        builder = _TypeBindings()
        try:
            root = parse_xml(body, "response", builder)
        except ValidationError as exc:
            raise HarvestProtocolError(f"{cfg.name}: {exc}") from exc
        error = root.find(f"{{{OAI_NS}}}error")
        if error is not None:
            code = error.get("code", "")
            if code == "noRecordsMatch":
                return _Page([], None)
            raise HarvestProtocolError(
                f"{cfg.name}: provider error {code}: {error.text or ''}", code=code)
        container = root.find(f"{{{OAI_NS}}}ListRecords")
        if container is None:
            raise HarvestProtocolError(f"{cfg.name}: response has no ListRecords")
        token_el = container.find(f"{{{OAI_NS}}}resumptionToken")
        token = (token_el.text or "").strip() if token_el is not None else ""
        return _Page(self._parse_records(container, builder.bindings), token or None)

    def _parse_records(self, container: ET.Element, type_bindings: dict) -> list:
        """(header, payload) of each record; a record without a header is
        (None, None), which the harvest counts as a reject."""
        parsed = []
        for record in container.findall(f"{{{OAI_NS}}}record"):
            header_el = record.find(f"{{{OAI_NS}}}header")
            if header_el is None:
                parsed.append((None, None))
                continue
            identifier = header_el.findtext(f"{{{OAI_NS}}}identifier", "").strip()
            stamp = header_el.findtext(f"{{{OAI_NS}}}datestamp", "").strip()
            try:
                datestamp = parse_datestamp(stamp)
            except ValidationError:
                datestamp = self.repo.clock()
                log.warning("record %s has malformed datestamp %r; using %s",
                            identifier, stamp, format_datestamp(datestamp))
            deleted = header_el.get("status") == "deleted"
            metadata_el = record.find(f"{{{OAI_NS}}}metadata")
            payload = None
            if metadata_el is not None:
                children = list(metadata_el)
                if children:
                    payload = _record_payload(children[0], type_bindings)
            parsed.append((_Header(identifier, datestamp, deleted), payload))
        return parsed

    # ------------------------------------------------------------------
    # record ingest

    def ingest_record(self, header: _Header, payload: bytes | None,
                      cfg: ProviderConfig) -> str:
        """Returns "created", "updated", or a rejection reason. A DC-family
        record is parsed and normalized once; its entries give the resource
        key (the first absolute-URL dc:identifier) and, from oai_dc, the
        REC.nsdl_dc derivative. Any other format only has to be well-formed."""
        if payload is None:
            return "empty record"
        try:
            if cfg.format in records.FORMATS:
                entries = records.apply_rules(
                    records.parse_dc_entries(payload, cfg.format))
                identifiers = [e.value for e in entries if e.name == "identifier"]
                if not any(identifiers):
                    return "no identifier"
            else:
                identifiers = [(el.text or "").strip() for el in
                               parse_xml(payload, "record").iter(DC_IDENTIFIER)]
        except ValidationError as exc:
            return str(exc)
        resource_key = next((v for v in identifiers if is_absolute_url(v)), None)
        if resource_key is None:
            return "no resource key"
        resource_pid = self._resolve_resource(resource_key, cfg)
        existing = self.repo.source_pid(cfg.name, header.identifier)
        metadata_pid = existing or self.repo.mint_pid()
        described = self.repo.graph.objects_of(metadata_pid, "metadataFor")

        streams = [
            local_stream(f"REC.{cfg.format}", records.RECORD_MEDIA_TYPE, payload),
            local_stream(SOURCE_DS, "application/xml",
                         build_source_doc(cfg.name, header.identifier,
                                          header.datestamp)),
        ]
        if cfg.format in records.FORMATS and cfg.format != "nsdl_dc":
            streams.append(local_stream(
                "REC.nsdl_dc", records.RECORD_MEDIA_TYPE,
                records.serialize_dc("nsdl_dc", entries)))
        streams.append(rels_stream(metadata_pid, [
            Triple(metadata_pid, base_predicate("metadataFor"), resource_pid),
            Triple(metadata_pid, base_predicate("providedBy"), cfg.provider_role_pid),
        ]))
        self.repo.put_object(DigitalObject(
            pid=metadata_pid, behaviors=frozenset({"Metadata"}),
            datastreams=tuple(streams)))
        for resource in described:
            if resource != resource_pid:  # the record moved to another resource
                self._leave_if_undescribed(resource, cfg)
        return "updated" if existing else "created"

    def _resolve_resource(self, url: str, cfg: ProviderConfig) -> str:
        """Content object for a resource key, deduplicated across all
        providers; membership in this provider's aggregation is asserted
        either way."""
        existing = self.repo.content_pid_for_url(url)
        if existing is not None:
            memberships = self.repo.graph.objects_of(existing, "memberOf")
            if cfg.aggregator_role_pid not in memberships:
                self._set_memberships(
                    existing, memberships + [cfg.aggregator_role_pid])
            return existing
        pid = self.repo.mint_pid()
        member = Triple(pid, base_predicate("memberOf"), cfg.aggregator_role_pid)
        self.repo.put_object(DigitalObject(
            pid=pid, behaviors=frozenset({"Content"}),
            datastreams=(remote_stream(CONTENT_DS, "text/html", url),
                         rels_stream(pid, [member]))))
        self.repo.assign_handle(pid)
        return pid

    def _set_memberships(self, pid: str, aggregations: list[str]) -> None:
        obj = self.repo.get_object(pid)
        keep = [t for t in self.repo.graph.triples_asserted_by(pid)
                if str(t.predicate) != "memberOf"]
        triples = keep + [Triple(pid, base_predicate("memberOf"), a) for a in aggregations]
        self.repo.put_object(obj.with_datastream(rels_stream(pid, triples)))

    def handle_deleted(self, oai_identifier: str, cfg: ProviderConfig) -> None:
        """Tombstone the metadata object for a deleted upstream record.
        The described resource survives (other providers may still
        describe it)."""
        metadata_pid = self.repo.source_pid(cfg.name, oai_identifier)
        if metadata_pid is None:
            return
        resources = self.repo.graph.objects_of(metadata_pid, "metadataFor")
        self.repo.delete_object(metadata_pid)
        for resource in resources:
            self._leave_if_undescribed(resource, cfg)

    def _leave_if_undescribed(self, resource: str, cfg: ProviderConfig) -> None:
        """Take resource out of this provider's aggregation once none of
        this provider's live records describes it."""
        graph = self.repo.graph
        if any(cfg.provider_role_pid in graph.objects_of(m, "providedBy")
               for m in graph.subjects_of("metadataFor", resource)):
            return
        memberships = graph.objects_of(resource, "memberOf")
        if cfg.aggregator_role_pid in memberships:
            memberships.remove(cfg.aggregator_role_pid)
            try:
                self._set_memberships(resource, memberships)
            except NotFoundError:
                pass


# --------------------------------------------------------------------------
# response parsing


class _TypeBindings(_Refusing):
    """The tree builder of a response. Its bindings map each element whose
    xsi:type value is a prefixed QName to that prefix and the namespace
    bound to it in scope: expat reports an element's declarations before
    the element and ends them after it, so a prefix's stack top is its
    binding."""

    def __init__(self):
        super().__init__()
        self.scopes: defaultdict[str, list[str]] = defaultdict(list)
        self.bindings: dict[ET.Element, tuple[str, str]] = {}

    def start_ns(self, prefix, uri):
        self.scopes[prefix].append(uri)

    def end_ns(self, prefix):
        self.scopes[prefix].pop()

    def start(self, tag, attrs):
        element = super().start(tag, attrs)
        prefix, colon, _ = (attrs.get(XSI_TYPE) or "").partition(":")
        if colon and self.scopes[prefix]:
            self.bindings[element] = (prefix, self.scopes[prefix][-1])
        return element


def _record_payload(element: ET.Element, type_bindings: dict) -> bytes:
    """The record element serialized on its own. ElementTree declares only
    the namespaces that tags and attribute names use, so the prefixes that
    xsi:type values use are declared again on the root."""
    payload = ET.tostring(element, encoding="utf-8")
    used = sorted({type_bindings[el] for el in element.iter() if el in type_bindings})
    if not used:
        return payload
    end = payload.index(b">")
    if payload[end - 1:end] == b"/":
        end -= 1
    head = payload[:end]
    decls = [f" xmlns:{prefix}={quoteattr(uri)}".encode("utf-8")
             for prefix, uri in used
             if f" xmlns:{prefix}=".encode("utf-8") not in head]
    return head + b"".join(decls) + payload[end:]


# --------------------------------------------------------------------------
# configuration and state files


def providers_path(data_dir: Path) -> Path:
    return Path(data_dir) / "providers.json"


def load_provider_configs(path: Path) -> dict[str, ProviderConfig]:
    configs = _read_json(Path(path), lambda data: [
        ProviderConfig.from_dict(item) for item in data or []])
    return {cfg.name: cfg for cfg in configs}


def save_provider_configs(path: Path, configs: dict[str, ProviderConfig]) -> None:
    write_json(Path(path), [configs[name].to_dict() for name in sorted(configs)])


def state_path(data_dir: Path, provider_name: str) -> Path:
    return Path(data_dir) / "harvest_state" / f"{provider_name}.json"


def load_state(data_dir: Path, provider_name: str) -> HarvestState:
    return _read_json(state_path(data_dir, provider_name),
                      lambda data: HarvestState.from_dict(data or {}))


def save_state(data_dir: Path, provider_name: str, state: HarvestState) -> None:
    write_json(state_path(data_dir, provider_name), state.to_dict())
