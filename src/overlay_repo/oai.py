"""OAI-PMH v2.0 data provider over the repository.

Every stored or crosswalkable metadata format is exposed, plus the
resource-centric "nsdl_agg" format bundling everything known about one
resource. Sets map one-to-one onto aggregations. Selective harvest
windows are half-open [from, until) over object datestamps; without
`until` the window ends one second past the clock, so a record stamped
in the current second is listed, as GetRecord serves it. A resumption
token carries its harvest: verb, format, set, window (the end frozen at the
first request, so mid-harvest writes never cause omissions), the pid number
of the last record served and an expiry. The provider keeps no token state,
so tokens survive a restart, and each page resumes from its cursor.

A page walks pid order past its cursor. With a `from`, it walks only the
objects the store's datestamp index places in the window (for nsdl_agg,
also the resources their metadata describes), so a small window costs
O(window), not O(repository). With only an `until`, it walks the pids as
far as the index counts objects before `until`, then goes on over the
index. Identify, ListSets and the global ListMetadataFormats read what
the store keeps in its write path: the earliest datestamp, the active
aggregations and the stored formats.

Each object a page walks is classified once, and its record is rendered
from what that found: a metadata object's record source, by the rule
GetRecord serves by, or a resource's describing metadata objects. A
response is a list of byte chunks joined once: the envelope, headers,
small verbs and the nsdl_agg wrapper from string templates, each value
written by model.escape or model.quoteattr, stored records as their own
bytes, declaration stripped, each keeping its own namespace declarations,
and the gold record as the fold wrote it, in no namespace. The store
checks every stored record on write and on open (records.check_record),
so rendering parses nothing but the contributors of a gold record that
are not canonical nsdl_dc.
"""

from __future__ import annotations

import base64
import json
import re
from collections.abc import Iterator
from dataclasses import dataclass
from datetime import datetime, timedelta

from . import behaviors
from .errors import (
    FormatUnavailableError,
    ModelIntegrityError,
    NoMetadataError,
    RepositoryError,
)
from .model import (
    CONTENT_DS,
    EPOCH,
    DigitalObject,
    escape,
    format_datestamp,
    is_pid,
    make_pid,
    parse_datestamp,
    pid_number,
    quoteattr,
)
from .records import FORMATS, XSI_NS, MetadataRecord, crosswalk, embeddable

OAI_NS = "http://www.openarchives.org/OAI/2.0/"
OAI_SCHEMA = "http://www.openarchives.org/OAI/2.0/OAI-PMH.xsd"
AGG_FORMAT = "nsdl_agg"
# The aggregation format needs its own namespace: an unqualified payload
# would be captured by the envelope's default namespace when embedded.
AGG_NS = "http://ns.nsdl.org/nsdl_agg_v1.00/"
AGG_SCHEMA = "http://ns.nsdl.org/schemas/nsdl_agg/nsdl_agg_v1.00.xsd"
TOKEN_TTL = timedelta(hours=1)  # how long a resumption token stays valid
# (schema, namespace) of each built-in format; a format that is only
# stored has ("", "info:nsdl/formats/<name>").
_BUILT_IN_FORMATS = {AGG_FORMAT: (AGG_SCHEMA, AGG_NS), **{
    name: (info.schema, info.namespace) for name, info in FORMATS.items()}}

_ROOT_START = (
    "<?xml version='1.0' encoding='utf-8'?>\n"
    f'<OAI-PMH xmlns="{OAI_NS}" xmlns:xsi="{XSI_NS}"'
    f' xsi:schemaLocation="{OAI_NS} {OAI_SCHEMA}">')

# Characters outside XML 1.0's Char production cannot appear in a response.
_NOT_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


_VERB_ARGS = {
    "Identify": set(),
    "ListMetadataFormats": {"identifier"},
    "ListSets": {"resumptionToken"},
    "ListRecords": {"from", "until", "set", "metadataPrefix", "resumptionToken"},
    "ListIdentifiers": {"from", "until", "set", "metadataPrefix", "resumptionToken"},
    "GetRecord": {"identifier", "metadataPrefix"},
}


def _set_spec(aggregation_pid: str) -> str:
    """An aggregation's set spec: its pid number as the pid writes it, so
    "nsdl:" + spec is its pid, "0" names nsdl:0 and "01" names nothing."""
    return aggregation_pid[5:]  # after "nsdl:"


class ProtocolError(Exception):
    """Maps onto an OAI <error> element (always served with HTTP 200)."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


# verb, format, set, from, until, cursor pid number, expiry
_TOKEN_FIELDS = (str, str, (str, type(None)), (str, type(None)), str, int, str)


@dataclass(frozen=True, slots=True)
class _Item:
    """One selectable record (a metadata object, a tombstone or an nsdl_agg
    resource) and what classification found to render it from."""

    pid: str
    datestamp: datetime
    deleted: bool
    set_specs: tuple[str, ...]
    source: MetadataRecord | None = None
    resource: DigitalObject | None = None
    describing: list[DigitalObject] | None = None


class OaiProvider:
    def __init__(self, repo, *, repository_id: str = "overlay.local",
                 repository_name: str = "Overlay Repository",
                 base_url: str = "http://localhost:8080/oai",
                 admin_email: str = "admin@localhost",
                 page_size: int = 250):
        self.repo = repo
        self.repository_id = repository_id
        self.repository_name = repository_name
        self.base_url = base_url
        self.admin_email = admin_email
        self.page_size = page_size

    # ------------------------------------------------------------------
    # identifiers

    def oai_identifier(self, pid: str) -> str:
        return f"oai:{self.repository_id}:{pid}"

    def _identified(self, identifier: str) -> DigitalObject:
        """The object an identifier names, tombstones included, else idDoesNotExist."""
        prefix = f"oai:{self.repository_id}:"
        if not identifier.startswith(prefix):
            raise ProtocolError("idDoesNotExist", f"unknown identifier {identifier}")
        pid = identifier[len(prefix):]
        if not is_pid(pid):
            raise ProtocolError("idDoesNotExist", f"malformed identifier {identifier}")
        try:
            return self.repo.get_object(pid)
        except RepositoryError:
            raise ProtocolError("idDoesNotExist", identifier)

    # ------------------------------------------------------------------
    # request entry points

    def handle_request(self, params: dict[str, str]) -> bytes:
        verb = params.get("verb", "")
        try:
            if verb not in _VERB_ARGS:
                raise ProtocolError("badVerb", f"unknown verb {verb!r}")
            self._check_arguments(verb, params)
            body = self._dispatch(verb, params)
            return self._envelope(verb, params, body)
        except ProtocolError as exc:
            return self._error_envelope(verb, params, exc)

    def _check_arguments(self, verb: str, params: dict[str, str]) -> None:
        if any(_NOT_XML_CHAR.search(key) or _NOT_XML_CHAR.search(value)
               for key, value in params.items()):
            raise ProtocolError(
                "badArgument", "arguments hold characters not allowed in XML")
        allowed = _VERB_ARGS[verb]
        extras = set(params) - allowed - {"verb"}
        if extras:
            raise ProtocolError("badArgument", f"illegal arguments {sorted(extras)}")
        if "resumptionToken" in params and len(params) > 2:
            raise ProtocolError(
                "badArgument", "resumptionToken is an exclusive argument")
        if verb in ("ListRecords", "ListIdentifiers") and "resumptionToken" not in params:
            if "metadataPrefix" not in params:
                raise ProtocolError("badArgument", "metadataPrefix is required")
        if verb == "GetRecord" and {"identifier", "metadataPrefix"} - set(params):
            raise ProtocolError(
                "badArgument", "GetRecord needs identifier and metadataPrefix")

    def _dispatch(self, verb: str, params: dict[str, str]) -> list[bytes]:
        if verb == "Identify":
            return self.serve_identify()
        if verb == "ListSets":
            if "resumptionToken" in params:  # the set list is never paged
                raise ProtocolError("badResumptionToken", "ListSets issues no tokens")
            return self.serve_list_sets()
        if verb == "ListMetadataFormats":
            return self.serve_list_formats(params.get("identifier"))
        if verb == "GetRecord":
            return self.serve_get_record(
                params["identifier"], params["metadataPrefix"])
        return self.serve_list(verb, params)

    # ------------------------------------------------------------------
    # verbs

    def serve_identify(self) -> list[bytes]:
        earliest = self.repo.earliest_datestamp() or EPOCH
        fields = [
            ("repositoryName", self.repository_name),
            ("baseURL", self.base_url),
            ("protocolVersion", "2.0"),
            ("adminEmail", self.admin_email),
            ("earliestDatestamp", format_datestamp(earliest)),
            ("deletedRecord", "persistent"),
            ("granularity", "YYYY-MM-DDThh:mm:ssZ"),
        ]
        return ["".join(f"<{name}>{escape(value)}</{name}>"
                        for name, value in fields).encode("utf-8")]

    def serve_list_sets(self) -> list[bytes]:
        sets = self._aggregation_sets()
        if not sets:
            raise ProtocolError("noSetHierarchy", "no aggregations exist")
        return ["".join(
            f"<set><setSpec>{spec}</setSpec><setName>{escape(name)}</setName></set>"
            for spec, name in sets).encode("utf-8")]

    def serve_list_formats(self, identifier: str | None) -> list[bytes]:
        if identifier is None:
            names = self._global_formats()
        else:
            names = self._item_formats(self._identified(identifier))
            if not names:
                raise ProtocolError(
                    "noMetadataFormats", f"{identifier} has no available formats")
        out = []
        for name in names:
            schema, namespace = _BUILT_IN_FORMATS.get(
                name, ("", f"info:nsdl/formats/{name}"))
            out.append(
                f"<metadataFormat><metadataPrefix>{escape(name)}</metadataPrefix>"
                f"{f'<schema>{escape(schema)}</schema>' if schema else '<schema />'}"
                f"<metadataNamespace>"
                f"{escape(namespace)}</metadataNamespace></metadataFormat>")
        return ["".join(out).encode("utf-8")]

    def serve_get_record(self, identifier: str, format_name: str) -> list[bytes]:
        obj = self._identified(identifier)
        item = self._classify(obj, format_name)
        if item is None:
            if format_name != AGG_FORMAT and "Metadata" in obj.behaviors:
                raise ProtocolError(
                    "cannotDisseminateFormat", f"{identifier} has no {format_name}")
            raise ProtocolError("idDoesNotExist", identifier)
        return self._record_element(item, format_name, headers_only=False)

    def serve_list(self, verb: str, params: dict[str, str]) -> list[bytes]:
        headers_only = verb == "ListIdentifiers"
        token = params.get("resumptionToken")
        if token is not None:
            format_name, set_spec, from_, until, cursor = self._read_token(token, verb)
        else:
            format_name = params["metadataPrefix"]
            set_spec = params.get("set")
            from_ = self._parse_stamp(params.get("from"))
            # without until, the window takes in the current second
            until = self._parse_stamp(params.get("until")) \
                or self.repo.clock() + timedelta(seconds=1)
            cursor = -1
            self._check_format_known(format_name)
            # spec s names nsdl:s; only well-formed pids name objects, so "01" names none
            if set_spec is not None and "Aggregator" not in (
                    self.repo.behaviors_of("nsdl:" + set_spec) or ()):
                raise ProtocolError("noRecordsMatch", f"no such set {set_spec}")

        items = self._select(format_name, from_, until, set_spec, cursor)
        if not items and token is None:
            raise ProtocolError("noRecordsMatch", "selection is empty")
        page = items[:self.page_size]
        out = []
        brands: dict[str, str] = {}
        for item in page:
            out += self._record_element(item, format_name, headers_only, brands)
        if len(items) > len(page):
            expiry = format_datestamp(self.repo.clock() + TOKEN_TTL)
            state = [verb, format_name, set_spec,
                     None if from_ is None else format_datestamp(from_),
                     format_datestamp(until), pid_number(page[-1].pid), expiry]
            encoded = base64.urlsafe_b64encode(
                json.dumps(state).encode("utf-8")).rstrip(b"=").decode("ascii")
            out.append(f'<resumptionToken expirationDate="{expiry}">{encoded}'
                       "</resumptionToken>".encode("ascii"))
        elif token is not None:
            out.append(b"<resumptionToken />")
        return out

    # ------------------------------------------------------------------
    # selection

    def _select(self, format_name: str, from_: datetime | None,
                until: datetime, set_spec: str | None, cursor: int) -> list[_Item]:
        """The first page_size + 1 items past the cursor pid number in the
        half-open window [from, until), pid order."""
        # an nsdl_agg datestamp may be newer than its object's own
        own_stamp = from_ if format_name != AGG_FORMAT else None
        if from_ is None:
            pids = self._until_pids(format_name, until, cursor)
        else:
            pids = self._window_pids(format_name, from_, until, cursor)
        items = []
        for pid in pids:
            obj = self.repo.get_object(pid)
            if obj.last_modified >= until or (
                    own_stamp is not None and obj.last_modified < own_stamp):
                continue
            item = self._classify(obj, format_name)
            if item is None or item.datestamp >= until or (
                    from_ is not None and item.datestamp < from_):
                continue
            if set_spec is not None and not item.deleted \
                    and set_spec not in item.set_specs:
                continue
            items.append(item)
            if len(items) > self.page_size:
                break
        return items

    def _until_pids(self, format_name: str, until: datetime,
                    cursor: int) -> Iterator[str]:
        """Pids past the cursor, pid order, that can hold an item before
        until: a walk, in page-sized slices, over as many pids as the
        datestamp index counts before until, then the index's past them. A
        broad window fills its page early in the walk, a narrow one reads
        the index, so a page costs O(min(pids past the cursor, window))."""
        left = self.repo.count_stamped(until)
        while left > 0:
            pids = self.repo.pids_after(cursor, want := min(left, self.page_size + 1))
            yield from pids
            if len(pids) < want:
                return  # no pids past these
            left, cursor = left - want, pid_number(pids[-1])
        yield from self._window_pids(
            format_name, self.repo.earliest_datestamp(), until, cursor)

    def _window_pids(self, format_name: str, from_: datetime, until: datetime,
                     cursor: int) -> list[str]:
        """Pids past the cursor, pid order, of every object that can hold an
        item in [from, until): those stamped in the window and, for
        nsdl_agg, the resources described by metadata stamped in it (an
        aggregation's datestamp is the newest of its resource's and its
        active metadata's)."""
        numbers = set(self.repo.stamped(from_, until))
        if format_name == AGG_FORMAT:
            for number in list(numbers):
                numbers.update(
                    pid_number(r) for r in self.repo.graph.objects_of(
                        make_pid(number), "metadataFor")
                    if self.repo.behaviors_of(r) is not None)
        return [make_pid(n) for n in sorted(numbers) if n > cursor]

    def _classify(self, obj: DigitalObject, format_name: str) -> _Item | None:
        if obj.state == "deleted":
            return _Item(obj.pid, obj.last_modified, True, ())
        if format_name == AGG_FORMAT:
            if "Content" not in obj.behaviors:
                return None
            describing = [self.repo.get_object(m) for m in
                          behaviors.resource_get_metadata(self.repo, obj.pid)]
            if not describing:
                return None
            stamp = max(m.last_modified for m in describing)
            return _Item(obj.pid, max(stamp, obj.last_modified), False,
                         self._set_specs([obj.pid]), resource=obj, describing=describing)
        if "Metadata" not in obj.behaviors:
            return None
        source = behaviors.record_source(obj, format_name)
        if source is None:
            return None
        return _Item(obj.pid, obj.last_modified, False, self._set_specs(
            self.repo.graph.objects_of(obj.pid, "metadataFor")), source)

    def _set_specs(self, resources: list[str]) -> tuple[str, ...]:
        """Specs of the sets the resources are in, without repeats."""
        return tuple(dict.fromkeys(
            _set_spec(a) for r in resources
            for a in self.repo.graph.objects_of(r, "memberOf")))

    def _aggregation_sets(self) -> list[tuple[str, str]]:
        sets = []
        for pid in self.repo.aggregators():
            try:
                name = behaviors.role_get_brand(self.repo, pid).label
            except RepositoryError:
                name = pid
            sets.append((_set_spec(pid), name))
        return sets

    def _global_formats(self) -> list[str]:
        return sorted({*_BUILT_IN_FORMATS, *self.repo.stored_formats()})

    def _item_formats(self, obj: DigitalObject) -> list[str]:
        names: set[str] = set()
        if "Metadata" in obj.behaviors:
            names.update(behaviors.available_formats(self.repo, obj.pid))
        if "Content" in obj.behaviors \
                and behaviors.resource_get_metadata(self.repo, obj.pid):
            names.add(AGG_FORMAT)
        return sorted(names)

    def _check_format_known(self, format_name: str) -> None:
        if format_name not in _BUILT_IN_FORMATS \
                and format_name not in self._global_formats():
            raise ProtocolError(
                "cannotDisseminateFormat", f"unknown format {format_name}")

    def _parse_stamp(self, value: str | None) -> datetime | None:
        if value is None:
            return None
        try:
            return parse_datestamp(value)
        except RepositoryError:
            raise ProtocolError("badArgument", f"malformed datestamp {value!r}")

    def _read_token(self, token: str, verb: str):
        """format, set, from, until and cursor of a token issued for verb."""
        try:
            state = json.loads(base64.b64decode(
                token + "=" * (-len(token) % 4), altchars=b"-_", validate=True))
            if not (isinstance(state, list) and len(state) == len(_TOKEN_FIELDS)
                    and all(isinstance(v, t) and not isinstance(v, bool)
                            for v, t in zip(state, _TOKEN_FIELDS))):
                raise ValueError("not a token")
            token_verb, format_name, set_spec, from_, until, cursor, expiry = state
            if token_verb != verb:
                raise ValueError("token issued for another verb")
            from_ = None if from_ is None else parse_datestamp(from_)
            until, expiry = parse_datestamp(until), parse_datestamp(expiry)
        except (ValueError, RecursionError, RepositoryError):
            raise ProtocolError("badResumptionToken", "unknown token")
        if self.repo.clock() > expiry:
            raise ProtocolError("badResumptionToken", "token expired")
        return format_name, set_spec, from_, until, cursor

    # ------------------------------------------------------------------
    # record rendering

    def _record_element(self, item: _Item, format_name: str, headers_only: bool,
                        brands: dict[str, str] | None = None) -> list[bytes]:
        status = ' status="deleted"' if item.deleted else ""
        sets = "".join(f"<setSpec>{spec}</setSpec>" for spec in item.set_specs)
        header = (f"<header{status}><identifier>{escape(self.oai_identifier(item.pid))}"
                  f"</identifier><datestamp>{format_datestamp(item.datestamp)}"
                  f"</datestamp>{sets}</header>")
        if headers_only:
            return [header.encode("utf-8")]
        if item.deleted:
            return [f"<record>{header}</record>".encode("utf-8")]
        payload = (embeddable(crosswalk(item.source, format_name).xml)
                   if item.describing is None
                   else self.emit_aggregation_record(item.resource, item.describing, brands))
        return [f"<record>{header}<metadata>".encode("utf-8"),
                payload, b"</metadata></record>"]

    def emit_aggregation_record(self, resource: DigitalObject,
                                describing: list[DigitalObject],
                                brands: dict[str, str] | None = None) -> bytes:
        """The resource-centric bundle: every source record with its
        provider's brand, plus the computed gold record (empty when no
        gold can be folded), from the resource object and its describing
        metadata objects. Stored records go in as their own bytes. brands
        maps each provider role read so far to its brand attribute, so a
        response reads a role once for all records."""
        brands = {} if brands is None else brands
        content = resource.datastream(CONTENT_DS)
        url = content.url if content is not None and content.kind == "remote" else ""
        out = [f'<nsdl_agg:nsdl_agg xmlns:nsdl_agg="{AGG_NS}"><nsdl_agg:resource'
               f' handle={quoteattr(resource.handle or "")}'
               f' url={quoteattr(url)} />'.encode("utf-8")]
        for m in describing:
            try:
                role = behaviors.metadata_get_provider(self.repo, m.pid)
                if role not in brands:
                    brands[role] = quoteattr(behaviors.role_get_brand(self.repo, role).label)
                brand = brands[role]
            except RepositoryError:
                brand = '""'
            for format_name in m.record_formats():
                record = behaviors.record_source(m, format_name)
                out += [f"<nsdl_agg:sourceRecord brand={brand}"
                        f" format={quoteattr(format_name)}>".encode("utf-8"),
                        embeddable(record.xml), b"</nsdl_agg:sourceRecord>"]
        try:
            gold = behaviors.content_get_gold(self.repo, resource.pid, describing).xml
            # as the fold wrote it, but for its final newline; xmlns="" keeps
            # its unprefixed <contributors> in no namespace, as getGold serves it
            out += [b'<nsdl_agg:gold xmlns="">', gold[:-1], b"</nsdl_agg:gold>"]
        except (NoMetadataError, FormatUnavailableError, ModelIntegrityError):
            out.append(b"<nsdl_agg:gold />")
        out.append(b"</nsdl_agg:nsdl_agg>")
        return b"".join(out)

    # ------------------------------------------------------------------
    # envelopes

    def _envelope(self, verb: str, params: dict[str, str],
                  body: list[bytes]) -> bytes:
        return b"".join([self._head(params),
                         f"<{verb}>".encode("ascii"), *body,
                         f"</{verb}></OAI-PMH>".encode("ascii")])

    def _error_envelope(self, verb: str, params: dict[str, str],
                        exc: ProtocolError) -> bytes:
        # Bad requests must not echo their arguments back.
        echo = exc.code not in ("badVerb", "badArgument")
        return self._head(params if echo else {}) + (
            f"<error code={quoteattr(exc.code)}>{escape(str(exc))}</error>"
            "</OAI-PMH>").encode("utf-8")

    def _head(self, params: dict[str, str]) -> bytes:
        """Declaration, root start tag, responseDate and the request,
        echoing params."""
        args = "".join(f" {key}={quoteattr(value)}" for key, value in sorted(params.items()))
        return (f"{_ROOT_START}<responseDate>{format_datestamp(self.repo.clock())}"
                f"</responseDate><request{args}>{escape(self.base_url)}</request>"
                ).encode("utf-8")
