"""Core domain types: pids, handles, datastreams, digital objects.

Identifiers are plain strings with a fixed grammar; the helpers here
validate and dissect them. Objects and datastreams are frozen dataclasses,
so every value handed out by the repository is an immutable snapshot that
is safe to share between threads. parse_xml is the one parse of XML from
outside; escape and quoteattr write every value of XML going out.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from typing import Iterable, NamedTuple
from urllib.parse import urlparse
from xml.etree import ElementTree as ET

from .errors import ValidationError
from .ontology import TYPE_EXPANSION, satisfies_type

# Matched whole (fullmatch): "$" would also match before a final newline.
# No leading zeros: each number has one pid, and so one record file.
PID_RE = re.compile(r"nsdl:(0|[1-9][0-9]*)")
HANDLE_RE = re.compile(r"hdl:([^/]+)/(.+)")
INFO_URI_PREFIX = "info:nsdl/"

# Reserved datastream ids and naming conventions.
RELS_DS = "RELS"
CONTENT_DS = "CONTENT"
BRAND_DS = "BRAND"
SOURCE_DS = "SOURCE"
RECORD_DS_PREFIX = "REC."
RELS_MEDIA_TYPE = "application/rdf+xml"

# Behavior definitions an object may bind: every name the ontology's
# types expand to.
BEHAVIOR_NAMES = frozenset().union(*TYPE_EXPANSION.values())

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def make_pid(number: int) -> str:
    return f"nsdl:{number}"


def pid_number(pid: str) -> int:
    """Numeric part of a pid; raises ValidationError on bad grammar."""
    m = PID_RE.fullmatch(pid)
    if not m:
        raise ValidationError(f"malformed pid {pid!r} (expected nsdl:<decimal>)")
    return int(m.group(1))


def is_pid(value: str) -> bool:
    return bool(PID_RE.fullmatch(value))


def pid_sort_key(pid: str) -> tuple[int, str]:
    """Numeric order of well-formed pids, without parsing them: as pids
    have no leading zeros, the longer has the larger number, and pids of
    one length order as text."""
    return len(pid), pid


def pid_sorted(pids: Iterable[str]) -> list[str]:
    """pids in pid_sort_key order, by two C-level sorts."""
    return sorted(sorted(pids), key=len)


def is_absolute_url(value: str) -> bool:
    """The URL rule of remote streams and harvested resource keys."""
    parsed = urlparse(value)
    return bool(parsed.scheme in ("http", "https", "ftp") and parsed.netloc)


class _Refusing(ET.TreeBuilder):
    """A tree builder that refuses a DOCTYPE. expat reports a DOCTYPE
    before reading any declaration in it, so no entity is ever declared."""

    def doctype(self, name, pubid, system):
        raise ValidationError("DOCTYPE declarations are not allowed")


def parse_xml(data: bytes, what: str, builder: _Refusing | None = None) -> ET.Element:
    """The root of data, XML from outside, built by builder: the one parse
    of such bytes into a tree. ValidationError, naming what, when data is
    not well-formed or holds a DOCTYPE."""
    try:
        return ET.fromstring(data, parser=ET.XMLParser(target=builder or _Refusing()))
    except (ET.ParseError, LookupError, ValueError) as exc:  # the last two:
        # a declared encoding that expat cannot read through a Python codec
        raise ValidationError(f"{what} is not well-formed: {exc}") from None
    except ValidationError as exc:
        raise ValidationError(f"{what}: {exc}") from None


# What escape replaces in text, "&" first: what xml.sax.saxutils.escape
# replaces, and "\r", which an XML reader would otherwise read as "\n".
_TEXT_REFS = (("&", "&amp;"), (">", "&gt;"), ("<", "&lt;"), ("\r", "&#13;"))
# And in an attribute value "\n" and "\t", which it would read as spaces.
_ATTR_REFS = _TEXT_REFS + (("\n", "&#10;"), ("\t", "&#9;"))


def escape(text: str, refs: tuple[tuple[str, str], ...] = _TEXT_REFS) -> str:
    """text with each character of refs replaced by its reference, in
    order, copying text only for a character it holds: the one escape of
    text in every document the package writes."""
    for char, ref in refs:
        if char in text:
            text = text.replace(char, ref)
    return text


def quoteattr(value: str) -> str:
    """value as a quoted attribute value, byte for byte what
    xml.sax.saxutils.quoteattr writes: the one attribute writer."""
    value = escape(value, _ATTR_REFS)
    if '"' not in value:
        return f'"{value}"'
    return f"'{value}'" if "'" not in value else '"%s"' % value.replace('"', "&quot;")


def make_handle(prefix: str, number: int) -> str:
    return f"hdl:{prefix}/{number:05d}"


def is_handle(value: str) -> bool:
    return bool(HANDLE_RE.fullmatch(value))


def handle_suffix(handle: str) -> str:
    m = HANDLE_RE.fullmatch(handle)
    if not m:
        raise ValidationError(f"malformed handle {handle!r} (expected hdl:<prefix>/<suffix>)")
    return m.group(2)


def representation_uri(pid: str) -> str:
    """info-scheme URI of an object, whose pid the caller has checked."""
    return INFO_URI_PREFIX + pid


def parse_representation_uri(uri: str) -> tuple[str, str | None, dict[str, str]]:
    """Split an info URI into (pid, op, params).

    Accepts ``info:nsdl/nsdl:4``, ``info:nsdl/nsdl:4/getRecord`` and the
    same with a ``?key=value&...`` query suffix.
    """
    if not uri.startswith(INFO_URI_PREFIX):
        raise ValidationError(f"not an info:nsdl URI: {uri!r}")
    rest, _, query = uri[len(INFO_URI_PREFIX):].partition("?")
    params: dict[str, str] = {}
    for part in query.split("&"):
        if part:
            key, _, value = part.partition("=")
            params[key] = value
    pid, _, op = rest.partition("/")
    pid_number(pid)
    return pid, op or None, params


def utcnow_seconds() -> datetime:
    """Current UTC time truncated to whole seconds (datestamp granularity)."""
    return datetime.now(timezone.utc).replace(microsecond=0)


def format_datestamp(dt: datetime) -> str:
    """dt in UTC as YYYY-MM-DDThh:mm:ssZ, the year zero-padded to 4 digits."""
    if dt.tzinfo is not timezone.utc:
        dt = dt.astimezone(timezone.utc)
    return "%04d-%02d-%02dT%02d:%02d:%02dZ" % (
        dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second)


# The two datestamp forms written zero-padded, as format_datestamp writes them.
_DATESTAMP_RE = re.compile(
    r"([0-9]{4})-([0-9]{2})-([0-9]{2})(?:T([0-9]{2}):([0-9]{2}):([0-9]{2})Z)?")


def parse_datestamp(value: str) -> datetime:
    """Parse a UTC datestamp, either date-only or full seconds granularity.

    A zero-padded stamp is read from its digits; anything else, and a
    padded stamp that names no real time, goes through strptime, so the
    accepted strings and their values are exactly strptime's."""
    m = _DATESTAMP_RE.fullmatch(value)
    if m:
        try:
            return datetime(*map(int, filter(None, m.groups())), tzinfo=timezone.utc)
        except ValueError:
            pass
    for fmt in ("%Y-%m-%dT%H:%M:%SZ", "%Y-%m-%d"):
        try:
            return datetime.strptime(value, fmt).replace(tzinfo=timezone.utc)
        except ValueError:
            continue
    raise ValidationError(f"malformed UTC datestamp {value!r}")


class Representation(NamedTuple):
    """Output of a dissemination: whatever a behavior produced, or the
    bytes of a stored stream. Callers cannot tell the two apart."""

    media_type: str
    body: bytes


def build_source_doc(provider: str, oai_identifier: str, datestamp: datetime) -> bytes:
    """Provenance record stored in a harvested metadata object's SOURCE
    stream; the (provider, identifier) key makes incremental re-harvests
    find the object again."""
    return (
        f"<source provider={quoteattr(provider)}"
        f" oaiIdentifier={quoteattr(oai_identifier)}"
        f" datestamp={quoteattr(format_datestamp(datestamp))}/>\n"
    ).encode("utf-8")


def parse_source_doc(payload: bytes) -> tuple[str, str, datetime]:
    el = parse_xml(payload, "SOURCE document")
    if el.tag != "source":
        raise ValidationError(f"SOURCE root must be <source>, got {el.tag!r}")
    provider = el.get("provider")
    oai_id = el.get("oaiIdentifier")
    stamp = el.get("datestamp")
    if provider is None or oai_id is None or stamp is None:
        raise ValidationError("SOURCE document is missing required attributes")
    return provider, oai_id, parse_datestamp(stamp)


@dataclass(frozen=True, slots=True)
class Datastream:
    """A named component of an object: inline bytes or a URL reference."""

    ds_id: str
    kind: str  # "local" | "remote"
    media_type: str
    payload: bytes | None = None
    url: str | None = None

    def validate(self) -> None:
        if self.kind not in ("local", "remote"):
            raise ValidationError(f"datastream {self.ds_id}: unknown kind {self.kind!r}")
        if self.kind == "local" and (self.payload is None or self.url is not None):
            raise ValidationError(f"datastream {self.ds_id}: local streams carry payload only")
        if self.kind == "remote" and (self.url is None or self.payload is not None):
            raise ValidationError(f"datastream {self.ds_id}: remote streams carry url only")
        if self.kind == "remote" and not is_absolute_url(self.url):
            raise ValidationError(f"datastream {self.ds_id}: url {self.url!r} is not "
                                  f"http, https or ftp with a host")
        if self.ds_id == RELS_DS and (self.kind != "local"
                                      or self.media_type != RELS_MEDIA_TYPE):
            raise ValidationError(
                f"datastream {RELS_DS} must be local with media type {RELS_MEDIA_TYPE}")


# The one RELS stream of every object whose relationships the graph holds.
RELS_IN_GRAPH = Datastream(RELS_DS, "local", RELS_MEDIA_TYPE, payload=b"")


def local_stream(ds_id: str, media_type: str, payload: bytes,
                 created: datetime | None = None) -> Datastream:
    """A local datastream; created is ignored (streams keep no creation time)."""
    return Datastream(ds_id, "local", media_type, payload=payload)


def remote_stream(ds_id: str, media_type: str, url: str) -> Datastream:
    return Datastream(ds_id, "remote", media_type, url=url)


@dataclass(frozen=True, slots=True)
class DigitalObject:
    """A uniquely identified aggregation of datastreams, bound behaviors,
    and a relationship fragment; the node of the overlay network."""

    pid: str
    state: str = "active"  # "active" | "deleted"
    handle: str | None = None
    datastreams: tuple[Datastream, ...] = ()
    behaviors: frozenset[str] = frozenset()
    last_modified: datetime = field(default_factory=utcnow_seconds)
    version: int = 0

    def validate(self) -> None:
        pid_number(self.pid)
        if self.state not in ("active", "deleted"):
            raise ValidationError(f"{self.pid}: unknown state {self.state!r}")
        if self.handle is not None and not is_handle(self.handle):
            raise ValidationError(f"{self.pid}: malformed handle {self.handle!r}")
        if self.last_modified.utcoffset() is None or self.last_modified.microsecond:
            raise ValidationError(f"{self.pid}: lastModified {self.last_modified} "
                                  f"is not whole seconds with a time zone")
        unknown = self.behaviors - BEHAVIOR_NAMES
        if unknown:
            raise ValidationError(
                f"{self.pid}: unknown behavior definitions {sorted(unknown)}")
        seen: set[str] = set()
        for ds in self.datastreams:
            if ds.ds_id in seen:
                raise ValidationError(f"{self.pid}: duplicate datastream {ds.ds_id}")
            seen.add(ds.ds_id)
            ds.validate()
        if self.handle is not None and self.state == "active" \
                and not satisfies_type(self.behaviors, "Resource"):
            raise ValidationError(
                f"{self.pid}: handle present but object binds no resource type")

    def datastream(self, ds_id: str) -> Datastream | None:
        for ds in self.datastreams:
            if ds.ds_id == ds_id:
                return ds
        return None

    def record_formats(self) -> list[str]:
        """Formats stored as REC.<format> datastreams, in stream order: sorted
        for a stored object, whose streams the store keeps in order."""
        return [ds.ds_id[len(RECORD_DS_PREFIX):] for ds in self.datastreams
                if ds.ds_id.startswith(RECORD_DS_PREFIX)]

    def with_datastream(self, ds: Datastream) -> "DigitalObject":
        """Copy with ds replacing any same-named stream (order preserved)."""
        streams = [d for d in self.datastreams if d.ds_id != ds.ds_id]
        streams.append(ds)
        return replace(self, datastreams=tuple(streams))

    def tombstone(self, when: datetime) -> "DigitalObject":
        return replace(self, state="deleted", datastreams=(), behaviors=frozenset(),
                       last_modified=when, version=self.version + 1)
