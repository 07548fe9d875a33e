"""Metadata record handling: DC-family formats, the normalization pass,
the oai_dc -> nsdl_dc crosswalk, and the merged "gold" record fold.

Harvest ingest and the read-time crosswalk both derive nsdl_dc through
``parse_dc_entries`` (the one validating parse) and ``apply_rules`` (the
one normalization pass), so a record derives the same nsdl_dc either way.
Callers keep the original record verbatim and store the normalized output
next to it. ``parse_dc_entries`` parses through model.parse_xml, the one
entry point for XML from outside, and ``check_record``, the store's test
that a stored record can be embedded in another document as it is, makes
one expat pass; both refuse a DOCTYPE. ``dc_line`` writes one entry as a
line of a record, for ``serialize_dc`` and for the gold fold, and
``read_dc_lines`` reads those lines back from a record that is exactly
what ``serialize_dc`` writes in nsdl_dc, so the fold copies a canonical
contributor's lines instead of parsing them. Every function here is a
pure function of its inputs so record pipelines stay deterministic.
"""

from __future__ import annotations

import codecs
import heapq
import re
from dataclasses import dataclass
from datetime import datetime
from typing import NamedTuple
from xml.etree import ElementTree as ET
from xml.parsers import expat
from xml.sax.saxutils import quoteattr

from .errors import FormatUnavailableError, ModelIntegrityError, ValidationError
from .model import parse_xml, pid_sort_key

DC_NS = "http://purl.org/dc/elements/1.1/"
DCT_NS = "http://purl.org/dc/terms/"
OAI_DC_NS = "http://www.openarchives.org/OAI/2.0/oai_dc/"
NSDL_DC_NS = "http://ns.nsdl.org/nsdl_dc_v1.02/"
XSI_NS = "http://www.w3.org/2001/XMLSchema-instance"

# Stable prefixes wherever ElementTree re-serializes record payloads.
for _prefix, _uri in (("dc", DC_NS), ("dct", DCT_NS), ("oai_dc", OAI_DC_NS),
                      ("nsdl_dc", NSDL_DC_NS), ("xsi", XSI_NS)):
    ET.register_namespace(_prefix, _uri)

RECORD_MEDIA_TYPE = "application/xml"

DC_ELEMENT_ORDER = (
    "title", "creator", "subject", "description", "publisher", "contributor",
    "date", "type", "format", "identifier", "source", "language", "relation",
    "coverage", "rights",
)

# The gold fold writes elements in DC_ELEMENT_ORDER, then the others by name.
_ELEMENT_RANK = {name: rank for rank, name in enumerate(DC_ELEMENT_ORDER)}
# Elements where a later record's values replace earlier ones during the
# gold fold; everything else unions with exact-string dedup.
GOLD_SINGLE_VALUED = frozenset({"title", "identifier", "date"})
# xsi:type attributes of the qualifiers apply_rules assigns, written once.
_TYPE_ATTRS = {qualifier: f" xsi:type={quoteattr(qualifier)}"
               for qualifier in ("dct:W3CDTF", "dct:RFC3066", "dct:DCMIType")}
_DC_TAG, _XSI_TYPE = "{%s}" % DC_NS, "{%s}type" % XSI_NS
# What escape replaces in text, "&" first: what xml.sax.saxutils.escape
# replaces, and "\r", which an XML reader would otherwise read as "\n".
TEXT_REFS = (("&", "&amp;"), (">", "&gt;"), ("<", "&lt;"), ("\r", "&#13;"))


@dataclass(frozen=True)
class FormatInfo:
    prefix: str
    namespace: str
    root: str
    schema: str


FORMATS: dict[str, FormatInfo] = {
    "oai_dc": FormatInfo(
        "oai_dc", OAI_DC_NS, "dc",
        "http://www.openarchives.org/OAI/2.0/oai_dc.xsd"),
    "nsdl_dc": FormatInfo(
        "nsdl_dc", NSDL_DC_NS, "nsdl_dc",
        "http://ns.nsdl.org/schemas/nsdl_dc/nsdl_dc_v1.02.xsd"),
}


@dataclass(frozen=True)
class MetadataRecord:
    """Format-tagged XML payload."""

    format: str
    xml: bytes


class DcEntry(NamedTuple):
    name: str
    value: str
    xsi_type: str | None = None


@dataclass(frozen=True)
class GoldRecord:
    xml: bytes
    contributors: tuple[str, ...]


# --------------------------------------------------------------------------
# parsing / serialization


def check_record(xml: bytes, format_name: str) -> None:
    """Accept a record payload only if it can be embedded in another
    document as it is: namespace-well-formed, no DOCTYPE, UTF-8 (no
    declaration, or one naming UTF-8), and in a registered format rooted
    at that format's root element. One expat pass, no tree; the reason
    is the ValidationError's message."""
    if xml.startswith((codecs.BOM_UTF16_LE, codecs.BOM_UTF16_BE)):
        raise ValidationError("encoding UTF-16 is not UTF-8")
    # encoding="utf-8" overrides any declaration, so expat decodes the
    # bytes as UTF-8 and refuses any that are not.
    parser = expat.ParserCreate(encoding="utf-8", namespace_separator=" ")
    found: list[str] = []

    def declaration(version, encoding, standalone):
        if encoding is not None and encoding.lower() != "utf-8":
            raise ValidationError(f"encoding {encoding} is not UTF-8")

    def doctype(*args):
        raise ValidationError("DOCTYPE declarations are not allowed")

    def root(name, attrs):
        found.append(name)
        parser.StartElementHandler = None

    parser.XmlDeclHandler = declaration
    parser.StartDoctypeDeclHandler = doctype
    parser.StartElementHandler = root
    try:
        parser.Parse(xml, True)
    except expat.ExpatError as exc:
        raise ValidationError(f"not well-formed: {exc}")
    info = FORMATS.get(format_name)
    if info is not None and found[0] != f"{info.namespace} {info.root}":
        tag = "{%s}%s" % tuple(found[0].split(" ")) if " " in found[0] else found[0]
        raise ValidationError(f"root element {tag} does not match format {format_name}")


_PREFIXED_ROOT = re.compile(rb"<[^\s/>:]+:")
_ROOT_NAME = re.compile(rb"<[^\s/>]+")
_ATTRIBUTE = re.compile(rb"""\s+([^\s=]+)\s*=\s*(?:"[^"]*"|'[^']*')""")


def embeddable(xml: bytes) -> bytes:
    """A checked payload's root element alone, as bytes to splice into
    another document: byte order mark, XML declaration and surrounding
    whitespace removed. An unprefixed root that declares no default
    namespace gains xmlns="", so that it stays in no namespace inside the
    document it is spliced into; stored bytes are left as they are."""
    xml = xml.removeprefix(codecs.BOM_UTF8)
    if xml.startswith(b"<?xml") and xml[5:6].isspace():
        xml = xml[xml.index(b"?>") + 2:]
    xml = xml.strip()
    start = 0
    while xml[start + 1] in b"!?":  # a comment or PI before the root
        end = b"-->" if xml[start + 1] == ord("!") else b"?>"
        start = xml.index(b"<", xml.index(end, start + 2) + len(end))
    if _PREFIXED_ROOT.match(xml, start):
        return xml
    pos = name_end = _ROOT_NAME.match(xml, start).end()
    while attribute := _ATTRIBUTE.match(xml, pos):
        if attribute[1] == b"xmlns":
            return xml
        pos = attribute.end()
    return xml[:name_end] + b' xmlns=""' + xml[name_end:]


def parse_dc_entries(xml: bytes, format_name: str) -> list[DcEntry]:
    """DC elements of a record in a registered DC format, in document order.

    This is the validating parse: a payload that is not well-formed, or
    whose root is not the format's root element, raises ValidationError
    with the rejection reason as message. Elements outside the DC
    namespace are skipped, so the parser tolerates provider-specific
    extras. xsi:type is read only from nsdl_dc, because oai_dc is
    unqualified (as in serialize_dc).
    """
    info = FORMATS[format_name]
    root = parse_xml(xml, "record")
    if root.tag != f"{{{info.namespace}}}{info.root}":
        raise ValidationError(
            f"root element {root.tag} does not match format {format_name}")
    cut, new = len(_DC_TAG), tuple.__new__  # skips DcEntry's Python-level __new__
    type_attr = _XSI_TYPE if format_name == "nsdl_dc" else None
    return [new(DcEntry, (child.tag[cut:], (child.text or "").strip(),
                          type_attr and child.get(type_attr)))
            for child in root if child.tag.startswith(_DC_TAG)]


def escape(text: str, refs: tuple[tuple[str, str], ...] = TEXT_REFS) -> str:
    """text with each character of refs replaced by its reference, in
    order, copying text only for a character it holds."""
    for char, ref in refs:
        if char in text:
            text = text.replace(char, ref)
    return text


class DcLine(NamedTuple):
    """One DC entry as a line of a record: the whole line, the element
    name and the escaped text."""

    line: str
    name: str
    text: str


def dc_line(entry: DcEntry, qualified: bool = True) -> DcLine:
    """entry as serialize_dc writes it: with its xsi:type when qualified,
    as nsdl_dc is, and without it in unqualified oai_dc."""
    name, value, xsi_type = entry
    attr = ""
    if qualified and xsi_type:
        attr = _TYPE_ATTRS.get(xsi_type) or f" xsi:type={quoteattr(xsi_type)}"
    text = escape(value)
    return DcLine(f"  <dc:{name}{attr}>{text}</dc:{name}>", name, text)


def _dc_document(format_name: str, lines: list[str]) -> bytes:
    """lines under the root of a DC format, as serialize_dc writes them."""
    info = FORMATS[format_name]
    decls = f' xmlns:{info.prefix}="{info.namespace}" xmlns:dc="{DC_NS}"'
    if format_name == "nsdl_dc":
        decls += f' xmlns:dct="{DCT_NS}" xmlns:xsi="{XSI_NS}"'
    return "\n".join([f"<{info.prefix}:{info.root}{decls}>", *lines,
                      f"</{info.prefix}:{info.root}>\n"]).encode("utf-8")


def serialize_dc(format_name: str, entries: list[DcEntry]) -> bytes:
    """Deterministic serialization of DC entries under the format's root,
    one dc_line per entry.

    oai_dc is unqualified, so xsi:type annotations are dropped there;
    nsdl_dc keeps them.
    """
    qualified = format_name == "nsdl_dc"
    return _dc_document(format_name, [dc_line(entry, qualified).line for entry in entries])


# An nsdl_dc record with no entries is its first and its last line.
_NSDL_DC_HEAD, _NSDL_DC_TAIL = re.findall(".*\n", _dc_document("nsdl_dc", []).decode("utf-8"))
# One entry line that dc_line writes for the entry parse_dc_entries reads
# from it: an ASCII name, at most one non-empty xsi:type that quoteattr
# writes as it is, and text with no raw ">", "\r" or "\n", no reference but
# &amp;, &lt; and &gt;, and no whitespace (in the str.strip sense) at
# either end. The groups are DcLine's fields.
_DC_LINE = re.compile(
    r'^(  <dc:([A-Za-z_][A-Za-z0-9_.-]*)(?: xsi:type="[^"&<>\t\n\r]+")?>'
    r"(?!\s)([^&<>\r\n]*(?:&(?:amp|lt|gt);[^&<>\r\n]*)*)(?<!\s)</dc:\2>)\n",
    re.MULTILINE)


def read_dc_lines(xml: bytes) -> list[DcLine] | None:
    """The lines of a record whose bytes are exactly what serialize_dc
    writes in nsdl_dc: equal to dc_line of each entry parse_dc_entries
    reads from it, without a parse. None for any other bytes, and the
    caller then parses; like model.parse_datestamp's strict form, it is
    exact or declines."""
    try:
        body = xml.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if not (body.startswith(_NSDL_DC_HEAD) and body.endswith(_NSDL_DC_TAIL)):
        return None
    middle = body[len(_NSDL_DC_HEAD):len(body) - len(_NSDL_DC_TAIL)]
    found = _DC_LINE.findall(middle)
    # Each match starts a line and ends at its newline, so as many matches
    # as newlines, with nothing after the last, cover the middle.
    if len(found) != middle.count("\n") or middle[-1:] not in ("", "\n"):
        return None
    new = tuple.__new__  # skips DcLine's Python-level __new__
    return [new(DcLine, groups) for groups in found]


# --------------------------------------------------------------------------
# normalization

_W3CDTF_RE = re.compile(
    r"^\d{4}(-\d{2}(-\d{2}(T\d{2}:\d{2}(:\d{2})?(Z|[+-]\d{2}:\d{2}))?)?)?$")

_DATE_INPUT_FORMATS = (
    ("%B %d, %Y", "%Y-%m-%d"),
    ("%b %d, %Y", "%Y-%m-%d"),
    ("%d %B %Y", "%Y-%m-%d"),
    ("%d %b %Y", "%Y-%m-%d"),
    ("%B %d %Y", "%Y-%m-%d"),
    ("%b %d %Y", "%Y-%m-%d"),
    ("%Y/%m/%d", "%Y-%m-%d"),
    ("%Y.%m.%d", "%Y-%m-%d"),
    ("%m/%d/%Y", "%Y-%m-%d"),
    ("%B %Y", "%Y-%m"),
    ("%b %Y", "%Y-%m"),
)

LANGUAGE_MAP = {
    "english": "en", "eng": "en",
    "french": "fr", "fre": "fr", "fra": "fr",
    "german": "de", "ger": "de", "deu": "de",
    "spanish": "es", "spa": "es",
    "italian": "it", "ita": "it",
    "portuguese": "pt", "por": "pt",
    "dutch": "nl", "dut": "nl", "nld": "nl",
    "japanese": "ja", "jpn": "ja",
    "chinese": "zh", "chi": "zh", "zho": "zh",
    "russian": "ru", "rus": "ru",
}

DCMI_TYPES = frozenset({
    "Collection", "Dataset", "Event", "Image", "InteractiveResource",
    "MovingImage", "PhysicalObject", "Service", "Software", "Sound",
    "StillImage", "Text",
})

TYPE_VOCAB_MAP = {
    "movie": "MovingImage", "video": "MovingImage", "film": "MovingImage",
    "text": "Text", "document": "Text", "article": "Text",
    "image": "Image", "picture": "StillImage", "photo": "StillImage",
    "photograph": "StillImage",
    "audio": "Sound", "sound": "Sound", "music": "Sound",
    "dataset": "Dataset", "data": "Dataset",
    "software": "Software", "application": "Software",
    "collection": "Collection", "event": "Event", "service": "Service",
    "interactive resource": "InteractiveResource",
    "physical object": "PhysicalObject",
}


def normalize_date(value: str) -> str:
    if _W3CDTF_RE.match(value):
        return value
    for in_fmt, out_fmt in _DATE_INPUT_FORMATS:
        try:
            return datetime.strptime(value, in_fmt).strftime(out_fmt)
        except ValueError:
            continue
    return value


def normalize_language(value: str) -> str:
    lowered = value.lower()
    if len(lowered) == 2 and lowered.isalpha():
        return lowered
    return LANGUAGE_MAP.get(lowered, value)


def map_type_vocab(value: str) -> str:
    if value in DCMI_TYPES:
        return value
    return TYPE_VOCAB_MAP.get(value.lower(), value)


def _normalize(entry: DcEntry) -> DcEntry:
    value, qualifier = " ".join(entry.value.split()), None
    if entry.name == "date":
        value = normalize_date(value)
        if _W3CDTF_RE.match(value):
            qualifier = "dct:W3CDTF"
    elif entry.name == "language":
        value = normalize_language(value)
        if len(value) == 2 and value.isalpha() and value.islower():
            qualifier = "dct:RFC3066"
    elif entry.name == "type":
        value = map_type_vocab(value)
        if value in DCMI_TYPES:
            qualifier = "dct:DCMIType"
    if entry.xsi_type is not None:
        qualifier = entry.xsi_type
    return DcEntry(entry.name, value, qualifier)


def apply_rules(entries: list[DcEntry]) -> list[DcEntry]:
    """Normalize each entry in one pass: collapse whitespace, map date,
    language and type values onto their vocabularies, then qualify the
    values that conform and carry no xsi:type yet. Each step maps one
    entry on its own and is total and idempotent, so the pass is too.
    Unknown values pass through untouched."""
    return [_normalize(entry) for entry in entries]


# --------------------------------------------------------------------------
# crosswalks

# The one crosswalk: records in the first format derive the second.
CROSSWALK = ("oai_dc", "nsdl_dc")


def crosswalk(record: MetadataRecord, to_format: str) -> MetadataRecord:
    """Derive a record in another format. The only pair is CROSSWALK,
    oai_dc -> nsdl_dc; asking for the format a record already has is the
    identity."""
    if to_format == record.format:
        return record
    return MetadataRecord(to_format, serialize_dc(to_format, dc_entries(record, to_format)))


def dc_entries(record: MetadataRecord, to_format: str) -> list[DcEntry]:
    """The DC entries a record carries in to_format: its own entries in
    its own format, else those the crosswalk would serialize, without
    serializing them."""
    if to_format == record.format:
        return parse_dc_entries(record.xml, to_format)
    if (record.format, to_format) != CROSSWALK:
        raise FormatUnavailableError(
            f"no crosswalk from {record.format} to {to_format}")
    return apply_rules(parse_dc_entries(record.xml, record.format))


# --------------------------------------------------------------------------
# gold record fold


class GoldInput(NamedTuple):
    """One contributing record: the asserting metadata object's pid, its
    record datestamp (tie-break), and its nsdl_dc entries as dc_line
    writes them."""

    pid: str
    datestamp: datetime
    lines: tuple[DcLine, ...]


def fold_order(inputs: list[GoldInput],
               augment_edges: list[tuple[str, str]]) -> list[GoldInput]:
    """Topological order of the augmentation subgraph: every record comes
    before the records that augment it; incomparable records order by
    (datestamp, pid). An (a, b) edge reads "a augments b"."""
    by_pid = {g.pid: g for g in inputs}
    remaining_preds: dict[str, set[str]] = {g.pid: set() for g in inputs}
    augmenters: dict[str, set[str]] = {g.pid: set() for g in inputs}
    for a, b in augment_edges:
        if a in by_pid and b in by_pid and a != b:
            remaining_preds[a].add(b)
            augmenters[b].add(a)

    def key(pid: str):
        g = by_pid[pid]
        return (g.datestamp, pid_sort_key(pid))

    ready = [key(p) + (p,) for p, preds in remaining_preds.items() if not preds]
    heapq.heapify(ready)
    ordered: list[GoldInput] = []
    done: set[str] = set()
    while ready:
        *_, pid = heapq.heappop(ready)
        done.add(pid)
        ordered.append(by_pid[pid])
        for follower in augmenters[pid]:
            remaining_preds[follower].discard(pid)
            if not remaining_preds[follower]:
                heapq.heappush(ready, key(follower) + (follower,))
    if len(ordered) != len(inputs):
        cycle = sorted(set(by_pid) - done, key=pid_sort_key)
        raise ModelIntegrityError(
            f"augmentation cycle involving {', '.join(cycle)}")
    return ordered


def fold_gold(inputs: list[GoldInput],
              augment_edges: list[tuple[str, str]]) -> GoldRecord:
    """Merge contributing records element-wise in augmentation order, and
    write the gold as the chosen lines and the contributors.

    Single-valued elements (title, identifier, date) take the lines of
    the last record that has them; repeatable elements union with
    exact-string dedup of their values in first-seen order. escape is
    one-to-one, so lines dedup by their escaped text.
    """
    ordered = inputs if len(inputs) == 1 else fold_order(inputs, augment_edges)
    chosen: dict[str, list[str]] = {}
    seen: dict[str, set[str]] = {}
    for g in ordered:
        own: dict[str, list[str]] = {}
        for line, name, text in g.lines:
            if name in GOLD_SINGLE_VALUED:
                own.setdefault(name, []).append(line)
            elif name not in seen:
                seen[name] = {text}
                chosen[name] = [line]
            elif text not in seen[name]:
                seen[name].add(text)
                chosen[name].append(line)
        chosen.update(own)

    names = sorted(chosen, key=lambda name: (_ELEMENT_RANK.get(name, len(_ELEMENT_RANK)), name))
    return GoldRecord(
        _dc_document("nsdl_dc", [
            *(line for name in names for line in chosen[name]),
            "  <contributors>",
            *(f"    <contributor>info:nsdl/{g.pid}</contributor>" for g in ordered),
            "  </contributors>"]),
        tuple(g.pid for g in ordered))
