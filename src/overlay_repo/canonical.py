"""Canonical XML interchange format for digital objects.

The serialization is deterministic byte for byte: fixed attribute order,
datastreams sorted by id, behaviors sorted, the relationship fragment
last, two-space indentation, LF line endings, UTF-8. Importing an export
reproduces an equal object, so the same format doubles as the on-disk
record layout and the bulk-fixture format.

    <digitalObject pid="nsdl:4" state="active" version="1"
                   lastModified="2005-03-05T12:00:00Z" [handle="hdl:p/s"]>
      <datastream dsId="REC.oai_dc" kind="local" mediaType="application/xml">
        <!-- base64 payload text -->
      </datastream>
      <datastream dsId="CONTENT" kind="remote" mediaType="text/html"
                  url="http://..."/>
      <behavior name="Metadata"/>
      <rels>...RDF/XML fragment...</rels>
    </digitalObject>

Tombstones serialize as an empty root element with state="deleted". This
module only converts: import parses the document once and reads its
rdf:RDF element into triples there, never through bytes again; the
repository's one record check (store._checked) validates the object and
takes those triples, on write and on open; export writes the fragment
from the triples the repository's graph holds.
"""

from __future__ import annotations

import base64
from itertools import combinations
from xml.etree import ElementTree as ET

from .errors import ValidationError
from .graph import Triple, parse_rels, serialize_rels
from .model import (
    BEHAVIOR_NAMES, RELS_DS, RELS_IN_GRAPH, Datastream, DigitalObject,
    format_datestamp, parse_datestamp, parse_xml, quoteattr)

_XML_DECL = '<?xml version="1.0" encoding="UTF-8"?>\n'
# The one frozenset of each set of known behaviors, shared by its objects.
_BEHAVIOR_SETS = {s: s for n in range(len(BEHAVIOR_NAMES) + 1)
                  for s in map(frozenset, combinations(BEHAVIOR_NAMES, n))}


def start_tag(name: str, obj: DigitalObject) -> str:
    """The start of element name's tag, unclosed, with obj's identifying
    attributes: pid, state, version, lastModified and any handle."""
    attrs = [
        ("pid", obj.pid),
        ("state", obj.state),
        ("version", str(obj.version)),
        ("lastModified", format_datestamp(obj.last_modified)),
    ]
    if obj.handle is not None:
        attrs.append(("handle", obj.handle))
    return "<" + name + _render_attrs(attrs)


def export_object(obj: DigitalObject, triples: list[Triple] | None = None) -> bytes:
    """obj's document; triples are its relationships if it holds RELS_IN_GRAPH."""
    head = start_tag("digitalObject", obj)
    if obj.state == "deleted":
        return (_XML_DECL + head + "/>\n").encode("utf-8")

    lines = [head + ">"]
    rels_payload = None
    for ds in sorted(obj.datastreams, key=lambda d: d.ds_id):
        if ds.ds_id == RELS_DS:
            rels_payload = (serialize_rels(obj.pid, triples)
                             if ds is RELS_IN_GRAPH else ds.payload)
            continue
        ds_attrs = [("dsId", ds.ds_id), ("kind", ds.kind), ("mediaType", ds.media_type)]
        if ds.kind == "remote":
            ds_attrs.append(("url", ds.url))
            lines.append("  <datastream" + _render_attrs(ds_attrs) + "/>")
        else:
            encoded = base64.b64encode(ds.payload or b"").decode("ascii")
            lines.append(
                "  <datastream" + _render_attrs(ds_attrs) + ">" + encoded + "</datastream>")
    for name in sorted(obj.behaviors):
        lines.append("  <behavior" + _render_attrs([("name", name)]) + "/>")
    if rels_payload is not None:
        # at "\n" alone: str.splitlines also splits at U+2028, U+0085 and more
        fragment = rels_payload.decode("utf-8").removesuffix("\n")
        lines += ["  <rels>", *("    " + raw if raw else "" for raw in fragment.split("\n")),
                  "  </rels>"]
    lines.append("</digitalObject>")
    return (_XML_DECL + "\n".join(lines) + "\n").encode("utf-8")


def import_object(doc: bytes, shared: dict[str, str] | None = None,
                  ) -> tuple[DigitalObject, list[Triple] | None]:
    """Parse a canonical document into a DigitalObject, with RELS_IN_GRAPH
    as its RELS stream, and the triples of the rdf:RDF element that <rels>
    wraps (None, and no RELS stream, without one).
    The pid, state, stream ids, media types and target pids come from
    shared, a table of the strings read so far that a caller opening many
    documents keeps.

    Malformed documents and fragments are rejected with the offending
    element named. The repository's write and open paths check the
    object, and put its triples in the graph.
    """
    root = parse_xml(doc, "canonical document")
    if root.tag != "digitalObject":
        raise ValidationError(f"root element must be digitalObject, got {root.tag!r}")
    pid = _require(root, "pid", shared)
    state = _require(root, "state", shared)
    version = _require(root, "version")
    last_modified = _require(root, "lastModified")
    if not version.isdigit():
        raise ValidationError(f"{pid}: version must be a decimal integer")

    datastreams: list[Datastream] = []
    triples = None
    for child in root:
        if child.tag == "datastream":
            datastreams.append(_parse_datastream(pid, child, shared))
        elif child.tag == "behavior":
            pass
        elif child.tag == "rels":
            if triples is not None:
                raise ValidationError(f"{pid}: multiple rels elements")
            rdf = list(child)
            if len(rdf) != 1 or (rdf[0].tail or "").strip(" \t\r\n"):
                raise ValidationError(f"{pid}: rels must wrap one rdf:RDF element")
            triples = parse_rels(pid, rdf[0], shared)
            datastreams.append(RELS_IN_GRAPH)
        else:
            raise ValidationError(f"{pid}: unexpected element {child.tag!r}")

    behaviors = frozenset(
        _require(el, "name") for el in root if el.tag == "behavior")
    behaviors = _BEHAVIOR_SETS.get(behaviors, behaviors)
    return DigitalObject(
        pid=pid,
        state=state,
        handle=root.get("handle"),
        datastreams=tuple(datastreams),
        behaviors=behaviors,
        last_modified=parse_datestamp(last_modified),
        version=int(version),
    ), triples


def _render_attrs(attrs) -> str:
    return "".join(f" {name}={quoteattr(value)}" for name, value in attrs)


def _require(el: ET.Element, name: str, shared: dict[str, str] | None = None) -> str:
    value = el.get(name)
    if value is None:
        raise ValidationError(f"element {el.tag!r} is missing attribute {name!r}")
    return value if shared is None else shared.setdefault(value, value)


def _parse_datastream(pid: str, el: ET.Element, shared: dict[str, str] | None) -> Datastream:
    ds_id = _require(el, "dsId", shared)
    kind = _require(el, "kind")
    media_type = _require(el, "mediaType", shared)
    if ds_id == RELS_DS:
        raise ValidationError(f"{pid}: the relationship stream belongs in <rels>")
    if kind == "remote":
        return Datastream(ds_id, "remote", media_type, url=_require(el, "url"))
    if kind == "local":
        text = "".join(el.itertext()).strip()
        try:
            payload = base64.b64decode(text.encode("ascii"), validate=True)
        except Exception:
            raise ValidationError(f"{pid}: datastream {ds_id} payload is not valid base64")
        return Datastream(ds_id, "local", media_type, payload=payload)
    raise ValidationError(f"{pid}: datastream {ds_id} has unknown kind {kind!r}")
