"""Content-model behaviors: the typed operations objects can bind.

Six behavior definitions (Metadata, Agent, Content, Aggregator,
MetadataProvider, Role) give objects their operational semantics. An
object binds any subset. OPERATIONS names, for each operation, the
ontology type whose objects answer it (the abstract Resource and Role
types included), so an object answers every operation of every type its
bindings satisfy. Repository.disseminate checks that, and that the object
is no tombstone, once; the functions here run in-process against a
repository snapshot and trust their caller. The neighbours they reach (a
provider role, a describing record) answer by what they hold: a
tombstone holds no BRAND stream, and any holder's record stream is read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from . import records
from .errors import (
    BrandMissingError, FormatUnavailableError, ModelIntegrityError, NoMetadataError,
    NotFoundError, NotRepresentedError, ValidationError)
from .model import (
    BRAND_DS, CONTENT_DS, INFO_URI_PREFIX, RECORD_DS_PREFIX, DigitalObject,
    Representation, escape, parse_xml, quoteattr, representation_uri)
from .records import GoldInput, GoldRecord, MetadataRecord, crosswalk, fold_gold

URI_LIST_TYPE = "text/uri-list"

# Accepted operation-name spellings that map onto a canonical name.
ALIASES = {"displayContent": "showContent"}

Operation = Callable[[object, str, dict], Representation]


@dataclass(frozen=True)
class Brand:
    """Display identity of a role, projected onto the information it
    provides or collects."""

    label: str
    logo_url: str | None
    holder: str  # pid of the role object


def build_brand_doc(label: str, logo_url: str | None = None) -> bytes:
    lines = ["<brand>", f"  <label>{escape(label)}</label>"]
    if logo_url:
        lines.append(f"  <logoUrl>{escape(logo_url)}</logoUrl>")
    lines.append("</brand>")
    return ("\n".join(lines) + "\n").encode("utf-8")


@functools.lru_cache(maxsize=256)
def parse_brand_doc(holder: str, payload: bytes) -> Brand:
    """The Brand a BRAND document gives its holder. Roles are few and
    their documents seldom change, so parses are remembered by content."""
    root = parse_xml(payload, f"{holder}: BRAND document")
    label = root.findtext("label")
    if root.tag != "brand" or label is None:
        raise ValidationError(f"{holder}: BRAND document needs <brand><label>")
    return Brand(label=label, logo_url=root.findtext("logoUrl"), holder=holder)


# --------------------------------------------------------------------------
# operation implementations (direct-call API)


def metadata_get_record(repo, pid: str, format_name: str) -> MetadataRecord:
    """Stored record in the requested format, or one computed through the
    crosswalk; callers cannot tell which path produced it."""
    source = record_source(repo.get_object(pid), format_name)
    if source is None:
        raise FormatUnavailableError(f"{pid} cannot disseminate format {format_name}")
    return crosswalk(source, format_name)


def record_source(obj: DigitalObject, format_name: str) -> MetadataRecord | None:
    """The stored record in format_name, else the stored record the
    crosswalk derives it from, else None: the rule every record in a
    format is served by."""
    ds = obj.datastream(RECORD_DS_PREFIX + format_name)
    if ds is None and format_name == records.CROSSWALK[1]:
        format_name = records.CROSSWALK[0]
        ds = obj.datastream(RECORD_DS_PREFIX + format_name)
    return None if ds is None else MetadataRecord(format_name, ds.payload)


def available_formats(repo, pid: str) -> list[str]:
    """Stored formats plus the one the crosswalk derives."""
    found = set(repo.get_object(pid).record_formats())
    if records.CROSSWALK[0] in found:
        found.add(records.CROSSWALK[1])
    return sorted(found)


def metadata_get_provider(repo, pid: str) -> str:
    return _one_edge(repo, pid, "providedBy", "name exactly one provider")


def metadata_get_resource(repo, pid: str) -> str:
    return _one_edge(repo, pid, "metadataFor", "describe exactly one resource")


def _one_edge(repo, pid: str, predicate_name: str, rule: str) -> str:
    """The one object of pid's predicate_name edges; ModelIntegrityError,
    saying pid must follow rule, when there are none or several."""
    found = repo.graph.objects_of(pid, predicate_name)
    if len(found) != 1:
        raise ModelIntegrityError(f"{pid} must {rule}, found {len(found)}")
    return found[0]


def resource_get_handle(repo, pid: str) -> str:
    return repo.assign_handle(pid)


def resource_get_metadata(repo, pid: str) -> list[str]:
    return repo.graph.subjects_of("metadataFor", pid)


def resource_memberships(repo, pid: str) -> list[str]:
    return repo.graph.objects_of(pid, "memberOf")


def annotations_for(repo, pid: str) -> list[str]:
    """Content objects commenting on this resource; one hop, never
    transitive."""
    return repo.graph.subjects_of("annotates", pid)


def role_get_brand(repo, pid: str) -> Brand:
    ds = repo.get_object(pid).datastream(BRAND_DS)
    if ds is None:
        raise BrandMissingError(f"role {pid} has no BRAND stream")
    return parse_brand_doc(pid, ds.payload)


def show_brand(repo, pid: str) -> list[Brand]:
    """Brands projected onto an information object. Metadata takes its
    provider's brand; resources take the brand of every aggregation they
    are a member of."""
    if "Metadata" in repo.get_object(pid).behaviors:
        return [role_get_brand(repo, metadata_get_provider(repo, pid))]
    return [role_get_brand(repo, role)
            for role in repo.graph.objects_of(pid, "memberOf")]


def content_show_content(repo, pid: str) -> Representation:
    ds = repo.get_object(pid).datastream(CONTENT_DS)
    if ds is None:
        raise NotFoundError(f"{pid} has no CONTENT stream")
    if ds.kind == "local":
        return Representation(ds.media_type, ds.payload)
    return Representation(ds.media_type, repo.fetch_remote(ds.url))


def content_get_gold(repo, pid: str,
                     describing: list[DigitalObject] | None = None) -> GoldRecord:
    """Computed merged record for a resource, folding every describing
    record along the augmentation order. Contributors that cannot produce
    nsdl_dc (directly or by crosswalk) are left out. describing, the
    describing objects in pid order, is listed unless given."""
    if describing is None:
        describing = [repo.get_object(m) for m in resource_get_metadata(repo, pid)]
    if not describing:
        raise NoMetadataError(f"no metadata describes {pid}")
    inputs = []
    for m in describing:
        source = record_source(m, "nsdl_dc")
        if source is None:
            continue
        # a canonical nsdl_dc record hands out its own lines; any other is
        # read through dc_entries and written by the same line writer
        lines = records.read_dc_lines(source.xml) if source.format == "nsdl_dc" else None
        if lines is None:
            lines = [records.dc_line(e) for e in records.dc_entries(source, "nsdl_dc")]
        inputs.append(GoldInput(pid=m.pid, datestamp=m.last_modified, lines=tuple(lines)))
    if not inputs:
        raise NoMetadataError(f"no record describing {pid} can produce nsdl_dc")
    # one contributor is its own order, whatever it augments
    edges = [] if len(inputs) == 1 else [
        (a.pid, b)
        for a in inputs
        for b in repo.graph.objects_of(a.pid, "augments")
    ]
    return fold_gold(inputs, edges)


def aggregator_list_members(repo, pid: str, offset: int = 0,
                            limit: int | None = None) -> list[str]:
    """Members of an aggregation, answered from the joined graph (a stored
    member list would not scale), in pid order with offset/limit paging."""
    return page(repo.graph.subjects_of("memberOf", pid), offset, limit)


def aggregator_get_representation(repo, pid: str) -> str:
    surrogates = repo.graph.objects_of(pid, "representedBy")
    if not surrogates:
        raise NotRepresentedError(f"aggregation {pid} has no surrogate resource")
    return surrogates[0]


def mdprovider_list_provided(repo, pid: str, offset: int = 0,
                             limit: int | None = None) -> list[str]:
    return page(repo.graph.subjects_of("providedBy", pid), offset, limit)


# --------------------------------------------------------------------------
# dissemination wrappers


def _uri_list(pids: list[str]) -> Representation:
    """A uri-list of graph pids, well-formed by the graph's own check."""
    body = "".join([f"{INFO_URI_PREFIX}{p}\n" for p in pids])
    return Representation(URI_LIST_TYPE, body.encode("utf-8"))


def page(items: list, offset: int, limit: int | None) -> list:
    """items from offset on, at most limit of them (None: no limit)."""
    return items[offset:None if limit is None else offset + limit]


def paging(params: dict) -> tuple[int, int | None]:
    try:
        offset = int(params.get("offset", 0))
        limit = int(params["limit"]) if "limit" in params else None
    except ValueError:
        raise ValidationError("offset and limit must be integers")
    if offset < 0 or (limit is not None and limit < 0):
        raise ValidationError("offset and limit must be non-negative")
    return offset, limit


def _brands_doc(brands: list[Brand]) -> Representation:
    lines = ["<brands>"]
    for brand in brands:
        lines.append(f"  <brand holder={quoteattr(representation_uri(brand.holder))}>")
        lines.append(f"    <label>{escape(brand.label)}</label>")
        if brand.logo_url:
            lines.append(f"    <logoUrl>{escape(brand.logo_url)}</logoUrl>")
        lines.append("  </brand>")
    lines.append("</brands>")
    return Representation(
        "application/xml", ("\n".join(lines) + "\n").encode("utf-8"))


def _op_get_record(repo, pid: str, params: dict) -> Representation:
    format_name = params.get("format")
    if not format_name:
        raise ValidationError("getRecord requires a format parameter")
    record = metadata_get_record(repo, pid, format_name)
    return Representation(records.RECORD_MEDIA_TYPE, record.xml)


def _op_get_brand(repo, pid: str, params: dict) -> Representation:
    role_get_brand(repo, pid)
    obj = repo.get_object(pid)
    return Representation("application/xml", obj.datastream(BRAND_DS).payload)


# Operation name -> (ontology type whose objects answer it, implementation).
OPERATIONS: dict[str, tuple[str, Operation]] = {
    "getRecord": ("Metadata", _op_get_record),
    "getProvider": ("Metadata", lambda repo, pid, params: _uri_list(
        [metadata_get_provider(repo, pid)])),
    "getResource": ("Metadata", lambda repo, pid, params: _uri_list(
        [metadata_get_resource(repo, pid)])),
    "getHandle": ("Resource", lambda repo, pid, params: Representation(
        "text/plain", (resource_get_handle(repo, pid) + "\n").encode("utf-8"))),
    "getMetadata": ("Resource", lambda repo, pid, params: _uri_list(
        resource_get_metadata(repo, pid))),
    "listMemberships": ("Resource", lambda repo, pid, params: _uri_list(
        resource_memberships(repo, pid))),
    "showBrand": ("Resource", lambda repo, pid, params: _brands_doc(
        show_brand(repo, pid))),
    "getAnnotations": ("Resource", lambda repo, pid, params: _uri_list(
        annotations_for(repo, pid))),
    "showContent": ("Content", lambda repo, pid, params: content_show_content(
        repo, pid)),
    "getGold": ("Content", lambda repo, pid, params: Representation(
        records.RECORD_MEDIA_TYPE, repo.gold(pid))),
    "getBrand": ("Role", _op_get_brand),
    "listMembers": ("Aggregator", lambda repo, pid, params: _uri_list(
        aggregator_list_members(repo, pid, *paging(params)))),
    "getRepresentation": ("Aggregator", lambda repo, pid, params: _uri_list(
        [aggregator_get_representation(repo, pid)])),
    "listProvided": ("MetadataProvider", lambda repo, pid, params: _uri_list(
        mdprovider_list_provided(repo, pid, *paging(params)))),
}
