"""Span tracing of the engine's layers from outside the engine.

``Tracer.install`` rebinds each hooked entry point in the running process
with a wrapper that records a span: name, start, end, parent span and
request id (the index of the outermost span). Module-level functions are
rebound in every ``overlay_repo`` module that holds them, so names taken
with ``from .records import ...`` are caught where they were imported.
No file of the engine is edited. Spans are kept in compact arrays and
written out when the run ends; ``layer_metrics`` reduces them to the
per-layer metrics.

A hook whose target no longer exists is skipped and listed in
``Tracer.missing``; the metrics that depend on it then read 0.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

_NS = 1e-6  # ns -> ms


def _verb(args, kwargs, result):
    params = args[1] if len(args) > 1 else kwargs.get("params", {})
    return params.get("verb", "")


def _outcome(args, kwargs, result):
    payload = args[2] if len(args) > 2 else kwargs.get("payload")
    return (result, len(payload or b""))


def _size_of_result(args, kwargs, result):
    return 0 if result is None else len(result)


def _written_bytes(args, kwargs, result):
    data = args[1] if len(args) > 1 else kwargs.get("data", b"")
    return len(data)


# (module, owner class or None, attribute, span name, tagger)
HOOKS = [
    ("harvest", "Harvester", "harvest", "harvest.harvest", None),
    ("harvest", "Harvester", "register_provider", "harvest.register_provider", None),
    ("harvest", "Harvester", "_fetch_page", "harvest.fetch_page", None),
    ("harvest", "Harvester", "ingest_record", "harvest.ingest_record", _outcome),
    ("harvest", "Harvester", "handle_deleted", "harvest.handle_deleted", None),
    ("harvest", None, "extract_resource_key", "harvest.extract_resource_key", None),
    ("records", None, "parse_dc_entries", "records.parse_dc_entries", None),
    ("records", None, "apply_rules", "records.apply_rules", None),
    ("records", None, "serialize_dc", "records.serialize_dc", None),
    ("records", None, "validate_record", "records.validate_record", None),
    ("records", None, "apply_safe_transforms", "records.apply_safe_transforms", None),
    ("records", None, "crosswalk", "records.crosswalk", None),
    ("records", None, "fold_gold", "records.fold_gold", None),
    ("graph", None, "parse_rels", "graph.parse_rels", None),
    ("graph", None, "serialize_rels", "graph.serialize_rels", None),
    ("graph", "TripleStore", "replace_triples", "graph.replace_triples", None),
    ("graph", "TripleStore", "retract", "graph.retract", None),
    ("graph", "TripleStore", "rebuild", "graph.rebuild", None),
    ("graph", "TripleStore", "lookup", "graph.lookup", _size_of_result),
    ("graph", "TripleStore", "query", "graph.query", _size_of_result),
    ("canonical", None, "export_object", "canonical.export_object", None),
    ("canonical", None, "import_object", "canonical.import_object", None),
    ("store", "Repository", "__init__", "store.open", None),
    ("store", "Repository", "put_object", "store.put", None),
    ("store", "Repository", "restore_object", "store.put", None),
    ("store", "Repository", "delete_object", "store.delete", None),
    ("store", "Repository", "assign_handle", "store.assign_handle", None),
    ("store", "Repository", "mint_pid", "store.mint_pid", None),
    ("store", "Repository", "_atomic_write", "store.atomic_write", _written_bytes),
    ("store", "Repository", "disseminate", "behaviors.disseminate", None),
    ("behaviors", None, "metadata_get_record", "behaviors.get_record", None),
    ("behaviors", None, "available_formats", "behaviors.available_formats", None),
    ("behaviors", None, "content_get_gold", "behaviors.get_gold", None),
    ("behaviors", None, "show_brand", "behaviors.show_brand", None),
    ("behaviors", None, "aggregator_list_members", "behaviors.list_members", None),
    ("behaviors", None, "mdprovider_list_provided", "behaviors.list_provided", None),
    ("oai", "OaiProvider", "handle_request", "oai.request", _verb),
    ("oai", "OaiProvider", "_select", "oai.select", None),
    ("oai", "OaiProvider", "_classify", "oai.classify", None),
    ("oai", "OaiProvider", "_record_element", "oai.render", None),
    ("oai", "OaiProvider", "_check_format_known", "oai.global_scan", None),
    ("oai", "OaiProvider", "_global_formats", "oai.global_scan", None),
    ("oai", "OaiProvider", "_aggregation_sets", "oai.global_scan", None),
    ("oai", "OaiProvider", "serve_identify", "oai.global_scan", None),
    ("web", "GatewayApp", "__call__", "web.request", None),
    ("web", "GatewayApp", "_query", "web.query", None),
]


class NullTracer:
    """Stand-in used by untraced runs: spans cost one call."""

    @contextmanager
    def span(self, name: str, tag=None):
        yield


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.root = array("i")
        self.tags: list = []
        self._stack: list[int] = []
        self._undo: list = []
        self.missing: list[str] = []

    # -- recording

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.tags)
        parent = self._stack[-1] if self._stack else -1
        self.name_id.append(nid)
        self.parent.append(parent)
        self.root.append(self.root[parent] if parent >= 0 else idx)
        self.end.append(0)
        self.tags.append(None)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int, tag) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()
        self.tags[idx] = tag

    @contextmanager
    def span(self, name: str, tag=None):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, tag)

    def _wrap(self, fn, name, tagger):
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            idx = open_(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                close(idx, tagger(args, kwargs, result) if tagger else None)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation

    def install(self, hooks=HOOKS) -> None:
        package = sys.modules["overlay_repo"]
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "overlay_repo" or n.startswith("overlay_repo.")]
        for module_name, owner_name, attr, span_name, tagger in hooks:
            module = getattr(package, module_name, None)
            owner = module if owner_name is None else getattr(module, owner_name, None)
            label = f"{module_name}.{owner_name + '.' if owner_name else ''}{attr}"
            if owner is None or attr not in vars(owner):
                self.missing.append(label)
                continue
            if owner_name is None:
                original = vars(owner)[attr]
                wrapper = self._wrap(original, span_name, tagger)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, key, value))
                            setattr(mod, key, wrapper)
            else:
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(raw.__func__, span_name, tagger))
                else:
                    new = self._wrap(raw, span_name, tagger)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- output

    def write(self, path: Path) -> None:
        """One line per span: id, name, start_ns, end_ns, parent, request, tag."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tname\tstart_ns\tend_ns\tparent\trequest\ttag\n")
            for i, nid in enumerate(self.name_id):
                tag = self.tags[i]
                out.write(f"{i}\t{self.names[nid]}\t{self.start[i]}\t{self.end[i]}"
                          f"\t{self.parent[i]}\t{self.root[i]}\t{'' if tag is None else tag}\n")


def _nearest(names: list[str], parent, match) -> list[int]:
    """Index of each span's nearest ancestor-or-self whose name matches."""
    out = [-1] * len(names)
    for i, name in enumerate(names):
        if match(name):
            out[i] = i
        elif parent[i] >= 0:
            out[i] = out[parent[i]]
    return out


def layer_metrics(tr: Tracer, records_written: int, user_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``records_written`` counts the records the workload wrote (harvested
    records accepted, records written between OAI pages, or PUTs); every
    ``*_per_rec`` metric divides by it and counts only spans under the
    benchmark's write operations. ``user_bytes`` is the size of the
    payloads those writes carried.
    """
    names = [tr.names[i] for i in tr.name_id]
    n = len(names)
    parent = tr.parent
    dur = [tr.end[i] - tr.start[i] for i in range(n)]
    child = [0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]
    layer = [name.split(".", 1)[0] for name in names]
    outermost = [parent[i] < 0 or layer[parent[i]] != layer[i] for i in range(n)]
    first_of_name = [parent[i] < 0 or names[parent[i]] != names[i] for i in range(n)]

    bench = _nearest(names, parent, lambda s: s.startswith("bench."))
    ingest = _nearest(names, parent, lambda s: s == "harvest.ingest_record")
    opened = _nearest(names, parent, lambda s: s == "store.open")
    query = _nearest(names, parent, lambda s: s == "web.query")

    def is_write(i: int) -> bool:
        b = bench[i]
        if b < 0:
            return False
        return names[b] in ("bench.ingest", "bench.write") or tr.tags[b] == "write"

    write = [is_write(i) for i in range(n)]
    accepted = [ingest[i] >= 0 and tr.tags[ingest[i]] is not None
                and tr.tags[ingest[i]][0] in ("created", "updated") for i in range(n)]

    def count(name, where=None):
        return sum(1 for i in range(n) if names[i] == name and (where is None or where(i)))

    def total(name_set, where=None, self_time=False, outer=None):
        """Summed span time in ms; `outer` keeps only spans not nested in
        another span of the same layer, or else of the same name."""
        keep = {"layer": outermost, "name": first_of_name, None: None}[outer]
        return _NS * sum(
            (dur[i] - child[i]) if self_time else dur[i]
            for i in range(n)
            if names[i] in name_set and (where is None or where(i))
            and (keep is None or keep[i]))

    def ratio(a, b):
        return a / b if b else 0.0

    rec = records_written
    in_write = write.__getitem__
    ingest_calls = count("harvest.ingest_record")
    rejects = count("harvest.ingest_record",
                    lambda i: tr.tags[i] is not None
                    and tr.tags[i][0] not in ("created", "updated"))
    harvested = ingest_calls + count("harvest.handle_deleted")
    pages = count("harvest.fetch_page")
    list_pages = count("oai.request", lambda i: tr.tags[i] == "ListRecords")
    oai_requests = count("oai.request")
    served = count("oai.render")
    records_layer = {s for s in set(names) if s.startswith("records.")}
    queries = count("web.query")
    reopened = count("canonical.import_object", lambda i: opened[i] >= 0)
    gateway = count("web.request")
    scans = [i for i in range(n) if names[i] == "web.request"
             and bench[i] >= 0 and tr.tags[bench[i]] == "query.scan"]
    return {
        "harvest.page_ms": ratio(total({"harvest.harvest"}), pages),
        "harvest.ingest_self_ms_per_rec": ratio(
            total({"harvest.ingest_record"}, in_write, self_time=True), rec),
        "harvest.rejects_per_rec": ratio(rejects, harvested),
        "records.dc_parses_per_rec": ratio(
            count("records.parse_dc_entries", accepted.__getitem__),
            count("harvest.ingest_record", accepted.__getitem__)),
        "records.rule_passes_per_rec": ratio(
            count("records.apply_rules", accepted.__getitem__),
            count("harvest.ingest_record", accepted.__getitem__)),
        "records.dc_ms_per_rec": ratio(total(records_layer, in_write, outer="layer"), rec),
        "records.fold_ms_per_gold": ratio(total({"records.fold_gold"}),
                                          count("records.fold_gold")),
        "graph.rels_parses_per_rec": ratio(count("graph.parse_rels", in_write), rec),
        "graph.rels_ms_per_rec": ratio(
            total({"graph.parse_rels", "graph.serialize_rels"}, in_write, outer="layer"), rec),
        "graph.insert_ms_per_rec": ratio(
            total({"graph.replace_triples", "graph.retract"}, in_write, outer="layer"), rec),
        "graph.rels_parses_per_reopened_obj": ratio(
            count("graph.parse_rels", lambda i: opened[i] >= 0), reopened),
        "graph.lookups_per_query": ratio(
            count("graph.lookup", lambda i: query[i] >= 0), queries),
        "graph.triples_examined_per_row": ratio(
            sum(tr.tags[i] for i in range(n)
                if names[i] == "graph.lookup" and query[i] >= 0),
            sum(tr.tags[i] for i in range(n)
                if names[i] == "graph.query" and query[i] >= 0)),
        "graph.query_ms_per_query": ratio(total({"graph.query"}), count("graph.query")),
        "canonical.exports_per_rec": ratio(count("canonical.export_object", in_write), rec),
        "canonical.export_ms_per_rec": ratio(
            total({"canonical.export_object"}, in_write), rec),
        "canonical.import_ms_per_obj": ratio(
            total({"canonical.import_object"}, lambda i: opened[i] >= 0), reopened),
        "store.atomic_writes_per_rec": ratio(count("store.atomic_write", in_write), rec),
        "store.bytes_written_per_user_byte": ratio(
            sum(tr.tags[i] for i in range(n)
                if names[i] == "store.atomic_write" and write[i]), user_bytes),
        "store.atomic_write_ms_per_rec": ratio(
            total({"store.atomic_write"}, in_write), rec),
        "store.put_self_ms_per_rec": ratio(
            total({"store.put"}, in_write, self_time=True), rec),
        "behaviors.gold_ms_per_call": ratio(total({"behaviors.get_gold"}),
                                            count("behaviors.get_gold")),
        "behaviors.available_formats_calls_per_page": ratio(
            count("behaviors.available_formats"), list_pages),
        "oai.select_ms_per_page": ratio(total({"oai.select"}), list_pages),
        "oai.classified_per_served": ratio(count("oai.classify"), served),
        "oai.render_ms_per_record": ratio(total({"oai.render"}), served),
        "oai.global_scan_ms_per_request": ratio(
            total({"oai.global_scan"}, outer="name"), oai_requests),
        "web.self_ms_per_request": ratio(
            total({"web.request", "web.query"}, self_time=True), gateway),
        "web.scan_refusal_ms": ratio(_NS * sum(dur[i] for i in scans), len(scans)),
    }


def source_lines(src: Path) -> int:
    return sum(len(p.read_text("utf-8").splitlines()) for p in sorted(src.rglob("*.py")))
