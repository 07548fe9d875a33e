"""Shared test helpers and independent oracles.

The oracles here are deliberately written from scratch against the
documented contracts (nested-loop query evaluation, selection-based
topological fold, the domain/range table) so they share no code with the
implementations they check.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone
from pathlib import Path
from xml.etree import ElementTree as ET

from overlay_repo.cli import load_fixture_dir
from overlay_repo.graph import Triple, serialize_rels
from overlay_repo.model import (
    RELS_DS,
    RELS_MEDIA_TYPE,
    Datastream,
    DigitalObject,
    local_stream,
)
from overlay_repo.ontology import BASE_NAMESPACE, base_predicate
from overlay_repo.records import DcEntry, serialize_dc

START = datetime(2010, 6, 1, 0, 0, 0, tzinfo=timezone.utc)

# The canned topologies, one directory of canonical records each, and the
# pid of every role in them.
FIGURES = Path(__file__).resolve().parents[1] / "fixtures" / "figures"
TOPOLOGIES = {
    "basic_pair": {"resource": "nsdl:1", "metadata": "nsdl:4"},
    "branding": {
        "provider_agent": "nsdl:11", "provider_role": "nsdl:12",
        "aggregator_agent": "nsdl:13", "aggregator_role": "nsdl:14",
        "metadata": "nsdl:15", "resource": "nsdl:16",
    },
    "augmented_metadata": {
        "resource": "nsdl:21", "base_record": "nsdl:5",
        "augmenting_record": "nsdl:8", "provider_role_one": "nsdl:23",
        "provider_role_two": "nsdl:25",
    },
    "aggregation": {
        "aggregator": "nsdl:31", "member_one": "nsdl:32",
        "member_two": "nsdl:33", "surrogate": "nsdl:34",
    },
    "annotation": {"primary": "nsdl:41", "review": "nsdl:42"},
}


def load_topology(repo, name: str) -> dict[str, str]:
    """Load one canned topology into repo; its role labels and pids."""
    load_fixture_dir(repo, FIGURES / name)
    return dict(TOPOLOGIES[name])


def canonical_xml(data: bytes) -> bytes:
    """C14N form of an XML document, for byte comparisons."""
    return ET.canonicalize(xml_data=data).encode("utf-8")


class TickingClock:
    """Deterministic clock advancing one second per reading."""

    def __init__(self, start: datetime = START):
        self.now = start

    def __call__(self) -> datetime:
        self.now += timedelta(seconds=1)
        return self.now


def rels_stream(pid: str, edges) -> Datastream:
    """RELS datastream asserting (pid, name, target) for each edge; a
    3-tuple edge (ns, name, target) makes an extension assertion."""
    triples = []
    for edge in edges:
        if len(edge) == 2:
            name, target = edge
            triples.append(Triple(pid, base_predicate(name), target, provenance=pid))
        else:
            ns, name, target = edge
            from overlay_repo.ontology import Predicate

            triples.append(Triple(pid, Predicate(ns, name), target, provenance=pid))
    return local_stream(RELS_DS, RELS_MEDIA_TYPE, serialize_rels(pid, triples))


def put_object(repo, behaviors, streams=(), edges=(), pid=None, handle=None,
               strict=True) -> str:
    pid = pid or repo.mint_pid()
    ds = list(streams)
    if edges:
        ds.append(rels_stream(pid, edges))
    repo.put_object(
        DigitalObject(pid=pid, handle=handle, behaviors=frozenset(behaviors),
                      datastreams=tuple(ds)),
        strict=strict)
    return pid


def oai_dc_record(*entries) -> bytes:
    return serialize_dc("oai_dc", [DcEntry(n, v) for n, v in entries])


def nsdl_dc_record(*entries) -> bytes:
    return serialize_dc("nsdl_dc", [DcEntry(n, v) for n, v in entries])


def record_stream(format_name: str, payload: bytes) -> Datastream:
    return local_stream(f"REC.{format_name}", "application/xml", payload)


# ---------------------------------------------------------------------------
# Oracle 1: nested-loop conjunctive query evaluation over plain tuples.
# Terms are "?name" strings for variables, otherwise literal values;
# predicates are full URIs.


def brute_force_query(triples, clauses, select):
    rows = set()

    def extend(index, binding):
        if index == len(clauses):
            rows.add(tuple(binding[name] for name in select))
            return
        for triple in triples:
            candidate = dict(binding)
            if _match(clauses[index], triple, candidate):
                extend(index + 1, candidate)

    extend(0, {})
    return rows


def _match(clause, triple, binding) -> bool:
    for term, value in zip(clause, triple):
        if isinstance(term, str) and term.startswith("?"):
            name = term[1:]
            if name in binding and binding[name] != value:
                return False
            binding[name] = value
        elif term != value:
            return False
    return True


def engine_triples_as_tuples(store):
    return [(t.subject, t.predicate.uri, t.object) for t in store.dump()]


# ---------------------------------------------------------------------------
# Oracle 2: gold fold by repeated minimum selection. Records are dicts
# {"pid", "datestamp", "entries": [(name, value), ...]}; edges read
# (a augments b).

GOLD_SINGLE = {"title", "identifier", "date"}


def oracle_gold_fold(record_dicts, edges):
    remaining = {r["pid"]: r for r in record_dicts}
    order = []
    while remaining:
        ready = [
            pid for pid in remaining
            if not any(a == pid and b in remaining and b != pid for a, b in edges)
        ]
        if not ready:
            raise AssertionError("cycle in oracle input")
        ready.sort(key=lambda p: (remaining[p]["datestamp"], int(p.split(":")[1])))
        chosen = ready[0]
        order.append(chosen)
        del remaining[chosen]

    merged: dict[str, list[str]] = {}
    seen: dict[str, set[str]] = {}
    for pid in order:
        record = next(r for r in record_dicts if r["pid"] == pid)
        grouped: dict[str, list[str]] = {}
        for name, value in record["entries"]:
            grouped.setdefault(name, []).append(value)
        for name, values in grouped.items():
            if name in GOLD_SINGLE:
                merged[name] = list(values)
            else:
                for value in values:
                    if value not in seen.setdefault(name, set()):
                        seen[name].add(value)
                        merged.setdefault(name, []).append(value)
    return order, merged


# ---------------------------------------------------------------------------
# Oracle 3: the relationship typing table, written out long-hand.

ORACLE_DOMAIN_RANGE = {
    "annotates": ("Content", "Resource"),
    "assertedBy": ("Role", "Agent"),
    "augments": ("Metadata", "Metadata"),
    "hasRole": ("Agent", "Role"),
    "metadataFor": ("Metadata", "Resource"),
    "memberOf": ("Resource", "Aggregator"),
    "providedBy": ("Metadata", "MetadataProvider"),
    "representedBy": ("Aggregator", "Content"),
}


def oracle_is_type(behaviors: set[str], type_name: str) -> bool:
    if type_name == "Resource":
        return "Agent" in behaviors or "Content" in behaviors
    if type_name == "Role":
        return bool(behaviors & {"Role", "Aggregator", "MetadataProvider"})
    return type_name in behaviors


def oracle_triple_allowed(predicate: str, subject_behaviors: set[str],
                          object_behaviors: set[str]) -> bool:
    domain, range_ = ORACLE_DOMAIN_RANGE[predicate]
    return (oracle_is_type(subject_behaviors, domain)
            and oracle_is_type(object_behaviors, range_))


BASE = BASE_NAMESPACE


# ---------------------------------------------------------------------------
# Random graphs and patterns for query-equivalence checks. Triples use
# extension predicates so typing rules stay out of the picture.

EXT_NS = "http://example.org/vocab#"
EXT_TERMS = ("cites", "follows", "likes", "links")


def random_graph(rng, max_triples=50):
    """Plain triple tuples (s, predicate_uri, o) over a small pid pool."""
    pids = [f"nsdl:{n}" for n in range(1, rng.randint(4, 15))]
    triples = set()
    for _ in range(rng.randint(0, max_triples)):
        triples.add((
            rng.choice(pids),
            EXT_NS + rng.choice(EXT_TERMS),
            rng.choice(pids),
        ))
    return pids, sorted(triples)


def random_pattern(rng, pids, n_clauses):
    """Abstract clause list plus selected variables.

    Terms are ("var", name), ("pid", pid) or ("pred", uri); variables are
    drawn from a tiny pool so joins actually happen.
    """
    var_pool = ["a", "b", "c"]
    clauses = []
    used_vars = []
    for _ in range(n_clauses):
        def node_term():
            if rng.random() < 0.5:
                name = rng.choice(var_pool)
                used_vars.append(name)
                return ("var", name)
            return ("pid", rng.choice(pids))

        if rng.random() < 0.25:
            name = rng.choice(var_pool)
            used_vars.append(name)
            pred = ("var", name)
        else:
            pred = ("pred", EXT_NS + rng.choice(EXT_TERMS))
        clauses.append((node_term(), pred, node_term()))
    if not used_vars:
        name = rng.choice(var_pool)
        clauses[0] = (("var", name), clauses[0][1], clauses[0][2])
        used_vars.append(name)
    count = rng.randint(1, len(set(used_vars)))
    select = sorted(set(used_vars))[:count]
    return clauses, select


def to_engine_pattern(clauses, select):
    from overlay_repo.graph import QueryPattern, Var
    from overlay_repo.ontology import predicate_from_uri

    def convert(term, is_pred):
        kind, value = term
        if kind == "var":
            return Var(value)
        if is_pred:
            return predicate_from_uri(value)
        return value

    return QueryPattern(
        tuple((convert(s, False), convert(p, True), convert(o, False))
              for s, p, o in clauses),
        tuple(select),
    )


def to_oracle_pattern(clauses):
    def convert(term):
        kind, value = term
        return "?" + value if kind == "var" else value

    return [tuple(convert(t) for t in clause) for clause in clauses]


def load_plain_triples(store_cls_or_store, triples):
    """Feed plain tuples into a TripleStore grouped by subject."""
    from overlay_repo.graph import Triple
    from overlay_repo.ontology import predicate_from_uri

    store = store_cls_or_store
    by_subject = {}
    for s, p, o in triples:
        by_subject.setdefault(s, []).append(
            Triple(s, predicate_from_uri(p), o, provenance=s))
    for s, ts in by_subject.items():
        store.replace_triples(s, ts)
    return store


# ---------------------------------------------------------------------------
# A minimal stand-alone OAI endpoint for feeding the harvester. Kept
# independent of the package's own provider: envelopes are string
# templates here.


class StubOaiProvider:
    """In-memory ListRecords endpoint with datestamp windows, resumption
    paging, deleted records, and injectable failures."""

    def __init__(self, page_size: int = 250):
        self.page_size = page_size
        self.records: dict[str, dict] = {}
        self.request_count = 0
        self.fail_requests_after: int | None = None
        self.error_code: str | None = None

    def add(self, identifier: str, datestamp, xml: bytes | None,
            deleted: bool = False) -> None:
        self.records[identifier] = {
            "datestamp": datestamp, "xml": xml, "deleted": deleted}

    def delete(self, identifier: str, datestamp) -> None:
        self.records[identifier] = {
            "datestamp": datestamp, "xml": None, "deleted": True}

    def live_identifiers(self) -> set[str]:
        return {i for i, r in self.records.items() if not r["deleted"]}

    # -- transport-compatible entry point

    def transport(self, url: str) -> bytes:
        from urllib.parse import parse_qsl, urlsplit

        self.request_count += 1
        if (self.fail_requests_after is not None
                and self.request_count > self.fail_requests_after):
            raise OSError("stub network failure")
        params = dict(parse_qsl(urlsplit(url).query))
        if self.error_code:
            return self._envelope(
                f'<error code="{self.error_code}">injected</error>')
        token = params.get("resumptionToken")
        if token is not None:
            _, raw_offset, raw_from, raw_until = token.split("|")
            offset = int(raw_offset)
            frm = _parse_opt(raw_from)
            until = _parse_opt(raw_until)
        else:
            offset = 0
            frm = _parse_opt(params.get("from"))
            until = _parse_opt(params.get("until"))
        selected = [
            (i, r) for i, r in sorted(self.records.items())
            if (frm is None or r["datestamp"] >= frm)
            and (until is None or r["datestamp"] < until)
        ]
        if not selected:
            return self._envelope('<error code="noRecordsMatch">none</error>')
        page = selected[offset:offset + self.page_size]
        parts = []
        for identifier, record in page:
            stamp = format_stamp(record["datestamp"])
            if record["deleted"]:
                parts.append(
                    f'<record><header status="deleted">'
                    f"<identifier>{identifier}</identifier>"
                    f"<datestamp>{stamp}</datestamp></header></record>")
            else:
                xml = record["xml"].decode("utf-8")
                parts.append(
                    f"<record><header><identifier>{identifier}</identifier>"
                    f"<datestamp>{stamp}</datestamp></header>"
                    f"<metadata>{xml}</metadata></record>")
        next_offset = offset + self.page_size
        if next_offset < len(selected):
            token_text = "|".join([
                "t", str(next_offset),
                format_stamp(frm) if frm else "-",
                format_stamp(until) if until else "-",
            ])
            parts.append(f"<resumptionToken>{token_text}</resumptionToken>")
        return self._envelope(
            "<ListRecords>" + "".join(parts) + "</ListRecords>")

    @staticmethod
    def _envelope(body: str) -> bytes:
        return (
            '<?xml version="1.0" encoding="UTF-8"?>'
            '<OAI-PMH xmlns="http://www.openarchives.org/OAI/2.0/">'
            "<responseDate>2010-01-01T00:00:00Z</responseDate>"
            "<request/>" + body + "</OAI-PMH>"
        ).encode("utf-8")


def format_stamp(dt) -> str:
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def _parse_opt(value):
    if value in (None, "-"):
        return None
    return datetime.strptime(value, "%Y-%m-%dT%H:%M:%SZ").replace(
        tzinfo=timezone.utc)


def stub_record(provider_name: str, index: int, url: str | None = None,
                title: str | None = None) -> bytes:
    url = url or f"http://resources.example/{provider_name}/{index}"
    return oai_dc_record(
        ("title", title or f"Resource {index} from {provider_name}"),
        ("description", f"Synthetic record {index}."),
        ("identifier", url),
        ("identifier", f"local-{provider_name}-{index}"),
        ("date", "2004-03-05"),
        ("type", "Text"),
        ("language", "en"),
    )


def seed_metadata(repo, count=3, aggregator=None, start_index=0,
                  provider_label="Seeded"):
    """Provider role + described resources + metadata objects, with the
    repo clock supplying increasing datestamps. Returns metadata pids."""
    from overlay_repo.behaviors import build_brand_doc

    role = put_object(repo, {"MetadataProvider"},
                      streams=[local_stream("BRAND", "application/xml",
                                            build_brand_doc(provider_label))])
    pids = []
    for i in range(start_index, start_index + count):
        edges = [("memberOf", aggregator)] if aggregator else []
        resource = put_object(repo, {"Content"}, edges=edges)
        record = oai_dc_record(
            ("title", f"Record {i}"), ("identifier", f"http://x.example/{i}"))
        pids.append(put_object(
            repo, {"Metadata"},
            streams=[local_stream("REC.oai_dc", "application/xml", record)],
            edges=[("metadataFor", resource), ("providedBy", role)]))
    return pids


def provider_transport(provider):
    """Transport adapter: drive an in-process OaiProvider through its
    query-string surface, as a remote harvester would."""
    from urllib.parse import parse_qsl, urlsplit

    def transport(url: str) -> bytes:
        params = dict(parse_qsl(urlsplit(url).query))
        return provider.handle_request(params)

    return transport


def wsgi_transport(app):
    """Transport adapter running a WSGI app in-process."""
    from io import BytesIO
    from urllib.parse import urlsplit

    def transport(url: str) -> bytes:
        parts = urlsplit(url)
        environ = {
            "REQUEST_METHOD": "GET",
            "PATH_INFO": parts.path,
            "QUERY_STRING": parts.query,
            "CONTENT_LENGTH": "0",
            "wsgi.input": BytesIO(b""),
            "SERVER_NAME": parts.hostname or "localhost",
            "SERVER_PORT": str(parts.port or 80),
            "wsgi.url_scheme": parts.scheme or "http",
        }
        captured = {}

        def start_response(status, headers):
            captured["status"] = status

        body = b"".join(app(environ, start_response))
        if not captured["status"].startswith("200"):
            raise OSError(f"unexpected status {captured['status']}")
        return body

    return transport
