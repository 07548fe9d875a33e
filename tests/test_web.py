"""Gateway routes: dissemination, management, queries, the mounted OAI app."""

import threading
from io import BytesIO
from xml.etree import ElementTree as ET

import pytest

from overlay_repo import canonical
from overlay_repo.errors import ValidationError
from overlay_repo.model import (
    DigitalObject, build_source_doc, local_stream, remote_stream)
from overlay_repo.oai import OaiProvider
from overlay_repo.store import Repository
from overlay_repo.web import (
    CANDIDATES_PER_CAPPED_ROW,
    MAX_BODY_BYTES,
    GatewayApp,
    GatewayConfig,
    load_config,
)

from support import (
    START, brute_force_query, load_topology, nsdl_dc_record, oai_dc_record, put_object,
    record_stream, seed_metadata)


@pytest.fixture
def app(repo):
    return GatewayApp(repo, OaiProvider(repo, repository_id="test.local"))


def request(app, method, path, body=b"", query="", content_length=None,
            stream=None):
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": query,
        "CONTENT_LENGTH": str(len(body)) if content_length is None else content_length,
        "wsgi.input": BytesIO(body) if stream is None else stream,
    }
    captured = {}

    def start_response(status, headers):
        captured["status"] = status
        captured["headers"] = dict(headers)

    out = b"".join(app(environ, start_response))
    return int(captured["status"].split()[0]), captured["headers"], out


# -- dissemination


def test_dissemination_matches_resolve_for_all_fixture_operations(repo, app):
    load_topology(repo, "basic_pair")
    load_topology(repo, "aggregation")
    cases = [
        ("nsdl:1", "showContent", {}),
        ("nsdl:1", "getMetadata", {}),
        ("nsdl:4", "getRecord", {"format": "oai_dc"}),
        ("nsdl:4", "getRecord", {"format": "nsdl_dc"}),
        ("nsdl:4", "getResource", {}),
        ("nsdl:31", "listMembers", {}),
        ("nsdl:31", "getRepresentation", {}),
        ("nsdl:31", "getBrand", {}),
        ("nsdl:32", "showBrand", {}),
        ("nsdl:32", "listMemberships", {}),
    ]
    for pid, op, params in cases:
        query = "&".join(f"{k}={v}" for k, v in params.items())
        status, headers, body = request(
            app, "GET", f"/objects/{pid}/methods/{op}", query=query)
        expected = repo.disseminate(pid, op, params)
        assert status == 200, (pid, op, body)
        assert body == expected.body
        assert headers["Content-Type"] == expected.media_type


def test_object_profile_route(repo, app):
    labels = load_topology(repo, "basic_pair")
    status, _, body = request(app, "GET", f"/objects/{labels['resource']}")
    assert status == 200
    assert repo.disseminate(labels["resource"], None).body == body


def test_object_profile_bytes(repo, app):
    pid = put_object(repo, {"Agent", "Content"}, handle="hdl:2200/00007", streams=[
        remote_stream("CONTENT", "text/html", "http://example.org/a?b=1&c=2"),
        local_stream("NOTES", 'text/plain; note="a&b<c"', b"x")])
    status, headers, body = request(app, "GET", f"/objects/{pid}")
    assert (status, headers["Content-Type"]) == (200, "application/xml")
    assert body == (
        b'<objectProfile pid="nsdl:1" state="active" version="1"'
        b' lastModified="2010-06-01T00:00:01Z" handle="hdl:2200/00007">\n'
        b'  <datastream dsId="CONTENT" kind="remote" mediaType="text/html"/>\n'
        b'  <datastream dsId="NOTES" kind="local"'
        b' mediaType=\'text/plain; note="a&amp;b&lt;c"\'/>\n'
        b'  <behavior name="Agent"/>\n'
        b'  <behavior name="Content"/>\n'
        b'</objectProfile>\n')


def test_unknown_pid_404(app):
    status, _, _ = request(app, "GET", "/objects/nsdl:999999")
    assert status == 404


def test_tombstone_410(repo, app):
    pid = put_object(repo, {"Content"})
    repo.delete_object(pid)
    status, _, _ = request(app, "GET", f"/objects/{pid}")
    assert status == 410


def test_unbound_operation_501(repo, app):
    pid = put_object(repo, {"Metadata"})
    status, _, _ = request(app, "GET", f"/objects/{pid}/methods/listMembers")
    assert status == 501


def test_show_brand_of_a_deleted_aggregation_409_names_the_role(repo, app):
    labels = load_topology(repo, "branding")
    repo.delete_object(labels["aggregator_role"])
    status, _, body = request(
        app, "GET", f"/objects/{labels['resource']}/methods/showBrand")
    assert status == 409 and labels["aggregator_role"].encode() in body
    assert b"no BRAND stream" in body


def test_list_provided_route_pages(repo, app):
    labels = load_topology(repo, "branding")
    role = labels["provider_role"]
    more = [put_object(repo, {"Metadata"}, edges=[("providedBy", role)])
            for _ in range(2)]
    provided = [labels["metadata"], *more]
    for query, expected in [("", provided), ("offset=1", provided[1:]),
                            ("limit=2", provided[:2]),
                            ("offset=1&limit=1", provided[1:2]),
                            ("offset=3", [])]:
        status, headers, body = request(
            app, "GET", f"/objects/{role}/methods/listProvided", query=query)
        assert status == 200 and headers["Content-Type"] == "text/uri-list"
        assert body.decode().splitlines() == [f"info:nsdl/{p}" for p in expected]


@pytest.mark.parametrize("query", ["offset=-1", "limit=x"])
@pytest.mark.parametrize("op, label", [("listMembers", "aggregator_role"),
                                       ("listProvided", "provider_role")])
def test_member_paging_refuses_negative_or_non_integer_422(repo, app, query, op, label):
    pid = load_topology(repo, "branding")[label]
    status, _, body = request(app, "GET", f"/objects/{pid}/methods/{op}", query=query)
    assert status == 422 and b"offset and limit" in body


@pytest.mark.parametrize("query", ["limit=1&limit=5", "limit=x&limit=1"])
def test_repeated_dissemination_argument_422(repo, app, query):
    pid = load_topology(repo, "aggregation")["aggregator"]
    status, _, body = request(app, "GET", f"/objects/{pid}/methods/listMembers",
                              query=query)
    assert status == 422 and b"more than once" in body


def test_get_record_without_format_422(repo, app):
    pid = load_topology(repo, "basic_pair")["metadata"]
    status, _, body = request(app, "GET", f"/objects/{pid}/methods/getRecord")
    assert status == 422 and b"format" in body


def test_get_brand_malformed_422(repo, app):
    role = load_topology(repo, "branding")["provider_role"]
    repo.put_object(repo.get_object(role).with_datastream(
        local_stream("BRAND", "application/xml", b"<notbrand/>")))
    status, _, body = request(app, "GET", f"/objects/{role}/methods/getBrand")
    assert status == 422 and role.encode() in body


# -- management


def test_put_objects_then_disseminations_behave(repo, app):
    donor = Repository()
    load_topology(donor, "basic_pair")
    for pid in donor.pids():  # resource first, so strict validation holds
        status, _, body = request(
            app, "PUT", f"/objects/{pid}", body=donor.export_object(pid))
        assert status == 201, body
    listing = request(app, "GET", "/objects/nsdl:1/methods/getMetadata")[2]
    assert listing.decode().splitlines() == ["info:nsdl/nsdl:4"]
    record = request(app, "GET", "/objects/nsdl:4/methods/getRecord",
                     query="format=oai_dc")[2]
    assert b"Introductory Oceanography" in record


def test_put_round_trip_is_canonical_equal(repo, app):
    donor = Repository()
    labels = load_topology(donor, "basic_pair")
    doc = donor.export_object(labels["resource"])
    request(app, "PUT", f"/objects/{labels['resource']}", body=doc)
    assert repo.export_object(labels["resource"]) == doc


def test_put_of_existing_pid_parses_rels_once_and_writes_once(
        tmp_path, clock, rels_parses, atomic_writes):
    repo = Repository(tmp_path / "d", clock=clock)
    app = GatewayApp(repo, OaiProvider(repo, repository_id="test.local"))
    resource = put_object(repo, {"Content"})
    metadata = put_object(repo, {"Metadata"}, edges=[("metadataFor", resource)])
    doc = repo.export_object(metadata)
    rels_parses.clear()
    atomic_writes.clear()
    status, _, body = request(app, "PUT", f"/objects/{metadata}", body=doc)
    assert status == 200, body
    assert rels_parses == [metadata]
    assert atomic_writes == [tmp_path / "d" / "objects" / "2.xml"]


def test_put_body_out_of_order_is_held_in_record_order(tmp_path, clock):
    """A PUT body that lists SOURCE before REC.nsdl_dc and puts <rels>
    first is held as its record holds it: the stored object equals its
    reopened self and the import of its export."""
    repo = Repository(tmp_path / "d", clock=clock)
    app = GatewayApp(repo, OaiProvider(repo, repository_id="test.local"))
    resource = put_object(repo, {"Content"})
    metadata = put_object(repo, {"Metadata"}, edges=[("metadataFor", resource)], streams=[
        record_stream("nsdl_dc", nsdl_dc_record(("title", "T"))),
        local_stream("SOURCE", "application/xml", build_source_doc("p", "oai:p:1", START))])
    lines = repo.export_object(metadata).decode("utf-8").splitlines(keepends=True)
    rels = lines[lines.index("  <rels>\n"):lines.index("  </rels>\n") + 1]
    streams = [line for line in lines if line.startswith("  <datastream")]
    assert [line.split('"')[1] for line in streams] == ["REC.nsdl_dc", "SOURCE"]
    body = "".join([*lines[:2], *rels, *reversed(streams),
                    *(line for line in lines if line.startswith("  <behavior")), lines[-1]])
    status, _, out = request(app, "PUT", f"/objects/{metadata}", body=body.encode("utf-8"))
    assert status == 200, out
    assert repo.get_object(metadata) == Repository(tmp_path / "d", clock=clock).get_object(
        metadata) == canonical.import_object(repo.export_object(metadata))[0]


def test_put_malformed_rels_422(repo, app):
    pid = put_object(repo, {"Content"}, edges=[("http://example.org/v#", "cites", "nsdl:9")])
    doc = repo.export_object(pid).replace(
        f"info:nsdl/{pid}".encode(), b"info:nsdl/nsdl:8", 1)
    status, _, body = request(app, "PUT", f"/objects/{pid}", body=doc)
    assert status == 422
    assert b"not the owning object" in body


def test_put_of_an_unknown_base_term_422(repo, app):
    pid = put_object(repo, {"Content"}, edges=[("memberOf", put_object(repo, {"Aggregator"}))])
    doc = repo.export_object(pid).replace(b"rel:memberOf", b"rel:memberOff")
    status, _, body = request(app, "PUT", f"/objects/{pid}", body=doc)
    assert status == 422
    assert b"memberOff is not a base relationship term" in body


_GOOD_DC = oai_dc_record(("title", "T"), ("identifier", "http://x.example/1"))
_UNEMBEDDABLE = {
    "malformed": _GOOD_DC[:-10],
    "wrong root": _GOOD_DC.replace(b"oai_dc:dc", b"oai_dc:record"),
    "doctype": b"<!DOCTYPE dc>" + _GOOD_DC,
    "latin-1": b'<?xml version="1.0" encoding="ISO-8859-1"?>\n' + _GOOD_DC,
}


@pytest.mark.parametrize("kind", sorted(_UNEMBEDDABLE))
def test_unembeddable_record_refused_and_oai_still_answers(repo, app, kind):
    metadata = seed_metadata(repo, 2)[1]
    bad = repo.get_object(metadata).with_datastream(
        record_stream("oai_dc", _UNEMBEDDABLE[kind]))
    before = repo.export_object(metadata)
    with pytest.raises(ValidationError, match="REC.oai_dc"):
        repo.put_object(bad)
    status, _, body = request(app, "PUT", f"/objects/{metadata}",
                              body=canonical.export_object(
                                  bad, repo.graph.triples_asserted_by(metadata)))
    assert status == 422 and b"REC.oai_dc" in body
    assert repo.export_object(metadata) == before
    for prefix in ("nsdl_dc", "nsdl_agg"):
        status, _, body = request(app, "GET", "/oai",
                                  query=f"verb=ListRecords&metadataPrefix={prefix}")
        response = ET.fromstring(body)
        assert status == 200
        assert response.find("{http://www.openarchives.org/OAI/2.0/}error") is None
        assert len(response.findall(".//{http://www.openarchives.org/OAI/2.0/}record")) == 2


def test_put_ontology_violation_422_lists_problems(repo, app):
    donor = Repository()
    aggregator = put_object(donor, {"Aggregator"})
    offender = put_object(donor, {"Metadata"}, edges=[("memberOf", aggregator)],
                          strict=False)
    status, _, body = request(
        app, "PUT", f"/objects/{offender}", body=donor.export_object(offender))
    assert status == 422
    assert b"memberOf" in body


def test_put_pid_mismatch_409(repo, app):
    donor = Repository()
    pid = put_object(donor, {"Content"})
    status, _, _ = request(
        app, "PUT", "/objects/nsdl:77", body=donor.export_object(pid))
    assert status == 409


def test_post_creates_and_replies_201(repo, app):
    donor = Repository()
    pid = put_object(donor, {"Content"})
    status, _, body = request(app, "POST", "/objects",
                              body=donor.export_object(pid))
    assert status == 201
    assert body.decode().strip() == pid


def test_post_of_an_existing_pid_replaces_it_and_replies_200(repo, app):
    """POST goes through PUT's handler: the write decides the status, and
    only PUT has a path pid to check."""
    pid = put_object(repo, {"Content"})
    doc = repo.export_object(pid)
    status, _, body = request(app, "POST", "/objects", body=doc)
    assert status == 200 and body.decode().strip() == pid
    assert repo.get_object(pid).version == 2
    assert request(app, "POST", f"/objects/{pid}", body=doc)[0] == 405


def test_concurrent_puts_of_a_new_pid_answer_201_once(repo, app, monkeypatch):
    """The write decides the status under the store's lock: both PUTs pass
    a barrier before either writes, and only the first write creates."""
    donor = Repository()
    pid = put_object(donor, {"Content"})
    doc = donor.export_object(pid)
    barrier, restore = threading.Barrier(2), repo.restore_object

    def both_then_write(*args, **kwargs):
        barrier.wait(timeout=10)
        return restore(*args, **kwargs)

    monkeypatch.setattr(repo, "restore_object", both_then_write)
    statuses = []
    threads = [threading.Thread(target=lambda: statuses.append(
        request(app, "PUT", f"/objects/{pid}", body=doc)[0])) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert sorted(statuses) == [200, 201]


@pytest.mark.parametrize("url", [
    "file:///etc/hostname", "data:text/plain,secret", "/etc/hostname",
    "http:///no-host", "gopher://example.org/x"])
def test_put_of_a_remote_stream_breaking_the_url_rule_422(url):
    served = []
    app = GatewayApp(Repository(
        url_fetcher=lambda url, timeout: served.append(url) or b"local file bytes"))
    doc = canonical.export_object(DigitalObject(
        pid="nsdl:5", behaviors=frozenset({"Content"}),
        datastreams=(remote_stream("CONTENT", "text/html", "http://example.org/x"),)))
    doc = doc.replace(b'url="http://example.org/x"', f'url="{url}"'.encode())
    status, _, body = request(app, "PUT", "/objects/nsdl:5", body=doc)
    assert status == 422 and b"http, https or ftp" in body
    assert request(app, "GET", "/objects/nsdl:5/methods/showContent")[0] == 404
    assert served == []


def test_delete_then_get_410(repo, app):
    pid = put_object(repo, {"Content"})
    status, _, _ = request(app, "DELETE", f"/objects/{pid}")
    assert status == 204
    assert request(app, "GET", f"/objects/{pid}")[0] == 410


def test_put_tombstone_with_another_objects_handle_422(repo, app):
    owner = put_object(repo, {"Content"}, handle="hdl:2200/00001")
    tomb = DigitalObject(pid="nsdl:7", state="deleted", handle="hdl:2200/00001")
    status, _, body = request(app, "PUT", "/objects/nsdl:7",
                              body=canonical.export_object(tomb))
    assert status == 422 and b"already registered" in body
    assert repo.resolve_handle("hdl:2200/00001") == owner
    assert request(app, "GET", "/objects/nsdl:7")[0] == 404


def test_malformed_body_422(repo, app):
    status, _, _ = request(app, "POST", "/objects", body=b"<junk")
    assert status == 422


# -- query endpoint


def test_query_route_membership(repo, app):
    labels = load_topology(repo, "aggregation")
    body = (f"select ?r where (?r <rel:memberOf> "
            f"<info:nsdl/{labels['aggregator']}>)").encode()
    status, headers, out = request(app, "POST", "/query", body=body)
    assert status == 200
    assert out.decode().splitlines() == [
        labels["member_one"], labels["member_two"]]


def test_query_route_empty(repo, app):
    status, _, out = request(
        app, "POST", "/query",
        body=b"select ?r where (?r <rel:memberOf> <info:nsdl/nsdl:2>)")
    assert status == 200 and out == b""


def test_query_route_parse_error_400(app):
    status, _, _ = request(app, "POST", "/query", body=b"still wrong")
    assert status == 400


def test_query_route_three_clause_join_matches_oracle(repo, app):
    seed_metadata(repo, 4)
    body = (b"select ?m ?r where (?m <rel:metadataFor> ?r)"
            b" (?m <rel:providedBy> ?p) (?r <rel:memberOf> ?a)")
    status, _, out = request(app, "POST", "/query", body=body)
    assert status == 200
    triples = [(t.subject, t.predicate.uri, t.object) for t in repo.graph.dump()]
    base = "http://ns.nsdl.org/ontologies/relationships#"
    expected = brute_force_query(
        triples,
        [("?m", base + "metadataFor", "?r"),
         ("?m", base + "providedBy", "?p"),
         ("?r", base + "memberOf", "?a")],
        ["m", "r"])
    got = {tuple(line.split("\t")) for line in out.decode().splitlines()}
    assert got == expected


@pytest.mark.parametrize("query", [
    "offset=-1", "limit=-1", "offset=-2&limit=1", "offset=x"])
def test_query_paging_refuses_negative_or_non_integer_400(repo, app, lookups, query):
    seed_metadata(repo, 3)
    status, _, out = request(app, "POST", "/query", query=query,
                             body=b"select ?m where (?m <rel:metadataFor> ?r)")
    assert status == 400 and b"offset and limit" in out
    assert lookups == []


def test_query_repeated_paging_argument_400(repo, app, lookups):
    seed_metadata(repo, 3)
    status, _, out = request(app, "POST", "/query", query="offset=0&offset=1",
                             body=b"select ?m where (?m <rel:metadataFor> ?r)")
    assert status == 400 and b"more than once" in out
    assert lookups == []


def test_query_row_cap_413(repo):
    app = GatewayApp(repo, query_row_cap=3)
    seed_metadata(repo, 5)
    body = b"select ?m where (?m <rel:metadataFor> ?r)"
    status, _, _ = request(app, "POST", "/query", body=body)
    assert status == 413
    status, _, out = request(app, "POST", "/query", body=body,
                             query="offset=0&limit=2")
    assert status == 200
    assert len(out.decode().splitlines()) == 2


@pytest.mark.parametrize("query", ["", "offset=0&limit=2"])
@pytest.mark.parametrize("text", [
    b"select ?s ?p ?o where (?s ?p ?o)",
    b"select ?a ?b where (?a ?p ?x) (?b ?q ?y)",
])
def test_over_cap_query_413_after_o_cap_bindings(repo, lookups, text, query):
    cap = 5
    app = GatewayApp(repo, query_row_cap=cap)
    seed_metadata(repo, 60)
    assert len(repo.graph) > CANDIDATES_PER_CAPPED_ROW * cap
    status, _, out = request(app, "POST", "/query", body=text, query=query)
    assert status == 413 and b"more than" in out
    assert sum(call.taken for call in lookups) <= CANDIDATES_PER_CAPPED_ROW * cap


def test_body_over_limit_413_unread(app):
    stream = BytesIO(b"select ?r where (?r <rel:memberOf> <info:nsdl/nsdl:2>)")
    status, _, _ = request(app, "POST", "/query", stream=stream,
                           content_length=str(MAX_BODY_BYTES + 1))
    assert status == 413
    assert stream.tell() == 0


@pytest.mark.parametrize("length", ["-1", "twelve"])
def test_negative_or_malformed_body_length_reads_nothing(app, length):
    stream = BytesIO(b"select ?r where (?r <rel:memberOf> <info:nsdl/nsdl:2>)")
    status, _, _ = request(app, "POST", "/query", stream=stream,
                           content_length=length)
    assert status == 400  # an empty query
    assert stream.tell() == 0


# -- mounted OAI endpoint


def test_oai_mounted_same_instance(repo, app):
    seed_metadata(repo, 2)
    status, headers, body = request(
        app, "GET", "/oai", query="verb=ListRecords&metadataPrefix=oai_dc")
    assert status == 200
    assert headers["Content-Type"].startswith("text/xml")
    direct = app.oai.handle_request(
        {"verb": "ListRecords", "metadataPrefix": "oai_dc"})
    ns = {"o": "http://www.openarchives.org/OAI/2.0/"}

    def identifiers(payload):
        return [h.findtext("o:identifier", namespaces=ns)
                for h in ET.fromstring(payload).findall(".//o:header", ns)]

    assert identifiers(body) == identifiers(direct)


def test_oai_post_lists_same_records_as_get(repo, app):
    seed_metadata(repo, 2)
    query = "verb=ListRecords&metadataPrefix=oai_dc"
    ns = {"o": "http://www.openarchives.org/OAI/2.0/"}

    def identifiers(payload):
        return [h.findtext("o:identifier", namespaces=ns)
                for h in ET.fromstring(payload).findall(".//o:header", ns)]

    status, headers, posted = request(app, "POST", "/oai", body=query.encode())
    assert status == 200 and headers["Content-Type"].startswith("text/xml")
    got = request(app, "GET", "/oai", query=query)[2]
    assert len(identifiers(posted)) == 2
    assert identifiers(posted) == identifiers(got)


def test_oai_post_body_not_utf8_is_bad_argument(app):
    status, _, body = request(app, "POST", "/oai", body=b"\xff\xfe")
    assert status == 200
    error = ET.fromstring(body).find("{http://www.openarchives.org/OAI/2.0/}error")
    assert error.get("code") == "badArgument"


@pytest.mark.parametrize("method, query, body", [
    ("GET", "verb=Identify&verb=Identify", ""),
    ("GET", "verb=ListRecords&metadataPrefix=oai_dc&metadataPrefix=nsdl_agg", ""),
    ("POST", "", "verb=ListRecords&metadataPrefix=oai_dc&metadataPrefix=nsdl_agg"),
    ("POST", "metadataPrefix=oai_dc", "verb=ListRecords&metadataPrefix=nsdl_agg"),
    ("POST", "verb=ListRecords", "verb=ListRecords&metadataPrefix=oai_dc"),
])
def test_oai_repeated_argument_is_bad_argument(repo, app, method, query, body):
    """OAI-PMH's badArgument covers a repeated argument, whether it repeats
    in the query string, in the body or across the two; the refusal echoes
    no argument."""
    seed_metadata(repo, 1)
    status, _, payload = request(app, method, "/oai", query=query, body=body.encode())
    assert status == 200
    response = ET.fromstring(payload)
    ns = {"o": "http://www.openarchives.org/OAI/2.0/"}
    assert response.find("o:error", ns).get("code") == "badArgument"
    assert response.find("o:request", ns).attrib == {}


def test_unknown_route_404(app):
    assert request(app, "GET", "/nope")[0] == 404


# -- config


def test_load_config_env_overrides(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"listen": "0.0.0.0:9999", "page_size": 10}')
    config = load_config(path, env={"OVERLAY_PAGE_SIZE": "77",
                                    "OVERLAY_REPOSITORY_ID": "env.local"})
    assert config.listen == "0.0.0.0:9999"
    assert config.page_size == 77
    assert config.repository_id == "env.local"
    assert config.host == "0.0.0.0" and config.port == 9999


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"listne": "oops"}')
    with pytest.raises(ValueError):
        load_config(path, env={})


def test_default_config():
    config = load_config(None, env={})
    assert config == GatewayConfig()
    assert config.oai_base_url() == "http://127.0.0.1:8080/oai"


def test_post_pid_with_trailing_newline_422(repo, app):
    donor = Repository()
    pid = put_object(donor, {"Content"})
    body = donor.export_object(pid).replace(
        f'pid="{pid}"'.encode(), f'pid="{pid}&#10;"'.encode())
    status, _, out = request(app, "POST", "/objects", body=body)
    assert status == 422 and b"malformed pid" in out
    assert repo.pids() == []
