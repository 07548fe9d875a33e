"""Object store behavior: minting, lifecycle, dissemination, round-trips."""

import base64
import json
import shutil
import string
import sys
import threading
from collections import Counter
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings, strategies as st

from overlay_repo.errors import (
    DisseminationError,
    NotFoundError,
    ObjectDeletedError,
    OperationNotSupportedError,
    StoreError,
    ValidationError,
)
from overlay_repo.graph import parse_query, serialize_rels
from overlay_repo.model import (
    CONTENT_DS,
    SOURCE_DS,
    DigitalObject,
    build_source_doc,
    local_stream,
    parse_source_doc,
    pid_number,
    remote_stream,
)
from overlay_repo.store import Repository

from support import START, oai_dc_record, put_object, record_stream, rels_stream


def test_fresh_store_mints_first_pid(repo):
    assert repo.mint_pid() == "nsdl:1"


def test_counter_arithmetic(repo):
    for _ in range(3):
        repo.mint_pid()
    assert repo.mint_pid() == "nsdl:4"


def test_deleted_pid_is_never_reused(repo):
    mutation_log = []
    for _ in range(4):
        pid = repo.mint_pid()
        mutation_log.append(("mint", pid))
    put_object(repo, {"Content"}, pid="nsdl:4")
    mutation_log.append(("put", "nsdl:4"))
    repo.delete_object("nsdl:4")
    mutation_log.append(("delete", "nsdl:4"))
    pid = repo.mint_pid()
    mutation_log.append(("mint", pid))
    assert pid == "nsdl:5"
    minted = [p for op, p in mutation_log if op == "mint"]
    assert len(minted) == len(set(minted))


def test_put_new_object_empty_rels(repo):
    pid = put_object(repo, {"Content"})
    assert repo.get_object(pid).version == 1
    assert repo.graph.dump() == []


def test_put_with_rels_makes_triple_visible(repo):
    resource = put_object(repo, {"Content"})
    metadata = put_object(repo, {"Metadata"}, edges=[("metadataFor", resource)])
    dump = [(t.subject, str(t.predicate), t.object) for t in repo.graph.dump()]
    assert dump == [(metadata, "metadataFor", resource)]


def test_re_put_identical_bumps_version_same_triples(repo):
    resource = put_object(repo, {"Content"})
    metadata = put_object(repo, {"Metadata"}, edges=[("metadataFor", resource)])
    before = repo.graph.dump()
    obj = repo.get_object(metadata)
    assert repo.put_object(obj) == obj.version + 1
    assert repo.graph.dump() == before


def test_get_unknown_pid(repo):
    with pytest.raises(NotFoundError):
        repo.get_object("nsdl:999999")


def test_delete_then_get_returns_tombstone(repo):
    pid = put_object(repo, {"Content"})
    repo.delete_object(pid)
    tomb = repo.get_object(pid)
    assert tomb.state == "deleted"
    assert tomb.datastreams == ()
    assert tomb.behaviors == frozenset()


def test_double_delete_is_idempotent(repo):
    pid = put_object(repo, {"Content"})
    repo.delete_object(pid)
    version = repo.get_object(pid).version
    repo.delete_object(pid)
    assert repo.get_object(pid).version == version


def test_delete_metadata_retracts_its_triples(repo):
    resource = put_object(repo, {"Content"})
    metadata = put_object(repo, {"Metadata"}, edges=[("metadataFor", resource)])
    repo.delete_object(metadata)
    assert all(t.subject != metadata for t in repo.graph.dump())
    listing = repo.resolve(f"info:nsdl/{resource}/getMetadata")
    assert metadata not in listing.body.decode()


def test_delete_unknown_pid(repo):
    with pytest.raises(NotFoundError):
        repo.delete_object("nsdl:77")


def test_put_requires_minted_pid(repo):
    with pytest.raises(ValidationError):
        repo.put_object(DigitalObject(pid="nsdl:50", behaviors=frozenset({"Content"})))


def test_unknown_behavior_definition_rejected(repo):
    pid = repo.mint_pid()
    with pytest.raises(ValidationError) as excinfo:
        repo.put_object(DigitalObject(pid=pid, behaviors=frozenset({"Wizard"})))
    assert "Wizard" in str(excinfo.value)


def test_rejected_put_changes_nothing(repo):
    resource = put_object(repo, {"Content"})
    snapshot_objects = {p: repo.export_object(p) for p in repo.pids()}
    snapshot_graph = repo.graph.dump()
    bad = repo.mint_pid()
    with pytest.raises(ValidationError) as excinfo:
        # memberOf needs an Aggregator-typed target; resource is Content.
        put_object(repo, {"Content"}, pid=bad, edges=[("memberOf", resource)])
    assert excinfo.value.violations
    assert repo.graph.dump() == snapshot_graph
    assert {p: repo.export_object(p) for p in repo.pids()} == snapshot_objects
    with pytest.raises(NotFoundError):
        repo.get_object(bad)


def test_resolve_stored_record(repo):
    resource = put_object(repo, {"Content"})
    record = oai_dc_record(("title", "T"), ("identifier", "http://x.org/1"))
    metadata = put_object(
        repo, {"Metadata"},
        streams=[record_stream("oai_dc", record)],
        edges=[("metadataFor", resource)])
    rep = repo.resolve(f"info:nsdl/{metadata}/getRecord?format=oai_dc")
    assert rep.body == record
    assert rep.media_type == "application/xml"


def test_resolve_inverse_metadata_listing(repo):
    resource = put_object(repo, {"Content"})
    metadata = put_object(repo, {"Metadata"}, edges=[("metadataFor", resource)])
    rep = repo.resolve(f"info:nsdl/{resource}/getMetadata")
    assert rep.media_type == "text/uri-list"
    assert rep.body.decode().splitlines() == [f"info:nsdl/{metadata}"]


def test_resolve_unbound_operation(repo):
    pid = put_object(repo, {"Metadata"})
    with pytest.raises(OperationNotSupportedError):
        repo.resolve(f"info:nsdl/{pid}/listMembers")


def test_resolve_deleted_object(repo):
    pid = put_object(repo, {"Content"})
    repo.delete_object(pid)
    with pytest.raises(ObjectDeletedError):
        repo.resolve(f"info:nsdl/{pid}")


def test_resolve_without_op_gives_profile(repo):
    pid = put_object(repo, {"Content"},
                     streams=[local_stream("CONTENT", "text/html", b"<p>x</p>")])
    rep = repo.resolve(f"info:nsdl/{pid}")
    text = rep.body.decode()
    assert f'pid="{pid}"' in text
    assert 'dsId="CONTENT"' in text
    assert '<behavior name="Content"/>' in text


def test_resolve_matches_direct_dispatch(repo):
    pid = put_object(repo, {"Content"},
                     streams=[local_stream("CONTENT", "text/html", b"<p>x</p>")])
    via_uri = repo.resolve(f"info:nsdl/{pid}/showContent")
    via_dispatch = repo.disseminate(pid, "showContent")
    assert via_uri == via_dispatch


def test_operation_alias_accepted(repo):
    pid = put_object(repo, {"Content"},
                     streams=[local_stream("CONTENT", "text/html", b"<p>x</p>")])
    assert (repo.resolve(f"info:nsdl/{pid}/displayContent").body
            == repo.resolve(f"info:nsdl/{pid}/showContent").body)


def test_export_import_round_trip(repo):
    resource = put_object(repo, {"Content"})
    metadata = put_object(
        repo, {"Metadata"},
        streams=[record_stream("oai_dc", oai_dc_record(("title", "T"),
                                                       ("identifier", "http://x/1")))],
        edges=[("metadataFor", resource)])
    for pid in (resource, metadata):
        doc = repo.export_object(pid)
        other = Repository()
        other.import_object(doc, strict=False)
        assert other.export_object(pid) == doc


_ds_ids = st.text(alphabet=string.ascii_letters + string.digits + ".",
                  min_size=1, max_size=12).filter(
    lambda s: s != "RELS" and not s.startswith("REC."))
_streams = st.lists(
    st.builds(
        lambda ds_id, remote, payload, url: (ds_id, remote, payload, url),
        _ds_ids,
        st.booleans(),
        st.binary(max_size=48),
        st.sampled_from(["http://a.example/x", "https://b.example/y"]),
    ),
    max_size=4, unique_by=lambda t: t[0])
_stamps = st.datetimes(
    min_value=datetime(2000, 1, 1), max_value=datetime(2030, 1, 1)
).map(lambda dt: dt.replace(microsecond=0, tzinfo=timezone.utc))


@settings(max_examples=60, deadline=None)
@given(
    behaviors=st.frozensets(
        st.sampled_from(sorted({"Metadata", "Agent", "Content", "Aggregator",
                                "MetadataProvider", "Role"})), max_size=3),
    streams=_streams,
    stamp=_stamps,
    version=st.integers(min_value=1, max_value=50),
    with_handle=st.booleans(),
    self_edge=st.booleans(),
)
def test_round_trip_property(behaviors, streams, stamp, version, with_handle,
                             self_edge):
    """import(export(p)) re-exports byte-identically for arbitrary objects."""
    pid = "nsdl:7"
    datastreams = [
        remote_stream(ds_id, "application/octet-stream", url) if remote
        else local_stream(ds_id, "application/octet-stream", payload)
        for ds_id, remote, payload, url in streams
    ]
    if self_edge:
        datastreams.append(
            rels_stream(pid, [("http://example.org/v#", "relates", pid)]))
    resource_typed = bool(behaviors & {"Agent", "Content"})
    obj = DigitalObject(
        pid=pid,
        handle="hdl:2200/00777" if (with_handle and resource_typed) else None,
        behaviors=behaviors,
        datastreams=tuple(datastreams),
        last_modified=stamp,
        version=version,
    )
    first = Repository()
    first.restore_object(obj, strict=False)
    doc = first.export_object(pid)
    second = Repository()
    second.import_object(doc, strict=False)
    assert second.export_object(pid) == doc


def test_export_remote_datastream(repo):
    pid = put_object(repo, {"Content"},
                     streams=[remote_stream("CONTENT", "text/html", "http://x.org/page")])
    doc = repo.export_object(pid).decode()
    assert 'url="http://x.org/page"' in doc
    assert "</datastream>" not in doc


def test_export_tombstone_minimal(repo):
    pid = put_object(repo, {"Content"}, handle="hdl:2200/00001")
    repo.delete_object(pid)
    doc = repo.export_object(pid).decode()
    assert 'state="deleted"' in doc
    assert "<datastream" not in doc and "<behavior" not in doc
    other = Repository()
    other.import_object(doc.encode(), strict=False)
    assert other.export_object(pid) == doc.encode()


def test_import_collision_replaces_with_monotone_version(repo):
    pid = put_object(repo, {"Content"})
    for _ in range(3):
        repo.put_object(repo.get_object(pid))
    donor = Repository()
    donor.restore_object(DigitalObject(pid=pid, version=1,
                                       behaviors=frozenset({"Content"})))
    old_version = repo.get_object(pid).version
    repo.import_object(donor.export_object(pid))
    assert repo.get_object(pid).version == old_version + 1


def test_import_with_ontology_violation_rejected(repo):
    donor = Repository()
    aggregator = put_object(donor, {"Aggregator"})
    member = put_object(donor, {"Metadata"}, edges=[("memberOf", aggregator)],
                        strict=False)
    doc = donor.export_object(member)
    with pytest.raises(ValidationError):
        repo.import_object(doc, strict=True)


def test_import_advances_pid_counter(repo):
    donor = Repository()
    donor.restore_object(DigitalObject(pid="nsdl:40",
                                       behaviors=frozenset({"Content"})))
    repo.import_object(donor.export_object("nsdl:40"), strict=False)
    assert repo.mint_pid() == "nsdl:41"


def test_rejected_import_keeps_counters(repo):
    resource = put_object(repo, {"Content"})
    bad = DigitalObject(pid="nsdl:50", handle="hdl:2200/00050",
                        behaviors=frozenset({"Content"}),
                        datastreams=(rels_stream("nsdl:50",
                                                 [("metadataFor", resource)]),))
    with pytest.raises(ValidationError):
        repo.restore_object(bad, strict=True)
    assert repo.assign_handle(resource) == "hdl:2200/00001"
    assert repo.mint_pid() == "nsdl:2"


def test_pids_follow_pid_order_not_write_order(repo):
    first, second = repo.mint_pid(), repo.mint_pid()
    put_object(repo, {"Content"}, pid=second)
    put_object(repo, {"Content"}, pid=first)
    repo.restore_object(DigitalObject(pid="nsdl:10", behaviors=frozenset({"Content"})))
    repo.restore_object(DigitalObject(pid="nsdl:9", behaviors=frozenset({"Content"})))
    put_object(repo, {"Content"}, pid=second)
    assert repo.pids() == ["nsdl:1", "nsdl:2", "nsdl:9", "nsdl:10"]


def test_handle_mapping_survives_delete(repo):
    pid = put_object(repo, {"Content"}, handle="hdl:2200/00009")
    repo.delete_object(pid)
    assert repo.resolve_handle("hdl:2200/00009") == pid
    assert repo.get_object(pid).handle == "hdl:2200/00009"


def test_handle_conflict_rejected(repo):
    put_object(repo, {"Content"}, handle="hdl:2200/00009")
    with pytest.raises(ValidationError):
        put_object(repo, {"Content"}, handle="hdl:2200/00009")


def test_handle_is_permanent(repo):
    pid = put_object(repo, {"Content"}, handle="hdl:2200/00009")
    obj = repo.get_object(pid)
    from dataclasses import replace

    with pytest.raises(ValidationError):
        repo.put_object(replace(obj, handle="hdl:2200/00010"))
    # re-put with the same handle (or none, which inherits) stays fine
    repo.put_object(replace(obj, handle=None))
    repo.put_object(repo.get_object(pid))
    assert repo.get_object(pid).handle == "hdl:2200/00009"
    assert repo.resolve_handle("hdl:2200/00009") == pid


def test_persistence_across_reopen(tmp_path, clock):
    repo = Repository(tmp_path / "data", clock=clock)
    resource = put_object(repo, {"Content"},
                          streams=[local_stream("CONTENT", "text/html", b"<p>hi</p>")])
    metadata = put_object(repo, {"Metadata"}, edges=[("metadataFor", resource)])
    deleted = put_object(repo, {"Content"})
    repo.delete_object(deleted)
    exports = {p: repo.export_object(p) for p in repo.pids()}
    dump = repo.graph.dump()

    reopened = Repository(tmp_path / "data", clock=clock)
    assert reopened.pids() == repo.pids()
    assert {p: reopened.export_object(p) for p in reopened.pids()} == exports
    assert [reopened.get_object(p) for p in reopened.pids()] \
        == [repo.get_object(p) for p in repo.pids()]
    assert reopened.graph.dump() == dump
    assert reopened.get_object(deleted).state == "deleted"
    # counter survives restart: next mint continues after the last pid
    assert reopened.mint_pid() == "nsdl:4"


def test_query_after_reload_matches(tmp_path, clock):
    repo = Repository(tmp_path / "d", clock=clock)
    resource = put_object(repo, {"Content"})
    metadata = put_object(repo, {"Metadata"}, edges=[("metadataFor", resource)])
    reopened = Repository(tmp_path / "d", clock=clock)
    q = parse_query(f"select ?m where (?m <rel:metadataFor> <info:nsdl/{resource}>)")
    assert reopened.graph.query(q) == [(metadata,)]


def test_concurrent_writers_and_readers(repo):
    resource = put_object(repo, {"Content"})
    errors = []

    def writer(start):
        try:
            for _ in range(20):
                put_object(repo, {"Metadata"}, edges=[("metadataFor", resource)])
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    def reader():
        try:
            for _ in range(50):
                repo.graph.dump()
                repo.resolve(f"info:nsdl/{resource}/getMetadata")
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
    threads += [threading.Thread(target=reader) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    listing = repo.resolve(f"info:nsdl/{resource}/getMetadata").body.decode()
    assert len(listing.splitlines()) == 80


def test_put_parses_rels_once(tmp_path, clock, rels_parses):
    repo = Repository(tmp_path / "d", clock=clock)
    resource = put_object(repo, {"Content"})
    metadata = put_object(repo, {"Metadata"}, edges=[("metadataFor", resource)])
    assert rels_parses == [metadata]


def test_export_emits_stored_rels_without_parsing(repo, rels_parses):
    resource = put_object(repo, {"Content"})
    metadata = put_object(repo, {"Metadata"}, edges=[("metadataFor", resource)])
    rels_parses.clear()
    repo.export_object(metadata)
    assert rels_parses == []


def test_a_handed_out_object_stored_again_keeps_its_triples_unparsed(repo, rels_parses):
    """An object the repository handed out holds the graph's marker, not
    RELS bytes: storing it again (a handle assignment, a put) keeps the
    relationships its pid asserts at that write, read from the graph. So an
    earlier snapshot restored after they changed keeps the new ones."""
    old, new = put_object(repo, {"Aggregator"}), put_object(repo, {"Aggregator"})
    pid = put_object(repo, {"Content"}, edges=[("memberOf", old)])
    rels_parses.clear()
    repo.assign_handle(pid)
    snapshot = repo.get_object(pid)
    repo.put_object(snapshot)
    assert rels_parses == []
    assert repo.graph.objects_of(pid, "memberOf") == [old]
    repo.put_object(repo.get_object(pid).with_datastream(
        rels_stream(pid, [("memberOf", new)])))
    repo.restore_object(snapshot)
    assert repo.graph.objects_of(pid, "memberOf") == [new]
    assert f'rdf:resource="info:nsdl/{new}"'.encode() in repo.export_object(pid)


@pytest.mark.parametrize("path", ["put", "import"])
def test_a_repeated_property_is_one_triple_in_graph_record_and_export(
        tmp_path, clock, path):
    """A fragment that states one relationship twice asserts one fact: the
    graph, the record file and the export all hold it once."""
    repo = Repository(tmp_path / "d", clock=clock)
    aggregator = put_object(repo, {"Aggregator"})
    pid = put_object(repo, {"Content"}, edges=[("memberOf", aggregator)])
    record = tmp_path / "d" / "objects" / f"{pid_number(pid)}.xml"
    once = record.read_bytes()
    line = b'<rel:memberOf rdf:resource="info:nsdl/%s"/>\n' % aggregator.encode()
    twice = serialize_rels(pid, repo.graph.triples_asserted_by(pid)).replace(
        line.strip(), line.strip() + b"\n" + line.strip())
    if path == "put":
        repo.put_object(repo.get_object(pid).with_datastream(
            local_stream("RELS", "application/rdf+xml", twice)))
    else:
        repo.import_object(once.replace(line, line + b"      " + line))
    assert len(repo.graph.triples_asserted_by(pid)) == 1
    assert record.read_bytes().count(b"memberOf") == 1
    assert repo.export_object(pid) == record.read_bytes()


def test_fetch_remote_refuses_a_url_breaking_the_url_rule():
    """The second guard behind Datastream.validate: a stream that slipped
    past it is still not read."""
    repo = Repository(url_fetcher=lambda url, timeout: b"local file bytes")
    assert repo.fetch_remote("https://example.org/x") == b"local file bytes"
    for url in ("file:///etc/hostname", "data:,secret", "/etc/hostname"):
        with pytest.raises(DisseminationError, match="refused"):
            repo.fetch_remote(url)


def test_reopen_parses_each_rels_once(tmp_path, clock, rels_parses):
    repo = Repository(tmp_path / "d", clock=clock)
    resource = put_object(repo, {"Content"})
    described = [put_object(repo, {"Metadata"}, edges=[("metadataFor", resource)])
                 for _ in range(3)]
    repo.delete_object(described[0])
    rels_parses.clear()
    reopened = Repository(tmp_path / "d", clock=clock)
    assert rels_parses == described[1:]
    assert reopened.graph.dump() == repo.graph.dump()


def test_reopen_names_record_with_bad_rels(tmp_path, clock):
    repo = Repository(tmp_path / "d", clock=clock)
    pid = put_object(repo, {"Content"}, edges=[("http://example.org/v#", "cites", "nsdl:9")])
    path = tmp_path / "d" / "objects" / "1.xml"
    path.write_bytes(path.read_bytes().replace(
        f"info:nsdl/{pid}".encode(), b"info:nsdl/nsdl:8", 1))
    with pytest.raises(StoreError, match="1.xml.*not the owning object"):
        Repository(tmp_path / "d", clock=clock)


def test_reopen_names_record_with_malformed_rec_payload(tmp_path, clock):
    repo = Repository(tmp_path / "d", clock=clock)
    good = oai_dc_record(("title", "T"), ("identifier", "http://x/1"))
    put_object(repo, {"Metadata"}, streams=[record_stream("oai_dc", good)])
    path = tmp_path / "d" / "objects" / "1.xml"
    path.write_bytes(path.read_bytes().replace(
        base64.b64encode(good), base64.b64encode(good[:-20])))
    with pytest.raises(StoreError, match="1.xml.*REC.oai_dc not well-formed"):
        Repository(tmp_path / "d", clock=clock)


def test_rec_streams_must_be_local(repo):
    with pytest.raises(ValidationError, match="REC.oai_dc must be local"):
        put_object(repo, {"Metadata"}, streams=[
            remote_stream("REC.oai_dc", "application/xml", "http://x.example/r")])
    assert repo.pids() == []


def test_restore_rewrites_counters_only_when_they_advance(tmp_path, clock,
                                                          atomic_writes):
    repo = Repository(tmp_path / "d", clock=clock)
    state = tmp_path / "d" / "state.json"
    repo.restore_object(DigitalObject(pid="nsdl:5", handle="hdl:2200/00003",
                                      behaviors=frozenset({"Content"})))
    assert atomic_writes.count(state) == 0
    repo.restore_object(repo.get_object("nsdl:5"))
    repo.restore_object(DigitalObject(pid="nsdl:2", behaviors=frozenset({"Content"})))
    assert atomic_writes.count(state) == 0
    assert Repository(tmp_path / "d", clock=clock).mint_pid() == "nsdl:6"


def test_assign_handle_skips_handles_put_explicitly(repo):
    first = put_object(repo, {"Content"}, handle="hdl:2200/00001")
    second = put_object(repo, {"Content"})
    assert repo.assign_handle(second) == "hdl:2200/00002"
    assert repo.resolve_handle("hdl:2200/00001") == first
    assert repo.resolve_handle("hdl:2200/00002") == second


def test_tombstone_import_cannot_take_another_objects_handle(repo):
    owner = put_object(repo, {"Content"}, handle="hdl:2200/00001")
    tomb = DigitalObject(pid="nsdl:7", state="deleted", handle="hdl:2200/00001")
    with pytest.raises(ValidationError, match="already registered to nsdl:1"):
        repo.restore_object(tomb)
    assert repo.resolve_handle("hdl:2200/00001") == owner
    assert repo.pids() == [owner]


def _snapshot(repo):
    """Everything a write may change: the object table, the graph, the
    handle table and both counters."""
    return ({p: repo.export_object(p) for p in repo.pids()}, repo.graph.dump(),
            dict(repo._handles), repo._pid_counter, repo._handle_counter)


_WRITES = {
    "put": lambda repo, pid: repo.put_object(repo.get_object(pid)),
    "restore": lambda repo, pid: repo.restore_object(DigitalObject(
        pid="nsdl:9", handle="hdl:2200/00005", behaviors=frozenset({"Content"}))),
    "delete": lambda repo, pid: repo.delete_object(pid),
    "assign_handle": lambda repo, pid: repo.assign_handle(pid),
}


@pytest.mark.parametrize("write", sorted(_WRITES))
def test_failed_record_write_changes_nothing(tmp_path, clock, monkeypatch, write):
    repo = Repository(tmp_path / "d", clock=clock)
    resource = put_object(repo, {"Content"})
    put_object(repo, {"Metadata"}, edges=[("metadataFor", resource)])
    before = _snapshot(repo)
    original = Repository._atomic_write

    def failing(path, data):
        if path.parent.name == "objects":
            raise StoreError(f"write to {path} failed: disk full")
        original(path, data)

    monkeypatch.setattr(Repository, "_atomic_write", staticmethod(failing))
    with pytest.raises(StoreError, match="disk full"):
        _WRITES[write](repo, resource)
    assert _snapshot(repo) == before
    assert _snapshot(Repository(tmp_path / "d", clock=clock)) == before
    monkeypatch.undo()
    assert repo.assign_handle(resource) == "hdl:2200/00001"
    assert repo.mint_pid() == "nsdl:3"


def test_state_file_failure_does_not_fail_stored_writes(tmp_path, clock,
                                                       monkeypatch):
    """A write that moves the counters past its own pid or handle leaves
    state.json alone: the record it wrote carries them back on open."""
    repo = Repository(tmp_path / "d", clock=clock)
    resource = put_object(repo, {"Content"})
    minted = repo.mint_pid()
    original = Repository._atomic_write

    def failing(path, data):
        if path.name == "state.json":
            raise StoreError(f"write to {path} failed: disk full")
        original(path, data)

    monkeypatch.setattr(Repository, "_atomic_write", staticmethod(failing))
    repo.restore_object(DigitalObject(pid="nsdl:9", behaviors=frozenset({"Content"})))
    repo.put_object(DigitalObject(pid=minted, handle="hdl:2200/00005",
                                  behaviors=frozenset({"Content"})))
    assert repo.assign_handle(resource) == "hdl:2200/00006"
    monkeypatch.undo()
    reopened = Repository(tmp_path / "d", clock=clock)
    assert _snapshot(reopened) == _snapshot(repo)
    for store in (repo, reopened):
        assert store.mint_pid() == "nsdl:10"


@pytest.mark.parametrize("stamp", [
    datetime(2005, 3, 5, 12), datetime(2005, 3, 5, 12, 0, 0, 500, tzinfo=timezone.utc)],
    ids=["no time zone", "fraction of a second"])
def test_stamp_a_record_cannot_hold_is_refused_before_the_write(tmp_path, clock,
                                                                stamp):
    """A record holds a lastModified of whole seconds in UTC: a stamp it
    cannot hold is refused by the check, before any record is written."""
    repo = Repository(tmp_path / "d", clock=clock)
    put_object(repo, {"Content"})
    before = _snapshot(repo)
    with pytest.raises(ValidationError, match="lastModified"):
        repo.restore_object(DigitalObject(pid="nsdl:2", behaviors=frozenset({"Content"}),
                                          last_modified=stamp))
    assert not (tmp_path / "d" / "objects" / "2.xml").exists()
    assert _snapshot(repo) == before
    assert _snapshot(Repository(tmp_path / "d", clock=clock)) == before


@pytest.mark.parametrize("stale", [{"handle_counter": 1}, {}],
                         ids=["stale handle_counter", "no handle_counter"])
def test_state_file_holds_the_pid_mark_alone(tmp_path, clock, stale):
    """state.json holds pid_counter only; the handle counter comes back
    from the records, whatever an older state file says of it."""
    repo = Repository(tmp_path / "d", clock=clock)
    for _ in range(3):
        repo.assign_handle(put_object(repo, {"Content"}))
    state = tmp_path / "d" / "state.json"
    assert json.loads(state.read_text("utf-8")) == {"pid_counter": 3}
    state.write_text(json.dumps({"pid_counter": 3, **stale}))
    reopened = Repository(tmp_path / "d", clock=clock)
    assert reopened.assign_handle(put_object(reopened, {"Content"})) == "hdl:2200/00004"


def _kept_index(repo):
    """The datestamp index, the active aggregations and the stored-format
    counts as the store keeps them."""
    return list(repo._stamps), set(repo._aggregators), dict(repo._format_counts)


def _recomputed_index(repo):
    """The same three, recomputed from the object table."""
    objects = [repo.get_object(p) for p in repo.pids()]
    active = [o for o in objects if o.state == "active"]
    return (sorted((o.last_modified, pid_number(o.pid)) for o in objects),
            {o.pid for o in active if "Aggregator" in o.behaviors},
            dict(Counter(f for o in active for f in o.record_formats())))


def _kept_owners(repo):
    """The pid answering for each CONTENT URL and each SOURCE key the
    store keeps."""
    return ({url: repo.content_pid_for_url(url) for url in repo._content_by_url},
            {key: repo.source_pid(*key) for key in repo._sources})


def _recomputed_owners(repo):
    """The first holder in pid order of each URL (a Content object's
    remote CONTENT stream) and each SOURCE (provider, identifier),
    recomputed from the object table."""
    urls, sources = {}, {}
    for obj in (repo.get_object(p) for p in repo.pids()):
        if obj.state != "active":
            continue
        content, source = obj.datastream(CONTENT_DS), obj.datastream(SOURCE_DS)
        if content is not None and content.kind == "remote" \
                and "Content" in obj.behaviors:
            urls.setdefault(content.url, obj.pid)
        if source is not None:
            sources.setdefault(parse_source_doc(source.payload)[:2], obj.pid)
    return urls, sources


def _source_stream(oai_id):
    return local_stream(SOURCE_DS, "application/xml",
                        build_source_doc("p", oai_id, START))


END = datetime(9999, 1, 1, tzinfo=timezone.utc)


def test_a_write_parses_its_source_once(repo, monkeypatch):
    """A write parses the written object's SOURCE document, and the old
    version's only when the key moves: a pid that already holds the new
    key held it by the old version."""
    parsed = []
    original = parse_source_doc

    def counting(payload):
        parsed.append(payload)
        return original(payload)

    monkeypatch.setattr("overlay_repo.store.parse_source_doc", counting)
    marc = record_stream("marcxml", b"<r/>")
    pid = put_object(repo, {"Metadata"}, streams=[marc, _source_stream("oai:1")])
    assert len(parsed) == 1
    for _ in range(3):
        repo.put_object(repo.get_object(pid))
    assert len(parsed) == 4
    put_object(repo, {"Metadata"}, streams=[marc, _source_stream("oai:2")], pid=pid)
    assert len(parsed) == 6  # the new key and the old, which is dropped
    assert (repo.source_pid("p", "oai:1"), repo.source_pid("p", "oai:2")) == (None, pid)
    repo.delete_object(pid)
    assert len(parsed) == 7
    assert repo.source_pid("p", "oai:2") is None


def test_index_holds_under_concurrent_writes(repo):
    """Writers that create, re-put and delete while readers take windows
    leave the kept index equal to one recomputed from the object table."""
    resource = put_object(repo, {"Content"})
    errors = []

    def writer():
        try:
            for i in range(30):
                pid = put_object(repo, {"Aggregator"} if i % 3 else {"Metadata"},
                                 streams=[record_stream("marcxml", b"<r/>"),
                                          _source_stream(f"oai:{i % 3}")])
                repo.put_object(repo.get_object(resource))
                if i % 2:
                    repo.delete_object(pid)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    def reader():
        try:
            for _ in range(100):
                aggregators, formats = repo.aggregators(), repo.stored_formats()
                stamped = repo.stamped(repo.earliest_datestamp(), END)
                assert len(aggregators) <= len(stamped) and formats <= {"marcxml"}
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(repo.pids()) == 121
    assert _kept_index(repo) == _recomputed_index(repo)
    assert _kept_owners(repo) == _recomputed_owners(repo)


def test_write_sequence_reopens_equal(tmp_path, clock):
    repo = Repository(tmp_path / "d", clock=clock)
    resource = put_object(repo, {"Content"})
    explicit = put_object(repo, {"Content"}, handle="hdl:2200/00009")
    metadata = put_object(
        repo, {"Metadata"}, edges=[("metadataFor", resource)],
        streams=[record_stream("oai_dc", oai_dc_record(("title", "T")))])
    repo.restore_object(DigitalObject(pid="nsdl:12", behaviors=frozenset({"Aggregator"})))
    repo.restore_object(DigitalObject(
        pid="nsdl:8", handle="hdl:2200/00004", behaviors=frozenset({"Content"}),
        datastreams=(rels_stream("nsdl:8", [("annotates", resource)]),)))
    assigned = repo.assign_handle(resource)
    repo.delete_object(metadata)
    repo.put_object(repo.get_object(explicit))
    repo.put_object(DigitalObject(
        pid=metadata, behaviors=frozenset({"Metadata"}),
        datastreams=(rels_stream(metadata, [("metadataFor", explicit)]),)))
    repo.restore_object(DigitalObject(
        pid="nsdl:15", state="deleted", handle="hdl:2200/00002", version=3))
    handles = ["hdl:2200/00002", "hdl:2200/00004", "hdl:2200/00009", assigned]

    copy = tmp_path / "copy"
    shutil.copytree(tmp_path / "d", copy)
    reopened = Repository(copy, clock=clock)
    assert _snapshot(reopened) == _snapshot(repo)
    assert _kept_index(reopened) == _kept_index(repo) == _recomputed_index(repo)
    assert _kept_owners(reopened) == _kept_owners(repo) == _recomputed_owners(repo)
    # the metadata's second put dropped its REC stream
    assert _kept_index(repo)[1:] == ({"nsdl:12"}, {})
    assert [reopened.resolve_handle(h) for h in handles] \
        == [repo.resolve_handle(h) for h in handles] \
        == ["nsdl:15", "nsdl:8", explicit, resource]
    dump = repo.graph.dump()
    repo.rebuild_graph()
    assert repo.graph.dump() == dump
    for store in (repo, reopened):
        pid = put_object(store, {"Content"})
        assert (pid, store.assign_handle(pid)) == ("nsdl:16", "hdl:2200/00011")


def _holder(pid, url, oai_id):
    return DigitalObject(pid=pid, behaviors=frozenset({"Content"}), datastreams=(
        remote_stream(CONTENT_DS, "text/html", url), _source_stream(oai_id)))


@pytest.mark.parametrize("case", ["delete", "change", "restore lower"])
def test_shared_url_and_source_answer_as_a_reopen(tmp_path, clock, case):
    """A URL or SOURCE key two active objects hold answers its lowest
    remaining holder, live as after a reopen."""
    repo = Repository(tmp_path / "d", clock=clock)
    one, two = repo.mint_pid(), repo.mint_pid()
    if case == "restore lower":
        repo.put_object(_holder(two, "http://a/", "oai:a"))
        repo.restore_object(_holder(one, "http://a/", "oai:a"))
        expected = [one, None]
    else:
        repo.put_object(_holder(one, "http://a/", "oai:a"))
        repo.put_object(_holder(two, "http://a/", "oai:a"))
        if case == "delete":
            repo.delete_object(one)
            expected = [two, None]
        else:
            repo.put_object(_holder(one, "http://b/", "oai:b"))
            expected = [two, one]
    reopened = Repository(tmp_path / "d", clock=clock)
    for store in (repo, reopened):
        assert [store.content_pid_for_url(u) for u in ("http://a/", "http://b/")] \
            == [store.source_pid("p", i) for i in ("oai:a", "oai:b")] == expected
        assert _kept_owners(store) == _recomputed_owners(store)


def test_pid_with_trailing_newline_is_refused(tmp_path, clock):
    repo = Repository(tmp_path / "d", clock=clock)
    pid = put_object(repo, {"Content"}, streams=[local_stream("CONTENT", "text/plain", b"one")])
    with pytest.raises(ValidationError, match="malformed pid"):
        put_object(repo, {"Content"}, pid=pid + "\n",
                   streams=[local_stream("CONTENT", "text/plain", b"two")])
    reopened = Repository(tmp_path / "d", clock=clock)
    assert reopened.pids() == repo.pids() == [pid]
    assert reopened.resolve(f"info:nsdl/{pid}/showContent").body == b"one"


def test_pid_with_leading_zero_is_refused(tmp_path, clock):
    repo = Repository(tmp_path / "d", clock=clock)
    pid = put_object(repo, {"Content"}, streams=[local_stream("CONTENT", "text/plain", b"one")])
    with pytest.raises(ValidationError, match="malformed pid"):
        put_object(repo, {"Content"}, pid="nsdl:01",
                   streams=[local_stream("CONTENT", "text/plain", b"two")])
    reopened = Repository(tmp_path / "d", clock=clock)
    assert reopened.pids() == repo.pids() == [pid]
    assert reopened.resolve(f"info:nsdl/{pid}/showContent").body == b"one"


def test_reopen_names_record_holding_pid_with_leading_zero(tmp_path, clock):
    repo = Repository(tmp_path / "d", clock=clock)
    put_object(repo, {"Content"})
    path = tmp_path / "d" / "objects" / "1.xml"
    path.write_bytes(path.read_bytes().replace(b'pid="nsdl:1"', b'pid="nsdl:01"'))
    with pytest.raises(StoreError, match="1.xml.*malformed pid 'nsdl:01'"):
        Repository(tmp_path / "d", clock=clock)


def test_tombstone_document_with_rels_is_refused(repo):
    repo.restore_object(DigitalObject(pid="nsdl:5", state="deleted", version=1))
    tomb = repo.export_object("nsdl:5")
    rels = serialize_rels("nsdl:5", []).decode()
    doc = tomb.replace(b"/>\n", f">\n  <rels>{rels}</rels>\n</digitalObject>\n".encode())
    with pytest.raises(ValidationError, match="tombstone documents must be empty"):
        repo.import_object(doc)
