"""Content-model operations over the canned topologies."""

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from overlay_repo import behaviors
from overlay_repo.errors import (
    BrandMissingError,
    FormatUnavailableError,
    ModelIntegrityError,
    NoMetadataError,
    NotFoundError,
    NotRepresentedError,
    OperationNotSupportedError,
    RepositoryError,
)
from overlay_repo.model import local_stream
from overlay_repo.records import parse_dc_entries
from overlay_repo.store import Repository

from support import (
    TickingClock,
    load_topology,
    nsdl_dc_record,
    oai_dc_record,
    put_object,
    record_stream,
)


@pytest.fixture
def basic(repo):
    return load_topology(repo, "basic_pair")


@pytest.fixture
def branded(repo):
    return load_topology(repo, "branding")


@pytest.fixture
def augmented(repo):
    return load_topology(repo, "augmented_metadata")


@pytest.fixture
def aggregated(repo):
    return load_topology(repo, "aggregation")


@pytest.fixture
def annotated(repo):
    return load_topology(repo, "annotation")


# -- metadata operations


def test_get_record_stored(repo, basic):
    record = behaviors.metadata_get_record(repo, basic["metadata"], "oai_dc")
    values = {e.name: e.value for e in parse_dc_entries(record.xml, "oai_dc")}
    assert values["title"] == "Introductory Oceanography"


def test_get_record_marc_stored_verbatim(repo, basic):
    record = behaviors.metadata_get_record(repo, basic["metadata"], "marcxml")
    assert b"MARC21" in record.xml


def test_get_record_crosswalked_indistinguishable(repo, basic):
    computed = behaviors.metadata_get_record(repo, basic["metadata"], "nsdl_dc")
    values = {e.name: e.value for e in parse_dc_entries(computed.xml, "nsdl_dc")}
    assert values["title"] == "Introductory Oceanography"
    # independently apply the transform table to the stored DC record
    from overlay_repo.records import MetadataRecord, crosswalk

    stored = behaviors.metadata_get_record(repo, basic["metadata"], "oai_dc")
    assert computed.xml == crosswalk(
        MetadataRecord("oai_dc", stored.xml), "nsdl_dc").xml


def test_get_record_unknown_format(repo, basic):
    with pytest.raises(FormatUnavailableError):
        behaviors.metadata_get_record(repo, basic["metadata"], "mods")


def test_get_provider(repo, branded):
    assert behaviors.metadata_get_provider(
        repo, branded["metadata"]) == branded["provider_role"]


def test_get_provider_missing_edge(repo, basic):
    with pytest.raises(ModelIntegrityError):
        behaviors.metadata_get_provider(repo, basic["metadata"])


def test_get_provider_after_repointing(repo, branded):
    other_role = put_object(repo, {"MetadataProvider"})
    metadata = repo.get_object(branded["metadata"])
    from support import rels_stream

    repointed = metadata.with_datastream(rels_stream(metadata.pid, [
        ("metadataFor", branded["resource"]),
        ("providedBy", other_role),
    ]))
    repo.put_object(repointed)
    assert behaviors.metadata_get_provider(repo, metadata.pid) == other_role
    dump = [(t.subject, str(t.predicate), t.object) for t in repo.graph.dump()]
    assert (metadata.pid, "providedBy", other_role) in dump
    assert (metadata.pid, "providedBy", branded["provider_role"]) not in dump


def test_get_provider_multiple_edges(repo, branded):
    second = put_object(repo, {"MetadataProvider"})
    metadata = repo.get_object(branded["metadata"])
    from support import rels_stream

    repo.put_object(metadata.with_datastream(rels_stream(metadata.pid, [
        ("metadataFor", branded["resource"]),
        ("providedBy", branded["provider_role"]),
        ("providedBy", second),
    ])))
    with pytest.raises(ModelIntegrityError):
        behaviors.metadata_get_provider(repo, metadata.pid)


def test_get_resource(repo, basic):
    assert behaviors.metadata_get_resource(
        repo, basic["metadata"]) == basic["resource"]


def test_get_resource_missing_edge(repo):
    orphan = put_object(repo, {"Metadata"})
    with pytest.raises(ModelIntegrityError):
        behaviors.metadata_get_resource(repo, orphan)


# -- resource operations


def test_get_handle_shape_and_idempotence(repo, basic):
    handle = behaviors.resource_get_handle(repo, basic["resource"])
    assert handle.startswith("hdl:2200/")
    assert behaviors.resource_get_handle(repo, basic["resource"]) == handle
    assert repo.resolve_handle(handle) == basic["resource"]


def test_get_handle_rejected_for_pure_metadata(repo, basic):
    with pytest.raises(OperationNotSupportedError):
        behaviors.resource_get_handle(repo, basic["metadata"])


def test_resource_get_metadata_two_records(repo, augmented):
    assert behaviors.resource_get_metadata(repo, augmented["resource"]) == [
        augmented["base_record"], augmented["augmenting_record"]]


def test_resource_get_metadata_empty(repo):
    lone = put_object(repo, {"Content"})
    assert behaviors.resource_get_metadata(repo, lone) == []


def test_resource_get_metadata_matches_dump_scan(repo, augmented):
    scanned = sorted(
        (t.subject for t in repo.graph.dump()
         if str(t.predicate) == "metadataFor" and t.object == augmented["resource"]),
        key=lambda p: int(p.split(":")[1]))
    assert behaviors.resource_get_metadata(repo, augmented["resource"]) == scanned


def test_memberships(repo, aggregated):
    assert behaviors.resource_memberships(
        repo, aggregated["member_one"]) == [aggregated["aggregator"]]


def test_multiple_memberships_sorted(repo):
    agg_b = put_object(repo, {"Aggregator"})
    agg_a = put_object(repo, {"Aggregator"})
    resource = put_object(repo, {"Content"},
                          edges=[("memberOf", agg_b), ("memberOf", agg_a)])
    assert behaviors.resource_memberships(repo, resource) == sorted(
        [agg_a, agg_b], key=lambda p: int(p.split(":")[1]))


# -- branding


def test_metadata_brand_is_provider_brand(repo, branded):
    brands = behaviors.show_brand(repo, branded["metadata"])
    assert [b.label for b in brands] == ["Example Metadata Service"]
    assert brands[0].holder == branded["provider_role"]


def test_resource_brand_is_aggregator_brand(repo, branded):
    brands = behaviors.show_brand(repo, branded["resource"])
    assert [b.label for b in brands] == ["Example Science Collection"]
    assert brands[0].holder == branded["aggregator_role"]


def test_brand_empty_without_memberships(repo):
    lone = put_object(repo, {"Content"})
    assert behaviors.show_brand(repo, lone) == []


def test_two_memberships_two_brands(repo):
    roles = []
    for label in ("One", "Two"):
        roles.append(put_object(
            repo, {"Aggregator"},
            streams=[local_stream("BRAND", "application/xml",
                                  behaviors.build_brand_doc(label))]))
    resource = put_object(repo, {"Content"},
                          edges=[("memberOf", r) for r in roles])
    assert [b.label for b in behaviors.show_brand(repo, resource)] == ["One", "Two"]


def test_brand_missing_stream_names_role(repo):
    bare_role = put_object(repo, {"Aggregator"})
    resource = put_object(repo, {"Content"}, edges=[("memberOf", bare_role)])
    with pytest.raises(BrandMissingError) as excinfo:
        behaviors.show_brand(repo, resource)
    assert bare_role in str(excinfo.value)


def test_metadata_brand_ignores_resource_memberships(repo, branded):
    before = behaviors.show_brand(repo, branded["metadata"])
    extra_role = put_object(
        repo, {"Aggregator"},
        streams=[local_stream("BRAND", "application/xml",
                              behaviors.build_brand_doc("Elsewhere"))])
    resource = repo.get_object(branded["resource"])
    from support import rels_stream

    repo.put_object(resource.with_datastream(rels_stream(resource.pid, [
        ("memberOf", branded["aggregator_role"]),
        ("memberOf", extra_role),
    ])))
    assert behaviors.show_brand(repo, branded["metadata"]) == before


# -- content


def test_show_content_local(repo, basic):
    rep = behaviors.content_show_content(repo, basic["resource"])
    assert rep.media_type == "text/html"
    assert b"oceanography" in rep.body


def test_show_content_remote_fetch():
    served = {"http://remote.example/page": b"<html>remote body</html>"}
    repo = Repository(url_fetcher=lambda url, timeout: served[url])
    from overlay_repo.model import remote_stream

    pid = put_object(repo, {"Content"},
                     streams=[remote_stream("CONTENT", "text/html",
                                            "http://remote.example/page")])
    rep = behaviors.content_show_content(repo, pid)
    assert rep.body == b"<html>remote body</html>"


def test_show_content_remote_failure():
    def failing(url, timeout):
        raise OSError("connection refused")

    repo = Repository(url_fetcher=failing)
    from overlay_repo.errors import DisseminationError
    from overlay_repo.model import remote_stream

    pid = put_object(repo, {"Content"},
                     streams=[remote_stream("CONTENT", "text/html", "http://x/")])
    with pytest.raises(DisseminationError):
        behaviors.content_show_content(repo, pid)


def test_show_content_missing_stream(repo):
    pid = put_object(repo, {"Content"})
    with pytest.raises(NotFoundError):
        behaviors.content_show_content(repo, pid)


# -- gold records


def test_gold_fold_order_and_override(repo, augmented):
    gold = behaviors.content_get_gold(repo, augmented["resource"])
    assert gold.contributors == (
        augmented["base_record"], augmented["augmenting_record"])
    values = {}
    for e in parse_dc_entries(gold.xml, "nsdl_dc"):
        values.setdefault(e.name, []).append(e.value)
    assert values["title"] == ["Photosynthesis Basics (Revised)"]
    assert values["subject"] == ["Botany", "Plant physiology"]
    assert values["date"] == ["2004-03-05"]  # base record's, normalized
    assert f"<contributor>info:nsdl/{augmented['base_record']}</contributor>" \
        in gold.xml.decode()


def test_gold_single_record_identity(repo, branded):
    gold = behaviors.content_get_gold(repo, branded["resource"])
    expected = behaviors.metadata_get_record(
        repo, branded["metadata"], "nsdl_dc").xml
    assert gold.xml.replace(
        b"  <contributors>\n"
        + f"    <contributor>info:nsdl/{branded['metadata']}</contributor>\n".encode()
        + b"  </contributors>\n", b"") == expected


def test_gold_parses_each_contributor_once(repo, augmented, xml_work):
    """The oai_dc-only contributor is normalized from its own entries, not
    crosswalked to nsdl_dc bytes and parsed back."""
    stored = {m: repo.get_object(m).record_formats() for m in (
        augmented["base_record"], augmented["augmenting_record"])}
    assert sorted(stored.values()) == [["nsdl_dc"], ["oai_dc"]]
    gold = behaviors.content_get_gold(repo, augmented["resource"])
    assert len(gold.contributors) == 2
    assert xml_work["dc_parses"] == 2


def test_gold_requires_metadata(repo):
    lone = put_object(repo, {"Content"})
    with pytest.raises(NoMetadataError):
        behaviors.content_get_gold(repo, lone)


def test_gold_cycle_detected(repo):
    resource = put_object(repo, {"Content"})
    first = repo.mint_pid()
    second = repo.mint_pid()
    record = record_stream("nsdl_dc", nsdl_dc_record(("title", "A")))
    put_object(repo, {"Metadata"}, streams=[record], pid=first,
               edges=[("metadataFor", resource), ("augments", second)],
               strict=False)
    put_object(repo, {"Metadata"}, streams=[record], pid=second,
               edges=[("metadataFor", resource), ("augments", first)])
    with pytest.raises(ModelIntegrityError):
        behaviors.content_get_gold(repo, resource)


def test_gold_skips_unfoldable_formats(repo):
    resource = put_object(repo, {"Content"})
    put_object(repo, {"Metadata"},
               streams=[record_stream("marcxml", b"<record/>")],
               edges=[("metadataFor", resource)])
    with pytest.raises(NoMetadataError):
        behaviors.content_get_gold(repo, resource)


def test_get_gold_folds_once_per_write_to_its_inputs(repo, augmented, xml_work):
    resource = augmented["resource"]
    first = repo.disseminate(resource, "getGold").body
    assert xml_work["dc_parses"] == 2
    assert repo.disseminate(resource, "getGold").body == first
    assert xml_work["dc_parses"] == 2
    describing = repo.get_object(augmented["augmenting_record"])
    repo.put_object(describing)
    assert repo.disseminate(resource, "getGold").body \
        == behaviors.content_get_gold(repo, resource).xml
    assert xml_work["dc_parses"] == 6  # the fold served, then the fresh one


def test_kept_golds_hold_under_concurrent_writes(repo, augmented):
    """Readers that fill the gold map while writers replace the describing
    records leave only golds equal to a fresh fold."""
    resource = augmented["resource"]
    describing = [augmented["base_record"], augmented["augmenting_record"]]
    errors = []

    def writer(n):
        try:
            for i in range(40):
                obj = repo.get_object(describing[(n + i) % 2])
                repo.put_object(obj.with_datastream(record_stream(
                    "nsdl_dc", nsdl_dc_record(("title", f"T{n}.{i}")))))
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    def reader():
        try:
            for _ in range(100):
                repo.disseminate(resource, "getGold")
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(n,)) for n in range(2)]
        threads += [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    for pid, xml in repo._golds.items():
        assert xml == behaviors.content_get_gold(repo, pid).xml
    assert repo.disseminate(resource, "getGold").body \
        == behaviors.content_get_gold(repo, resource).xml


# one write or getGold each: (op, which, *args); writes are lenient, so
# that edges to deleted objects stay
_GOLD_OPS = st.lists(st.one_of(
    st.tuples(st.just("put"), st.integers(0, 3),
              st.lists(st.integers(0, 2), max_size=2),  # metadataFor resources
              st.lists(st.integers(0, 3), max_size=2),  # augments metadata
              st.sampled_from(["nsdl_dc", "oai_dc", "marcxml"])),
    st.tuples(st.just("delete"), st.integers(0, 3)),
    st.tuples(st.just("restore"), st.integers(0, 3), st.integers(0, 9)),
    st.tuples(st.just("touch"), st.integers(0, 2)),
    st.tuples(st.just("gold"), st.integers(0, 2)),
    st.tuples(st.just("rebuild"), st.just(0)),
), max_size=30)


@settings(max_examples=200, deadline=None)
@given(_GOLD_OPS)
def test_kept_golds_equal_fresh_folds(ops):
    """After any sequence of puts, deletes and restores of metadata, of
    its metadataFor and augments edges and of resources, every gold the
    repository keeps equals a fresh fold, and getGold answers as one."""
    repo = Repository(clock=TickingClock())
    resources = [put_object(repo, {"Content"}) for _ in range(3)]
    metadata = [repo.mint_pid() for _ in range(4)]
    versions = {m: [] for m in metadata}
    for n, (op, at, *args) in enumerate(ops):
        if op == "put":
            described, augmented, format_name = args
            record = {"nsdl_dc": nsdl_dc_record, "oai_dc": oai_dc_record}.get(
                format_name, lambda *entries: b"<record/>")(("title", f"T{n}"))
            put_object(repo, {"Metadata"}, pid=metadata[at], strict=False,
                       streams=[record_stream(format_name, record)],
                       edges=[("metadataFor", resources[r]) for r in described]
                       + [("augments", metadata[m]) for m in augmented])
            versions[metadata[at]].append(repo.get_object(metadata[at]))
        elif op == "delete" and versions[metadata[at]]:
            repo.delete_object(metadata[at])
        elif op == "restore" and versions[metadata[at]]:
            kept = versions[metadata[at]]
            repo.restore_object(kept[args[0] % len(kept)], strict=False)
        elif op == "touch":
            repo.put_object(repo.get_object(resources[at]))
        elif op == "gold":
            try:
                repo.disseminate(resources[at], "getGold")
            except RepositoryError:
                pass
        elif op == "rebuild":
            repo.rebuild_graph()
        for pid, xml in repo._golds.items():
            assert xml == behaviors.content_get_gold(repo, pid).xml
    for resource in resources:
        try:
            fresh = behaviors.content_get_gold(repo, resource).xml
        except RepositoryError as exc:
            with pytest.raises(type(exc)):
                repo.disseminate(resource, "getGold")
        else:
            assert repo.disseminate(resource, "getGold").body == fresh


# -- aggregations


def test_list_members(repo, aggregated):
    assert behaviors.aggregator_list_members(repo, aggregated["aggregator"]) == [
        aggregated["member_one"], aggregated["member_two"]]


def test_list_members_empty(repo):
    empty = put_object(repo, {"Aggregator"})
    assert behaviors.aggregator_list_members(repo, empty) == []


def test_list_members_paging_complete():
    repo = Repository()
    aggregator = put_object(repo, {"Aggregator"})
    members = {put_object(repo, {"Content"}, edges=[("memberOf", aggregator)])
               for _ in range(137)}
    paged = []
    offset = 0
    while True:
        page = behaviors.aggregator_list_members(repo, aggregator, offset, 10)
        if not page:
            break
        paged.extend(page)
        offset += 10
    assert len(paged) == len(members)
    assert set(paged) == members
    assert len(set(paged)) == len(paged)


def test_get_representation(repo, aggregated):
    assert behaviors.aggregator_get_representation(
        repo, aggregated["aggregator"]) == aggregated["surrogate"]


def test_get_representation_missing(repo):
    empty = put_object(repo, {"Aggregator"})
    with pytest.raises(NotRepresentedError):
        behaviors.aggregator_get_representation(repo, empty)


def test_nested_aggregation_surrogate_is_member_elsewhere(repo, aggregated):
    other = put_object(repo, {"Aggregator"})
    surrogate = repo.get_object(aggregated["surrogate"])
    from support import rels_stream

    repo.put_object(surrogate.with_datastream(
        rels_stream(surrogate.pid, [("memberOf", other)])))
    assert behaviors.resource_memberships(
        repo, aggregated["surrogate"]) == [other]
    assert behaviors.aggregator_get_representation(
        repo, aggregated["aggregator"]) == aggregated["surrogate"]


def test_list_provided(repo, branded):
    assert behaviors.mdprovider_list_provided(
        repo, branded["provider_role"]) == [branded["metadata"]]


def test_list_provided_empty_and_paged(repo):
    role = put_object(repo, {"MetadataProvider"})
    assert behaviors.mdprovider_list_provided(repo, role) == []
    provided = [put_object(repo, {"Metadata"}, edges=[("providedBy", role)])
                for _ in range(25)]
    pages = [behaviors.mdprovider_list_provided(repo, role, o, 10)
             for o in (0, 10, 20)]
    assert [p for page in pages for p in page] == sorted(
        provided, key=lambda p: int(p.split(":")[1]))


# -- annotations


def test_annotations_for_review(repo, annotated):
    assert behaviors.annotations_for(repo, annotated["primary"]) == [
        annotated["review"]]


def test_annotations_empty(repo):
    lone = put_object(repo, {"Content"})
    assert behaviors.annotations_for(repo, lone) == []


def test_annotation_chain_is_single_hop(repo, annotated):
    meta_review = put_object(repo, {"Content"},
                             edges=[("annotates", annotated["review"])])
    assert behaviors.annotations_for(repo, annotated["primary"]) == [
        annotated["review"]]
    assert behaviors.annotations_for(repo, annotated["review"]) == [meta_review]


# -- polymorphism


def test_polymorphic_object_answers_both_operation_sets(repo):
    resource = put_object(repo, {"Content"})
    dual = put_object(
        repo, {"Metadata", "Content"},
        streams=[
            record_stream("oai_dc", oai_dc_record(
                ("title", "Dual"), ("identifier", "http://x/dual"))),
            local_stream("CONTENT", "text/plain", b"dual body"),
        ],
        edges=[("metadataFor", resource)])
    assert repo.disseminate(dual, "showContent").body == b"dual body"
    assert b"Dual" in repo.disseminate(dual, "getRecord", {"format": "oai_dc"}).body
    # metadata-typed objects brand via their provider, never via memberships
    with pytest.raises(ModelIntegrityError):
        behaviors.show_brand(repo, dual)


# -- the dissemination gate


def test_dissemination_gate_follows_the_operation_table():
    """Over the five canned topologies, one aggregation role deleted:
    every object answers every operation its type satisfies (whatever the
    operation then finds), refuses the others as unsupported, and only a
    tombstone itself answers as deleted."""
    from overlay_repo.errors import ObjectDeletedError
    from overlay_repo.ontology import satisfies_type
    from support import TOPOLOGIES

    repo = Repository(url_fetcher=lambda url, timeout: b"")
    for name in TOPOLOGIES:
        load_topology(repo, name)
    repo.delete_object(TOPOLOGIES["branding"]["aggregator_role"])
    ops = {op: type_name for op, (type_name, _) in behaviors.OPERATIONS.items()}
    ops.update({alias: ops[op] for alias, op in behaviors.ALIASES.items()})
    for obj in list(repo.objects()):
        for op, type_name in ops.items():
            try:
                repo.disseminate(obj.pid, op, {"format": "oai_dc"})
                outcome = None
            except RepositoryError as exc:
                outcome = exc
            if obj.state == "deleted":
                assert isinstance(outcome, ObjectDeletedError), (obj.pid, op)
                continue
            assert not isinstance(outcome, ObjectDeletedError), (obj.pid, op, outcome)
            assert isinstance(outcome, OperationNotSupportedError) \
                == (not satisfies_type(obj.behaviors, type_name)), (obj.pid, op, outcome)
