"""Harvester: provisioning, incremental ingest, dedup, deletions, recovery."""

import logging
import re
from dataclasses import replace
from datetime import timedelta
from pathlib import Path
from xml.etree import ElementTree as ET

import pytest

from overlay_repo import behaviors, canonical
from overlay_repo.errors import HarvestProtocolError, StoreError
from overlay_repo.harvest import (
    HarvestState,
    Harvester,
    IngestReport,
    ProviderConfig,
    load_provider_configs,
    load_state,
    save_provider_configs,
    save_state,
)
from overlay_repo.model import SOURCE_DS, parse_source_doc
from overlay_repo.oai import OAI_NS, OaiProvider
from overlay_repo.store import Repository

from support import (
    START, StubOaiProvider, format_stamp, oai_dc_record, put_object, record_stream,
    stub_record)


@pytest.fixture
def stub():
    return StubOaiProvider()


@pytest.fixture
def harvester(repo, stub):
    return Harvester(repo, transport=stub.transport)


@pytest.fixture
def cfg(harvester):
    return harvester.register_provider(
        ProviderConfig(name="alpha", base_url="http://alpha.example/oai",
                       brand_label="Alpha Collection"))


SEED_BASE = START - timedelta(days=1)


def seed(stub, name, count, start_minute=0):
    for i in range(count):
        stub.add(f"oai:{name}:{i}",
                 SEED_BASE + timedelta(minutes=start_minute + i),
                 stub_record(name, i))


def test_register_provisions_agent_and_roles(repo, harvester):
    cfg = harvester.register_provider(
        ProviderConfig(name="p", base_url="http://p/oai", brand_label="P!"))
    agent = repo.get_object(cfg.agent_pid)
    assert agent.behaviors == {"Agent"}
    assert agent.handle is not None
    roles = repo.graph.objects_of(cfg.agent_pid, "hasRole")
    assert sorted(roles) == sorted([cfg.provider_role_pid, cfg.aggregator_role_pid])
    assert behaviors.role_get_brand(repo, cfg.provider_role_pid).label == "P!"
    assert behaviors.role_get_brand(repo, cfg.aggregator_role_pid).label == "P!"


def test_brand_values_read_back_as_given(repo, harvester, stub):
    """A label and a logo URL holding "\\r", "&" and "<" come back as given
    from getBrand, from showBrand on a harvested resource and as the set
    name in ListSets."""
    label, logo = "A\r& <B>", "http://logo.example/a?b=1&c=<2>\r"
    cfg = harvester.register_provider(ProviderConfig(
        name="p", base_url="http://p/oai", brand_label=label, brand_logo_url=logo))
    seed(stub, "p", 1)
    harvester.harvest(cfg)
    resource = repo.content_pid_for_url("http://resources.example/p/0")
    brand = ET.fromstring(repo.disseminate(cfg.provider_role_pid, "getBrand").body)
    assert (brand.findtext("label"), brand.findtext("logoUrl")) == (label, logo)
    shown = ET.fromstring(repo.disseminate(resource, "showBrand").body)
    assert [(b.findtext("label"), b.findtext("logoUrl")) for b in shown] == [(label, logo)]
    sets = ET.fromstring(OaiProvider(repo).handle_request({"verb": "ListSets"}))
    assert [name.text for name in sets.iter(f"{{{OAI_NS}}}setName")] == [label]


def test_register_is_idempotent_once_provisioned(harvester, cfg):
    assert harvester.register_provider(cfg) is cfg


def test_fresh_harvest_creates_records(repo, harvester, stub, cfg):
    seed(stub, "alpha", 3)
    report, state = harvester.harvest(cfg)
    assert (report.harvested, report.created, report.updated, report.rejected) \
        == (3, 3, 0, 0)
    assert state.last_success_until is not None
    metadata_pids = [o.pid for o in repo.active_objects()
                     if "Metadata" in o.behaviors]
    assert len(metadata_pids) == 3
    for m in metadata_pids:
        obj = repo.get_object(m)
        assert obj.record_formats() == ["nsdl_dc", "oai_dc"]
        provider, oai_id, _ = parse_source_doc(obj.datastream(SOURCE_DS).payload)
        assert provider == "alpha" and oai_id.startswith("oai:alpha:")
        assert behaviors.metadata_get_provider(repo, m) == cfg.provider_role_pid
        resource = behaviors.metadata_get_resource(repo, m)
        r = repo.get_object(resource)
        assert "Content" in r.behaviors and r.handle is not None
        assert behaviors.resource_memberships(repo, resource) == [
            cfg.aggregator_role_pid]


def test_incremental_harvest_picks_up_only_changes(repo, harvester, stub, cfg, clock):
    seed(stub, "alpha", 3)
    _, state = harvester.harvest(cfg)
    # one record updated upstream after the first pass
    stub.add("oai:alpha:1", clock.now,
             stub_record("alpha", 1, title="Updated title"))
    report, state = harvester.harvest(cfg, state)
    assert (report.harvested, report.updated, report.created) == (1, 1, 0)
    # repository record table matches the provider's live table
    stored = {
        parse_source_doc(o.datastream(SOURCE_DS).payload)[1]
        for o in repo.active_objects() if "Metadata" in o.behaviors
    }
    assert stored == stub.live_identifiers()
    updated = repo.source_pid("alpha", "oai:alpha:1")
    record = behaviors.metadata_get_record(repo, updated, "oai_dc")
    assert b"Updated title" in record.xml


def test_stored_record_is_lossless_modulo_canonicalization(repo, harvester,
                                                           stub, cfg):
    from support import canonical_xml

    original = stub_record("alpha", 0)
    stub.add("oai:alpha:0", SEED_BASE, original)
    harvester.harvest(cfg)
    stored = repo.get_object(repo.source_pid("alpha", "oai:alpha:0"))
    assert canonical_xml(stored.datastream("REC.oai_dc").payload) \
        == canonical_xml(original)


def test_resumption_chain_complete_without_duplicates(repo, harvester, stub, cfg):
    stub.page_size = 250
    seed(stub, "alpha", 1000)
    report, _ = harvester.harvest(cfg)
    assert report.created == 1000 and report.harvested == 1000
    stored = {
        parse_source_doc(o.datastream(SOURCE_DS).payload)[1]
        for o in repo.active_objects() if "Metadata" in o.behaviors
    }
    assert stored == stub.live_identifiers()
    assert len(stored) == 1000


def test_cross_provider_resource_dedup(repo, harvester, stub, cfg):
    shared_url = "http://resources.example/shared/1"
    seed(stub, "alpha", 1)
    stub.add("oai:alpha:shared", SEED_BASE + timedelta(minutes=30),
             stub_record("alpha", 99, url=shared_url))
    harvester.harvest(cfg)

    other_stub = StubOaiProvider()
    other_stub.add("oai:beta:shared", SEED_BASE + timedelta(minutes=31),
                   stub_record("beta", 1, url=shared_url))
    other = Harvester(repo, transport=other_stub.transport)
    other_cfg = other.register_provider(
        ProviderConfig(name="beta", base_url="http://beta.example/oai"))
    other.harvest(other_cfg)

    resource = repo.content_pid_for_url(shared_url)
    described_by = behaviors.resource_get_metadata(repo, resource)
    assert len(described_by) == 2
    assert sorted(behaviors.resource_memberships(repo, resource)) == sorted(
        [cfg.aggregator_role_pid, other_cfg.aggregator_role_pid])
    contents = [o for o in repo.active_objects()
                if "Content" in o.behaviors
                and o.datastream("CONTENT") is not None
                and o.datastream("CONTENT").url == shared_url]
    assert len(contents) == 1


def test_reharvest_unchanged_bumps_version_not_graph(repo, harvester, stub, cfg):
    seed(stub, "alpha", 2)
    _, _ = harvester.harvest(cfg)
    before = repo.graph.dump()
    report, _ = harvester.harvest(cfg)  # fresh state: full window again
    assert report.updated == 2 and report.created == 0
    assert repo.graph.dump() == before


def test_record_without_absolute_url_rejected(repo, harvester, stub, cfg):
    stub.add("oai:alpha:bad", SEED_BASE,
             oai_dc_record(("title", "No URL"), ("identifier", "local-only-id")))
    report, _ = harvester.harvest(cfg)
    assert report.rejected == 1
    assert report.rejects == [("oai:alpha:bad", "no resource key")]


def test_record_without_identifier_rejected(repo, harvester, stub, cfg):
    stub.add("oai:alpha:noid", SEED_BASE, oai_dc_record(("title", "Nothing")))
    report, _ = harvester.harvest(cfg)
    assert report.rejected == 1
    assert report.rejects[0][1] == "no identifier"


def test_invalid_record_rejected_harvest_continues(repo, harvester, stub, cfg):
    stub.add("oai:alpha:bad", SEED_BASE + timedelta(minutes=1),
             b'<wrong xmlns="urn:not-dc"/>')
    seed(stub, "alpha", 1)
    report, _ = harvester.harvest(cfg)
    assert report.created == 1 and report.rejected == 1
    report.check()


def test_unparseable_envelope_aborts(repo, harvester, cfg):
    broken = Harvester(repo, transport=lambda url: b"this is not xml")
    state = HarvestState()
    with pytest.raises(HarvestProtocolError):
        broken.harvest(cfg, state)
    assert state.consecutive_failures == 1


def test_protocol_error_aborts_and_counts_failure(repo, harvester, stub, cfg):
    stub.error_code = "badArgument"
    state = HarvestState()
    with pytest.raises(HarvestProtocolError):
        harvester.harvest(cfg, state)
    assert state.consecutive_failures == 1
    assert state.last_success_until is None


def test_network_failure_mid_chain_is_resumable(repo, harvester, stub, cfg):
    stub.page_size = 2
    seed(stub, "alpha", 5)
    stub.fail_requests_after = 2  # first two pages land, third request fails
    state = HarvestState()
    with pytest.raises(HarvestProtocolError):
        harvester.harvest(cfg, state)
    assert state.pending_resumption is not None
    assert state.consecutive_failures == 1
    landed = len([o for o in repo.active_objects() if "Metadata" in o.behaviors])
    assert landed == 4

    stub.fail_requests_after = None
    report, state = harvester.harvest(cfg, state)
    assert report.created == 1
    assert state.pending_resumption is None
    assert state.consecutive_failures == 0
    total = len([o for o in repo.active_objects() if "Metadata" in o.behaviors])
    assert total == 5


def test_bad_resumption_token_restarts_from_last_success(repo, harvester, stub, cfg, clock):
    """An upstream badResumptionToken drops the pending chain and counts
    one failure; the next harvest runs the window from last_success_until."""
    seed(stub, "alpha", 2)
    _, state = harvester.harvest(cfg)
    last = state.last_success_until
    for i in range(3):
        stub.add(f"oai:alpha:new{i}", clock.now, stub_record("alpha", 10 + i))
    state.pending_resumption, state.pending_until = "t|2|-|-", clock.now
    stub.error_code = "badResumptionToken"
    with pytest.raises(HarvestProtocolError):
        harvester.harvest(cfg, state)
    assert (state.pending_resumption, state.pending_until) == (None, None)
    assert (state.consecutive_failures, state.last_success_until) == (1, last)
    stub.error_code = None
    report, state = harvester.harvest(cfg, state)
    assert (report.harvested, report.created) == (3, 3)
    assert state.consecutive_failures == 0 and state.last_success_until > last


def test_last_success_until_is_monotone(repo, harvester, stub, cfg):
    seed(stub, "alpha", 1)
    _, state = harvester.harvest(cfg)
    first = state.last_success_until
    stub.error_code = "badArgument"
    with pytest.raises(HarvestProtocolError):
        harvester.harvest(cfg, state)
    assert state.last_success_until == first
    stub.error_code = None
    _, state = harvester.harvest(cfg, state)
    assert state.last_success_until >= first


def test_delete_one_of_two_records_on_shared_resource(repo, harvester, stub, cfg, clock):
    shared = "http://resources.example/shared/2"
    stub.add("oai:alpha:a", SEED_BASE, stub_record("alpha", 1, url=shared))
    other_stub = StubOaiProvider()
    other_stub.add("oai:beta:b", SEED_BASE, stub_record("beta", 2, url=shared))
    other = Harvester(repo, transport=other_stub.transport)
    other_cfg = other.register_provider(
        ProviderConfig(name="beta", base_url="http://beta.example/oai"))
    harvester.harvest(cfg)
    other.harvest(other_cfg)

    resource = repo.content_pid_for_url(shared)
    kept = repo.source_pid("beta", "oai:beta:b")
    stub.delete("oai:alpha:a", clock.now)
    harvester.harvest(cfg)  # fresh state on purpose: full window

    assert behaviors.resource_get_metadata(repo, resource) == [kept]
    assert behaviors.resource_memberships(repo, resource) == [
        other_cfg.aggregator_role_pid]
    assert repo.get_object(resource).state == "active"


def test_delete_unknown_identifier_is_noop(repo, harvester, stub, cfg):
    stub.delete("oai:alpha:ghost", SEED_BASE)
    report, _ = harvester.harvest(cfg)
    assert report.deleted == 1
    assert [o for o in repo.active_objects() if "Metadata" in o.behaviors] == []


def test_delete_sole_record_removes_membership(repo, harvester, stub, cfg, clock):
    seed(stub, "alpha", 1)
    harvester.harvest(cfg)
    resource = behaviors.metadata_get_resource(
        repo, repo.source_pid("alpha", "oai:alpha:0"))
    stub.delete("oai:alpha:0", clock.now)
    harvester.harvest(cfg)
    assert behaviors.resource_get_metadata(repo, resource) == []
    assert behaviors.resource_memberships(repo, resource) == []
    tombstone = repo.source_pid("alpha", "oai:alpha:0")
    assert tombstone is None  # tombstoned records leave the source index


def test_moved_record_leaves_old_resource_out_of_the_aggregation(
        repo, harvester, stub, cfg, clock):
    """A record harvested again with another dc:identifier URL describes a
    new resource; the old one stays, but leaves the provider's aggregation
    unless another of the provider's records still describes it."""
    old_url, new_url, kept_url = (f"http://resources.example/moved/{i}" for i in range(3))
    stub.add("oai:alpha:a", SEED_BASE, stub_record("alpha", 1, url=old_url))
    stub.add("oai:alpha:b", SEED_BASE, stub_record("alpha", 2, url=kept_url))
    stub.add("oai:alpha:c", SEED_BASE, stub_record("alpha", 3, url=kept_url))
    harvester.harvest(cfg)
    old, kept = repo.content_pid_for_url(old_url), repo.content_pid_for_url(kept_url)
    stub.add("oai:alpha:a", clock.now, stub_record("alpha", 1, url=new_url))
    stub.add("oai:alpha:b", clock.now, stub_record("alpha", 2, url=new_url))
    report, _ = harvester.harvest(cfg)  # fresh state on purpose: full window
    assert report.updated == 3
    new = repo.content_pid_for_url(new_url)
    assert behaviors.aggregator_list_members(repo, cfg.aggregator_role_pid) \
        == [kept, new]
    assert behaviors.resource_memberships(repo, old) == []
    assert behaviors.resource_get_metadata(repo, old) == []
    assert repo.get_object(old).state == "active"
    assert repo.validate_graph() == []


def test_harvest_idempotent_on_unchanged_provider(repo, harvester, stub, cfg):
    seed(stub, "alpha", 4)
    _, state = harvester.harvest(cfg)
    before = repo.graph.dump()
    report, _ = harvester.harvest(cfg, state)
    assert report.harvested == 0
    assert repo.graph.dump() == before


def test_set_scoped_harvest_between_instances(repo, clock):
    """A downstream instance can mirror one aggregation of an upstream
    instance by harvesting with a set argument."""
    from overlay_repo.model import local_stream, pid_number
    from overlay_repo.oai import OaiProvider
    from overlay_repo.behaviors import build_brand_doc
    from support import provider_transport, put_object, seed_metadata

    upstream = Repository(clock=clock)
    aggregator = put_object(
        upstream, {"Aggregator"},
        streams=[local_stream("BRAND", "application/xml",
                              build_brand_doc("Scoped"))])
    inside = seed_metadata(upstream, 3, aggregator=aggregator)
    seed_metadata(upstream, 4, start_index=50)  # outside the set
    oai = OaiProvider(upstream, repository_id="up.local")

    downstream = Harvester(repo, transport=provider_transport(oai))
    cfg = downstream.register_provider(ProviderConfig(
        name="up", base_url="http://up.local/oai",
        set_spec=str(pid_number(aggregator))))
    report, _ = downstream.harvest(cfg)
    assert report.created == len(inside)
    mirrored = {
        parse_source_doc(o.datastream(SOURCE_DS).payload)[1]
        for o in repo.active_objects() if "Metadata" in o.behaviors
    }
    assert mirrored == {oai.oai_identifier(p) for p in inside}


def test_extract_resource_key_prefers_first_absolute_url(repo, harvester, stub, cfg):
    stub.add("oai:alpha:keys", SEED_BASE, oai_dc_record(
        ("identifier", "local-1"),
        ("identifier", "http://a.example/x"),
        ("identifier", "http://b.example/y")))
    harvester.harvest(cfg)
    metadata = repo.source_pid("alpha", "oai:alpha:keys")
    assert behaviors.metadata_get_resource(repo, metadata) \
        == repo.content_pid_for_url("http://a.example/x")
    assert repo.content_pid_for_url("http://b.example/y") is None


def test_extract_resource_key_passthrough_format(repo, harvester, stub):
    cfg = harvester.register_provider(ProviderConfig(
        name="deep", base_url="http://deep.example/oai", format="mods"))
    stub.add("oai:deep:1", SEED_BASE,
             b'<mods xmlns:dc="http://purl.org/dc/elements/1.1/">'
             b"<dc:identifier>http://deep.example/z</dc:identifier></mods>")
    harvester.harvest(cfg)
    metadata = repo.source_pid("deep", "oai:deep:1")
    assert behaviors.metadata_get_resource(repo, metadata) \
        == repo.content_pid_for_url("http://deep.example/z")


def test_config_and_state_round_trip(tmp_path, cfg):
    path = tmp_path / "providers.json"
    save_provider_configs(path, {cfg.name: cfg})
    loaded = load_provider_configs(path)
    assert loaded[cfg.name] == cfg

    state = HarvestState(last_success_until=START, consecutive_failures=2,
                         pending_resumption="t|250|-|-", pending_until=START)
    save_state(tmp_path, cfg.name, state)
    assert load_state(tmp_path, cfg.name) == state
    assert load_state(tmp_path, "missing") == HarvestState()


def test_failed_state_write_keeps_previous_file(tmp_path, cfg, monkeypatch):
    providers = tmp_path / "providers.json"
    save_provider_configs(providers, {cfg.name: cfg})
    state = HarvestState(last_success_until=START)
    save_state(tmp_path, cfg.name, state)

    def torn_write(path, data, *args, **kwargs):
        raw = data.encode() if isinstance(data, str) else data
        with open(path, "wb") as out:
            out.write(raw[:len(raw) // 2])
        raise OSError("device full")

    with monkeypatch.context() as m:
        m.setattr(Path, "write_bytes", torn_write)
        m.setattr(Path, "write_text", torn_write)
        with pytest.raises(StoreError):
            save_provider_configs(providers, {})
        with pytest.raises(StoreError):
            save_state(tmp_path, cfg.name, replace(state, consecutive_failures=3))
    assert load_provider_configs(providers) == {cfg.name: cfg}
    assert load_state(tmp_path, cfg.name) == state
    assert not list(tmp_path.rglob("*.tmp"))


def test_state_files_go_through_the_stores_writer(tmp_path, cfg, atomic_writes):
    save_provider_configs(tmp_path / "providers.json", {cfg.name: cfg})
    save_state(tmp_path, cfg.name, HarvestState(last_success_until=START))
    assert atomic_writes == [tmp_path / "providers.json",
                             tmp_path / "harvest_state" / f"{cfg.name}.json"]


def test_harvested_objects_equal_their_records(tmp_path, clock, stub):
    """A stored object holds its streams in its record's order: it equals
    its reopened self and the import of its export."""
    repo = Repository(tmp_path / "d", clock=clock)
    harvester = Harvester(repo, transport=stub.transport)
    cfg = harvester.register_provider(
        ProviderConfig(name="alpha", base_url="http://alpha.example/oai"))
    seed(stub, "alpha", 3)
    assert harvester.harvest(cfg)[0].created == 3
    reopened = Repository(tmp_path / "d", clock=clock)
    for pid in repo.pids():
        assert repo.get_object(pid) == reopened.get_object(pid) \
            == canonical.import_object(repo.export_object(pid))[0]


def test_record_without_header_or_identifier_is_a_reject(repo, cfg):
    """Nothing keys a record without a header or an identifier: each is
    counted as a reject, and none creates, updates or deletes an object."""
    stamp = format_stamp(SEED_BASE)
    records = [
        *(f"<record><header><identifier/><datestamp>{stamp}</datestamp></header>"
          f"<metadata>{stub_record('alpha', i).decode()}</metadata></record>"
          for i in (0, 1)),
        f"<record><metadata>{stub_record('alpha', 2).decode()}</metadata></record>",
        f'<record><header status="deleted"><identifier> </identifier>'
        f"<datestamp>{stamp}</datestamp></header></record>"]
    page = StubOaiProvider._envelope(f"<ListRecords>{''.join(records)}</ListRecords>")
    before = {pid: repo.get_object(pid) for pid in repo.pids()}
    report, _ = Harvester(repo, transport=lambda url: page).harvest(cfg)
    assert (report.harvested, report.created, report.updated, report.deleted,
            report.rejected) == (4, 0, 0, 0, 4)
    assert report.rejects == [("", "no header identifier")] * 2 + [
        ("", "no header"), ("", "no header identifier")]
    assert {pid: repo.get_object(pid) for pid in repo.pids()} == before


def test_malformed_datestamp_is_logged_and_replaced_by_clock(repo, stub, cfg, caplog):
    seed(stub, "alpha", 1)

    def transport(url):
        return re.sub(rb"<datestamp>[^<]*</datestamp>",
                      b"<datestamp>last Tuesday</datestamp>", stub.transport(url))

    with caplog.at_level(logging.WARNING, logger="overlay_repo.harvest"):
        report, _ = Harvester(repo, transport=transport).harvest(cfg)
    assert report.created == 1
    assert "oai:alpha:0" in caplog.text and "'last Tuesday'" in caplog.text
    pid = repo.source_pid(cfg.name, "oai:alpha:0")
    _, _, stamp = parse_source_doc(repo.get_object(pid).datastream(SOURCE_DS).payload)
    assert stamp > START


def test_report_invariant():
    report = IngestReport(harvested=5, created=2, updated=1, deleted=1, rejected=1)
    report.check()
    with pytest.raises(AssertionError):
        IngestReport(harvested=5, created=5, updated=5).check()


# --------------------------------------------------------------------------
# byte stability of ingest

GOLDEN = Path(__file__).resolve().parent / "golden" / "ingest_catalog.txt"

_OAI_DC_OPEN = (
    '<oai_dc:dc xmlns:oai_dc="http://www.openarchives.org/OAI/2.0/oai_dc/"'
    ' xmlns:dc="http://purl.org/dc/elements/1.1/"'
    ' xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">')


def _raw_dc(*fields, root="oai_dc:dc") -> bytes:
    """An upstream oai_dc record written by hand: (name, value) or
    (name, value, xsi:type) fields, whitespace kept as given."""
    from xml.sax.saxutils import escape, quoteattr

    lines = [_OAI_DC_OPEN.replace("oai_dc:dc ", root + " ", 1)]
    for name, value, *xsi_type in fields:
        attr = f" xsi:type={quoteattr(xsi_type[0])}" if xsi_type else ""
        lines.append(f"<dc:{name}{attr}>{escape(value)}</dc:{name}>")
    lines.append(f"</{root}>")
    return "\n".join(lines).encode("utf-8")


def _catalog_records() -> list[tuple[str, bytes | None]]:
    def url(key):
        return f"http://catalog.example/{key}"

    out = []
    for n, raw in enumerate((
            # every _DATE_INPUT_FORMATS shape, then W3CDTF and unknown shapes
            "March 5, 2004", "Mar 5, 2004", "5 March 2004", "5 Mar 2004",
            "March 5 2004", "Mar 5 2004", "2004/03/05", "2004.03.05",
            "03/05/2004", "March 2004", "Mar 2004",
            "2004", "2004-03", "2004-03-05T10:20:30Z", "2004-03-05T10:20+01:00",
            "circa 1850", "  5   March\n 2004 ")):
        out.append((f"date-{n:02d}", _raw_dc(
            ("title", f"Date shape {n}"), ("identifier", url(f"date/{n}")),
            ("date", raw))))
    out.append(("language", _raw_dc(
        ("title", "Languages"), ("identifier", url("language")),
        ("language", "English"), ("language", "eng"), ("language", "fre"),
        ("language", "DE"), ("language", " german "), ("language", "Klingon"))))
    out.append(("type", _raw_dc(
        ("title", "Types"), ("identifier", url("type")),
        ("type", "Movie"), ("type", "photograph"),
        ("type", "interactive resource"), ("type", "Text"), ("type", "data"),
        ("type", "Widget"))))
    out.append(("whitespace", _raw_dc(
        ("title", "  Too   many\n\t spaces "),
        ("description", "\n  Lines\n\n  and   tabs\t\t"),
        ("subject", "   "),
        ("identifier", "  http://catalog.example/whitespace \n"))))
    out.append(("upstream-type", _raw_dc(
        ("title", "Upstream qualifiers"), ("identifier", url("upstream-type")),
        ("date", "1999", "local:Year"), ("date", "circa 1850", "local:Free"),
        ("type", "Movie", "dct:DCMIType"), ("language", "english", "local:Lang"))))
    out.append(("escapes", _raw_dc(
        ("title", "Fish & Chips <b>\"quoted\"</b>"),
        ("identifier", "http://catalog.example/escapes?a=1&b=2"))))
    out.append(("extras", _raw_dc(
        ("title", "Extras"), ("identifier", url("extras")))
        .replace(b"</oai_dc:dc>",
                 b'<extra xmlns="urn:example:extra">kept verbatim</extra>\n'
                 b"</oai_dc:dc>")))
    out.append(("first-url", _raw_dc(
        ("title", "First URL wins"), ("identifier", "local-1"),
        ("identifier", url("first")), ("identifier", url("second")))))
    out.append(("shared-a", _raw_dc(
        ("title", "Shared A"), ("identifier", url("shared")))))
    out.append(("shared-b", _raw_dc(
        ("title", "Shared B"), ("identifier", url("shared")))))
    out.append(("wrong-root", _raw_dc(
        ("title", "Wrong root"), ("identifier", url("wrong-root")),
        root="oai_dc:record")))
    out.append(("no-identifier", _raw_dc(("title", "No identifier"))))
    out.append(("blank-identifier", _raw_dc(
        ("title", "Blank identifier"), ("identifier", " \n "))))
    out.append(("no-url", _raw_dc(
        ("title", "No URL"), ("identifier", "local-only-id"))))
    out.append(("empty", None))
    return out


_MARC_RECORDS = [
    ("marc-1", b'<record xmlns="http://www.loc.gov/MARC21/slim"'
               b' xmlns:dc="http://purl.org/dc/elements/1.1/">'
               b"<leader>00000nam</leader><datafield><dc:identifier>"
               b" http://catalog.example/marc/1 </dc:identifier></datafield>"
               b"</record>"),
    ("marc-2", b'<record xmlns="http://www.loc.gov/MARC21/slim">'
               b"<leader>00000nam</leader></record>"),
]


def ingest_transcript() -> bytes:
    """Harvest an oai_dc catalog covering every normalization and reject
    path, plus a marcxml passthrough provider, into a fresh repository.
    Lists each provider's report and reject reasons, then every stored
    REC.* payload of every metadata object in pid order."""
    from overlay_repo.model import pid_sort_key
    from support import TickingClock

    repo = Repository(clock=TickingClock())
    out = []
    for name, fmt, recs in (("catalog", "oai_dc", _catalog_records()),
                            ("marc", "marcxml", _MARC_RECORDS)):
        stub = StubOaiProvider(page_size=7)
        for i, (key, xml) in enumerate(recs):
            stub.add(f"oai:{name}:{key}", SEED_BASE + timedelta(minutes=i),
                     xml or b"")
        harvester = Harvester(repo, transport=stub.transport)
        cfg = harvester.register_provider(ProviderConfig(
            name=name, base_url=f"http://{name}.example/oai", format=fmt))
        report, _ = harvester.harvest(cfg)
        out.append(f"### {name} ({fmt}): harvested {report.harvested}"
                   f" created {report.created} updated {report.updated}"
                   f" deleted {report.deleted} rejected {report.rejected}\n")
        out += [f"reject {identifier}: {reason}\n"
                for identifier, reason in report.rejects]
    metadata = sorted((o for o in repo.active_objects() if "Metadata" in o.behaviors),
                      key=lambda o: pid_sort_key(o.pid))
    for obj in metadata:
        provider, oai_id, _ = parse_source_doc(obj.datastream(SOURCE_DS).payload)
        resource = repo.get_object(behaviors.metadata_get_resource(repo, obj.pid))
        out.append(f"=== {obj.pid} {oai_id} -> {resource.datastream('CONTENT').url}\n")
        for fmt in obj.record_formats():
            out.append(f"--- REC.{fmt}\n")
            out.append(obj.datastream(f"REC.{fmt}").payload.decode("utf-8") + "\n")
    return "".join(out).encode("utf-8")


def test_ingest_matches_golden_bytes():
    assert ingest_transcript().decode("utf-8") \
        == GOLDEN.read_bytes().decode("utf-8")


# --------------------------------------------------------------------------
# one parse and one normalization pass per record


def test_ingest_parses_and_normalizes_each_record_once(harvester, stub, cfg,
                                                      ingest_work):
    seed(stub, "alpha", 3)
    harvester.harvest(cfg)
    assert ingest_work == [("created", 1, 1)] * 3


def test_harvest_and_put_derive_the_same_nsdl_dc(repo, harvester, stub, cfg):
    # oai_dc is unqualified: an upstream xsi:type is ignored on both paths.
    xml = _raw_dc(("title", "Qualified upstream"), ("identifier", "http://q.example/1"),
                  ("date", "1999", "local:Year"))
    stub.add("oai:alpha:q", SEED_BASE, xml)
    harvester.harvest(cfg)
    harvested = repo.source_pid("alpha", "oai:alpha:q")
    stored = repo.get_object(harvested).datastream("REC.oai_dc").payload
    resource = put_object(repo, {"Content"})
    put = put_object(repo, {"Metadata"}, streams=[record_stream("oai_dc", stored)],
                     edges=[("metadataFor", resource)])
    assert behaviors.metadata_get_record(repo, put, "nsdl_dc").xml \
        == behaviors.metadata_get_record(repo, harvested, "nsdl_dc").xml


def _type_prefix_bindings(xml: bytes) -> dict[str, str | None]:
    """Each xsi:type prefix of a payload and the namespace it declares for
    that prefix, None when it declares none."""
    from io import BytesIO
    from xml.etree import ElementTree as ET

    declared = dict(ns for _, ns in ET.iterparse(BytesIO(xml), events=("start-ns",)))
    types = [el.get("{http://www.w3.org/2001/XMLSchema-instance}type")
             for el in ET.fromstring(xml).iter()]
    return {t.split(":")[0]: declared.get(t.split(":")[0])
            for t in types if t and ":" in t}


def test_upstream_type_prefixes_stay_bound(repo, harvester, stub):
    from overlay_repo.records import DCT_NS, DcEntry, serialize_dc

    cfg = harvester.register_provider(ProviderConfig(
        name="q", base_url="http://q.example/oai", format="nsdl_dc"))
    stub.add("oai:q:own", SEED_BASE, serialize_dc("nsdl_dc", [
        DcEntry("identifier", "http://q.example/own"),
        DcEntry("date", "2004", "dct:W3CDTF")]))
    # This one relies on a declaration of the enclosing <metadata> element.
    stub.add("oai:q:inherited", SEED_BASE, serialize_dc("nsdl_dc", [
        DcEntry("identifier", "http://q.example/inherited"),
        DcEntry("type", "Text", "local:Kind")]))

    def transport(url):
        return stub.transport(url).replace(
            b"<metadata>", b'<metadata xmlns:local="urn:example:local">')

    report, _ = Harvester(repo, transport=transport).harvest(cfg)
    assert report.created == 2
    stored = {key: repo.get_object(repo.source_pid("q", f"oai:q:{key}"))
              .datastream("REC.nsdl_dc").payload for key in ("own", "inherited")}
    assert _type_prefix_bindings(stored["own"]) == {"dct": DCT_NS}
    assert _type_prefix_bindings(stored["inherited"]) == {"local": "urn:example:local"}


if __name__ == "__main__":
    # Rewrites the golden transcript: PYTHONPATH=src:tests python tests/test_harvest.py
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_bytes(ingest_transcript())
