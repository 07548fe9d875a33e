"""OAI-PMH provider: verbs, windows, pagination, errors, nsdl_agg."""

import base64
import functools
import json
from collections import Counter
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path
from urllib.parse import urlencode
from xml.etree import ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from overlay_repo import behaviors, records
from overlay_repo.cli import load_fixture_dir
from overlay_repo.errors import (
    FormatUnavailableError, ObjectDeletedError, OperationNotSupportedError)
from overlay_repo.graph import TripleStore
from overlay_repo.harvest import Harvester, ProviderConfig
from overlay_repo.model import (
    format_datestamp, local_stream, parse_datestamp, pid_number)
from overlay_repo.oai import OaiProvider
from overlay_repo.behaviors import build_brand_doc
from overlay_repo.records import DC_NS, NSDL_DC_NS, XSI_NS, embeddable
from overlay_repo.store import Repository
from overlay_repo.web import GatewayApp

from check_agg_walk import agg_walk, reader_declining
from support import (
    FIGURES, START, StubOaiProvider, TickingClock, load_topology, nsdl_dc_record,
    oai_dc_record, oracle_gold_fold, put_object, record_stream, rels_stream,
    seed_metadata)

NS = {"o": "http://www.openarchives.org/OAI/2.0/"}


@pytest.fixture
def provider(repo):
    return OaiProvider(repo, repository_id="test.local", page_size=250)


def call(provider, **params):
    return ET.fromstring(provider.handle_request(params))


def error_code(response) -> str | None:
    el = response.find("o:error", NS)
    return el.get("code") if el is not None else None


def record_identifiers(response, verb="ListRecords"):
    return [
        header.findtext("o:identifier", namespaces=NS)
        for header in response.findall(f"o:{verb}//o:header", NS)
    ]


# -- Identify


def test_identify_empty_repo(provider):
    response = call(provider, verb="Identify")
    identify = response.find("o:Identify", NS)
    assert identify.findtext("o:protocolVersion", namespaces=NS) == "2.0"
    assert identify.findtext("o:earliestDatestamp", namespaces=NS) \
        == "1970-01-01T00:00:00Z"
    assert identify.findtext("o:deletedRecord", namespaces=NS) == "persistent"
    assert identify.findtext("o:granularity", namespaces=NS) \
        == "YYYY-MM-DDThh:mm:ssZ"


def test_identify_earliest_is_minimum_datestamp(repo, provider):
    seed_metadata(repo, 3)
    minimum = min(o.last_modified for o in repo.objects())
    response = call(provider, verb="Identify")
    assert response.find("o:Identify", NS).findtext(
        "o:earliestDatestamp", namespaces=NS) == format_datestamp(minimum)


# -- ListRecords


def test_list_records_returns_all(repo, provider):
    pids = seed_metadata(repo, 3)
    response = call(provider, verb="ListRecords", metadataPrefix="oai_dc")
    assert record_identifiers(response) == [
        provider.oai_identifier(p) for p in pids]
    first = response.find("o:ListRecords/o:record/o:metadata/*", NS)
    assert first.tag.endswith("}dc")


def test_list_records_from_after_until_no_match(repo, provider, clock):
    seed_metadata(repo, 1)
    response = call(provider, verb="ListRecords", metadataPrefix="oai_dc",
                    **{"from": "2030-01-01T00:00:00Z",
                       "until": "2020-01-01T00:00:00Z"})
    assert error_code(response) == "noRecordsMatch"


def test_list_records_window_is_half_open(repo, provider):
    pids = seed_metadata(repo, 2)
    stamps = [repo.get_object(p).last_modified for p in pids]
    response = call(
        provider, verb="ListRecords", metadataPrefix="oai_dc",
        **{"from": format_datestamp(stamps[0]),
           "until": format_datestamp(stamps[1])})
    assert record_identifiers(response) == [provider.oai_identifier(pids[0])]


def test_list_records_crosswalks_stored_oai_dc(repo, provider):
    seed_metadata(repo, 1)
    response = call(provider, verb="ListRecords", metadataPrefix="nsdl_dc")
    payload = response.find("o:ListRecords/o:record/o:metadata/*", NS)
    assert payload.tag == "{http://ns.nsdl.org/nsdl_dc_v1.02/}nsdl_dc"


def test_list_records_unknown_format(repo, provider):
    seed_metadata(repo, 1)
    response = call(provider, verb="ListRecords", metadataPrefix="mods")
    assert error_code(response) == "cannotDisseminateFormat"


def test_list_records_deleted_status(repo, provider):
    pids = seed_metadata(repo, 2)
    repo.delete_object(pids[0])
    response = call(provider, verb="ListRecords", metadataPrefix="oai_dc")
    records = response.findall("o:ListRecords/o:record", NS)
    by_id = {r.findtext("o:header/o:identifier", namespaces=NS): r for r in records}
    deleted = by_id[provider.oai_identifier(pids[0])]
    assert deleted.find("o:header", NS).get("status") == "deleted"
    assert deleted.find("o:metadata", NS) is None
    active = by_id[provider.oai_identifier(pids[1])]
    assert active.find("o:header", NS).get("status") is None
    assert active.find("o:metadata", NS) is not None


def test_list_records_set_filter(repo, provider):
    aggregator = put_object(
        repo, {"Aggregator"},
        streams=[local_stream("BRAND", "application/xml",
                              build_brand_doc("Set A"))])
    inside = seed_metadata(repo, 2, aggregator=aggregator)
    outside = seed_metadata(repo, 2, start_index=10)
    spec = str(pid_number(aggregator))
    response = call(provider, verb="ListRecords", metadataPrefix="oai_dc",
                    set=spec)
    got = record_identifiers(response)
    assert [provider.oai_identifier(p) for p in inside] == got
    assert not set(got) & {provider.oai_identifier(p) for p in outside}
    headers = response.findall("o:ListRecords/o:record/o:header", NS)
    assert all(h.findtext("o:setSpec", namespaces=NS) == spec for h in headers)


def test_list_records_unknown_set(repo, provider):
    seed_metadata(repo, 1)
    response = call(provider, verb="ListRecords", metadataPrefix="oai_dc",
                    set="999")
    assert error_code(response) == "noRecordsMatch"


def test_padded_set_spec_is_refused(repo, provider):
    aggregator = put_object(
        repo, {"Aggregator"},
        streams=[local_stream("BRAND", "application/xml", build_brand_doc("A"))])
    seed_metadata(repo, 2, aggregator=aggregator)
    response = call(provider, verb="ListRecords", metadataPrefix="oai_dc",
                    set="0" + str(pid_number(aggregator)))
    assert error_code(response) == "noRecordsMatch"


def test_set_zero_names_aggregation_nsdl_0(repo, provider):
    """A set spec is the pid number as the pid writes it: nsdl:0, which
    only the import path can create, is listed as set 0 and selected by
    it; a padded spec names no set."""
    doc = repo.export_object(put_object(
        repo, {"Aggregator"},
        streams=[local_stream("BRAND", "application/xml", build_brand_doc("Zero"))]))
    repo.import_object(doc.replace(b'pid="nsdl:1"', b'pid="nsdl:0"'))
    inside = seed_metadata(repo, 2, aggregator="nsdl:0")
    seed_metadata(repo, 1, start_index=10)
    sets = call(provider, verb="ListSets").findall("o:ListSets/o:set", NS)
    assert [s.findtext("o:setSpec", namespaces=NS) for s in sets] == ["0", "1"]
    response = call(provider, verb="ListRecords", metadataPrefix="oai_dc", set="0")
    assert record_identifiers(response) == [provider.oai_identifier(p) for p in inside]
    headers = response.findall("o:ListRecords/o:record/o:header", NS)
    assert [h.findtext("o:setSpec", namespaces=NS) for h in headers] == ["0", "0"]
    for spec in ("00", "01"):
        response = call(provider, verb="ListRecords", metadataPrefix="oai_dc", set=spec)
        assert error_code(response) == "noRecordsMatch"


@pytest.mark.parametrize("page_size", [1, 7, 250])
def test_pagination_complete_and_duplicate_free(repo, page_size):
    pids = seed_metadata(repo, 23)
    provider = OaiProvider(repo, repository_id="test.local", page_size=page_size)
    harvested = []
    response = call(provider, verb="ListRecords", metadataPrefix="oai_dc")
    while True:
        harvested.extend(record_identifiers(response))
        token = response.findtext("o:ListRecords/o:resumptionToken", namespaces=NS)
        if not token:
            break
        response = call(provider, verb="ListRecords", resumptionToken=token)
    assert harvested == [provider.oai_identifier(p) for p in pids]


def test_objects_created_mid_harvest_do_not_leak_into_pages(repo, provider):
    pids = seed_metadata(repo, 5)
    paged = OaiProvider(repo, repository_id="test.local", page_size=2)
    response = call(paged, verb="ListRecords", metadataPrefix="oai_dc")
    collected = record_identifiers(response)
    token = response.findtext("o:ListRecords/o:resumptionToken", namespaces=NS)
    seed_metadata(repo, 3, start_index=50)  # arrive mid-harvest
    while token:
        response = call(paged, verb="ListRecords", resumptionToken=token)
        collected.extend(record_identifiers(response))
        token = response.findtext("o:ListRecords/o:resumptionToken", namespaces=NS)
    assert collected == [paged.oai_identifier(p) for p in pids]


def test_bad_resumption_token(repo, provider):
    seed_metadata(repo, 1)
    response = call(provider, verb="ListRecords", resumptionToken="garbled")
    assert error_code(response) == "badResumptionToken"


def test_token_bound_to_its_verb(repo):
    seed_metadata(repo, 5)
    provider = OaiProvider(repo, repository_id="test.local", page_size=2)
    response = call(provider, verb="ListRecords", metadataPrefix="oai_dc")
    token = response.findtext("o:ListRecords/o:resumptionToken", namespaces=NS)
    response = call(provider, verb="ListIdentifiers", resumptionToken=token)
    assert error_code(response) == "badResumptionToken"


def test_expired_resumption_token(repo, clock):
    seed_metadata(repo, 5)
    provider = OaiProvider(repo, repository_id="test.local", page_size=2)
    response = call(provider, verb="ListRecords", metadataPrefix="oai_dc")
    token = response.findtext("o:ListRecords/o:resumptionToken", namespaces=NS)
    clock.now += timedelta(hours=2)
    response = call(provider, verb="ListRecords", resumptionToken=token)
    assert error_code(response) == "badResumptionToken"


def b64(raw: bytes) -> str:
    return base64.urlsafe_b64encode(raw).rstrip(b"=").decode("ascii")


def encode_token(*fields) -> str:
    return b64(json.dumps(list(fields)).encode("utf-8"))


# verb, format, set, from, until, cursor, expiry
TOKEN_FIELDS = ("ListRecords", "oai_dc", None, None, "2030-01-01T00:00:00Z", 3,
                "2999-01-01T00:00:00Z")


def test_token_carries_its_state(repo):
    pids = seed_metadata(repo, 5)
    provider = OaiProvider(repo, repository_id="test.local", page_size=2)
    response = call(provider, verb="ListRecords",
                    resumptionToken=encode_token(*TOKEN_FIELDS))
    assert error_code(response) is None
    assert record_identifiers(response) == [
        provider.oai_identifier(p) for p in pids if pid_number(p) > 3][:2]


@pytest.mark.parametrize("token", [
    b64(b"not json"),
    b64(json.dumps({"verb": "ListRecords"}).encode("utf-8")),
    encode_token(*TOKEN_FIELDS[:-1]),
    encode_token(*TOKEN_FIELDS[:4], "yesterday", *TOKEN_FIELDS[5:]),
    encode_token(*TOKEN_FIELDS[:5], "3", TOKEN_FIELDS[6]),
    encode_token(*TOKEN_FIELDS[:6], "2000-01-01T00:00:00Z"),
], ids=["not-json", "json-non-list", "wrong-arity", "bad-datestamp",
        "non-integer-cursor", "expired"])
def test_malformed_token_is_bad_resumption_token(repo, provider, token):
    seed_metadata(repo, 5)
    response = call(provider, verb="ListRecords", resumptionToken=token)
    assert error_code(response) == "badResumptionToken"


def test_token_survives_restart(tmp_path, clock):
    data = tmp_path / "data"
    seed_metadata(Repository(data, clock=clock), 5)

    def fresh_provider():
        return OaiProvider(Repository(data, clock=clock),
                           repository_id="test.local", page_size=2)

    def walk(provider, params):
        collected = []
        while True:
            response = call(provider, **params)
            collected.extend(record_identifiers(response))
            token = response.findtext(
                "o:ListRecords/o:resumptionToken", namespaces=NS)
            if not token:
                return collected
            params = {"verb": "ListRecords", "resumptionToken": token}

    whole = walk(fresh_provider(),
                 {"verb": "ListRecords", "metadataPrefix": "oai_dc"})
    response = call(fresh_provider(), verb="ListRecords", metadataPrefix="oai_dc")
    token = response.findtext("o:ListRecords/o:resumptionToken", namespaces=NS)
    rest = walk(fresh_provider(), {"verb": "ListRecords", "resumptionToken": token})
    assert len(whole) == 5
    assert record_identifiers(response) + rest == whole


def test_resumption_page_classifies_only_its_page(repo, monkeypatch):
    seed_metadata(repo, 200)
    provider = OaiProvider(repo, repository_id="test.local", page_size=2)
    response = call(provider, verb="ListRecords", metadataPrefix="oai_dc")
    token = response.findtext("o:ListRecords/o:resumptionToken", namespaces=NS)
    classified = []
    original = OaiProvider._classify

    def counting(self, obj, format_name):
        classified.append(obj.pid)
        return original(self, obj, format_name)

    monkeypatch.setattr(OaiProvider, "_classify", counting)
    response = call(provider, verb="ListRecords", resumptionToken=token)
    assert len(record_identifiers(response)) == 2
    assert len(classified) <= 10


def _page_cost(monkeypatch, provider, **params):
    """The response to one request and its get_object and _classify calls."""
    calls = Counter()
    get_object, classify = Repository.get_object, OaiProvider._classify

    def counting_get_object(self, pid):
        calls["get_object"] += 1
        return get_object(self, pid)

    def counting_classify(self, obj, format_name):
        calls["classify"] += 1
        return classify(self, obj, format_name)

    with monkeypatch.context() as patch:
        patch.setattr(Repository, "get_object", counting_get_object)
        patch.setattr(OaiProvider, "_classify", counting_classify)
        response = call(provider, **params)
    return response, calls


@pytest.mark.parametrize("prefix", ["oai_dc", "nsdl_agg"])
def test_window_cost_does_not_grow_with_repository_size(monkeypatch, prefix):
    """A 1-record from window reads as many objects over 500 objects as
    over 2,000, and classifies at most page_size + 1 of them."""

    def window_cost(size):
        repo = Repository(clock=TickingClock())
        newest = seed_metadata(repo, size // 2)[-1]
        repo.put_object(repo.get_object(newest))
        since = format_datestamp(repo.get_object(newest).last_modified)
        provider = OaiProvider(repo, repository_id="test.local", page_size=2)
        response, calls = _page_cost(monkeypatch, provider, verb="ListRecords",
                                     metadataPrefix=prefix, **{"from": since})
        assert len(record_identifiers(response)) == 1
        return calls

    small, large = window_cost(500), window_cost(2000)
    assert small == large
    assert large["classify"] <= 3


@pytest.mark.parametrize("prefix", ["oai_dc", "nsdl_agg"])
def test_until_window_cost_does_not_grow_with_repository_size(monkeypatch, prefix):
    """A 1-record until-only window, over the oldest objects, reads as
    many objects over 500 objects as over 2,000, and classifies only the
    three stamped before until."""

    def window_cost(size):
        repo = Repository(clock=TickingClock())
        oldest = seed_metadata(repo, size // 2)[0]
        until = repo.get_object(oldest).last_modified + timedelta(seconds=1)
        provider = OaiProvider(repo, repository_id="test.local", page_size=2)
        response, calls = _page_cost(monkeypatch, provider, verb="ListRecords",
                                     metadataPrefix=prefix,
                                     until=format_datestamp(until))
        assert len(record_identifiers(response)) == 1
        return calls

    small, large = window_cost(500), window_cost(2000)
    assert small == large
    assert large["classify"] <= 3


@pytest.mark.parametrize("prefix", ["oai_dc", "nsdl_agg"])
def test_broad_until_window_fills_its_page_from_the_pid_walk(monkeypatch, prefix):
    """An until-only window holding all but the newest object fills its
    first page from the first pids walked and never lists the window from
    the datestamp index, which would cost O(repository)."""
    repo = Repository(clock=TickingClock())
    newest = seed_metadata(repo, 1000)[-1]
    until = format_datestamp(repo.get_object(newest).last_modified)
    provider = OaiProvider(repo, repository_id="test.local", page_size=2)
    listed = []
    stamped = Repository.stamped
    monkeypatch.setattr(Repository, "stamped",
                        lambda self, *window: listed.append(window) or stamped(self, *window))
    response, calls = _page_cost(monkeypatch, provider, verb="ListIdentifiers",
                                 metadataPrefix=prefix, until=until)
    assert len(record_identifiers(response, "ListIdentifiers")) == 2
    assert listed == []
    assert calls["get_object"] <= 12


def test_until_window_lists_records_stamped_before_1970():
    repo = Repository(clock=TickingClock())
    pids = seed_metadata(repo, 3)
    old = datetime(1969, 7, 20, tzinfo=timezone.utc)
    repo.restore_object(replace(repo.get_object(pids[1]), last_modified=old))
    provider = OaiProvider(repo, repository_id="test.local")
    response = call(provider, verb="ListIdentifiers", metadataPrefix="oai_dc",
                    until="1970-01-01T00:00:00Z")
    assert record_identifiers(response, "ListIdentifiers") == [
        provider.oai_identifier(pids[1])]


def test_list_without_until_serves_a_record_put_this_second():
    """An absent until takes in the current second, as GetRecord does."""
    repo = Repository(clock=lambda: START)
    pid = seed_metadata(repo, 1)[0]
    provider = OaiProvider(repo, repository_id="test.local")
    listed = call(provider, verb="ListRecords", metadataPrefix="oai_dc")
    assert record_identifiers(listed) == [provider.oai_identifier(pid)]
    got = call(provider, verb="GetRecord", metadataPrefix="oai_dc",
               identifier=provider.oai_identifier(pid))
    assert record_identifiers(got, "GetRecord") == record_identifiers(listed)


# one write each: (op, *ints); ints pick among the objects written so far
_WRITE_OPS = st.lists(st.one_of(
    st.tuples(st.just("aggregator")),
    st.tuples(st.just("content"), st.integers(0, 40)),
    st.tuples(st.just("metadata"), st.integers(0, 40)),
    st.tuples(st.just("put"), st.integers(0, 40)),
    st.tuples(st.just("delete"), st.integers(0, 40)),
    st.tuples(st.just("restore"), st.integers(0, 40), st.integers(0, 60)),
), min_size=1, max_size=30)


def _apply_writes(repo, ops):
    """Puts, deletes, restores with old datestamps, and metadataFor and
    memberOf edges, all lenient so that edges to deleted objects stay; one
    metadataFor in five names no object at all."""
    aggregators, contents = [], []
    for op, *picks in ops:
        pids = repo.pids()
        if op == "aggregator":
            aggregators.append(put_object(repo, {"Aggregator"}))
        elif op == "content":
            edges = [("memberOf", aggregators[picks[0] % len(aggregators)])] \
                if aggregators and picks[0] % 3 else []
            contents.append(put_object(repo, {"Content"}, edges=edges, strict=False))
        elif op == "metadata" and contents:
            put_object(repo, {"Metadata"}, strict=False,
                       streams=[record_stream("oai_dc", oai_dc_record(("title", "T")))],
                       edges=[("metadataFor", contents[picks[0] % len(contents)]
                               if picks[0] % 5 else "nsdl:999")])
        elif op == "put" and pids:
            repo.put_object(repo.get_object(pids[picks[0] % len(pids)]), strict=False)
        elif op == "delete" and pids:
            repo.delete_object(pids[picks[0] % len(pids)])
        elif op == "restore" and pids:
            obj = repo.get_object(pids[picks[0] % len(pids)])
            repo.restore_object(replace(
                obj, last_modified=START + timedelta(seconds=picks[1])), strict=False)


def _item_header(item):
    """Header fields of an item: identifier, datestamp, deleted flag and
    set specs."""
    return (f"oai:test.local:{item.pid}", format_datestamp(item.datestamp),
            item.deleted, item.set_specs)


def _served_header(header):
    """The same fields of a served header element."""
    return (header.findtext("o:identifier", namespaces=NS),
            header.findtext("o:datestamp", namespaces=NS),
            header.get("status") == "deleted",
            tuple(s.text for s in header.findall("o:setSpec", NS)))


@settings(max_examples=150, deadline=None)
@given(_WRITE_OPS, st.data())
def test_window_walks_match_brute_force(ops, data):
    """Every page of a windowed walk at page size 2, and the walk its
    resumption tokens give, equal a filter of _classify over every object."""
    clock = TickingClock()
    repo = Repository(clock=clock)
    _apply_writes(repo, ops)
    provider = OaiProvider(repo, repository_id="test.local", page_size=2)
    span = int((clock.now - START).total_seconds()) + 2
    instants = st.integers(0, span).map(lambda s: START + timedelta(seconds=s))
    stamps = st.one_of(st.none(), instants)
    sets = [None] + [str(pid_number(o.pid)) for o in repo.active_objects()
                     if "Aggregator" in o.behaviors]
    # three walks over any window, then one over an until-only window
    for until_only in (False, False, False, True):
        prefix = data.draw(st.sampled_from(["oai_dc", "nsdl_agg"]))
        from_ = None if until_only else data.draw(stamps)
        until = data.draw(instants if until_only else stamps)
        set_spec = data.draw(st.sampled_from(sets))
        # without until, the window ends a second past the clock's next reading
        end = until or clock.now + timedelta(seconds=2)
        expected = []
        for pid in repo.pids():
            item = provider._classify(repo.get_object(pid), prefix)
            if item is None or (from_ is not None and item.datestamp < from_) \
                    or item.datestamp >= end \
                    or (set_spec is not None and not item.deleted
                        and set_spec not in item.set_specs):
                continue
            expected.append(_item_header(item))
        params = {"verb": "ListIdentifiers", "metadataPrefix": prefix}
        for key, value in (("from", from_), ("until", until), ("set", set_spec)):
            if value is not None:
                params[key] = value if key == "set" else format_datestamp(value)
        pages = []
        while True:
            response = call(provider, **params)
            if error_code(response) == "noRecordsMatch" and not pages:
                break
            assert error_code(response) is None
            pages.append([_served_header(h) for h in response.findall(
                "o:ListIdentifiers/o:header", NS)])
            token = response.findtext(
                "o:ListIdentifiers/o:resumptionToken", namespaces=NS)
            if not token:
                break
            params = {"verb": "ListIdentifiers", "resumptionToken": token}
        assert pages == [expected[i:i + 2] for i in range(0, len(expected), 2)], \
            (prefix, params)


def test_token_is_exclusive_argument(repo, provider):
    response = call(provider, verb="ListRecords", resumptionToken="x",
                    metadataPrefix="oai_dc")
    assert error_code(response) == "badArgument"


def test_missing_metadata_prefix(provider):
    response = call(provider, verb="ListRecords")
    assert error_code(response) == "badArgument"


def test_malformed_from_is_bad_argument(repo, provider):
    seed_metadata(repo, 1)
    response = call(provider, verb="ListRecords", metadataPrefix="oai_dc",
                    **{"from": "yesterday"})
    assert error_code(response) == "badArgument"


def test_bad_verb(provider):
    response = call(provider, verb="Nonsense")
    assert error_code(response) == "badVerb"


@pytest.mark.parametrize("identifier, written", [
    ('a"b', "'a\"b'"),  # single-quoted, as canonical records write it
    ("a'b\"c", '"a\'b&quot;c"'),
    ("a\tb\r\n<&", '"a&#9;b&#13;&#10;&lt;&amp;"'),
])
def test_request_echo_writes_each_argument_as_given(provider, identifier, written):
    body = provider.handle_request({"verb": "GetRecord", "identifier": identifier,
                                    "metadataPrefix": "oai_dc"})
    assert f"<request identifier={written} ".encode() in body
    assert ET.fromstring(body).find("o:request", NS).get("identifier") == identifier


def test_list_identifiers_headers_only(repo, provider):
    pids = seed_metadata(repo, 2)
    response = call(provider, verb="ListIdentifiers", metadataPrefix="oai_dc")
    headers = response.findall("o:ListIdentifiers/o:header", NS)
    assert [h.findtext("o:identifier", namespaces=NS) for h in headers] == [
        provider.oai_identifier(p) for p in pids]
    assert response.find("o:ListIdentifiers/o:record", NS) is None


# -- GetRecord


def test_get_record(repo, provider):
    pids = seed_metadata(repo, 1)
    response = call(provider, verb="GetRecord",
                    identifier=provider.oai_identifier(pids[0]),
                    metadataPrefix="oai_dc")
    record = response.find("o:GetRecord/o:record", NS)
    assert record.findtext("o:header/o:identifier", namespaces=NS) \
        == provider.oai_identifier(pids[0])
    assert record.find("o:metadata/*", NS) is not None
    assert record.findtext("o:metadata/*/{http://purl.org/dc/elements/1.1/}title",
                           namespaces=NS) == "Record 0"


def test_get_record_tombstone(repo, provider):
    pids = seed_metadata(repo, 1)
    repo.delete_object(pids[0])
    response = call(provider, verb="GetRecord",
                    identifier=provider.oai_identifier(pids[0]),
                    metadataPrefix="oai_dc")
    header = response.find("o:GetRecord/o:record/o:header", NS)
    assert header.get("status") == "deleted"


def test_get_record_unknown_identifier(provider):
    response = call(provider, verb="GetRecord",
                    identifier="oai:test.local:nsdl:424242",
                    metadataPrefix="oai_dc")
    assert error_code(response) == "idDoesNotExist"


@pytest.mark.parametrize("identifier", [
    "oai:other.local:nsdl:1",  # another repository's
    "oai:test.local:nsdl:01",  # a padded pid number names no object
])
def test_get_record_foreign_or_padded_identifier(repo, provider, identifier):
    seed_metadata(repo, 1)
    response = call(provider, verb="GetRecord", identifier=identifier,
                    metadataPrefix="oai_dc")
    assert error_code(response) == "idDoesNotExist"


def test_get_record_unavailable_format(repo, provider):
    pids = seed_metadata(repo, 1)
    response = call(provider, verb="GetRecord",
                    identifier=provider.oai_identifier(pids[0]),
                    metadataPrefix="marcxml")
    assert error_code(response) == "cannotDisseminateFormat"


def test_get_record_keeps_unqualified_root_in_no_namespace(repo, provider):
    stored = b"<record><leader>00000nam</leader></record>"
    pid = put_object(repo, {"Metadata"}, streams=[record_stream("marcxml", stored)])
    response = call(provider, verb="GetRecord",
                    identifier=provider.oai_identifier(pid),
                    metadataPrefix="marcxml")
    payload = response.find("o:GetRecord/o:record/o:metadata/*", NS)
    assert payload.tag == "record"
    assert [child.tag for child in payload] == ["leader"]
    assert repo.get_object(pid).datastream("REC.marcxml").payload == stored


# -- ListSets


def test_list_sets(repo, provider):
    for label in ("One", "Two"):
        put_object(repo, {"Aggregator"},
                   streams=[local_stream("BRAND", "application/xml",
                                         build_brand_doc(label))])
    response = call(provider, verb="ListSets")
    sets = response.findall("o:ListSets/o:set", NS)
    assert [s.findtext("o:setName", namespaces=NS) for s in sets] == ["One", "Two"]


def test_list_sets_refuses_every_resumption_token(repo, provider):
    """ListSets issues no resumption token, so every token it is given is
    a badResumptionToken, as OAI-PMH 2.0 states for the verb."""
    put_object(repo, {"Aggregator"},
               streams=[local_stream("BRAND", "application/xml", build_brand_doc("One"))])
    response = call(provider, verb="ListSets", resumptionToken="bogus")
    assert error_code(response) == "badResumptionToken"
    assert response.find("o:ListSets", NS) is None


def test_list_sets_empty(provider):
    response = call(provider, verb="ListSets")
    assert error_code(response) == "noSetHierarchy"


def test_set_membership_matches_list_members(repo, provider):
    aggregator = put_object(
        repo, {"Aggregator"},
        streams=[local_stream("BRAND", "application/xml",
                              build_brand_doc("A"))])
    inside = seed_metadata(repo, 3, aggregator=aggregator)
    spec = str(pid_number(aggregator))
    response = call(provider, verb="ListRecords", metadataPrefix="oai_dc",
                    set=spec)
    from overlay_repo.behaviors import aggregator_list_members, metadata_get_resource

    resources = {metadata_get_resource(repo, p) for p in inside}
    assert resources == set(aggregator_list_members(repo, aggregator))
    assert len(record_identifiers(response)) == len(inside)


# -- ListMetadataFormats


def test_global_formats_include_agg_and_stored(repo, provider):
    put_object(repo, {"Metadata"},
               streams=[record_stream("marcxml", b"<r/>")])
    response = call(provider, verb="ListMetadataFormats")
    prefixes = [el.text for el in response.findall(
        "o:ListMetadataFormats/o:metadataFormat/o:metadataPrefix", NS)]
    assert set(prefixes) >= {"oai_dc", "nsdl_dc", "nsdl_agg", "marcxml"}


def test_item_formats_follow_crosswalk_reachability(repo, provider):
    pids = seed_metadata(repo, 1)
    response = call(provider, verb="ListMetadataFormats",
                    identifier=provider.oai_identifier(pids[0]))
    prefixes = [el.text for el in response.findall(
        "o:ListMetadataFormats/o:metadataFormat/o:metadataPrefix", NS)]
    assert prefixes == ["nsdl_dc", "oai_dc"]


def test_item_formats_unknown_identifier(provider):
    response = call(provider, verb="ListMetadataFormats",
                    identifier="oai:test.local:nsdl:999")
    assert error_code(response) == "idDoesNotExist"


def test_item_formats_of_a_tombstone(repo, provider):
    pid = seed_metadata(repo, 1)[0]
    repo.delete_object(pid)
    response = call(provider, verb="ListMetadataFormats",
                    identifier=provider.oai_identifier(pid))
    assert error_code(response) == "noMetadataFormats"


# -- aggregation format


AGG = {"a": "http://ns.nsdl.org/nsdl_agg_v1.00/"}


def test_aggregation_record_bundles_sources_and_gold(repo, provider):
    labels = load_topology(repo, "augmented_metadata")
    item = provider._classify(repo.get_object(labels["resource"]), "nsdl_agg")
    payload = ET.fromstring(provider.emit_aggregation_record(item.resource, item.describing))
    assert payload.tag == "{%s}nsdl_agg" % AGG["a"]
    resource_el = payload.find("a:resource", AGG)
    assert resource_el.get("handle") == "hdl:2200/00121"
    sources = payload.findall("a:sourceRecord", AGG)
    assert {(s.get("brand"), s.get("format")) for s in sources} == {
        ("First Provider", "oai_dc"), ("Second Provider", "nsdl_dc")}
    gold = payload.find("a:gold/*", AGG)
    assert gold is not None and gold.tag.endswith("nsdl_dc")


def test_aggregation_walk_reads_each_served_resource_once(repo, monkeypatch):
    """A served nsdl_agg record is rendered from the resource object its
    selection read: one get_object call for it in the whole walk."""
    aggregator = put_object(repo, {"Aggregator"})
    resources = [repo.graph.objects_of(m, "metadataFor")[0]
                 for m in seed_metadata(repo, 30, aggregator=aggregator)]
    provider = OaiProvider(repo, repository_id="test.local", page_size=1000)
    reads = Counter()
    get_object = Repository.get_object

    def counting(self, pid):
        reads[pid] += 1
        return get_object(self, pid)

    monkeypatch.setattr(Repository, "get_object", counting)
    response = call(provider, verb="ListRecords", metadataPrefix="nsdl_agg")
    assert record_identifiers(response) == [provider.oai_identifier(r) for r in resources]
    assert [reads[r] for r in resources] == [1] * len(resources)


def test_aggregation_page_reads_each_provider_role_once(repo, monkeypatch):
    """An nsdl_agg response reads each provider role's BRAND once, however
    many of the role's records it serves."""
    brand_of = {}
    for label in ("North", "South"):
        for m in seed_metadata(repo, 4, provider_label=label):
            brand_of[repo.graph.objects_of(m, "metadataFor")[0]] = label
    roles = {repo.graph.objects_of(m, "providedBy")[0]
             for r in brand_of for m in behaviors.resource_get_metadata(repo, r)}
    provider = OaiProvider(repo, repository_id="test.local", page_size=1000)
    reads = Counter()
    role_get_brand = behaviors.role_get_brand

    def counting(repo, pid):
        reads[pid] += 1
        return role_get_brand(repo, pid)

    monkeypatch.setattr(behaviors, "role_get_brand", counting)
    response = call(provider, verb="ListRecords", metadataPrefix="nsdl_agg")
    assert len(roles) == 2 and reads == dict.fromkeys(roles, 1)
    prefix = provider.oai_identifier("")
    served = {
        record.findtext("o:header/o:identifier", namespaces=NS).removeprefix(prefix):
        [s.get("brand") for s in record.iterfind(".//a:sourceRecord", AGG)]
        for record in response.iterfind(".//o:record", NS)}
    assert served == {r: [label] for r, label in brand_of.items()}


def test_aggregation_records_via_list(repo, provider):
    labels = load_topology(repo, "augmented_metadata")
    response = call(provider, verb="ListRecords", metadataPrefix="nsdl_agg")
    assert record_identifiers(response) == [
        provider.oai_identifier(labels["resource"])]


def test_aggregation_get_record_by_resource_identifier(repo, provider):
    labels = load_topology(repo, "augmented_metadata")
    response = call(provider, verb="GetRecord",
                    identifier=provider.oai_identifier(labels["resource"]),
                    metadataPrefix="nsdl_agg")
    payload = response.find("o:GetRecord/o:record/o:metadata/*", NS)
    assert payload.tag == "{%s}nsdl_agg" % AGG["a"]
    assert len(payload.findall("a:sourceRecord", AGG)) == 2


def test_aggregation_source_record_keeps_unqualified_root_in_no_namespace(
        repo, provider):
    resource = put_object(repo, {"Content"})
    put_object(repo, {"Metadata"}, streams=[
        record_stream("oai_dc", oai_dc_record(("identifier", "http://x/1"))),
        record_stream("marcxml", b"<record><leader/></record>")],
        edges=[("metadataFor", resource)])
    response = call(provider, verb="GetRecord",
                    identifier=provider.oai_identifier(resource),
                    metadataPrefix="nsdl_agg")
    sources = response.findall(
        "o:GetRecord/o:record/o:metadata/a:nsdl_agg/a:sourceRecord", {**NS, **AGG})
    assert {s.get("format"): s[0].tag for s in sources} == {
        "oai_dc": "{http://www.openarchives.org/OAI/2.0/oai_dc/}dc",
        "marcxml": "record"}


def test_content_item_formats_offer_aggregation(repo, provider):
    labels = load_topology(repo, "augmented_metadata")
    response = call(provider, verb="ListMetadataFormats",
                    identifier=provider.oai_identifier(labels["resource"]))
    prefixes = [el.text for el in response.findall(
        "o:ListMetadataFormats/o:metadataFormat/o:metadataPrefix", NS)]
    assert prefixes == ["nsdl_agg"]


def test_aggregation_window_uses_newest_metadata_datestamp(repo, provider):
    pids = seed_metadata(repo, 2)
    repo.put_object(repo.get_object(pids[0]))  # metadata of the first resource changes
    since = format_datestamp(repo.get_object(pids[0]).last_modified)
    response = call(provider, verb="ListRecords", metadataPrefix="nsdl_agg",
                    **{"from": since})
    from overlay_repo.behaviors import metadata_get_resource

    assert record_identifiers(response) == [
        provider.oai_identifier(metadata_get_resource(repo, pids[0]))]


def test_aggregation_skips_undescribed_resources(repo, provider):
    put_object(repo, {"Content"})
    response = call(provider, verb="ListRecords", metadataPrefix="nsdl_agg")
    assert error_code(response) == "noRecordsMatch"


def test_aggregation_get_record_for_undescribed_resource(repo, provider):
    lone = put_object(repo, {"Content"})
    response = call(provider, verb="GetRecord",
                    identifier=provider.oai_identifier(lone),
                    metadataPrefix="nsdl_agg")
    assert error_code(response) == "idDoesNotExist"


def test_aggregation_record_when_provider_is_not_a_role(repo, provider):
    metadata = seed_metadata(repo, 1)[0]
    resource = repo.graph.objects_of(metadata, "metadataFor")[0]
    stranger = put_object(repo, {"Content"})
    repo.put_object(repo.get_object(metadata).with_datastream(rels_stream(
        metadata, [("metadataFor", resource), ("providedBy", stranger)])),
        strict=False)
    for params in ({"verb": "ListRecords"},
                   {"verb": "GetRecord", "identifier": provider.oai_identifier(resource)}):
        response = call(provider, metadataPrefix="nsdl_agg", **params)
        assert error_code(response) is None
        sources = response.findall(".//a:sourceRecord", AGG)
        assert [s.get("brand") for s in sources] == [""]


def test_aggregation_answers_despite_augmentation_cycle(repo, provider):
    from support import wsgi_transport

    labels = load_topology(repo, "augmented_metadata")
    base, resource = labels["base_record"], labels["resource"]
    repo.put_object(repo.get_object(base).with_datastream(rels_stream(base, [
        ("metadataFor", resource), ("providedBy", labels["provider_role_one"]),
        ("augments", labels["augmenting_record"])])))
    transport = wsgi_transport(GatewayApp(repo, provider))  # raises unless 200
    identifier = provider.oai_identifier(resource)
    for query in ("verb=ListRecords&metadataPrefix=nsdl_agg",
                  f"verb=GetRecord&identifier={identifier}&metadataPrefix=nsdl_agg"):
        response = ET.fromstring(transport(f"http://test.local/oai?{query}"))
        assert error_code(response) is None
        assert response.findtext(".//o:header/o:identifier", namespaces=NS) \
            == identifier
        assert len(response.findall(".//a:sourceRecord", AGG)) == 2
        assert list(response.find(".//a:gold", AGG)) == []


def _delete_provider_role(repo, labels):
    repo.delete_object(labels["provider_role"])


def _unparsable_provider_brand(repo, labels):
    role = repo.get_object(labels["provider_role"])
    repo.put_object(role.with_datastream(
        local_stream("BRAND", "application/xml", b"<notbrand/>")))


def _agent_describing_the_resource(repo, labels):
    put_object(repo, {"Agent"}, strict=False,
               streams=[record_stream("oai_dc", oai_dc_record(("title", "Agent")))],
               edges=[("metadataFor", labels["resource"])])


@pytest.mark.parametrize("breakage, brands", [
    (_delete_provider_role, {""}),
    (_unparsable_provider_brand, {""}),
    (_agent_describing_the_resource, {"Example Metadata Service", ""}),
])
def test_aggregation_answers_whatever_its_neighbours_hold(
        repo, provider, breakage, brands):
    """A provider role that is deleted or holds an unparsable BRAND, or a
    non-Metadata object leniently asserting metadataFor, leaves the
    resource's nsdl_agg record served with HTTP 200 and no OAI error."""
    from support import wsgi_transport

    labels = load_topology(repo, "branding")
    breakage(repo, labels)
    transport = wsgi_transport(GatewayApp(repo, provider))  # raises unless 200
    identifier = provider.oai_identifier(labels["resource"])
    for verb, args in (("ListRecords", ""), ("GetRecord", f"&identifier={identifier}")):
        response = ET.fromstring(transport(
            f"http://test.local/oai?verb={verb}&metadataPrefix=nsdl_agg{args}"))
        assert error_code(response) is None
        assert identifier in record_identifiers(response, verb)
        assert {s.get("brand") for s in response.findall(".//a:sourceRecord", AGG)} \
            == brands


def test_rendering_parses_and_serializes_no_xml(repo, xml_work):
    """An oai_dc page splices stored records unparsed; an nsdl_agg page
    parses only for the gold fold, once per contributing record that is
    not canonical nsdl_dc."""
    labels = load_topology(repo, "augmented_metadata")  # a resource with 2 contributors
    seed_metadata(repo, 5)
    assert repo.validate_graph() == []
    provider = OaiProvider(repo, repository_id="test.local", page_size=3)
    prefix = provider.oai_identifier("")
    cases = [
        {"verb": "ListRecords", "metadataPrefix": "oai_dc"},
        {"verb": "ListRecords", "metadataPrefix": "nsdl_agg"},
        {"verb": "GetRecord", "metadataPrefix": "nsdl_agg",
         "identifier": provider.oai_identifier(labels["resource"])},
    ]
    for params in cases:  # BRAND documents are parsed once, then remembered
        provider.handle_request(params)
    for params in cases:
        for key in xml_work:
            xml_work[key] = 0
        body = provider.handle_request(params)
        work = dict(xml_work)
        response = ET.fromstring(body)
        assert error_code(response) is None
        served = record_identifiers(response, params["verb"])
        assert len(served) == (1 if params["verb"] == "GetRecord" else 3)
        # the gold fold reads the nsdl_dc of each describing record that has
        # one, and parses it unless it is canonical nsdl_dc
        sources = [] if params["metadataPrefix"] == "oai_dc" else [
            behaviors.record_source(repo.get_object(m), "nsdl_dc")
            for identifier in served for m in behaviors.resource_get_metadata(
                repo, identifier.removeprefix(prefix))]
        contributors = [s for s in sources if s is not None]
        parsed = sum(s.format != "nsdl_dc" or records.read_dc_lines(s.xml) is None
                     for s in contributors)
        assert work == {"parsers": parsed, "serializations": 0,
                        "dc_parses": parsed}, params
    assert (len(contributors), parsed) == (2, 1)


def _stub_harvest(repo, name, upstream):
    """Harvest upstream's (identifier, oai_dc bytes) records as provider name."""
    stub = StubOaiProvider()
    for identifier, xml in upstream:
        stub.add(identifier, START - timedelta(days=1), xml)
    harvester = Harvester(repo, transport=stub.transport)
    cfg = harvester.register_provider(
        ProviderConfig(name=name, base_url=f"http://{name}.example/oai"))
    harvester.harvest(cfg)
    return cfg


# nsdl_dc that a PUT may store: well-formed, but not what serialize_dc
# writes (declaration, padding, references, CDATA, a foreign element).
_NOT_CANONICAL_NSDL_DC = (
    "<?xml version='1.0' encoding='utf-8'?>\n"
    f'<nsdl_dc:nsdl_dc xmlns:nsdl_dc="{NSDL_DC_NS}" xmlns:dc="{DC_NS}" xmlns:xsi="{XSI_NS}">'
    "<dc:title> Put &#65; title </dc:title>"
    "<dc:subject><![CDATA[S1]]></dc:subject>"
    "<dc:subject>S4 &amp; more</dc:subject>"
    '<dc:subject xsi:type="dct:LCSH">S2</dc:subject>'
    "<dc:description>one&#13;two</dc:description>"
    '<dc:date xsi:type="dct:W3CDTF">2005</dc:date>'
    '<note xmlns="urn:x">skipped</note>'
    "</nsdl_dc:nsdl_dc>").encode("utf-8")


def test_agg_walk_golds_equal_the_parsed_fold_and_the_oracle(repo, xml_work):
    """Over two harvested providers that share a resource URL, an
    oai_dc-only contributor and a PUT nsdl_dc record that is not canonical
    and augments a harvested one, an nsdl_agg walk is byte for byte the
    walk whose golds fold parsed contributors, and each gold folds what
    the oracle folds."""
    shared = "http://shared.example/r"
    alpha = _stub_harvest(repo, "alpha", [
        ("oai:alpha:1", oai_dc_record(("title", "Alpha & co"), ("subject", "S1"),
                                      ("date", "March 5, 2004"), ("identifier", shared))),
        ("oai:alpha:2", oai_dc_record(("title", "Own"), ("language", "English"),
                                      ("identifier", "http://alpha.example/2")))])
    beta = _stub_harvest(repo, "beta", [
        ("oai:beta:1", oai_dc_record(("title", "Beta <b>"), ("subject", "S1"),
                                     ("subject", "S2"), ("type", "Movie"),
                                     ("identifier", shared)))])
    resource = repo.content_pid_for_url(shared)
    put_object(repo, {"Metadata"},
               streams=[record_stream("oai_dc", oai_dc_record(
                   ("subject", "S3"), ("identifier", shared)))],
               edges=[("metadataFor", resource), ("providedBy", alpha.provider_role_pid)])
    put_object(repo, {"Metadata"},
               streams=[record_stream("nsdl_dc", _NOT_CANONICAL_NSDL_DC)],
               edges=[("metadataFor", resource), ("providedBy", beta.provider_role_pid),
                      ("augments", repo.source_pid("beta", "oai:beta:1"))])
    provider = OaiProvider(repo, repository_id="test.local", page_size=2)
    app = GatewayApp(repo, provider)
    for key in xml_work:
        xml_work[key] = 0
    pages = agg_walk(app)
    # only the oai_dc-only record and the PUT nsdl_dc record are parsed
    assert xml_work["dc_parses"] == 2
    with reader_declining():
        assert agg_walk(app) == pages

    prefix = provider.oai_identifier("")
    golds = {record.findtext("o:header/o:identifier", namespaces=NS).removeprefix(prefix):
             record.find("o:metadata/a:nsdl_agg/a:gold", {**NS, **AGG})[0]
             for page in pages for record in ET.fromstring(page).iterfind(".//o:record", NS)}
    assert len(golds) == 2 and len(behaviors.resource_get_metadata(repo, resource)) == 4
    for pid, gold in golds.items():
        describing = [repo.get_object(m) for m in behaviors.resource_get_metadata(repo, pid)]
        inputs = [{"pid": m.pid, "datestamp": m.last_modified,
                   "entries": [(e.name, e.value) for e in records.dc_entries(
                       behaviors.record_source(m, "nsdl_dc"), "nsdl_dc")]}
                  for m in describing]
        edges = [(m.pid, b) for m in describing for b in repo.graph.objects_of(m.pid, "augments")]
        order, merged = oracle_gold_fold(inputs, edges)
        entries = {}
        for el in gold:
            if el.tag.startswith("{%s}" % DC_NS):
                entries.setdefault(el.tag.split("}")[1], []).append(el.text or "")
        assert entries == merged
        # the contributors list is in no namespace, as getGold serves it
        contributors = next(el for el in gold if el.tag == "contributors")
        assert [c.text for c in contributors] == [f"info:nsdl/{m}" for m in order]
    assert golds[resource].find("{%s}description" % DC_NS).text == "one\rtwo"


# -- one classification per item


_STORED = {"oai_dc": oai_dc_record(("title", "T")),
           "nsdl_dc": nsdl_dc_record(("title", "T")),
           "marcxml": b"<record><leader>x</leader></record>"}

# one object each: (kind, stored formats, tombstoned)
_OBJECTS = st.lists(st.tuples(
    st.sampled_from(["metadata", "content"]),
    st.sets(st.sampled_from(sorted(_STORED))),
    st.booleans()), min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(_OBJECTS)
def test_classified_items_are_what_get_record_serves(objects):
    """For every stored or crosswalked format, an object is listed exactly
    when a getRecord dissemination serves it, and its record is the one
    served, spliced in as embeddable bytes; a tombstone is listed as
    deleted."""
    repo = Repository(clock=TickingClock())
    resource = put_object(repo, {"Content"})
    for kind, formats, deleted in objects:
        streams = [record_stream(f, _STORED[f]) for f in sorted(formats)]
        pid = put_object(repo, {"Metadata"} if kind == "metadata" else {"Content"},
                         streams=streams, strict=False,
                         edges=[("metadataFor", resource)] if kind == "metadata" else [])
        if deleted:
            repo.delete_object(pid)
    provider = OaiProvider(repo, repository_id="test.local")
    for obj in repo.objects():
        for format_name in sorted(_STORED):
            item = provider._classify(obj, format_name)
            try:
                served = repo.disseminate(obj.pid, "getRecord", {"format": format_name})
            except (FormatUnavailableError, ObjectDeletedError,
                    OperationNotSupportedError):
                served = None
            assert (item is not None and item.deleted) == (obj.state == "deleted")
            if item is None or item.deleted:
                assert served is None, (obj.pid, format_name)
                continue
            assert served is not None, (obj.pid, format_name)
            rendered = b"".join(provider._record_element(item, format_name, False))
            assert b"<metadata>" + embeddable(served.body) + b"</metadata>" \
                in rendered


def test_oai_dc_page_reads_each_classified_object_once(monkeypatch):
    repo = Repository(clock=TickingClock())
    seed_metadata(repo, 20)
    provider = OaiProvider(repo, repository_id="test.local", page_size=5)
    for params in ({}, {"from": format_datestamp(START)},
                   {"until": format_datestamp(repo.clock())}):
        response, calls = _page_cost(monkeypatch, provider, verb="ListRecords",
                                     metadataPrefix="oai_dc", **params)
        assert len(record_identifiers(response)) == 5
        assert 0 < calls["get_object"] <= calls["classify"], params


def test_list_pages_never_list_available_formats(repo, provider, monkeypatch):
    load_topology(repo, "augmented_metadata")
    seed_metadata(repo, 3)

    def refuse(repo, pid):
        raise AssertionError("available_formats called")

    monkeypatch.setattr(behaviors, "available_formats", refuse)
    for prefix in ("oai_dc", "nsdl_dc", "nsdl_agg"):
        response = call(provider, verb="ListRecords", metadataPrefix=prefix)
        assert error_code(response) is None and record_identifiers(response)


def test_aggregation_page_lists_each_resource_metadata_once(repo, monkeypatch):
    labels = load_topology(repo, "augmented_metadata")  # 2 contributors
    seed_metadata(repo, 6)
    provider = OaiProvider(repo, repository_id="test.local", page_size=4)
    listed = Counter()
    subjects_of = TripleStore.subjects_of

    def counting(self, predicate_name, obj):
        listed[predicate_name, obj] += 1
        return subjects_of(self, predicate_name, obj)

    monkeypatch.setattr(TripleStore, "subjects_of", counting)
    params = {"verb": "ListRecords", "metadataPrefix": "nsdl_agg"}
    served = []
    while True:
        listed.clear()
        response = call(provider, **params)
        page = [i.removeprefix("oai:test.local:")
                for i in record_identifiers(response)]
        assert all(listed["metadataFor", pid] == 1 for pid in page), listed
        served += page
        token = response.findtext("o:ListRecords/o:resumptionToken", namespaces=NS)
        if not token:
            break
        params = {"verb": "ListRecords", "resumptionToken": token}
    assert labels["resource"] in served and len(served) == 7


@pytest.mark.parametrize("prefix", ["oai_dc", "nsdl_agg"])
@pytest.mark.parametrize("window", [{}, {"until": "2010-06-01T00:00:20Z"}])
def test_list_walk_never_copies_the_pid_list(monkeypatch, prefix, window):
    """A walk without from reads the pids past its cursor in page-sized
    slices; it never copies the whole pid list."""
    repo = Repository(clock=TickingClock())
    seed_metadata(repo, 15)
    provider = OaiProvider(repo, repository_id="test.local", page_size=2)
    expected = [provider.oai_identifier(obj.pid) for obj in repo.objects()
                if (item := provider._classify(obj, prefix)) is not None
                and item.datestamp < parse_datestamp(
                    window.get("until", "9999-01-01T00:00:00Z"))]

    def refuse(self):
        raise AssertionError("Repository.pids called")

    monkeypatch.setattr(Repository, "pids", refuse)
    params = {"verb": "ListRecords", "metadataPrefix": prefix, **window}
    served = []
    while True:
        response = call(provider, **params)
        served += record_identifiers(response)
        token = response.findtext("o:ListRecords/o:resumptionToken", namespaces=NS)
        if not token:
            break
        params = {"verb": "ListRecords", "resumptionToken": token}
    assert served == expected and len(served) > 2


def unbound_type_prefixes(body: bytes) -> list[str]:
    """Prefixes of xsi:type QName values with no namespace binding in
    scope, in document order."""
    parser = ET.XMLPullParser(events=("start-ns", "start", "end"))
    parser.feed(body)
    parser.close()
    scopes, declared, unbound = [{"xml"}], set(), []
    for event, value in parser.read_events():
        if event == "start-ns":
            declared.add(value[0])
        elif event == "start":
            scopes.append(scopes[-1] | declared)
            declared = set()
            qname = value.get("{http://www.w3.org/2001/XMLSchema-instance}type")
            if qname and ":" in qname and qname.split(":", 1)[0] not in scopes[-1]:
                unbound.append(qname.split(":", 1)[0])
        else:
            scopes.pop()
    return unbound


def test_golden_walks_bind_every_xsi_type_prefix():
    responses = figures_transcript().split(b"\n>>> ")
    typed = 0
    for response in responses:
        body = response.split(b"\n", 1)[1]
        typed += body.count(b"xsi:type=")
        assert unbound_type_prefixes(body) == [], response.split(b"\n", 1)[0]
    assert typed > 0


@pytest.mark.parametrize("params", [
    {"verb": "ListRecords", "metadataPrefix": "a\x01b"},
    {"verb": "GetRecord", "identifier": "oai:x\x0b", "metadataPrefix": "oai_dc"},
    {"verb": "ListRecords", "metadataPrefix": "oai_dc", "set": "\x02"},
    {"verb": "ListIdentifiers", "metadataPrefix": "oai_dc", "from\ufffe": "x"},
    {"verb": "Identify\x00"},
])
def test_arguments_outside_xml_chars_are_bad_arguments(provider, params):
    body = provider.handle_request(params)
    response = ET.fromstring(body)
    assert error_code(response) in ("badArgument", "badVerb")
    assert response.find("o:request", NS).attrib == {}


_any_text = st.text(st.characters(blacklist_categories=()), max_size=12)


_VERB_NAMES = ("GetRecord", "Identify", "ListIdentifiers", "ListMetadataFormats",
               "ListRecords", "ListSets")


def _arg(*likely):
    return st.one_of(st.sampled_from(likely), _any_text)


_ARGS = st.tuples(
    st.fixed_dictionaries(
        {"verb": _arg(*_VERB_NAMES)},
        optional={
            "metadataPrefix": _arg("oai_dc", "nsdl_dc", "nsdl_agg", "marcxml"),
            "identifier": _arg("oai:test.local:nsdl:4", "oai:test.local:nsdl:21"),
            "set": _arg("14", "31"),
            "from": _arg("2005-03-05T12:03:00Z"),
            "until": _arg("2005-03-05T12:06:00Z"),
            "resumptionToken": _any_text,
        }),
    st.dictionaries(_any_text, _any_text, max_size=1),
).map(lambda dicts: {**dicts[1], **dicts[0]})


@functools.lru_cache(maxsize=None)
def _figures_provider():
    repo = Repository(clock=TickingClock())
    load_fixture_dir(repo, FIGURES)
    return OaiProvider(repo, repository_id="test.local", page_size=2)


@settings(max_examples=200, deadline=None)
@given(_ARGS)
def test_every_response_parses_and_binds_its_type_prefixes(params):
    body = _figures_provider().handle_request(params)
    assert unbound_type_prefixes(body) == []


# -- transport-level protocol behavior


def test_wsgi_errors_served_with_http_200(repo, provider):
    from support import wsgi_transport

    transport = wsgi_transport(GatewayApp(repo, provider))
    body = transport("http://test.local/oai?verb=ListRecords&metadataPrefix=mods")
    assert error_code(ET.fromstring(body)) == "cannotDisseminateFormat"


# -- byte stability

GOLDEN = Path(__file__).resolve().parent / "golden" / "oai_figures.txt"


def figures_transcript() -> bytes:
    """Every response of a fixed request script over the figure topologies:
    full ListRecords and ListIdentifiers walks in oai_dc, nsdl_dc and
    nsdl_agg at page size 2, then GetRecord in nsdl_agg. Each response is
    preceded by a ">>> " line with its request."""
    repo = Repository(clock=TickingClock())
    load_fixture_dir(repo, FIGURES)
    provider = OaiProvider(repo, repository_id="test.local", page_size=2)
    out = []

    def request(params):
        out.append(b">>> " + urlencode(params).encode("ascii") + b"\n")
        body = provider.handle_request(params)
        out.append(body + b"\n")
        return ET.fromstring(body)

    for verb in ("ListRecords", "ListIdentifiers"):
        for prefix in ("oai_dc", "nsdl_dc", "nsdl_agg"):
            response = request({"verb": verb, "metadataPrefix": prefix})
            while token := response.findtext(f"o:{verb}/o:resumptionToken",
                                              namespaces=NS):
                response = request({"verb": verb, "resumptionToken": token})
    request({"verb": "GetRecord", "identifier": "oai:test.local:nsdl:21",
             "metadataPrefix": "nsdl_agg"})
    return b"".join(out)


def test_responses_match_golden_bytes():
    assert figures_transcript().decode("utf-8") \
        == GOLDEN.read_bytes().decode("utf-8")


if __name__ == "__main__":
    # Rewrites the golden transcript: PYTHONPATH=src:tests python tests/test_oai.py
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_bytes(figures_transcript())
