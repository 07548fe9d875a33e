"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them as they complete)."""


import random
import time
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
from xml.etree import ElementTree as ET

import pytest

from overlay_repo import behaviors, canonical
from overlay_repo.errors import ModelIntegrityError, ValidationError
from overlay_repo.cli import load_fixture_dir
from overlay_repo.harvest import Harvester, ProviderConfig
from overlay_repo.model import DigitalObject, local_stream
from overlay_repo.oai import OaiProvider
from overlay_repo.records import parse_dc_entries
from overlay_repo.store import Repository
from overlay_repo.web import GatewayApp

from support import (
    FIGURES,
    START,
    StubOaiProvider,
    TickingClock,
    brute_force_query,
    canonical_xml,
    nsdl_dc_record,
    oracle_triple_allowed,
    provider_transport,
    put_object,
    random_graph,
    random_pattern,
    rels_stream,
    stub_record,
    to_engine_pattern,
    to_oracle_pattern,
)

OAI_NS = {"o": "http://www.openarchives.org/OAI/2.0/"}
SEED_BASE = START - timedelta(days=2)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


# ---------------------------------------------------------------------------
# 1. Canonical fixture suite


def test_criterion_1_fixture_suite():
    with criterion(1, "fixture-suite"):
        started = time.monotonic()
        repo = Repository()
        load_fixture_dir(repo, FIGURES)

        # basic pair: the metadata edge and both objects' disseminations
        dump = [(t.subject, str(t.predicate), t.object) for t in repo.graph.dump()]
        assert ("nsdl:4", "metadataFor", "nsdl:1") in dump
        assert repo.resolve("info:nsdl/nsdl:1/getMetadata").body.decode() \
            == "info:nsdl/nsdl:4\n"
        assert b"oceanography" in repo.resolve("info:nsdl/nsdl:1/showContent").body
        assert repo.resolve("info:nsdl/nsdl:1/showBrand").body.decode() \
            == "<brands>\n</brands>\n"
        dc = repo.resolve("info:nsdl/nsdl:4/getRecord?format=oai_dc").body
        assert b"Introductory Oceanography" in dc
        marc = repo.resolve("info:nsdl/nsdl:4/getRecord?format=marcxml").body
        assert b"MARC21" in marc
        assert repo.resolve("info:nsdl/nsdl:4/getResource").body.decode() \
            == "info:nsdl/nsdl:1\n"

        # branding: metadata takes the provider brand, the resource takes
        # the aggregator brand
        metadata_brands = behaviors.show_brand(repo, "nsdl:15")
        assert [b.label for b in metadata_brands] == ["Example Metadata Service"]
        resource_brands = behaviors.show_brand(repo, "nsdl:16")
        assert [b.label for b in resource_brands] == ["Example Science Collection"]

        # augmentation: fold order [nsdl:5, nsdl:8]; the augmenter's title wins
        gold = behaviors.content_get_gold(repo, "nsdl:21")
        assert gold.contributors == ("nsdl:5", "nsdl:8")
        titles = [e.value for e in parse_dc_entries(gold.xml, "nsdl_dc") if e.name == "title"]
        assert titles == ["Photosynthesis Basics (Revised)"]

        # aggregation: members and the standing representation, addressed
        # through the aggregator's handle
        aggregator = repo.resolve_handle("hdl:2200/00402")
        members = behaviors.aggregator_list_members(repo, aggregator)
        assert members == [repo.resolve_handle("hdl:2200/00406"),
                           repo.resolve_handle("hdl:2200/00408")]
        assert behaviors.aggregator_get_representation(repo, aggregator) \
            == repo.resolve_handle("hdl:2200/00401")

        # annotation: the review is content, discovered from the primary
        assert behaviors.annotations_for(repo, "nsdl:41") == ["nsdl:42"]

        assert time.monotonic() - started < 5.0


# ---------------------------------------------------------------------------
# 2. Self-federation round trip


def _seed_instance_a(clock):
    repo = Repository(clock=clock)
    providers = []
    for p in range(4):
        stub = StubOaiProvider(page_size=300)
        for i in range(250):
            stub.add(f"oai:src{p}:{i}", SEED_BASE + timedelta(seconds=i),
                     stub_record(f"src{p}", i))
        harvester = Harvester(repo, transport=stub.transport)
        cfg = harvester.register_provider(ProviderConfig(
            name=f"src{p}", base_url=f"http://src{p}.example/oai",
            brand_label=f"Source {p}"))
        report, state = harvester.harvest(cfg)
        assert report.created == 250
        providers.append((stub, harvester, cfg, state))
    # upstream deletions propagate into instance A as tombstones
    for p, (stub, harvester, cfg, state) in enumerate(providers):
        for i in range(5):
            stub.delete(f"oai:src{p}:{i}", clock.now)
        report, _ = harvester.harvest(cfg, state)
        assert report.deleted == 5
    return repo


def test_criterion_2_self_federation():
    with criterion(2, "self-federation"):
        started = time.monotonic()
        clock = TickingClock()
        instance_a = _seed_instance_a(clock)
        a_provider = OaiProvider(instance_a, repository_id="instance-a",
                                 page_size=250)

        instance_b = Repository(clock=clock)
        harvester = Harvester(instance_b,
                              transport=provider_transport(a_provider))
        cfg = harvester.register_provider(ProviderConfig(
            name="instance-a", base_url="http://a.example/oai"))
        report, state = harvester.harvest(cfg)
        assert report.created == 980  # 1000 seeded minus 20 deletions
        assert report.rejected == 0

        a_records = {}
        for obj in instance_a.active_objects():
            if "Metadata" in obj.behaviors:
                a_records[a_provider.oai_identifier(obj.pid)] = \
                    obj.datastream("REC.oai_dc").payload
        b_records = {}
        for obj in instance_b.active_objects():
            if "Metadata" in obj.behaviors:
                source = obj.datastream("SOURCE")
                from overlay_repo.model import parse_source_doc

                _, oai_id, _ = parse_source_doc(source.payload)
                b_records[oai_id] = obj.datastream("REC.oai_dc").payload

        assert set(a_records) == set(b_records)
        for identifier, payload in a_records.items():
            assert canonical_xml(payload) \
                == canonical_xml(b_records[identifier]), identifier

        second, _ = harvester.harvest(cfg, state)
        assert second.harvested == 0
        assert time.monotonic() - started < 60.0


# ---------------------------------------------------------------------------
# 3. Scaled union-catalog load


def test_criterion_3_union_catalog_load():
    with criterion(3, "union-catalog-load"):
        started = time.monotonic()
        clock = TickingClock()
        repo = Repository(clock=clock)
        all_urls = set()
        total_created = 0
        for p in range(8):
            stub = StubOaiProvider(page_size=250)
            for i in range(1250):
                # 10% of each provider's records point at shared URLs
                if i < 125:
                    url = f"http://shared.example/resource/{i}"
                else:
                    url = f"http://provider{p}.example/resource/{i}"
                all_urls.add(url)
                stub.add(f"oai:p{p}:{i}", SEED_BASE + timedelta(seconds=i),
                         stub_record(f"p{p}", i, url=url))
            harvester = Harvester(repo, transport=stub.transport)
            cfg = harvester.register_provider(ProviderConfig(
                name=f"p{p}", base_url=f"http://p{p}.example/oai"))
            report, _ = harvester.harvest(cfg)
            report.check()
            total_created += report.created

        assert total_created == 10000
        content_objects = [o for o in repo.active_objects()
                           if "Content" in o.behaviors]
        assert len(content_objects) == len(all_urls) == 125 + 8 * 1125
        shared = repo.content_pid_for_url("http://shared.example/resource/0")
        assert len(behaviors.resource_get_metadata(repo, shared)) == 8
        assert time.monotonic() - started < 120.0


# ---------------------------------------------------------------------------
# 4. Triple-store oracle equivalence


def test_criterion_4_query_oracle_equivalence():
    with criterion(4, "query-oracle-equivalence"):
        rng = random.Random(20260808)
        mismatches = 0
        for _ in range(200):
            pids, triples = random_graph(rng)
            repo = Repository()
            for _ in pids:
                repo.mint_pid()
            for pid in pids:
                put_object(repo, {"Content"}, pid=pid)
            by_subject = {}
            for s, p, o in triples:
                by_subject.setdefault(s, []).append((p, o))
            for s, edges in by_subject.items():
                obj = repo.get_object(s).with_datastream(rels_stream(
                    s, [(p.rsplit("#", 1)[0] + "#", p.rsplit("#", 1)[1], o)
                        for p, o in edges]))
                repo.put_object(obj)

            universe = sorted({t[0] for t in triples} | {t[2] for t in triples}) \
                or ["nsdl:1"]
            for _ in range(12):
                clauses, select = random_pattern(rng, universe, rng.randint(1, 3))
                got = repo.graph.query(to_engine_pattern(clauses, select))
                expected = brute_force_query(
                    triples, to_oracle_pattern(clauses), select)
                if set(got) != expected or len(got) != len(set(got)):
                    mismatches += 1

            before = repo.graph.dump()
            repo.rebuild_graph()
            assert repo.graph.dump() == before
        assert mismatches == 0


# ---------------------------------------------------------------------------
# 5. Gold-record properties


_GOLD_TIME = datetime(2012, 1, 1, tzinfo=timezone.utc)


def _diamond_objects():
    """Resource + five records: base, three augmenters, one apex record
    augmenting two of them."""
    resource = DigitalObject(
        pid="nsdl:100", behaviors=frozenset({"Content"}),
        datastreams=(local_stream("CONTENT", "text/html", b"<p>subject</p>"),),
        last_modified=_GOLD_TIME, version=1)
    spec = {
        "nsdl:101": ([], [("title", "Base"), ("subject", "S-base"),
                          ("date", "2001")]),
        "nsdl:102": (["nsdl:101"], [("title", "Left"), ("subject", "S-left")]),
        "nsdl:103": (["nsdl:101"], [("subject", "S-right"),
                                    ("creator", "Curator")]),
        "nsdl:104": (["nsdl:101"], [("description", "Side note")]),
        "nsdl:105": (["nsdl:102", "nsdl:103"], [("title", "Apex"),
                                                ("subject", "S-apex")]),
    }
    objects = [resource]
    for offset, (pid, (augments, entries)) in enumerate(spec.items()):
        edges = [("metadataFor", "nsdl:100")] + [("augments", a) for a in augments]
        objects.append(DigitalObject(
            pid=pid, behaviors=frozenset({"Metadata"}),
            datastreams=(
                local_stream("REC.nsdl_dc", "application/xml",
                             nsdl_dc_record(*entries)),
                rels_stream(pid, edges),
            ),
            last_modified=_GOLD_TIME + timedelta(minutes=offset + 1),
            version=1))
    return objects


def test_criterion_5_gold_record_properties():
    with criterion(5, "gold-record-properties"):
        objects = _diamond_objects()
        rng = random.Random(5)
        baseline = None
        for _ in range(100):
            order = list(objects)
            rng.shuffle(order)
            repo = Repository()
            for obj in order:
                repo.restore_object(obj, strict=False)
            gold = behaviors.content_get_gold(repo, "nsdl:100")
            if baseline is None:
                baseline = gold.xml
                assert gold.contributors == (
                    "nsdl:101", "nsdl:102", "nsdl:103", "nsdl:104", "nsdl:105")
            assert gold.xml == baseline

        # identity: a single-record resource's gold equals that record
        repo = Repository()
        resource = put_object(repo, {"Content"})
        record = nsdl_dc_record(("title", "Sole"), ("identifier", "http://x/1"))
        put_object(repo, {"Metadata"},
                   streams=[local_stream("REC.nsdl_dc", "application/xml", record)],
                   edges=[("metadataFor", resource)])
        gold = behaviors.content_get_gold(repo, resource)
        stripped = gold.xml.replace(
            b"  <contributors>\n"
            + f"    <contributor>info:nsdl/{gold.contributors[0]}</contributor>\n".encode()
            + b"  </contributors>\n", b"")
        assert stripped == record

        # cycle detection names the cycle
        repo = Repository()
        resource = put_object(repo, {"Content"})
        first, second = repo.mint_pid(), repo.mint_pid()
        doc = local_stream("REC.nsdl_dc", "application/xml",
                           nsdl_dc_record(("title", "x")))
        put_object(repo, {"Metadata"}, streams=[doc], pid=first,
                   edges=[("metadataFor", resource), ("augments", second)],
                   strict=False)
        put_object(repo, {"Metadata"}, streams=[doc], pid=second,
                   edges=[("metadataFor", resource), ("augments", first)])
        with pytest.raises(ModelIntegrityError):
            behaviors.content_get_gold(repo, resource)


# ---------------------------------------------------------------------------
# 6. OAI protocol conformance


def test_criterion_6_oai_conformance():
    with criterion(6, "oai-protocol-conformance"):
        from support import seed_metadata

        clock = TickingClock()
        repo = Repository(clock=clock)
        pids = seed_metadata(repo, 1000)
        repo.delete_object(pids[17])
        expected = [OaiProvider(repo).oai_identifier(p) for p in pids]

        for page_size in (1, 7, 250):
            provider = OaiProvider(repo, page_size=page_size)
            collected = []
            statuses = {}
            response = ET.fromstring(provider.handle_request(
                {"verb": "ListRecords", "metadataPrefix": "oai_dc"}))
            while True:
                for header in response.findall(".//o:header", OAI_NS):
                    identifier = header.findtext("o:identifier", namespaces=OAI_NS)
                    collected.append(identifier)
                    statuses[identifier] = header.get("status")
                token = response.findtext(
                    "o:ListRecords/o:resumptionToken", namespaces=OAI_NS)
                if not token:
                    break
                response = ET.fromstring(provider.handle_request(
                    {"verb": "ListRecords", "resumptionToken": token}))
            assert collected == expected, f"page size {page_size}"
            assert statuses[expected[17]] == "deleted"
            assert sum(1 for s in statuses.values() if s == "deleted") == 1

        provider = OaiProvider(repo)

        def error_of(**params):
            response = ET.fromstring(provider.handle_request(params))
            return response.find("o:error", OAI_NS).get("code")

        assert error_of(verb="ListRecords", metadataPrefix="mods") \
            == "cannotDisseminateFormat"
        assert error_of(verb="GetRecord", identifier="oai:overlay.local:nsdl:999999",
                        metadataPrefix="oai_dc") == "idDoesNotExist"
        assert error_of(verb="ListRecords", resumptionToken="tampered") \
            == "badResumptionToken"


# ---------------------------------------------------------------------------
# 7. Ontology validation fuzz


_BEHAVIOR_POOL = [
    frozenset(),
    frozenset({"Metadata"}),
    frozenset({"Agent"}),
    frozenset({"Content"}),
    frozenset({"Aggregator"}),
    frozenset({"MetadataProvider"}),
    frozenset({"Role"}),
    frozenset({"Metadata", "Content"}),
    frozenset({"Agent", "Aggregator"}),
    frozenset({"Content", "Metadata", "Aggregator"}),
    frozenset({"Role", "Agent"}),
]

_PREDICATES = ["annotates", "assertedBy", "augments", "hasRole",
               "metadataFor", "memberOf", "providedBy", "representedBy"]


def test_criterion_7_ontology_validation_fuzz():
    with criterion(7, "ontology-validation-fuzz"):
        rng = random.Random(777)
        repo = Repository()
        gateway_repo = Repository()
        app = GatewayApp(gateway_repo)
        http_cases = 0
        for trial in range(1000):
            subject_b = rng.choice(_BEHAVIOR_POOL)
            object_b = rng.choice(_BEHAVIOR_POOL)
            predicate = rng.choice(_PREDICATES)
            subject = put_object(repo, set(subject_b))
            target = put_object(repo, set(object_b))
            allowed = oracle_triple_allowed(predicate, set(subject_b), set(object_b))
            with_rels = repo.get_object(subject).with_datastream(
                rels_stream(subject, [(predicate, target)]))
            try:
                repo.put_object(with_rels)
                accepted = True
            except ValidationError as exc:
                accepted = False
                assert exc.violations
            assert accepted == allowed, (
                trial, sorted(subject_b), predicate, sorted(object_b))

            if not allowed and http_cases < 20:
                http_cases += 1
                _expect_http_422(app, repo, target, with_rels)
        assert http_cases == 20

        # validation soundness: everything the strict store accepted
        # satisfies the typing table
        for triple in repo.graph.dump():
            if triple.predicate.is_base:
                assert oracle_triple_allowed(
                    triple.predicate.name,
                    set(repo.get_object(triple.subject).behaviors),
                    set(repo.get_object(triple.object).behaviors))


def _expect_http_422(app, source_repo, target, violating):
    """Replay a rejected assertion through the management route: the
    (typed) target lands fine, the violating document draws a 422."""
    from io import BytesIO

    def put(pid, doc):
        environ = {
            "REQUEST_METHOD": "PUT",
            "PATH_INFO": f"/objects/{pid}",
            "QUERY_STRING": "",
            "CONTENT_LENGTH": str(len(doc)),
            "wsgi.input": BytesIO(doc),
        }
        captured = {}

        def start_response(status, headers):
            captured["status"] = status

        b"".join(app(environ, start_response))
        return int(captured["status"].split()[0])

    assert put(target, canonical.export_object(source_repo.get_object(target))) \
        in (200, 201)
    assert put(violating.pid, canonical.export_object(violating)) == 422
