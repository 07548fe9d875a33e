"""Triple store: RELS parsing, replacement semantics through the
repository's write path, validation, queries."""

import itertools
import pickle
import random
from xml.etree import ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from overlay_repo import canonical
from overlay_repo.behaviors import page
from overlay_repo.errors import LimitExceededError, QueryParseError, ValidationError
from overlay_repo.graph import (
    QueryPattern,
    Triple,
    TripleStore,
    Var,
    parse_query,
    parse_rels,
    serialize_rels,
)
from overlay_repo.model import pid_sorted
from overlay_repo.ontology import BASE_NAMESPACE, Predicate, base_predicate

from support import (
    EXT_NS,
    EXT_TERMS,
    brute_force_query,
    load_plain_triples,
    put_object,
    random_graph,
    random_pattern,
    rels_stream,
    seed_metadata,
    to_engine_pattern,
    to_oracle_pattern,
)


def test_rels_round_trip():
    triples = [
        Triple("nsdl:4", base_predicate("metadataFor"), "nsdl:1", "nsdl:4"),
        Triple("nsdl:4", base_predicate("providedBy"), "nsdl:7", "nsdl:4"),
        Triple("nsdl:4", Predicate("http://example.org/v#", "cites"), "nsdl:9", "nsdl:4"),
    ]
    payload = serialize_rels("nsdl:4", triples)
    assert sorted(parse_rels("nsdl:4", payload)) == sorted(triples)
    # serialization is stable under re-parsing
    assert serialize_rels("nsdl:4", parse_rels("nsdl:4", payload)) == payload


def test_rels_rejects_foreign_subject():
    payload = serialize_rels("nsdl:4", [
        Triple("nsdl:4", base_predicate("metadataFor"), "nsdl:1", "nsdl:4")])
    with pytest.raises(ValidationError):
        parse_rels("nsdl:9", payload)


def test_rels_rejects_literal_property():
    payload = (
        b'<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
        b' xmlns:rel="http://ns.nsdl.org/ontologies/relationships#">'
        b'<rdf:Description rdf:about="info:nsdl/nsdl:4">'
        b'<rel:metadataFor>literal text</rel:metadataFor>'
        b'</rdf:Description></rdf:RDF>')
    with pytest.raises(ValidationError):
        parse_rels("nsdl:4", payload)


def test_rels_rejects_external_target():
    payload = (
        b'<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
        b' xmlns:rel="http://ns.nsdl.org/ontologies/relationships#">'
        b'<rdf:Description rdf:about="info:nsdl/nsdl:4">'
        b'<rel:metadataFor rdf:resource="http://elsewhere.org/thing"/>'
        b'</rdf:Description></rdf:RDF>')
    with pytest.raises(ValidationError):
        parse_rels("nsdl:4", payload)


def test_empty_fragment_retracts_prior_assertions(repo):
    resource = put_object(repo, {"Content"})
    metadata = put_object(repo, {"Metadata"}, edges=[("metadataFor", resource)])
    assert len(repo.graph.dump()) == 1
    repo.put_object(repo.get_object(metadata).with_datastream(rels_stream(metadata, [])))
    count = len(repo.graph.triples_asserted_by(metadata))
    assert count == 0
    assert repo.graph.dump() == []


def test_merge_rejects_domain_range_violation(repo):
    not_aggregator = put_object(repo, {"Content"})
    metadata = put_object(repo, {"Metadata"})
    with pytest.raises(ValidationError) as excinfo:
        put_object(repo, {"Metadata"}, edges=[("memberOf", not_aggregator)],
                   pid=metadata)
    assert any("memberOf" in v for v in excinfo.value.violations)
    # both ends are wrong: Metadata is not a Resource, Content not an Aggregator
    assert len(excinfo.value.violations) == 2


def test_merge_accepts_extension_predicates(repo):
    a = put_object(repo, {"Content"})
    b = put_object(repo, {"Content"})
    put_object(repo, {"Content"}, edges=[("http://example.org/v#", "cites", b)], pid=a)
    assert len(repo.graph.triples_asserted_by(a)) == 1


def test_merge_lenient_mode_accepts_and_keeps_triples(repo):
    metadata = put_object(repo, {"Metadata"})
    put_object(repo, {"Metadata"}, edges=[("metadataFor", "nsdl:999")],
               pid=metadata, strict=False)
    count = len(repo.graph.triples_asserted_by(metadata))
    assert count == 1
    assert len(repo.graph.dump()) == 1


def test_query_over_empty_store():
    store = TripleStore()
    pattern = QueryPattern(
        ((Var("r"), base_predicate("memberOf"), "nsdl:2"),), ("r",))
    assert store.query(pattern) == []


def test_query_membership_listing(repo):
    aggregator = put_object(repo, {"Aggregator"})
    members = [
        put_object(repo, {"Content"}, edges=[("memberOf", aggregator)])
        for _ in range(2)
    ]
    q = parse_query(
        f"select ?r where (?r <rel:memberOf> <info:nsdl/{aggregator}>)")
    assert repo.graph.query(q) == [(m,) for m in members]


def test_two_clause_join_matches_brute_force(repo):
    provider_role = put_object(repo, {"MetadataProvider"})
    other_role = put_object(repo, {"MetadataProvider"})
    resources = [put_object(repo, {"Content"}) for _ in range(3)]
    for i, resource in enumerate(resources):
        put_object(repo, {"Metadata"}, edges=[
            ("metadataFor", resource),
            ("providedBy", provider_role if i % 2 == 0 else other_role),
        ])
    pattern = QueryPattern(
        (
            (Var("m"), base_predicate("metadataFor"), Var("r")),
            (Var("m"), base_predicate("providedBy"), provider_role),
        ),
        ("m", "r"),
    )
    got = repo.graph.query(pattern)
    plain = [(t.subject, t.predicate.uri, t.object) for t in repo.graph.dump()]
    expected = brute_force_query(
        plain,
        [("?m", BASE_NAMESPACE + "metadataFor", "?r"),
         ("?m", BASE_NAMESPACE + "providedBy", provider_role)],
        ["m", "r"],
    )
    assert set(got) == expected
    assert got == sorted(got, key=lambda row: tuple(
        int(v.split(":")[1]) for v in row))


def test_random_graphs_match_brute_force():
    rng = random.Random(1234)
    for _ in range(40):
        _, triples = random_graph(rng)
        store = load_plain_triples(TripleStore(), triples)
        pids = sorted({t[0] for t in triples} | {t[2] for t in triples}) or ["nsdl:1"]
        for _ in range(10):
            clauses, select = random_pattern(rng, pids, rng.randint(1, 3))
            got = store.query(to_engine_pattern(clauses, select))
            expected = brute_force_query(triples, to_oracle_pattern(clauses), select)
            assert set(got) == expected
            assert len(got) == len(set(got))


def _filter_kinds(store, pattern):
    """How the plan runs each step that binds no variable after the first:
    as a semi-join or by a probe per binding."""
    steps, _, _ = store._plan(pattern.clauses)
    return {"semi" if semi else "probe" for _, get, _, _, semi, _ in steps[1:] if not get}


def test_random_filter_joins_match_brute_force():
    """Three clauses, the last fully bound by the first two plus a constant:
    the planner runs it as a semi-join or probes it per binding, and both
    must agree with the oracle."""
    rng = random.Random(4321)
    kinds = set()
    for _ in range(60):
        _, triples = random_graph(rng, max_triples=80)
        store = load_plain_triples(TripleStore(), triples)
        pids = sorted({t[0] for t in triples} | {t[2] for t in triples}) or ["nsdl:1"]
        for _ in range(10):
            clauses, select = random_pattern(rng, pids, 2)
            used = sorted({t[1] for clause in clauses for t in clause if t[0] == "var"})
            terms = [("var", rng.choice(used)), ("pred", EXT_NS + rng.choice(EXT_TERMS)),
                     ("var", rng.choice(used))]
            const = rng.choice([0, 2, 2])  # which variable becomes a constant pid
            terms[const] = ("pid", rng.choice(pids))
            clauses.append(tuple(terms))
            pattern = to_engine_pattern(clauses, select)
            got = store.query(pattern)
            assert set(got) == brute_force_query(triples, to_oracle_pattern(clauses), select)
            assert len(got) == len(set(got))
            kinds |= _filter_kinds(store, pattern)
    assert kinds == {"semi", "probe"}


def _join3_store(n):
    """?m follows nsdl:1, ?m cites ?r and ?r likes nsdl:2, for n of each."""
    return load_plain_triples(TripleStore(), [
        triple for m in range(100, 100 + n) for triple in (
            (f"nsdl:{m}", EXT_NS + "follows", "nsdl:1"),
            (f"nsdl:{m}", EXT_NS + "cites", f"nsdl:{m + n}"),
            (f"nsdl:{m + n}", EXT_NS + "likes", "nsdl:2"))])


JOIN3 = (f"select ?r where (?m <{EXT_NS}follows> <info:nsdl/nsdl:1>)"
         f" (?m <{EXT_NS}cites> ?r) (?r <{EXT_NS}likes> <info:nsdl/nsdl:2>)")


def test_filter_reached_by_many_bindings_looks_its_constants_up_once(lookups):
    rows = _join3_store(50).query(parse_query(JOIN3))
    assert rows == [(f"nsdl:{r}",) for r in range(150, 200)]
    assert len(lookups) == 1 + 50 + 1


def test_filter_reached_by_one_binding_probes(lookups):
    store = load_plain_triples(TripleStore(), [
        (f"nsdl:{i}", EXT_NS + "likes", "nsdl:1") for i in range(2, 502)]
        + [("nsdl:600", EXT_NS + "links", "nsdl:7")])
    rows = store.query(parse_query(
        f"select ?x where (<info:nsdl/nsdl:600> <{EXT_NS}links> ?x)"
        f" (?x <{EXT_NS}likes> <info:nsdl/nsdl:1>)"))
    assert rows == [("nsdl:7",)]
    assert len(lookups) == 2
    assert sum(call.taken for call in lookups) <= 2


def test_candidate_budget_counts_the_bucket_a_probe_filters():
    store = load_plain_triples(TripleStore(), [("nsdl:1", EXT_NS + "links", "nsdl:2")] + [
        ("nsdl:1", EXT_NS + "cites", f"nsdl:{i}") for i in range(3, 202)])
    query = parse_query("select ?p where (<info:nsdl/nsdl:1> ?p <info:nsdl/nsdl:2>)")
    with pytest.raises(LimitExceededError):
        store.query(query, max_candidates=199)
    assert store.query(query, max_candidates=200) == [(EXT_NS + "links",)]
    with pytest.raises(LimitExceededError):  # 50 + 50 probed + 50 for the semi-join
        _join3_store(50).query(parse_query(JOIN3), max_candidates=149)
    assert len(_join3_store(50).query(parse_query(JOIN3), max_candidates=150)) == 50


def test_listings_and_rows_order_pids_numerically(repo):
    aggregator = put_object(repo, {"Aggregator"})
    members = [put_object(repo, {"Content"}, edges=[("memberOf", aggregator)])
               for _ in range(11)]
    assert members[7:9] == ["nsdl:9", "nsdl:10"]
    assert repo.graph.subjects_of("memberOf", aggregator) == members
    listed = repo.resolve(f"info:nsdl/{aggregator}/listMembers").body.decode()
    assert listed.split() == [f"info:nsdl/{m}" for m in members]
    rows = repo.graph.query(parse_query("select ?r ?a where (?r <rel:memberOf> ?a)"))
    assert rows == [(m, aggregator) for m in members]
    store = load_plain_triples(TripleStore(), [
        ("nsdl:3", EXT_NS + "links", f"nsdl:{n}") for n in (100, 9, 10, 11, 2)])
    assert [row[0] for row in store.query(parse_query(
        "select ?o where (<info:nsdl/nsdl:3> ?p ?o)"))] == \
        ["nsdl:2", "nsdl:9", "nsdl:10", "nsdl:11", "nsdl:100"]


def chain_store(n):
    """nsdl:1 -> nsdl:2 -> ... -> nsdl:n+1: n triples, n distinct subjects."""
    return load_plain_triples(TripleStore(), [
        (f"nsdl:{i}", EXT_NS + "links", f"nsdl:{i + 1}") for i in range(1, n + 1)])


OVER_CAP_QUERIES = [
    "select ?s ?p ?o where (?s ?p ?o)",
    "select ?a ?b where (?a ?p ?x) (?b ?q ?y)",
]


@pytest.mark.parametrize("text", OVER_CAP_QUERIES)
def test_row_cap_stops_after_o_cap_bindings(text, lookups):
    store = chain_store(500)
    with pytest.raises(LimitExceededError):
        store.query(parse_query(text), row_cap=10)
    assert len(lookups) <= 2
    assert sum(call.taken for call in lookups) <= 2 * 11


def test_candidate_budget_stops_cross_product(lookups):
    store = chain_store(500)
    with pytest.raises(LimitExceededError):
        store.query(parse_query(OVER_CAP_QUERIES[1]), max_candidates=1000)
    assert sum(call.taken for call in lookups) <= 1000


def test_join_written_in_bad_order_does_no_more_lookups(repo, lookups):
    metadata = seed_metadata(repo, 20)
    resource = repo.graph.objects_of(metadata[0], "metadataFor")[0]
    selective = f"(?m <rel:metadataFor> <info:nsdl/{resource}>)"
    unselective = "(?m <rel:providedBy> ?p)"
    good = repo.graph.query(parse_query(f"select ?m ?p where {selective} {unselective}"))
    good_lookups = len(lookups)
    bad = repo.graph.query(parse_query(f"select ?m ?p where {unselective} {selective}"))
    assert bad == good and len(good) == 1
    assert len(lookups) - good_lookups <= good_lookups


def test_three_clause_join_rows_do_not_depend_on_clause_order(repo):
    for label in ("One", "Two"):
        aggregator = put_object(repo, {"Aggregator"})
        seed_metadata(repo, 3, aggregator=aggregator, provider_label=label)
    seed_metadata(repo, 2)
    clauses = [("?m", "metadataFor", "?r"), ("?m", "providedBy", "?p"),
               ("?r", "memberOf", "?a")]
    plain = [(t.subject, t.predicate.uri, t.object) for t in repo.graph.dump()]
    expected = brute_force_query(
        plain, [(s, BASE_NAMESPACE + p, o) for s, p, o in clauses], ["m", "a"])
    answers = set()
    for order in itertools.permutations(clauses):
        where = " ".join(f"({s} <rel:{p}> {o})" for s, p, o in order)
        rows = repo.graph.query(parse_query(f"select ?m ?a where {where}"))
        assert set(rows) == expected
        answers.add(tuple(rows))
    assert len(answers) == 1 and len(expected) == 6


def test_dump_ordering(repo):
    aggregator = put_object(repo, {"Aggregator"})
    second = put_object(repo, {"Content"}, edges=[("memberOf", aggregator)])
    first = put_object(repo, {"Content"}, edges=[("memberOf", aggregator)])
    dump = repo.graph.dump()
    assert [t.subject for t in dump] == sorted(
        [first, second], key=lambda p: int(p.split(":")[1]))


def test_union_property(repo):
    aggregator = put_object(repo, {"Aggregator"})
    members = [put_object(repo, {"Content"}, edges=[("memberOf", aggregator)])
               for _ in range(3)]
    repo.delete_object(members[1])
    union = []
    for obj in repo.active_objects():
        triples = canonical.import_object(repo.export_object(obj.pid))[1]
        if triples is not None:
            union.extend(triples)
    assert sorted(union, key=Triple.sort_key) == repo.graph.dump()


def test_rebuild_preserves_dump(repo):
    aggregator = put_object(repo, {"Aggregator"})
    for _ in range(3):
        put_object(repo, {"Content"}, edges=[("memberOf", aggregator)])
    before = repo.graph.dump()
    repo.rebuild_graph()
    assert repo.graph.dump() == before


def test_rebuild_empty(repo):
    repo.rebuild_graph()
    assert repo.graph.dump() == []


def test_rebuild_after_delete_drops_subject(repo):
    aggregator = put_object(repo, {"Aggregator"})
    member = put_object(repo, {"Content"}, edges=[("memberOf", aggregator)])
    repo.delete_object(member)
    repo.rebuild_graph()
    assert all(t.subject != member for t in repo.graph.dump())


def test_provenance_takes_no_part_in_comparison():
    """A triple the harvester builds equals the same triple parsed back."""
    built = Triple("nsdl:1", base_predicate("memberOf"), "nsdl:2")
    parsed = Triple("nsdl:1", base_predicate("memberOf"), "nsdl:2", provenance="nsdl:1")
    assert built == parsed and hash(built) == hash(parsed)
    assert not built < parsed and not parsed < built
    assert sorted([parsed, built]) == [parsed, built]
    assert sorted([built, parsed]) == [built, parsed]


def test_rebuild_aborts_on_unparseable_rels():
    store = TripleStore()
    held = Triple("nsdl:3", base_predicate("memberOf"), "nsdl:1")
    store.replace_triples("nsdl:3", [held])
    good = serialize_rels("nsdl:1", [])
    with pytest.raises(ValidationError) as excinfo:
        store.rebuild((pid, parse_rels(pid, fragment))
                      for pid, fragment in [("nsdl:1", good), ("nsdl:2", b"<broken")])
    assert "nsdl:2" in str(excinfo.value)
    assert store.dump() == [held]


def test_inverse_relation_consistency_at_scale(repo):
    rng = random.Random(99)
    aggregators = [put_object(repo, {"Aggregator"}) for _ in range(8)]
    resources = []
    edge_count = 0
    while edge_count < 1000:
        memberships = rng.sample(aggregators, rng.randint(0, 4))
        edge_count += len(memberships)
        resources.append(
            put_object(repo, {"Content"},
                       edges=[("memberOf", a) for a in memberships]))
    from overlay_repo.behaviors import aggregator_list_members, resource_memberships

    for a in aggregators:
        for r in aggregator_list_members(repo, a):
            assert a in resource_memberships(repo, r)
    for r in resources:
        for a in resource_memberships(repo, r):
            assert r in aggregator_list_members(repo, a)
    assert sum(len(aggregator_list_members(repo, a)) for a in aggregators) \
        == edge_count


def test_parse_query_round_trip():
    q = parse_query(
        "select ?m ?r where (?m <rel:metadataFor> ?r)"
        " (?m <rel:providedBy> <info:nsdl/nsdl:7>)")
    assert q.select == ("m", "r")
    assert q.clauses[1][2] == "nsdl:7"
    assert q.clauses[0][1] == base_predicate("metadataFor")


def test_parse_query_extension_predicate():
    q = parse_query("select ?x where (?x <http://example.org/v#cites> ?y)")
    assert q.clauses[0][1] == Predicate("http://example.org/v#", "cites")


@pytest.mark.parametrize("text", [
    "where (?a <rel:memberOf> ?b)",
    "select where (?a <rel:memberOf> ?b)",
    "select ?a",
    "select ?z where (?a <rel:memberOf> ?b)",
    "select ?a where (?a <rel:memberOf>)",
    "select ?a where (?a <rel:memberOf> ?b",
    "select ?a where (?a rel:memberOf ?b)",
])
def test_parse_query_errors(text):
    with pytest.raises(QueryParseError):
        parse_query(text)


def test_reads_stay_consistent_under_churn(repo):
    import threading

    aggregator = put_object(repo, {"Aggregator"})
    members = [put_object(repo, {"Content"}, edges=[("memberOf", aggregator)])
               for _ in range(50)]
    pattern = parse_query(
        f"select ?r where (?r <rel:memberOf> <info:nsdl/{aggregator}>)")
    errors = []
    stop = threading.Event()

    def churn():
        try:
            while not stop.is_set():
                for member in members:
                    obj = repo.get_object(member)
                    repo.put_object(obj)  # retract + reinsert its triples
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    def read():
        try:
            for _ in range(300):
                rows = repo.graph.query(pattern)
                assert len(rows) == len(members)
                dump = repo.graph.dump()
                assert len(dump) == len(members)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    writers = [threading.Thread(target=churn) for _ in range(2)]
    readers = [threading.Thread(target=read) for _ in range(3)]
    for t in writers + readers:
        t.start()
    for t in readers:
        t.join()
    stop.set()
    for t in writers:
        t.join()
    assert not errors


def test_rels_rejects_target_with_trailing_newline():
    payload = (
        b'<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
        b' xmlns:rel="http://ns.nsdl.org/ontologies/relationships#">'
        b'<rdf:Description rdf:about="info:nsdl/nsdl:4">'
        b'<rel:metadataFor rdf:resource="info:nsdl/nsdl:1&#10;"/>'
        b'</rdf:Description></rdf:RDF>')
    with pytest.raises(ValidationError, match="malformed pid"):
        parse_rels("nsdl:4", payload)


def _shared_terms_payload():
    return serialize_rels("nsdl:4", [
        Triple("nsdl:4", base_predicate("metadataFor"), "nsdl:1", "nsdl:4"),
        Triple("nsdl:4", Predicate("http://example.org/v#", "cites"), "nsdl:9", "nsdl:4"),
    ])


def test_parse_rels_reads_a_parsed_element_as_its_bytes():
    payload = _shared_terms_payload()
    assert parse_rels("nsdl:4", ET.fromstring(payload)) == parse_rels("nsdl:4", payload)


def test_parses_share_one_predicate_per_term():
    first = sorted(parse_rels("nsdl:4", _shared_terms_payload()))
    second = sorted(parse_rels("nsdl:4", _shared_terms_payload()))
    assert [t.predicate for t in first] == [t.predicate for t in second]
    assert all(a.predicate is b.predicate for a, b in zip(first, second))
    shared = {t.predicate.name: t.predicate for t in first}
    query = parse_query("select ?x where (?x <http://example.org/v#cites> ?y)"
                        " (?x <rel:metadataFor> ?y)")
    assert query.clauses[0][1] is shared["cites"]
    assert query.clauses[1][1] is shared["metadataFor"] is base_predicate("metadataFor")
    # a Predicate made directly still compares, hashes, orders and prints the same
    fresh = Predicate("http://example.org/v#", "cites")
    assert fresh == shared["cites"] and hash(fresh) == hash(shared["cites"])
    assert not fresh < shared["cites"] and fresh < Predicate("http://example.org/v#", "d")
    assert str(fresh) == str(shared["cites"]) == "http://example.org/v#cites"
    assert str(shared["metadataFor"]) == "metadataFor"
    assert pickle.loads(pickle.dumps(fresh)) is shared["cites"]


# -- paged queries


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 6),
       st.none() | st.integers(0, 4), st.integers(0, 150))
def test_paged_query_is_the_page_of_the_unpaged_rows(seed, offset, limit, budget):
    """Over the random graphs and patterns of the brute-force tests, a paged
    query answers the page of the unpaged rows, and a candidate budget that
    refuses it refuses the unpaged query too."""
    rng = random.Random(seed)
    pool, triples = random_graph(rng, max_triples=80)
    # pids of one to three digits, whose text order is not their pid order
    rename = dict(zip(pool, (f"nsdl:{n}" for n in rng.sample(range(1, 400), len(pool)))))
    triples = [(rename[s], p, rename[o]) for s, p, o in triples]
    store = load_plain_triples(TripleStore(), triples)
    pids = sorted({t[0] for t in triples} | {t[2] for t in triples}) or ["nsdl:1"]
    pattern = to_engine_pattern(*random_pattern(rng, pids, rng.randint(1, 3)))
    rows = store.query(pattern)
    assert store.query(pattern, offset=offset, limit=limit) == page(rows, offset, limit)
    try:
        store.query(pattern, max_candidates=budget, offset=offset, limit=limit)
    except LimitExceededError:
        with pytest.raises(LimitExceededError):
            store.query(pattern, max_candidates=budget)


def test_paged_join_stops_at_its_page(lookups):
    store, query = _join3_store(500), parse_query(JOIN3)
    store.query(query)
    unpaged = len(lookups)
    assert store.query(query, offset=0, limit=20) == [(f"nsdl:{r}",) for r in range(600, 620)]
    assert len(lookups) - unpaged <= unpaged / 4


def test_page_bounds_fall_inside_one_values_rows(lookups):
    """Three rows for each ?r: the page starts in the rows of nsdl:11 and
    ends in those of nsdl:12, and the rows of nsdl:13 on are never read."""
    store = load_plain_triples(TripleStore(), [
        triple for r in range(10, 40) for triple in [
            (f"nsdl:{r}", EXT_NS + "likes", "nsdl:2"),
            *((f"nsdl:{r}", EXT_NS + "cites", f"nsdl:{x}") for x in (100, 5, 3))]])
    query = parse_query(f"select ?r ?x where (?r <{EXT_NS}likes> <info:nsdl/nsdl:2>)"
                        f" (?r <{EXT_NS}cites> ?x)")
    rows = store.query(query)
    unpaged = len(lookups)
    assert store.query(query, offset=4, limit=4) == rows[4:8] == [
        ("nsdl:11", "nsdl:5"), ("nsdl:11", "nsdl:100"),
        ("nsdl:12", "nsdl:3"), ("nsdl:12", "nsdl:5")]
    assert [call.args[0] for call in lookups[unpaged + 1:]] == [
        "nsdl:10", "nsdl:11", "nsdl:12"]


def test_paged_rows_of_a_predicate_order_by_uri():
    store = load_plain_triples(TripleStore(), [
        ("nsdl:1", EXT_NS + term, "nsdl:2") for term in EXT_TERMS])
    query = parse_query("select ?p where (<info:nsdl/nsdl:1> ?p <info:nsdl/nsdl:2>)")
    assert store.query(query, offset=1, limit=2) == [
        (EXT_NS + "follows",), (EXT_NS + "likes",)]


def test_unpaged_tied_join_drives_from_its_first_selected_variable():
    """Both constant clauses have ten triples; the planner drives from the
    one binding ?r, paged or not, so each ?r's two citers are probed: 10 +
    10 * 2 + 10 candidates, where driving from ?m would charge 10 + 10 + 10."""
    store = load_plain_triples(TripleStore(), [
        triple for m in range(100, 110) for triple in (
            (f"nsdl:{m}", EXT_NS + "follows", "nsdl:1"),
            (f"nsdl:{m}", EXT_NS + "cites", f"nsdl:{m + 10}"),
            (f"nsdl:{m + 100}", EXT_NS + "cites", f"nsdl:{m + 10}"),
            (f"nsdl:{m + 10}", EXT_NS + "likes", "nsdl:2"))])
    query = parse_query(JOIN3)
    assert len(store.query(query, max_candidates=40)) == 10
    with pytest.raises(LimitExceededError):
        store.query(query, max_candidates=39)


# -- index buckets

# pids of one to three digits, whose text order is not their pid order
_BUCKET_POOL = ["nsdl:1", "nsdl:2", "nsdl:9", "nsdl:10", "nsdl:11", "nsdl:99",
                "nsdl:100", "nsdl:101"]
_BUCKET_PIDS = st.sampled_from(_BUCKET_POOL)
_BUCKET_PREDICATES = (base_predicate("memberOf"), base_predicate("metadataFor"),
                      Predicate(EXT_NS, "links"))
_STORE_OPS = st.lists(st.one_of(
    st.tuples(st.just("replace"), _BUCKET_PIDS, st.lists(st.tuples(
        st.integers(0, len(_BUCKET_PREDICATES) - 1), _BUCKET_PIDS), max_size=6)),
    st.tuples(st.just("retract"), _BUCKET_PIDS),
), max_size=30)
_BUCKET_KEYS = {
    "_by_o": lambda t: t.object,
    "_by_p": lambda t: t.predicate,
    "_by_sp": lambda t: (t.subject, t.predicate),
    "_by_po": lambda t: (t.predicate, t.object),
}


@settings(max_examples=300, deadline=None)
@given(_STORE_OPS)
def test_buckets_hold_their_triples_in_row_order(ops):
    """After any replace_triples and retract sequence, each bucket holds
    exactly its matching triples in Triple.sort_key order, as a 1-tuple
    exactly when it holds one, and subjects_of and objects_of answer in
    pid order what a scan of all the triples finds."""
    store, asserted = TripleStore(), {}
    for op, pid, *edges in ops:
        if op == "replace":
            triples = [Triple(pid, _BUCKET_PREDICATES[p], o, provenance=pid)
                       for p, o in edges[0]]
            store.replace_triples(pid, triples)
            asserted[pid] = set(triples)
        else:
            store.retract(pid)
            asserted.pop(pid, None)
    everything = sorted(set().union(*asserted.values()), key=Triple.sort_key)
    for name, key_of in _BUCKET_KEYS.items():
        expected = {}
        for t in everything:
            expected.setdefault(key_of(t), []).append(t)
        index = getattr(store, name)
        assert {key: list(bucket) for key, bucket in index.items()} == expected, name
        for bucket in index.values():
            assert type(bucket) is (tuple if len(bucket) == 1 else list)
    for name in ("memberOf", "metadataFor"):
        pred = base_predicate(name)
        for pid in _BUCKET_POOL:
            assert store.subjects_of(name, pid) == pid_sorted(
                t.subject for t in everything if t.predicate == pred and t.object == pid)
            assert store.objects_of(pid, name) == pid_sorted(
                t.object for t in everything if t.predicate == pred and t.subject == pid)
