"""Layout of what an open repository keeps resident: graph buckets, shared
values, slotted records, and the bytes each triple costs."""

import gc
import pickle
import shutil
import tracemalloc
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings, strategies as st

from overlay_repo import canonical
from overlay_repo.graph import Triple, TripleStore, serialize_rels
from overlay_repo.model import Datastream, DigitalObject
from overlay_repo.ontology import base_predicate
from overlay_repo.store import Repository

from support import EXT_NS, START, TickingClock, put_object, record_stream

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "data_dir"
INDEXES = ("_by_provenance", "_by_o", "_by_p", "_by_sp", "_by_po")
# Measured at 366 B per triple on CPython 3.11.7 with buckets of two or
# more triples as lists in row order; 512 B when they were sets, 968 B when
# a set of all triples was kept besides.
BYTES_PER_TRIPLE_BOUND = 400


def corpus_fragments(resources=1830):
    """RELS fragments shaped like a harvested corpus: 4 aggregations, each
    with a provider role; every resource is a member of one aggregation
    (every fourteenth of two), and described by one metadata object (every
    sixteenth by two), which names its provider."""
    pred = base_predicate
    pids = iter(f"nsdl:{n}" for n in range(1, 10 ** 6))
    fragments = []

    def add(pid, edges):
        fragments.append((pid, serialize_rels(pid, [
            Triple(pid, pred(name), target, pid) for name, target in edges])))

    aggregators = [next(pids) for _ in range(4)]
    roles = [next(pids) for _ in range(4)]
    for role, aggregator in zip(roles, aggregators):
        add(role, [("hasRole", aggregator)])
    for i in range(resources):
        resource = next(pids)
        edges = [("memberOf", aggregators[i % 4])]
        if i % 14 == 0:
            edges.append(("memberOf", aggregators[(i + 1) % 4]))
        add(resource, edges)
        for _ in range(2 if i % 16 == 0 else 1):
            add(next(pids), [("metadataFor", resource), ("providedBy", roles[i % 4])])
    return fragments


def test_rebuild_bytes_per_triple():
    fragments = corpus_fragments()
    # The collection empties the free lists, so every tuple counts.
    gc.collect()
    tracemalloc.start()
    try:
        store = TripleStore()
        store.rebuild(fragments)
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(store) == 5855
    assert traced / len(store) <= BYTES_PER_TRIPLE_BOUND


def test_open_shares_behavior_sets_and_stream_ids(tmp_path):
    shutil.copytree(GOLDEN_DIR, tmp_path / "data")
    objects = list(Repository(tmp_path / "data").objects())
    by_value: dict = {}
    for obj in objects:
        by_value.setdefault(obj.behaviors, set()).add(id(obj.behaviors))
        for ds in obj.datastreams:
            by_value.setdefault(ds.ds_id, set()).add(id(ds.ds_id))
            by_value.setdefault(ds.media_type, set()).add(id(ds.media_type))
    assert sum(1 for o in objects if o.behaviors == frozenset({"Content"})) > 1
    assert sum(1 for o in objects if o.datastream("RELS") is not None) > 1
    assert {value: len(ids) for value, ids in by_value.items() if len(ids) > 1} == {}


def test_records_round_trip_through_pickle():
    triple = Triple("nsdl:4", base_predicate("metadataFor"), "nsdl:1", "nsdl:4")
    stream = Datastream("CONTENT", "remote", "text/html", url="http://x.example/")
    obj = DigitalObject(pid="nsdl:4", behaviors=frozenset({"Content"}),
                        datastreams=(stream, record_stream("oai_dc", b"<r/>")),
                        last_modified=START, version=3)
    for value in (triple, stream, obj):
        assert not hasattr(value, "__dict__")
        assert pickle.loads(pickle.dumps(value)) == value
    assert pickle.loads(pickle.dumps(triple)) < replace(triple, object="nsdl:2")


# one write each: (op, pid index, edges); the edges a put asserts also pick
# the version a restore brings back
_OPS = st.lists(st.tuples(
    st.sampled_from(["put", "delete", "restore"]), st.integers(0, 5),
    st.lists(st.tuples(st.sampled_from(["memberOf", "metadataFor", "links"]),
                       st.integers(0, 5)), max_size=4)),
    min_size=1, max_size=25)


def _layout(store):
    """Each index as {key: set of its triples}, checking as it goes that
    a bucket of one triple is a 1-tuple and no bucket is empty."""
    layout = {}
    for name in INDEXES:
        index = layout[name] = {}
        for key, bucket in getattr(store, name).items():
            assert bucket
            if name != "_by_provenance":
                assert (type(bucket) is tuple) == (len(bucket) == 1)
            index[key] = set(bucket)
    return layout


@settings(max_examples=100, deadline=None)
@given(_OPS)
def test_live_graph_equals_a_rebuild(ops):
    """After each put, delete and restore, every index of the live graph
    holds the keys and buckets a rebuild from the stored RELS holds."""
    repo = Repository(clock=TickingClock())
    pids = [repo.mint_pid() for _ in range(6)]
    versions = {pid: [] for pid in pids}
    for op, at, edges in ops:
        pid = pids[at]
        if op == "put":
            put_object(repo, {"Content", "Aggregator"}, pid=pid, strict=False, edges=[
                (EXT_NS, name, pids[n]) if name == "links" else (name, pids[n])
                for name, n in edges])
        elif op == "delete" and versions[pid]:
            repo.delete_object(pid)
        elif op == "restore" and versions[pid]:
            repo.restore_object(versions[pid][len(edges) % len(versions[pid])],
                                strict=False)
        if pid in repo.pids():
            versions[pid].append(repo.get_object(pid))
        rebuilt = TripleStore()
        rebuilt.rebuild((o.pid, canonical.import_object(repo.export_object(o.pid))[1])
                        for o in repo.active_objects())
        assert _layout(repo.graph) == _layout(rebuilt)
