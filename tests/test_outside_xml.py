"""XML from outside the repository: every parse of it goes through
model.parse_xml, which refuses a DOCTYPE, and so every entity declaration,
before expat reads one; remote bodies are read under one byte cap and one
deadline.

One table of DOCTYPE documents with internal entities is sent through
each site that parses outside bytes into a tree: a PUT or POST body, a
RELS stream, a stored BRAND, a stored SOURCE, a harvest response and a DC
record. Each document is well-formed and expands to a few bytes, so a
parser that reads DOCTYPEs would accept it.
"""

import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
from xml.etree import ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from overlay_repo import canonical, store
from overlay_repo.behaviors import build_brand_doc
from overlay_repo.errors import (
    DisseminationError, HarvestProtocolError, StoreError, ValidationError)
from overlay_repo.graph import parse_rels
from overlay_repo.harvest import HarvestState, Harvester, ProviderConfig
from overlay_repo.model import (
    BRAND_DS, SOURCE_DS, build_source_doc, local_stream, remote_stream)
from overlay_repo.oai import OaiProvider
from overlay_repo.records import parse_dc_entries
from overlay_repo.store import MAX_BODY_BYTES, Repository
from overlay_repo.web import GatewayApp

from support import (
    START, StubOaiProvider, TickingClock, load_topology, oai_dc_record,
    put_object, rels_stream, stub_record)
from test_web import request

GOLDEN = Path(__file__).parent / "golden" / "data_dir"
OAI = {"o": "http://www.openarchives.org/OAI/2.0/"}

DOCTYPES = {
    "internal entity": '<!DOCTYPE x [<!ENTITY e "e">]>',
    "nested entities": '<!DOCTYPE x [<!ENTITY a "aaaa"><!ENTITY b "&a;&a;&a;&a;">]>',
    "parameter entity": """<!DOCTYPE x [<!ENTITY % p "<!ENTITY e 'e'>"> %p;]>""",
    "external subset": '<!DOCTYPE x SYSTEM "http://example.org/x.dtd" [<!ENTITY e "e">]>',
}
# Each document also goes in UTF-16: the refusal is expat's, not a byte scan.
CASES = [(kind, encoding) for kind in sorted(DOCTYPES) for encoding in ("utf-8", "utf-16")]


def doctyped(doc: bytes, kind: str, encoding: str = "utf-8") -> bytes:
    """doc with the DOCTYPE of kind before its root, in encoding."""
    text = doc.decode("utf-8")
    if text.startswith("<?xml"):
        text = text[text.index("?>") + 2:].lstrip()
    return (f'<?xml version="1.0" encoding="{encoding.upper()}"?>\n'
            + DOCTYPES[kind] + "\n" + text).encode(encoding)


@pytest.fixture
def app(repo):
    return GatewayApp(repo, OaiProvider(repo, repository_id="test.local"))


# -- each site refuses every DOCTYPE of the table


@pytest.mark.parametrize("kind,encoding", CASES)
@pytest.mark.parametrize("method", ["PUT", "POST"])
def test_put_or_post_body_with_a_doctype_422_and_object_unchanged(
        repo, app, method, kind, encoding):
    pid = load_topology(repo, "basic_pair")["metadata"]
    before = repo.export_object(pid)
    path = f"/objects/{pid}" if method == "PUT" else "/objects"
    status, _, body = request(app, method, path, body=doctyped(before, kind, encoding))
    assert status == 422, body
    assert b"canonical document: DOCTYPE declarations are not allowed" in body
    assert repo.export_object(pid) == before


@pytest.mark.parametrize("kind,encoding", CASES)
def test_load_fixture_and_open_refuse_a_doctype(tmp_path, repo, kind, encoding):
    pid = load_topology(repo, "basic_pair")["resource"]
    doc = doctyped(repo.export_object(pid), kind, encoding)
    with pytest.raises(ValidationError, match="DOCTYPE"):
        Repository().import_object(doc, strict=False)
    (tmp_path / "objects").mkdir()
    (tmp_path / "objects" / "1.xml").write_bytes(doc)
    with pytest.raises(StoreError, match=r"1\.xml: canonical document: DOCTYPE"):
        Repository(tmp_path)


@pytest.mark.parametrize("kind,encoding", CASES)
def test_put_object_with_rels_bytes_holding_a_doctype_raises(repo, kind, encoding):
    aggregator = put_object(repo, {"Aggregator"})
    pid = put_object(repo, {"Content"})
    rels = rels_stream(pid, [("memberOf", aggregator)])
    before = repo.export_object(pid)
    with pytest.raises(ValidationError, match=f"{pid}: RELS fragment: DOCTYPE"):
        repo.put_object(repo.get_object(pid).with_datastream(
            replace(rels, payload=doctyped(rels.payload, kind, encoding))))
    assert repo.export_object(pid) == before
    repo.put_object(repo.get_object(pid).with_datastream(rels))
    assert repo.graph.objects_of(pid, "memberOf") == [aggregator]


@pytest.mark.parametrize("kind,encoding", CASES)
def test_stored_brand_with_a_doctype_422_and_set_named_by_pid(repo, app, kind, encoding):
    role = put_object(repo, {"Aggregator"}, streams=[local_stream(
        BRAND_DS, "application/xml", doctyped(build_brand_doc("Alpha"), kind, encoding))])
    status, _, body = request(app, "GET", f"/objects/{role}/methods/getBrand")
    assert status == 422 and f"{role}: BRAND document: DOCTYPE".encode() in body
    status, _, body = request(app, "GET", "/oai", query="verb=ListSets")
    names = [s.findtext("o:setName", namespaces=OAI)
             for s in ET.fromstring(body).findall("o:ListSets/o:set", OAI)]
    assert status == 200 and names == [role]


@pytest.mark.parametrize("kind,encoding", CASES)
def test_stored_source_with_a_doctype_holds_no_key_live_or_reopened(
        tmp_path, clock, kind, encoding):
    repo = Repository(tmp_path, clock=clock)
    source = build_source_doc("alpha", "oai:alpha:1", START)
    held = put_object(repo, {"Metadata"}, streams=[
        local_stream(SOURCE_DS, "application/xml", source)])
    doctype = put_object(repo, {"Metadata"}, streams=[
        local_stream(SOURCE_DS, "application/xml", doctyped(
            source.replace(b"oai:alpha:1", b"oai:alpha:2"), kind, encoding))])
    for opened in (repo, Repository(tmp_path, clock=clock)):
        assert opened.source_pid("alpha", "oai:alpha:1") == held
        assert opened.source_pid("alpha", "oai:alpha:2") is None
        assert opened.get_object(doctype).datastream(SOURCE_DS) is not None


@pytest.mark.parametrize("kind,encoding", CASES)
def test_harvest_response_with_a_doctype_writes_nothing_and_stays_resumable(
        repo, kind, encoding):
    stub = StubOaiProvider(page_size=2)
    for i in range(5):
        stub.add(f"oai:alpha:{i}", START.replace(year=2009, minute=i),
                 stub_record("alpha", i))
    pages = []

    def second_page_doctyped(url):
        body = stub.transport(url)
        pages.append(url)
        return doctyped(body, kind, encoding) if len(pages) == 2 else body

    cfg = Harvester(repo).register_provider(
        ProviderConfig(name="alpha", base_url="http://alpha.example/oai"))
    state = HarvestState()
    with pytest.raises(HarvestProtocolError, match="alpha: response: DOCTYPE"):
        Harvester(repo, transport=second_page_doctyped).harvest(cfg, state)
    landed = [o.pid for o in repo.active_objects() if "Metadata" in o.behaviors]
    assert len(landed) == 2  # the first page's records, none of the second's
    assert state.pending_resumption is not None and state.consecutive_failures == 1
    report, state = Harvester(repo, transport=stub.transport).harvest(cfg, state)
    assert report.created == 3 and state.pending_resumption is None
    assert sum("Metadata" in o.behaviors for o in repo.active_objects()) == 5


@pytest.mark.parametrize("kind,encoding", CASES)
def test_parse_dc_entries_refuses_a_doctype(kind, encoding):
    good = oai_dc_record(("title", "T"), ("identifier", "http://x.example/1"))
    assert parse_dc_entries(good, "oai_dc")
    with pytest.raises(ValidationError, match="record: DOCTYPE"):
        parse_dc_entries(doctyped(good, kind, encoding), "oai_dc")


@pytest.mark.parametrize("encoding", ["AUTF-8", "shift_jis", "rot13", "idna"])
def test_body_declaring_an_encoding_python_cannot_read_422(repo, app, encoding):
    pid = load_topology(repo, "basic_pair")["resource"]
    before = repo.export_object(pid)
    body = before.replace(b'encoding="UTF-8"', f'encoding="{encoding}"'.encode())
    status, _, out = request(app, "PUT", f"/objects/{pid}", body=body)
    assert status == 422 and out.startswith(b"canonical document is not well-formed")
    assert repo.export_object(pid) == before


# -- entity amplification


def _peak_of(fn):
    """fn's result and the tracemalloc peak, in bytes, while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_amplifying_put_422_within_64_times_its_body(repo, app):
    """Nested entities in a CONTENT stream's base64 text: a few hundred
    bytes that a parser reading DOCTYPEs expands to a 589,824-byte payload."""
    levels = ['<!ENTITY a "QUFBQUFB">'] + [
        f'<!ENTITY {n} "{("&" + p + ";") * 8}">' for p, n in zip("abcde", "bcdef")]
    body = ('<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<!DOCTYPE digitalObject [{"".join(levels)}]>\n'
            '<digitalObject pid="nsdl:1" state="active" version="1" '
            'lastModified="2010-06-01T00:00:00Z">\n'
            '  <datastream dsId="CONTENT" kind="local" mediaType="text/plain">'
            '&f;&f;&f;</datastream>\n'
            '  <behavior name="Content"/>\n'
            '</digitalObject>\n').encode()
    assert len(body) < 1024
    (status, _, _), peak = _peak_of(lambda: request(app, "PUT", "/objects/nsdl:1", body=body))
    assert status == 422
    assert peak < 64 * len(body)
    assert repo.pids() == []


# -- the item 9 property: mutated golden records never get a 500


_GOLDEN_DOCS = {p.name: p.read_bytes()
                for p in sorted((GOLDEN / "objects").glob("*.xml"))}


@st.composite
def mutated_records(draw):
    """(pid, body): a golden record of pid, mutated, or as it is."""
    name = draw(st.sampled_from(sorted(_GOLDEN_DOCS)))
    doc, at = _GOLDEN_DOCS[name], draw(st.integers(0, len(_GOLDEN_DOCS[name])))
    kind = draw(st.sampled_from(["doctype", "entity", "truncate", "bytes", "text", "none"]))
    if kind == "doctype":
        doc = doctyped(doc, draw(st.sampled_from(sorted(DOCTYPES))))
    elif kind == "entity":  # declarations without a DOCTYPE, and a reference
        doc = doc[:at] + b'<!ENTITY e "e">&e;' + doc[at:]
    elif kind == "truncate":
        doc = doc[:at]
    elif kind != "none":
        spliced = draw(st.binary(min_size=1, max_size=16) if kind == "bytes" else
                       st.text("az09 =:/#", min_size=1, max_size=16).map(str.encode))
        doc = doc[:at] + spliced + doc[at:]
    return f"nsdl:{name.removesuffix('.xml')}", doc


@settings(max_examples=150, deadline=None)
@given(case=mutated_records())
def test_mutated_golden_records_never_get_a_500(case):
    """No answer is a 500, the heap peak stays within a small multiple of
    the body (4 KiB at least, for the fixed cost of a request and of first
    calls such as strptime's), and a stored object's export imports back
    equal."""
    pid, body = case
    repo = Repository(clock=TickingClock())
    for doc in _GOLDEN_DOCS.values():
        repo.import_object(doc, strict=False)
    app = GatewayApp(repo)
    (status, _, out), peak = _peak_of(
        lambda: request(app, "PUT", f"/objects/{pid}", body=body))
    assert status < 500, out
    assert peak < 64 * max(len(body), 4096)
    if status < 300:
        obj, rels = canonical.import_object(repo.export_object(pid))
        assert obj == repo.get_object(pid)
        assert sorted(parse_rels(pid, rels) if rels is not None else []) \
            == sorted(repo.graph.triples_asserted_by(pid))


# -- the fetch cap and deadline


class _Body:
    """A response body: chunk after chunk, each after delay seconds,
    without end."""

    def __init__(self, chunk: bytes, delay: float = 0.0):
        self.chunk, self.delay, self.read_bytes = chunk, delay, 0

    def read1(self, size):
        time.sleep(self.delay)
        self.read_bytes += len(self.chunk)
        return self.chunk

    def read(self, size=-1):
        """The body as a reader without cap or deadline takes it, cut once
        it has passed either."""
        out, started = [], time.monotonic()
        while self.read_bytes <= MAX_BODY_BYTES and time.monotonic() - started < 1:
            out.append(self.read1(size))
        return b"".join(out)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


@pytest.mark.parametrize("chunk,delay,limit", [
    (b"x" * 65536, 0.0, f"passes {MAX_BODY_BYTES} bytes"),
    (b"x", 0.05, "not read within 0.2 s"),
])
def test_fetch_of_an_endless_or_slow_body_fails_at_the_cap_or_deadline(
        monkeypatch, chunk, delay, limit):
    body = _Body(chunk, delay)
    monkeypatch.setattr(store.urllib.request, "urlopen", lambda url, timeout: body)
    started = time.monotonic()
    with pytest.raises(Exception, match=limit):
        store._default_fetcher("http://example.org/x", 0.2)
    assert time.monotonic() - started < 1
    assert body.read_bytes <= MAX_BODY_BYTES + len(chunk)


def test_over_cap_remote_body_502_and_over_cap_page_a_protocol_error(
        repo, monkeypatch):
    endless = _Body(b"x" * 65536)
    monkeypatch.setattr(store.urllib.request, "urlopen", lambda url, timeout: endless)
    pid = put_object(repo, {"Content"}, streams=[
        remote_stream("CONTENT", "text/html", "http://example.org/big")])
    with pytest.raises(DisseminationError, match="passes"):
        repo.disseminate(pid, "showContent")
    status, _, _ = request(GatewayApp(repo), "GET", f"/objects/{pid}/methods/showContent")
    assert status == 502
    harvester = Harvester(repo)
    cfg = harvester.register_provider(
        ProviderConfig(name="alpha", base_url="http://alpha.example/oai"))
    state = HarvestState()
    with pytest.raises(HarvestProtocolError, match="alpha: request failed: .*passes"):
        harvester.harvest(cfg, state)
    assert state.consecutive_failures == 1 and state.last_success_until is None
