"""Opening a data directory: what open reads, what it refuses, and what it
costs in XML parses.

``tests/golden/data_dir`` was written by the Repository of commit 5add9a0,
before open read the RELS element of a record in place: the fixture
figures (``fixtures/figures/``, handles and REC.oai_dc, REC.nsdl_dc and
REC.marcxml payloads), two of them deleted (nsdl:25 and nsdl:42, whose
RELS the tombstone dropped), a second version of nsdl:4, a remote Content
object with a minted handle (nsdl:43) and a harvested-style Metadata
object (nsdl:44) with a SOURCE doc and a RELS fragment that adds a
dcterms extension predicate to its two base ones. ``objects/44.xml`` was
then edited by hand: its namespaces are declared on <digitalObject> under
other prefixes and its properties are reordered.
``data_dir_44_canonical.xml`` is the record as written before the edit.
"""

import re
import shutil
import tempfile
from datetime import datetime, timezone
from io import BytesIO
from pathlib import Path
from xml.etree import ElementTree as ET
from xml.sax.saxutils import quoteattr  # the reference writer

import pytest
from hypothesis import example, given, settings, strategies as st

from overlay_repo.errors import StoreError
from overlay_repo.graph import RDF_NS, Triple
from overlay_repo.model import RELS_DS, SOURCE_DS, pid_number
from overlay_repo.oai import OaiProvider
from overlay_repo.ontology import BASE_NAMESPACE, Predicate
from overlay_repo.store import Repository
from overlay_repo.web import GatewayApp

from support import TickingClock, put_object, seed_metadata

OAI = {"o": "http://www.openarchives.org/OAI/2.0/"}

GOLDEN = Path(__file__).parent / "golden"
HAND_EDITED = "nsdl:44"


@pytest.fixture
def written_before(tmp_path):
    copy = tmp_path / "data"
    shutil.copytree(GOLDEN / "data_dir", copy)
    return copy


def _record(data_dir: Path, pid: str) -> bytes:
    return (data_dir / "objects" / f"{pid_number(pid)}.xml").read_bytes()


def test_data_dir_written_before_reopens_unchanged(written_before):
    repo = Repository(written_before)
    pids = repo.pids()
    assert len(pids) == 23
    assert [p for p in pids if repo.get_object(p).state == "deleted"] \
        == ["nsdl:25", "nsdl:42"]
    assert repo.resolve_handle("hdl:2200/00443") == "nsdl:43"
    assert repo.source_pid("alpha", "oai:alpha:tides") == HAND_EDITED
    assert repo.stored_formats() == {"oai_dc", "nsdl_dc", "marcxml"}
    for pid in pids:
        exported = repo.export_object(pid)
        if pid == HAND_EDITED:
            assert _record(written_before, pid) != exported
            assert exported == (GOLDEN / "data_dir_44_canonical.xml").read_bytes()
        else:
            assert exported == _record(written_before, pid), pid
    assert repo.graph.objects_of(HAND_EDITED, "metadataFor") == ["nsdl:43"]
    assert repo.graph.lookup(
        HAND_EDITED, Predicate("http://purl.org/dc/terms/", "references"), "nsdl:1")
    dump = repo.graph.dump()
    repo.rebuild_graph()
    assert repo.graph.dump() == dump
    assert (repo.mint_pid(), repo.assign_handle(put_object(repo, {"Content"}))) \
        == ("nsdl:45", "hdl:2200/00444")


def test_open_parses_each_record_file_once(written_before, xml_work, rels_parses):
    repo = Repository(written_before)
    objects = list(repo.objects())
    sources = sum(o.datastream(SOURCE_DS) is not None for o in objects)
    rec_streams = sum(len(o.record_formats()) for o in objects)
    assert (sources, rec_streams) == (1, 6)
    assert xml_work["parsers"] == len(objects) + sources + rec_streams
    assert xml_work["serializations"] == 0
    assert rels_parses == [o.pid for o in objects
                           if b"<rels>" in _record(written_before, o.pid)]


def test_open_keeps_no_rels_bytes_and_exports_each_record(written_before):
    """Each relationship is held once, in the graph: no opened object holds
    RELS bytes of its own, every object with relationships holds the same
    empty stream in their place, and every export still equals its record
    file (the hand-edited one its canonical form)."""
    repo = Repository(written_before)
    held = [o.datastream(RELS_DS) for o in repo.objects()
            if o.datastream(RELS_DS) is not None]
    assert len(held) == sum(b"<rels>" in _record(written_before, pid)
                            for pid in repo.pids()) > 1
    assert all(ds is held[0] for ds in held) and held[0].payload == b""
    for pid in repo.pids():
        assert repo.export_object(pid) == (
            (GOLDEN / "data_dir_44_canonical.xml").read_bytes() if pid == HAND_EDITED
            else _record(written_before, pid)), pid


def test_open_names_a_record_whose_remote_url_breaks_the_url_rule(written_before):
    """A data directory written before the URL rule may hold a record with
    a file: URL; open stops at it, naming the file, as for nsdl:01."""
    path = written_before / "objects" / "43.xml"
    path.write_bytes(path.read_bytes().replace(
        b'url="http://example.org/tides"', b'url="file:///etc/hostname"'))
    with pytest.raises(StoreError, match=r"43\.xml: .*CONTENT.*'file:///etc/hostname'"):
        Repository(written_before)


def test_open_reads_each_pid_number_twice(written_before, pid_numbers):
    """Once in the record check (DigitalObject.validate), once for the
    object's file name and indexes; a pid is never parsed again."""
    repo = Repository(written_before)
    pids = repo.pids()
    assert sorted(pid_numbers) == sorted(pids * 2)


def test_reopen_refuses_a_record_under_another_pids_name(tmp_path, clock):
    repo = Repository(tmp_path / "d", clock=clock)
    pid = put_object(repo, {"Content"})
    objects = tmp_path / "d" / "objects"
    shutil.copy(objects / "1.xml", objects / "7.xml")
    repo.put_object(repo.get_object(pid))
    with pytest.raises(StoreError, match=r"7\.xml: holds nsdl:1, whose record is 1\.xml"):
        Repository(tmp_path / "d", clock=clock)


def test_reopen_refuses_a_record_with_a_non_numeric_name(tmp_path, clock):
    repo = Repository(tmp_path / "d", clock=clock)
    put_object(repo, {"Content"})
    objects = tmp_path / "d" / "objects"
    (objects / "1.xml").rename(objects / "foo.xml")
    with pytest.raises(StoreError, match=r"foo\.xml: holds nsdl:1"):
        Repository(tmp_path / "d", clock=clock)


# Edits of objects/44.xml: a string replaces what <rels> holds, a pair
# (old, new) replaces text anywhere in the record.
_MALFORMED = [
    ("<r:RDF/>junk", "rels must wrap one rdf:RDF element"),
    ("<r:RDF/><r:RDF/>", "rels must wrap one rdf:RDF element"),
    ("<r:Description/>", "RELS root must be rdf:RDF"),
    *(pytest.param(edit, reason, id=name) for name, edit, reason in [
        ("wrong root", ("digitalObject", "object"),
         "root element must be digitalObject, got 'object'"),
        ("version", ('version="1"', 'version="1.0"'),
         "version must be a decimal integer"),
        ("two rels", ("</rels>", "</rels><rels><r:RDF/></rels>"),
         "multiple rels elements"),
        ("unexpected element", ("<behavior ", "<extra/><behavior "),
         "unexpected element 'extra'"),
        ("no lastModified", (' lastModified="2010-06-01T00:00:05Z"', ""),
         "missing attribute 'lastModified'"),
        ("RELS datastream", ('dsId="SOURCE"', 'dsId="RELS"'),
         "the relationship stream belongs in <rels>"),
        ("not base64", (">PHNvdXJjZS", ">*PHNvdXJjZS"),
         "datastream SOURCE payload is not valid base64"),
        ("unknown kind", ('dsId="SOURCE" kind="local"', 'dsId="SOURCE" kind="inline"'),
         "datastream SOURCE has unknown kind 'inline'"),
    ]),
]


def _malformed(written_before: Path, edit) -> str:
    """objects/44.xml with edit applied."""
    text = (written_before / "objects" / "44.xml").read_text("utf-8")
    if isinstance(edit, str):
        return text.split("<rels>")[0] + f"<rels>{edit}</rels></digitalObject>\n"
    return text.replace(*edit)


@pytest.mark.parametrize("edit, reason", _MALFORMED)
def test_reopen_names_record_with_malformed_rels(written_before, edit, reason):
    (written_before / "objects" / "44.xml").write_text(
        _malformed(written_before, edit), "utf-8")
    with pytest.raises(StoreError, match=f"44.xml: .*{reason}"):
        Repository(written_before)


@pytest.mark.parametrize("edit, reason", _MALFORMED)
def test_put_of_malformed_record_is_refused_422(written_before, edit, reason):
    repo = Repository(written_before)
    before = repo.export_object(HAND_EDITED)
    doc = _malformed(written_before, edit).encode("utf-8")
    status, body = _put(GatewayApp(repo), HAND_EDITED, doc)
    assert status == "422 Unprocessable Entity"
    assert re.search(reason, body.decode("utf-8"))
    assert repo.export_object(HAND_EDITED) == before
    assert Repository(written_before).export_object(HAND_EDITED) == before


def _put(app, pid: str, doc: bytes) -> tuple[str, bytes]:
    """Status and body of a PUT of doc to /objects/pid."""
    answer = {}
    body = b"".join(app({
        "REQUEST_METHOD": "PUT", "PATH_INFO": f"/objects/{pid}", "QUERY_STRING": "",
        "CONTENT_LENGTH": str(len(doc)), "wsgi.input": BytesIO(doc),
    }, lambda status, headers: answer.setdefault("status", status)))
    return answer["status"], body


@pytest.mark.parametrize("year", [999, 1])
def test_early_year_survives_export_reopen_and_oai(tmp_path, clock, year):
    """A record stamped before year 1000 is written with a 4-digit year,
    so the directory reopens, and OAI serves the same conformant stamp."""
    stamp = f"{year:04}-01-02T00:00:00Z"
    repo = Repository(tmp_path / "d", clock=clock)
    pid = seed_metadata(repo, 1)[0]
    doc = re.sub(rb'lastModified="[^"]*"', f'lastModified="{stamp}"'.encode(),
                 repo.export_object(pid))
    repo.import_object(doc)
    assert f'lastModified="{stamp}"'.encode() in repo.export_object(pid)
    reopened = Repository(tmp_path / "d", clock=clock)
    assert reopened.get_object(pid).last_modified \
        == datetime(year, 1, 2, tzinfo=timezone.utc)
    assert reopened.export_object(pid) == repo.export_object(pid)
    oai = OaiProvider(reopened, repository_id="test.local")
    response = ET.fromstring(oai.handle_request({
        "verb": "GetRecord", "metadataPrefix": "oai_dc",
        "identifier": oai.oai_identifier(pid)}))
    assert response.findtext(".//o:header/o:datestamp", namespaces=OAI) == stamp
    response = ET.fromstring(oai.handle_request({"verb": "Identify"}))
    assert response.findtext(".//o:earliestDatestamp", namespaces=OAI) == stamp


# -- what a PUT stores reopens as written


def _document(pid: str, handle: str | None = None, streams=(), behaviors=("Content",),
              properties=(), target: str = "nsdl:1") -> bytes:
    """A canonical document for pid whose attribute values, given as the
    values to be read, are written by the reference writer. A stream is
    (dsId, mediaType, url), local when url is None; a RELS property is
    (namespace, name), pointing at target."""
    def attrs(*pairs):
        return "".join(f" {key}={quoteattr(value)}" for key, value in pairs)

    lines = [f'<digitalObject pid="{pid}" state="active" version="1"'
             f' lastModified="2010-06-01T00:00:00Z"'
             f'{attrs(("handle", handle)) if handle is not None else ""}>']
    for ds_id, media_type, url in streams:
        if url is None:
            lines.append(f'<datastream{attrs(("dsId", ds_id), ("kind", "local"))}'
                         f'{attrs(("mediaType", media_type))}>eA==</datastream>')
        else:
            lines.append(f'<datastream{attrs(("dsId", ds_id), ("kind", "remote"))}'
                         f'{attrs(("mediaType", media_type), ("url", url))}/>')
    lines += [f'<behavior name="{name}"/>' for name in behaviors]
    if properties:
        lines.append(f'<rels><rdf:RDF xmlns:rdf="{RDF_NS}">'
                     f'<rdf:Description rdf:about="info:nsdl/{pid}">')
        lines += [f'<p{i}:{name}{attrs((f"xmlns:p{i}", ns))}'
                  f' rdf:resource="info:nsdl/{target}"/>'
                  for i, (ns, name) in enumerate(properties)]
        lines.append("</rdf:Description></rdf:RDF></rels>")
    lines.append("</digitalObject>")
    return "\n".join(lines).encode("utf-8")


def _state(repo: Repository):
    """Everything a reopen must give back: the objects, the graph and
    every export."""
    return (list(repo.objects()), repo.graph.dump(),
            {pid: repo.export_object(pid) for pid in repo.pids()})


def _files(data_dir: Path) -> dict[str, bytes]:
    return {str(path.relative_to(data_dir)): path.read_bytes()
            for path in sorted(data_dir.rglob("*")) if path.is_file()}


# RELS namespaces as a document writes them: references that must be
# written again, a newline reference (read as a space if written raw), a
# raw U+2028, at which str.splitlines splits, and both quotes.
_HOSTILE_NAMESPACES = [
    "http://e.example/a&amp;b&quot;c#",
    "http://e.example/a&lt;b#",
    "http://e.example/a&#10;b#",
    "http://e.example/a\u2028b#",
    "http://e.example/a&apos;b&quot;c#",
]


@pytest.mark.parametrize("written", _HOSTILE_NAMESPACES)
def test_put_rels_namespace_reopens_as_written(tmp_path, clock, written):
    repo = Repository(tmp_path / "d", clock=clock)
    put_object(repo, {"Content"})
    namespace = ET.fromstring(f'<a ns="{written}"/>').get("ns")
    doc = _document("nsdl:2", properties=[("", "cites")]).replace(
        b'xmlns:p0=""', f'xmlns:p0="{written}"'.encode("utf-8"))
    status, _ = _put(GatewayApp(repo), "nsdl:2", doc)
    assert status == "201 Created"
    assert repo.graph.dump() == [
        Triple("nsdl:2", Predicate(namespace, "cites"), "nsdl:1", "nsdl:2")]
    assert _state(Repository(tmp_path / "d", clock=clock)) == _state(repo)


# Text a document may carry in a value: markup, quotes, whitespace an XML
# reader normalizes, line breaks str.splitlines knows, URI and
# ElementTree delimiters, and any other XML 1.0 character.
_hostile = st.text(st.one_of(
    st.sampled_from("&<>\"'\t\n\r \x85\u2028\u2029#/:{}"),
    st.characters(exclude_categories=("Cs", "Cc"), exclude_characters="\ufffe\uffff")),
    max_size=10)
_url = st.one_of(_hostile, _hostile.map("http://h.example/".__add__))
_handle = st.one_of(st.none(), _hostile,
                    st.tuples(_hostile, _hostile).map(lambda p: f"hdl:{p[0]}/{p[1]}"))
_namespace = st.one_of(
    _hostile, _hostile.map("http://e.example/".__add__),
    st.sampled_from([RDF_NS, BASE_NAMESPACE, "http://www.w3.org/XML/1998/namespace",
                     "http://www.w3.org/2000/xmlns/"]))
_put_documents = st.lists(st.builds(
    _document,
    pid=st.sampled_from(["nsdl:2", "nsdl:3"]),
    handle=_handle,
    streams=st.lists(st.tuples(
        st.one_of(_hostile, st.sampled_from(["CONTENT", "SOURCE"])), _hostile,
        st.one_of(st.none(), _url)), max_size=3),
    behaviors=st.lists(st.sampled_from(["Content", "Agent", "Metadata"]),
                       unique=True, max_size=2),
    properties=st.lists(st.tuples(_namespace, st.sampled_from(["cites", "links"])),
                        max_size=3)), min_size=1, max_size=3)


@settings(deadline=None)
@example([_document("nsdl:2", properties=[("http://e.example/a\u2028b#", "cites")])])
@given(_put_documents)
def test_put_documents_reopen_as_written_property(docs):
    """After every PUT that gets a 2xx, the reopened repository equals the
    live one; a PUT that gets a 4xx writes nothing and changes nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = Path(tmp) / "d"
        repo = Repository(data_dir, clock=TickingClock())
        put_object(repo, {"Content"})
        app = GatewayApp(repo)
        for doc in docs:
            before, files = _state(repo), _files(data_dir)
            pid = re.search(rb'pid="(nsdl:[0-9]+)"', doc)[1].decode()
            status, body = _put(app, pid, doc)
            assert status[0] in ("2", "4"), (status, body)
            if status[0] == "2":
                assert _state(Repository(data_dir, clock=TickingClock())) \
                    == _state(repo), pid
            else:
                assert (_state(repo), _files(data_dir)) == (before, files), body
