"""Record pipeline: the validating parse, the normalization pass,
crosswalks, and the gold-record fold."""

import heapq
from datetime import datetime, timedelta, timezone
from typing import NamedTuple
from xml.etree import ElementTree as ET
from xml.sax.saxutils import escape, quoteattr, unescape

import pytest
from hypothesis import example, given, settings, strategies as st

from overlay_repo.errors import FormatUnavailableError, ModelIntegrityError, ValidationError
from overlay_repo.harvest import Harvester, ProviderConfig
from overlay_repo.model import pid_sort_key
from overlay_repo.records import (
    DC_ELEMENT_ORDER,
    DC_NS,
    DCT_NS,
    GOLD_SINGLE_VALUED,
    NSDL_DC_NS,
    XSI_NS,
    DcEntry,
    GoldInput,
    MetadataRecord,
    apply_rules,
    check_record,
    crosswalk,
    dc_entries,
    dc_line,
    embeddable,
    fold_gold,
    parse_dc_entries,
    read_dc_lines,
    serialize_dc,
)

from support import START, StubOaiProvider, nsdl_dc_record, oai_dc_record, oracle_gold_fold

T0 = datetime(2004, 1, 1, tzinfo=timezone.utc)


def entries_of(xml: bytes) -> dict[str, list[tuple[str, str | None]]]:
    out: dict[str, list[tuple[str, str | None]]] = {}
    for e in parse_dc_entries(xml, "nsdl_dc"):
        out.setdefault(e.name, []).append((e.value, e.xsi_type))
    return out


def normalized(xml: bytes) -> dict[str, list[str]]:
    """Values of each element of an oai_dc record after one normalization
    pass."""
    out: dict[str, list[str]] = {}
    for e in apply_rules(parse_dc_entries(xml, "oai_dc")):
        out.setdefault(e.name, []).append(e.value)
    return out


def ingest_verdict(repo, xml: bytes, format_name: str = "oai_dc") -> str | None:
    """None when harvest ingest accepts the record, else its reject reason."""
    stub = StubOaiProvider()
    stub.add("oai:p:1", START - timedelta(days=1), xml)
    harvester = Harvester(repo, transport=stub.transport)
    cfg = harvester.register_provider(ProviderConfig(
        name="p", base_url="http://p.example/oai", format=format_name))
    report, _ = harvester.harvest(cfg)
    return report.rejects[0][1] if report.rejects else None


# --------------------------------------------------------------------------
# normalization


def test_date_normalization_spelled_out_day_first():
    xml = oai_dc_record(("date", "5 March 2004"), ("identifier", "http://x/1"))
    assert normalized(xml)["date"] == ["2004-03-05"]


def test_date_normalization_month_first():
    xml = oai_dc_record(("date", "March 5, 2004"), ("identifier", "http://x/1"))
    assert normalized(xml)["date"] == ["2004-03-05"]


@pytest.mark.parametrize("raw,expected", [
    ("2004-03-05", "2004-03-05"),
    ("2004-03", "2004-03"),
    ("2004", "2004"),
    ("Mar 5, 2004", "2004-03-05"),
    ("2004/03/05", "2004-03-05"),
    ("03/05/2004", "2004-03-05"),
    ("March 2004", "2004-03"),
    ("circa 1850", "circa 1850"),  # unknown shapes pass through
])
def test_date_rule_table(raw, expected):
    xml = oai_dc_record(("date", raw), ("identifier", "http://x/1"))
    assert normalized(xml)["date"] == [expected]


def test_type_vocabulary_mapping():
    xml = oai_dc_record(("type", "Movie"), ("identifier", "http://x/1"))
    assert normalized(xml)["type"] == ["MovingImage"]


def test_language_normalization():
    xml = oai_dc_record(
        ("language", "English"), ("language", "FR"), ("language", "Klingon"),
        ("identifier", "http://x/1"))
    assert normalized(xml)["language"] == ["en", "fr", "Klingon"]


def test_whitespace_collapse():
    xml = oai_dc_record(("title", "  Too   many\n spaces "), ("identifier", "http://x/1"))
    assert normalized(xml)["title"] == ["Too many spaces"]


def test_transforms_idempotent_on_normalized_record():
    xml = oai_dc_record(
        ("title", "Plain"), ("date", "2004-03-05"), ("identifier", "http://x/1"))
    once = apply_rules(parse_dc_entries(xml, "oai_dc"))
    assert apply_rules(once) == once
    assert serialize_dc("oai_dc", once) == xml


_xml_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=40)


@given(_xml_text, _xml_text)
def test_transforms_idempotent_property(title, date):
    xml = serialize_dc("oai_dc", [
        DcEntry("title", " ".join(title.split())),
        DcEntry("date", " ".join(date.split())),
    ])
    once = apply_rules(parse_dc_entries(xml, "oai_dc"))
    assert apply_rules(once) == once
    # A second pass over the stored oai_dc form, which drops the
    # qualifiers, adds them back unchanged: one pass is enough.
    assert apply_rules(parse_dc_entries(serialize_dc("oai_dc", once), "oai_dc")) == once


_dc_entry = st.tuples(
    st.sampled_from(("title", "date", "type", "language", "identifier", "subject")),
    st.one_of(_xml_text, st.sampled_from(
        ("March 5, 2004", "2004-03", "Movie", "video", "English", "fre", " Text "))))


@given(st.lists(_dc_entry, max_size=6), st.lists(_dc_entry, max_size=6))
def test_dc_entries_equal_the_crosswalk_parsed_back(first, second):
    """Gold folds an oai_dc contributor's normalized entries directly; they
    equal the entries of its nsdl_dc crosswalk parsed back, so gold bytes
    are the same either way."""
    records = [MetadataRecord("oai_dc", oai_dc_record(*entries))
               for entries in (first, second)]
    direct = [dc_entries(r, "nsdl_dc") for r in records]
    parsed_back = [parse_dc_entries(crosswalk(r, "nsdl_dc").xml, "nsdl_dc")
                   for r in records]
    assert direct == parsed_back

    def gold(entries):
        return fold_gold([GoldInput(f"nsdl:{i + 1}", T0 + timedelta(seconds=i),
                                    tuple(map(dc_line, e))) for i, e in enumerate(entries)], [])

    assert gold(direct).xml == gold(parsed_back).xml


def test_qualification_in_nsdl_dc():
    record = MetadataRecord("oai_dc", oai_dc_record(
        ("date", "March 5, 2004"), ("type", "Movie"), ("language", "English"),
        ("identifier", "http://x/1")))
    walked = crosswalk(record, "nsdl_dc")
    got = entries_of(walked.xml)
    assert got["date"] == [("2004-03-05", "dct:W3CDTF")]
    assert got["type"] == [("MovingImage", "dct:DCMIType")]
    assert got["language"] == [("en", "dct:RFC3066")]
    assert got["identifier"] == [("http://x/1", None)]


# --------------------------------------------------------------------------
# crosswalks


def test_crosswalk_identity_same_format():
    record = MetadataRecord("nsdl_dc", nsdl_dc_record(
        ("title", "X"), ("identifier", "http://x/1")))
    assert crosswalk(record, "nsdl_dc").xml == record.xml


def test_crosswalk_unregistered_pair():
    record = MetadataRecord("oai_dc", oai_dc_record(("identifier", "http://x/1")))
    with pytest.raises(FormatUnavailableError):
        crosswalk(record, "marcxml")


def test_crosswalk_deterministic():
    record = MetadataRecord("oai_dc", oai_dc_record(
        ("title", "X"), ("date", "5 March 2004"), ("identifier", "http://x/1")))
    assert crosswalk(record, "nsdl_dc").xml == crosswalk(record, "nsdl_dc").xml


def test_crosswalk_leaves_original_untouched():
    xml = oai_dc_record(("date", "5 March 2004"), ("identifier", "http://x/1"))
    record = MetadataRecord("oai_dc", xml)
    crosswalk(record, "nsdl_dc")
    assert record.xml == xml


# --------------------------------------------------------------------------
# validation


def test_validate_good_record(repo):
    assert ingest_verdict(
        repo, oai_dc_record(("title", "T"), ("identifier", "http://x/1"))) is None


def test_validate_missing_identifier(repo):
    assert ingest_verdict(repo, oai_dc_record(("title", "T"))) == "no identifier"


def test_validate_wrong_namespace():
    with pytest.raises(ValidationError, match="root element"):
        parse_dc_entries(nsdl_dc_record(("identifier", "http://x/1")), "oai_dc")


def test_validate_malformed():
    with pytest.raises(ValidationError, match="not well-formed"):
        parse_dc_entries(b"<broken", "oai_dc")


def test_validate_unknown_format_only_checks_well_formedness(repo):
    # Well-formed, so the record passes validation and fails only for
    # having no dc:identifier to key the resource on.
    assert ingest_verdict(repo, b"<marc/>", "marcxml") == "no resource key"


_GOOD = oai_dc_record(("title", "T"), ("identifier", "http://x/1"))


@pytest.mark.parametrize("payload,reason", [
    (b"<oai_dc:dc xmlns:oai_dc='http://www.openarchives.org/OAI/2.0/oai_dc/'>",
     "not well-formed"),
    (b"<x:dc/>", "not well-formed: unbound prefix"),
    (nsdl_dc_record(("identifier", "http://x/1")), "root element .*nsdl_dc"),
    (b"<!DOCTYPE dc>" + _GOOD, "DOCTYPE"),
    (b'<?xml version="1.0" encoding="ISO-8859-1"?>' + _GOOD, "ISO-8859-1 is not UTF-8"),
    (_GOOD.decode().encode("utf-16"), "UTF-16 is not UTF-8"),
    (b"<marc>\xe9</marc>", "not well-formed"),
])
def test_check_record_refuses_what_cannot_be_embedded(payload, reason):
    with pytest.raises(ValidationError, match=reason):
        check_record(payload, "oai_dc" if b"marc" not in payload else "marcxml")


@pytest.mark.parametrize("payload", [
    _GOOD,
    b"\xef\xbb\xbf" + _GOOD,
    b'<?xml version="1.0" encoding="utf-8"?>\n<!-- c -->' + _GOOD,
    b"<?xml version='1.0'?>" + _GOOD + b"\n\n",
])
def test_checked_record_embeds_as_its_root_element(payload):
    check_record(payload, "oai_dc")
    check_record(payload, "marcxml")  # unregistered: root not checked
    wrapped = ET.fromstring(b"<w>" + embeddable(payload) + b"</w>")
    assert wrapped.text is None and wrapped[0].tail is None
    assert ET.tostring(wrapped[0]) == ET.tostring(ET.fromstring(_GOOD))


@pytest.mark.parametrize("payload,embedded", [
    (b"<record/>", b'<record xmlns=""/>'),
    (b"<record note=' xmlns=x'>a:b</record>",
     b"<record xmlns=\"\" note=' xmlns=x'>a:b</record>"),
    (b'<?xml version="1.0"?>\n<!-- a?> --><?pi x?>\n<r xmlns:p="u"/>',
     b'<!-- a?> --><?pi x?>\n<r xmlns="" xmlns:p="u"/>'),
    (b"<r\n  xmlns = 'u'/>", b"<r\n  xmlns = 'u'/>"),
    (b'<r a:b="1" xmlns:a="u"/>', b'<r xmlns="" a:b="1" xmlns:a="u"/>'),
    (b'<p:r xmlns:p="u"><x/></p:r>', b'<p:r xmlns:p="u"><x/></p:r>'),
])
def test_embedded_root_keeps_its_namespace(payload, embedded):
    """Spliced under a default namespace, a root keeps the namespace it has
    in its own document: an unprefixed root without a default namespace
    declaration gains xmlns=\"\"."""
    check_record(payload, "marcxml")
    assert embeddable(payload) == embedded
    wrapped = ET.fromstring(
        b'<w xmlns="http://www.openarchives.org/OAI/2.0/">' + embedded + b"</w>")
    assert wrapped[0].tag == ET.fromstring(payload).tag


# --------------------------------------------------------------------------
# serialization round trip and the line reader

# Characters XML 1.0 allows in a document.
_xml_char = st.one_of(
    st.sampled_from("\t\n\r &<>\"'\xa0\x85\u2028"),
    st.characters(min_codepoint=0x20, max_codepoint=0xD7FF),
    st.characters(min_codepoint=0xE000, max_codepoint=0xFFFD),
    st.characters(min_codepoint=0x10000))
_dc_name = st.sampled_from(("title", "date", "identifier", "subject", "abstract", "a.b-c_1"))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_dc_name, st.text(_xml_char, max_size=12).map(str.strip),
                          st.one_of(st.none(), st.text(_xml_char, min_size=1, max_size=6))),
                max_size=5),
       st.sampled_from(("oai_dc", "nsdl_dc")))
@example([("title", "a\rb", None)], "nsdl_dc")
def test_serialized_entries_parse_back_unchanged(drawn, format_name):
    """Stripped XML text, "\\r" inside it included, survives its own
    serialization; oai_dc is unqualified, so its entries carry no type."""
    entries = [DcEntry(name, value, xsi_type if format_name == "nsdl_dc" else None)
               for name, value, xsi_type in drawn]
    assert parse_dc_entries(serialize_dc(format_name, entries), format_name) == entries


# Hostile names (non-ASCII, punctuation), values (references, whitespace
# at the edges, NBSP, non-ASCII) and types (quotes, escapes, spaces).
_reader_names = st.sampled_from(
    ("title", "date", "subject", "zone", "a.b-c_1", "_x", "t\u00eftle", "1a"))
_reader_text = st.text(alphabet="ab &<>\"'\t\n\r\xa0\u00e9", max_size=5)
_reader_types = st.one_of(
    st.none(), st.just(""), st.sampled_from(("dct:W3CDTF", "dct:URI", "a'b", "a b", "\u00e9")),
    st.text(alphabet="a:\"'&<>\t\n\xa0", max_size=4))
_reader_entries = st.lists(st.builds(DcEntry, _reader_names, _reader_text, _reader_types),
                           max_size=5)


def _reader_variants(entries):
    """serialize_dc's nsdl_dc bytes for entries, and well-formed (or not)
    variants of them that a reader of canonical records must not misread."""
    head, tail = serialize_dc("nsdl_dc", []).decode("utf-8").split("\n", 1)
    lines = [dc_line(entry) for entry in entries]
    base = [line.line for line in lines]

    def doc(body, first=head, last=tail):
        return "\n".join([first, *body, last])

    yield doc(base)
    yield "<?xml version='1.0' encoding='utf-8'?>\n" + doc(base)
    yield "\ufeff" + doc(base)
    yield doc(base).replace("\n", "\r\n")
    yield doc(base) + "\n"
    yield doc(base)[:-1]
    yield doc(base, first=head.replace(" xmlns:dc=", "  xmlns:dc="))
    yield doc(base + ["  <!-- a comment -->"])
    yield doc(base + [""])
    yield doc([f'  <x:title xmlns:x="{DC_NS}">x</x:title>', *base])
    yield doc([*base, '  <dc:title xmlns:dc="urn:not-dc">x</dc:title>'])
    yield doc([*base, "  <title>x</title>"])
    for i, (line, name, text) in enumerate(lines):
        value = entries[i].value
        start, end = line[:line.index(">") + 1], f"</dc:{name}>"

        def swap(new):
            return doc(base[:i] + [new] + base[i + 1:])

        yield swap(f"{start}&#65;{text}{end}")
        yield swap(f"{start}{text}&#13;{end}")
        yield swap(f"{start}{text}&#x20;{end}")
        yield swap(f"{start} {text}{end}")
        yield swap(f"{start}{text}\xa0{end}")
        yield swap(f"{start}{text.replace('&gt;', '>')}{end}")
        yield swap(f"{start}<![CDATA[{value}]]>{end}")
        yield swap(f"{start}{text}<!-- a comment -->{end}")
        yield swap(f"{start}{text}<dc:x>y</dc:x>{end}")
        yield swap(f'{start[:-1]} a="1">{text}{end}')
        yield swap(f"{start[:-1]} xml:lang='en'>{text}{end}")
        for xsi_type in ("dct:URI", "", "a>b", "&#65;", "a\tb", "&quot;", "&amp;"):
            yield swap(f'  <dc:{name} xsi:type="{xsi_type}">{text}{end}')
        yield swap(start.replace('xsi:type="', "xsi:type='").replace('">', "'>") + text + end)
        yield swap(f"{start[:-1]} >{text}{end}")
        yield swap(f"{start}{text}</dc:{name} >")
        yield swap(f"  <dc:{name}/>")
        yield swap("\t" + line.lstrip(" "))
        yield swap(f'  <d:{name} xmlns:d="{DC_NS}">{text}</d:{name}>')
        yield swap(f"{line}  ")


def _one_plain_line(entry):
    """Whether dc_line writes entry as one line with an ASCII name, no
    reference in its text but &amp;, &lt; and &gt;, and a type, if any,
    that quoteattr writes as it is."""
    name, value, xsi_type = entry
    return (name.isascii() and not set(value) & set("\r\n")
            and not set(xsi_type or "") & set('"&<>\t\n\r'))


@settings(max_examples=300, deadline=None)
@given(_reader_entries)
def test_line_reader_is_exact_or_declines(entries):
    """For every variant the store would keep, the reader hands out the
    lines dc_line writes for the entries the validating parse reads, or
    declines. It declines no canonical record whose entries parse back
    unchanged and are each one plain line, so a reader that always
    declines fails."""
    for variant in _reader_variants(entries):
        xml = variant.encode("utf-8")
        try:
            check_record(xml, "nsdl_dc")
        except ValidationError:
            continue
        got = read_dc_lines(xml)
        if got is not None:
            assert got == [dc_line(e) for e in parse_dc_entries(xml, "nsdl_dc")], variant
    canonical = serialize_dc("nsdl_dc", entries)
    try:
        check_record(canonical, "nsdl_dc")
    except ValidationError:
        return
    if parse_dc_entries(canonical, "nsdl_dc") == entries and all(map(_one_plain_line, entries)):
        assert read_dc_lines(canonical) == [dc_line(e) for e in entries]


def test_line_reader_reads_lines_and_declines_other_formats():
    entries = [DcEntry("title", "A & B <c>"), DcEntry("date", "2004", "dct:W3CDTF")]
    lines = read_dc_lines(serialize_dc("nsdl_dc", entries))
    assert lines == [dc_line(e) for e in entries]
    assert [(line.name, line.text) for line in lines] == [
        ("title", "A &amp; B &lt;c&gt;"), ("date", "2004")]
    assert read_dc_lines(serialize_dc("nsdl_dc", [])) == []
    assert read_dc_lines(serialize_dc("oai_dc", entries)) is None
    assert read_dc_lines(b"\xff") is None


# --------------------------------------------------------------------------
# gold fold


def _gold_input(pid, minutes, *entries):
    return GoldInput(
        pid=pid,
        datestamp=T0 + timedelta(minutes=minutes),
        lines=tuple(dc_line(DcEntry(n, v)) for n, v in entries),
    )


def _as_oracle(gold_inputs):
    return [
        {"pid": g.pid, "datestamp": g.datestamp,
         "entries": [(line.name, unescape(line.text, {"&#13;": "\r"})) for line in g.lines]}
        for g in gold_inputs
    ]


def test_single_record_identity():
    record = _gold_input("nsdl:5", 0, ("title", "Only"), ("subject", "S"),
                         ("identifier", "http://x/1"))
    gold = fold_gold([record], [])
    assert gold.contributors == ("nsdl:5",)
    assert entries_of(gold.xml) == {
        "title": [("Only", None)],
        "subject": [("S", None)],
        "identifier": [("http://x/1", None)],
    }
    assert gold.xml == serialize_dc("nsdl_dc", [
        DcEntry("title", "Only"), DcEntry("subject", "S"),
        DcEntry("identifier", "http://x/1"),
    ]).replace(
        b"</nsdl_dc:nsdl_dc>",
        b"  <contributors>\n    <contributor>info:nsdl/nsdl:5</contributor>\n"
        b"  </contributors>\n</nsdl_dc:nsdl_dc>")


def test_augmenter_overrides_single_valued_elements():
    base = _gold_input("nsdl:5", 0, ("title", "Original"), ("subject", "A"),
                       ("date", "2004-03-05"))
    augmenter = _gold_input("nsdl:8", 1, ("title", "Corrected"), ("subject", "B"))
    gold = fold_gold([base, augmenter], [("nsdl:8", "nsdl:5")])
    assert gold.contributors == ("nsdl:5", "nsdl:8")
    got = entries_of(gold.xml)
    assert got["title"] == [("Corrected", None)]
    assert got["date"] == [("2004-03-05", None)]  # augmenter has none, base survives
    assert got["subject"] == [("A", None), ("B", None)]


def test_diamond_matches_oracle():
    inputs = [
        _gold_input("nsdl:1", 0, ("title", "T1"), ("subject", "S1"),
                    ("creator", "C1"), ("date", "2001")),
        _gold_input("nsdl:2", 30, ("title", "T2"), ("subject", "S2")),
        _gold_input("nsdl:3", 10, ("subject", "S1"), ("subject", "S3"),
                    ("creator", "C2")),
        _gold_input("nsdl:4", 40, ("title", "T4"), ("description", "D4")),
    ]
    edges = [("nsdl:2", "nsdl:1"), ("nsdl:3", "nsdl:1"),
             ("nsdl:4", "nsdl:2"), ("nsdl:4", "nsdl:3")]
    gold = fold_gold(inputs, edges)
    oracle_order, oracle_merged = oracle_gold_fold(_as_oracle(inputs), edges)
    assert list(gold.contributors) == oracle_order == [
        "nsdl:1", "nsdl:3", "nsdl:2", "nsdl:4"]
    got = {name: [v for v, _ in pairs] for name, pairs in entries_of(gold.xml).items()}
    assert got == oracle_merged


def test_incomparable_records_order_by_datestamp_then_pid():
    inputs = [
        _gold_input("nsdl:9", 5, ("subject", "A")),
        _gold_input("nsdl:2", 5, ("subject", "B")),
        _gold_input("nsdl:7", 1, ("subject", "C")),
    ]
    gold = fold_gold(inputs, [])
    assert gold.contributors == ("nsdl:7", "nsdl:2", "nsdl:9")


def test_cycle_detection():
    inputs = [
        _gold_input("nsdl:5", 0, ("title", "A")),
        _gold_input("nsdl:8", 1, ("title", "B")),
    ]
    edges = [("nsdl:5", "nsdl:8"), ("nsdl:8", "nsdl:5")]
    with pytest.raises(ModelIntegrityError) as excinfo:
        fold_gold(inputs, edges)
    assert "nsdl:5" in str(excinfo.value) and "nsdl:8" in str(excinfo.value)


def test_fold_deterministic_under_input_permutation():
    inputs = [
        _gold_input("nsdl:1", 0, ("title", "T1"), ("subject", "S1")),
        _gold_input("nsdl:2", 1, ("title", "T2"), ("subject", "S2")),
        _gold_input("nsdl:3", 2, ("subject", "S3")),
    ]
    edges = [("nsdl:2", "nsdl:1"), ("nsdl:3", "nsdl:1")]
    baseline = fold_gold(inputs, edges)
    assert fold_gold(list(reversed(inputs)), list(reversed(edges))).xml == baseline.xml


# The fold and serialization as they stood before the one-pass writer:
# the reference the fold's bytes are checked against.

def _reference_serialize_dc(entries) -> bytes:
    lines = [f'<nsdl_dc:nsdl_dc xmlns:nsdl_dc="{NSDL_DC_NS}" xmlns:dc="{DC_NS}"'
             f' xmlns:dct="{DCT_NS}" xmlns:xsi="{XSI_NS}">']
    for entry in entries:
        attr = ""
        if entry.xsi_type:
            attr = f" xsi:type={quoteattr(entry.xsi_type)}"
        text = escape(entry.value, {"\r": "&#13;"})
        lines.append(f"  <dc:{entry.name}{attr}>{text}</dc:{entry.name}>")
    lines.append("</nsdl_dc:nsdl_dc>")
    return ("\n".join(lines) + "\n").encode("utf-8")


class _ReferenceInput(NamedTuple):
    pid: str
    datestamp: datetime
    entries: tuple[DcEntry, ...]


def _reference_fold_order(inputs, augment_edges):
    by_pid = {g.pid: g for g in inputs}
    remaining_preds = {g.pid: set() for g in inputs}
    augmenters = {g.pid: set() for g in inputs}
    for a, b in augment_edges:
        if a in by_pid and b in by_pid and a != b:
            remaining_preds[a].add(b)
            augmenters[b].add(a)

    def key(pid):
        g = by_pid[pid]
        return (g.datestamp, pid_sort_key(pid))

    ready = [key(p) + (p,) for p, preds in remaining_preds.items() if not preds]
    heapq.heapify(ready)
    ordered, done = [], set()
    while ready:
        *_, pid = heapq.heappop(ready)
        if pid in done:
            continue
        done.add(pid)
        ordered.append(by_pid[pid])
        for follower in augmenters[pid]:
            remaining_preds[follower].discard(pid)
            if not remaining_preds[follower]:
                heapq.heappush(ready, key(follower) + (follower,))
    if len(ordered) != len(inputs):
        cycle = sorted(set(by_pid) - done, key=pid_sort_key)
        raise ModelIntegrityError(
            f"augmentation cycle involving {', '.join(cycle)}")
    return ordered


def _reference_fold_gold(inputs, augment_edges):
    ordered = _reference_fold_order(inputs, augment_edges)
    single, repeat, seen = {}, {}, {}
    for g in ordered:
        by_name = {}
        for entry in g.entries:
            by_name.setdefault(entry.name, []).append(entry)
        for name, entries in by_name.items():
            if name in GOLD_SINGLE_VALUED:
                single[name] = entries
            else:
                for entry in entries:
                    if entry.value not in seen.setdefault(name, set()):
                        seen[name].add(entry.value)
                        repeat.setdefault(name, []).append(entry)
    merged = []
    names = list(DC_ELEMENT_ORDER) + sorted(
        (set(single) | set(repeat)) - set(DC_ELEMENT_ORDER))
    for name in names:
        merged.extend(single.get(name, ()))
        merged.extend(repeat.get(name, ()))
    contributors = tuple(g.pid for g in ordered)
    body = _reference_serialize_dc(merged).decode("utf-8").rstrip("\n")
    closing = "</nsdl_dc:nsdl_dc>"
    trailer_lines = ["  <contributors>"]
    trailer_lines += [
        f"    <contributor>info:nsdl/{pid}</contributor>" for pid in contributors]
    trailer_lines.append("  </contributors>")
    xml = body[: -len(closing)] + "\n".join(trailer_lines) + "\n" + closing + "\n"
    return xml.encode("utf-8"), contributors


# Few names and values, so that elements repeat within and across records;
# names outside DC_ELEMENT_ORDER sort before and after its own.
_fold_names = st.sampled_from(
    ("title", "date", "identifier", "subject", "creator", "rights", "abstract", "zone"))
_fold_text = st.text(alphabet="ab &<>\"'\t\n\r", max_size=4)
_fold_types = st.one_of(
    st.none(), st.just(""), st.sampled_from(("dct:W3CDTF", "dct:DCMIType", "dct:URI")),
    st.text(alphabet="a:\"'&<\t\n", max_size=4))
_fold_entries = st.lists(st.builds(DcEntry, _fold_names, _fold_text, _fold_types),
                         max_size=8)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fold_equals_reference_fold(data):
    """Gold bytes and contributors equal the reference fold's for records
    with repeated and unknown elements, values and types that need
    escaping, and augments chains (a cycle raises the same error)."""
    numbers = data.draw(st.lists(st.integers(1, 30), min_size=1, max_size=5, unique=True))
    pids = [f"nsdl:{n}" for n in numbers]
    drawn = [_ReferenceInput(pid, T0 + timedelta(seconds=data.draw(st.integers(0, 2))),
                             tuple(data.draw(_fold_entries)))
             for pid in pids]
    inputs = [GoldInput(g.pid, g.datestamp, tuple(map(dc_line, g.entries))) for g in drawn]
    edges = data.draw(st.lists(st.tuples(st.sampled_from(pids + ["nsdl:99"]),
                                         st.sampled_from(pids)), max_size=6))
    try:
        expected = _reference_fold_gold(drawn, edges)
    except ModelIntegrityError as exc:
        with pytest.raises(ModelIntegrityError) as raised:
            fold_gold(inputs, edges)
        assert str(raised.value) == str(exc)
        return
    gold = fold_gold(inputs, edges)
    assert (gold.xml, gold.contributors) == expected
