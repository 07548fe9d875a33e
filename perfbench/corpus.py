"""Seeded corpus generator, ticking clock and stub OAI endpoint.

The benchmark keeps its own copies of these instead of importing the test
helpers, so that editing a test cannot change the measured load. Every
value here is a pure function of the seed and the size; the expected,
normalized form of each record is produced alongside its raw form, which
is what the response oracles compare against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from urllib.parse import parse_qsl, urlsplit
from xml.sax.saxutils import escape

UTC = timezone.utc
CLOCK_START = datetime(2010, 6, 1, tzinfo=UTC)
# Upstream datestamps of the first-pass records; all precede the clock.
UPSTREAM_BASE = datetime(2004, 1, 1, tzinfo=UTC)

OAI_DC_NS = "http://www.openarchives.org/OAI/2.0/oai_dc/"
DC_NS = "http://purl.org/dc/elements/1.1/"

SHARED_SHARE = 0.10
MALFORMED_SHARE = 0.01
UPDATE_SHARE = 0.05
DELETE_SHARE = 0.01

_WORDS = (
    "river", "lattice", "photon", "glacier", "enzyme", "orbit", "prism",
    "delta", "fossil", "vector", "plasma", "canyon", "neuron", "tundra",
    "quartz", "meteor", "spiral", "cortex", "harbor", "isotope",
)
_MONTHS = ("January", "February", "March", "April", "May", "June", "July",
           "August", "September", "October", "November", "December")
# (raw value as a provider sends it, value after the safe transforms)
_TYPES = (("Text", "Text"), ("article", "Text"), ("image", "Image"),
          ("video", "MovingImage"), ("Dataset", "Dataset"), ("software", "Software"))
_LANGUAGES = (("en", "en"), ("English", "en"), ("fre", "fr"), ("German", "de"))
_DCMI = frozenset({"Text", "Image", "MovingImage", "Dataset", "Software"})


class TickingClock:
    """Deterministic clock advancing one second per reading."""

    def __init__(self, start: datetime = CLOCK_START):
        self.now = start

    def __call__(self) -> datetime:
        self.now += timedelta(seconds=1)
        return self.now


@dataclass
class Record:
    """One upstream oai_dc record and the nsdl_dc entries it must yield."""

    identifier: str
    url: str
    raw: list[tuple[str, str]]
    expected: list[tuple[str, str, str | None]]  # (element, value, xsi:type)
    malformed: str | None = None

    def xml(self) -> bytes:
        # Malformed records stay well-formed XML, so that the page carrying
        # them parses and only the record itself is rejected.
        if self.malformed == "wrong-root":
            return oai_dc_xml(self.raw).replace(b"oai_dc:dc", b"oai_dc:record")
        if self.malformed == "no-identifier":
            return oai_dc_xml([e for e in self.raw if e[0] != "identifier"])
        if self.malformed == "no-url":
            return oai_dc_xml([e for e in self.raw if e[1] != self.url])
        return oai_dc_xml(self.raw)


@dataclass
class Provider:
    name: str
    label: str
    records: list[Record]
    # Second pass: identifiers whose record is replaced / deleted upstream.
    updates: dict[str, Record] = field(default_factory=dict)
    deletes: list[str] = field(default_factory=list)


@dataclass
class Corpus:
    seed: int
    providers: list[Provider]

    @property
    def record_count(self) -> int:
        return sum(len(p.records) for p in self.providers)

    def malformed_count(self) -> int:
        return sum(1 for p in self.providers for r in p.records if r.malformed)

    def urls(self) -> set[str]:
        """Distinct resource URLs of the well-formed first-pass records."""
        return {r.url for p in self.providers for r in p.records if not r.malformed}


def oai_dc_xml(entries) -> bytes:
    lines = [f'<oai_dc:dc xmlns:oai_dc="{OAI_DC_NS}" xmlns:dc="{DC_NS}">']
    for name, value in entries:
        lines.append(f"  <dc:{name}>{escape(value)}</dc:{name}>")
    lines.append("</oai_dc:dc>")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _qualified(name: str, value: str) -> str | None:
    if name == "date":
        return "dct:W3CDTF"
    if name == "type" and value in _DCMI:
        return "dct:DCMIType"
    if name == "language":
        return "dct:RFC3066"
    return None


def make_record(rng: random.Random, provider: str, index: int, url: str,
                revision: int = 0) -> Record:
    words = rng.sample(_WORDS, 3)
    title = " ".join(w.capitalize() for w in words)
    if revision:
        title += f" (revision {revision})"
    year, month, day = rng.randint(1990, 2004), rng.randint(1, 12), rng.randint(1, 28)
    iso = f"{year:04d}-{month:02d}-{day:02d}"
    raw_date = rng.choice((iso, f"{_MONTHS[month - 1]} {day}, {year}",
                           f"{year:04d}/{month:02d}/{day:02d}"))
    raw_type, norm_type = rng.choice(_TYPES)
    raw_lang, norm_lang = rng.choice(_LANGUAGES)
    subjects = rng.sample(_WORDS, rng.randint(1, 3))
    # (element, raw value, normalized value); whitespace runs collapse.
    fields = [("title", "  " + title.replace(" ", "   ") + " ", title)]
    fields += [("subject", s, s) for s in subjects]
    fields += [
        ("description", f"Record {index} of {provider}: {' '.join(words)}.",
         f"Record {index} of {provider}: {' '.join(words)}."),
        ("date", raw_date, iso),
        ("type", raw_type, norm_type),
        ("identifier", url, url),
        ("identifier", f"local-{provider}-{index}", f"local-{provider}-{index}"),
        ("language", raw_lang, norm_lang),
    ]
    return Record(
        identifier=f"oai:{provider}:{index:06d}",
        url=url,
        raw=[(name, raw) for name, raw, _ in fields],
        expected=[(name, norm, _qualified(name, norm)) for name, _, norm in fields],
    )


def generate(seed: int, providers: int, per_provider: int) -> Corpus:
    """P providers x N records. The first 10% of each provider's records
    describe URLs shared by every provider; about 1% of the rest are
    malformed. The second pass replaces 5% and deletes 1% of the
    well-formed records of each provider."""
    rng = random.Random(seed)
    shared = max(1, int(per_provider * SHARED_SHARE))
    out = []
    for p in range(providers):
        name = f"p{p}"
        recs = []
        for i in range(per_provider):
            url = (f"http://shared.example/resource/{i}" if i < shared
                   else f"http://{name}.example/resource/{seed}/{i}")
            recs.append(make_record(rng, name, i, url))
        own = list(range(shared, per_provider))
        malformed = rng.sample(own, max(1, round(per_provider * MALFORMED_SHARE)))
        for n, i in enumerate(sorted(malformed)):
            recs[i].malformed = ("wrong-root", "no-identifier", "no-url")[n % 3]
        valid = [i for i in range(per_provider) if recs[i].malformed is None]
        changed = rng.sample(valid, max(1, round(per_provider * UPDATE_SHARE))
                             + max(1, round(per_provider * DELETE_SHARE)))
        n_upd = max(1, round(per_provider * UPDATE_SHARE))
        updates = {}
        for i in sorted(changed[:n_upd]):
            updates[recs[i].identifier] = make_record(
                rng, name, i, recs[i].url, revision=2)
        deletes = sorted(recs[i].identifier for i in changed[n_upd:])
        out.append(Provider(name, f"Provider {name.upper()}", recs, updates, deletes))
    return Corpus(seed, out)


class StubOaiProvider:
    """In-memory upstream ListRecords endpoint with half-open datestamp
    windows, resumption paging and deleted records."""

    def __init__(self, page_size: int = 250):
        self.page_size = page_size
        self.records: dict[str, dict] = {}

    def put(self, identifier: str, datestamp: datetime, xml: bytes | None) -> None:
        self.records[identifier] = {"datestamp": datestamp, "xml": xml}

    def transport(self, url: str) -> bytes:
        params = dict(parse_qsl(urlsplit(url).query))
        token = params.get("resumptionToken")
        if token is not None:
            raw_offset, raw_from, raw_until = token.split("|")
            offset, frm, until = int(raw_offset), _opt(raw_from), _opt(raw_until)
        else:
            offset = 0
            frm, until = _opt(params.get("from")), _opt(params.get("until"))
        selected = [
            (i, r) for i, r in sorted(self.records.items())
            if (frm is None or r["datestamp"] >= frm)
            and (until is None or r["datestamp"] < until)
        ]
        if not selected:
            return _envelope('<error code="noRecordsMatch">none</error>')
        parts = []
        for identifier, record in selected[offset:offset + self.page_size]:
            stamp = _stamp(record["datestamp"])
            if record["xml"] is None:
                parts.append(
                    f'<record><header status="deleted"><identifier>{identifier}'
                    f"</identifier><datestamp>{stamp}</datestamp></header></record>")
            else:
                parts.append(
                    f"<record><header><identifier>{identifier}</identifier>"
                    f"<datestamp>{stamp}</datestamp></header>"
                    f"<metadata>{record['xml'].decode('utf-8')}</metadata></record>")
        if offset + self.page_size < len(selected):
            token = "|".join([str(offset + self.page_size),
                              _stamp(frm) if frm else "-", _stamp(until) if until else "-"])
            parts.append(f"<resumptionToken>{token}</resumptionToken>")
        return _envelope("<ListRecords>" + "".join(parts) + "</ListRecords>")


def _envelope(body: str) -> bytes:
    return ('<?xml version="1.0" encoding="UTF-8"?>'
            '<OAI-PMH xmlns="http://www.openarchives.org/OAI/2.0/">'
            "<responseDate>2010-01-01T00:00:00Z</responseDate><request/>"
            + body + "</OAI-PMH>").encode("utf-8")


def _stamp(dt: datetime) -> str:
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def _opt(value: str | None) -> datetime | None:
    if value in (None, "-"):
        return None
    return datetime.strptime(value, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=UTC)
