import importlib
import pkgutil
import sys
from xml.etree import ElementTree as ET
from xml.parsers import expat

import pytest
from hypothesis import settings

import overlay_repo
from overlay_repo import graph, model, records
from overlay_repo.graph import TripleStore
from overlay_repo.harvest import Harvester
from overlay_repo.store import Repository

from support import TickingClock

# Ten times the default number of examples, for a property that CI runs
# once more with --hypothesis-profile=ci.
settings.register_profile("ci", max_examples=10 * settings.default.max_examples)


@pytest.fixture
def clock():
    return TickingClock()


@pytest.fixture
def repo(clock):
    return Repository(clock=clock)


def _patch_everywhere(monkeypatch, name, original, replacement):
    """Rebind a function in whichever overlay_repo module holds it."""
    for info in pkgutil.iter_modules(overlay_repo.__path__):
        module = importlib.import_module(f"overlay_repo.{info.name}")
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)


@pytest.fixture
def rels_parses(monkeypatch):
    """pid of every parse_rels call, in whichever overlay_repo module it
    was imported."""
    calls = []
    original = graph.parse_rels

    def counting(pid, *args):
        calls.append(pid)
        return original(pid, *args)

    _patch_everywhere(monkeypatch, "parse_rels", original, counting)
    return calls


@pytest.fixture
def pid_numbers(monkeypatch):
    """pid of every model.pid_number call, in whichever overlay_repo module
    it was imported."""
    calls = []
    original = model.pid_number

    def counting(pid):
        calls.append(pid)
        return original(pid)

    _patch_everywhere(monkeypatch, "pid_number", original, counting)
    return calls


@pytest.fixture
def ingest_work(monkeypatch):
    """(outcome, XML parses, normalization passes) of every
    Harvester.ingest_record call. Only the record pipeline's parses count,
    the model.parse_xml calls made in the records and harvest modules, not
    the store's."""
    calls = []
    counts = {"parses": 0, "passes": 0}
    parse_xml, apply_rules = model.parse_xml, records.apply_rules
    ingest = Harvester.ingest_record

    def counting_parse(*args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__")
        if caller in ("overlay_repo.records", "overlay_repo.harvest"):
            counts["parses"] += 1
        return parse_xml(*args, **kwargs)

    def counting_rules(*args, **kwargs):
        counts["passes"] += 1
        return apply_rules(*args, **kwargs)

    def counting_ingest(self, *args, **kwargs):
        before = dict(counts)
        outcome = ingest(self, *args, **kwargs)
        calls.append((outcome, counts["parses"] - before["parses"],
                      counts["passes"] - before["passes"]))
        return outcome

    _patch_everywhere(monkeypatch, "parse_xml", parse_xml, counting_parse)
    _patch_everywhere(monkeypatch, "apply_rules", apply_rules, counting_rules)
    monkeypatch.setattr(Harvester, "ingest_record", counting_ingest)
    return calls


@pytest.fixture
def xml_work(monkeypatch):
    """Counts of XML parsers made, ElementTree serializations and
    parse_dc_entries calls, wherever they happen."""
    counts = {"parsers": 0, "serializations": 0, "dc_parses": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    class CountingParser(ET.XMLParser):
        def __init__(self, *args, **kwargs):
            counts["parsers"] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(ET, "XMLParser", CountingParser)
    monkeypatch.setattr(expat, "ParserCreate", counted("parsers", expat.ParserCreate))
    monkeypatch.setattr(ET, "tostring", counted("serializations", ET.tostring))
    monkeypatch.setattr(ET.ElementTree, "write",
                        counted("serializations", ET.ElementTree.write))
    _patch_everywhere(monkeypatch, "parse_dc_entries", records.parse_dc_entries,
                      counted("dc_parses", records.parse_dc_entries))
    return counts


class CountedLookup:
    """One TripleStore.lookup call: its (s, p, o) arguments and its result,
    counting how many of the returned triples the caller took."""

    def __init__(self, args, triples):
        self.args, self.triples, self.taken = args, triples, 0

    def __len__(self):
        return len(self.triples)

    def __iter__(self):
        for t in self.triples:
            self.taken += 1
            yield t


@pytest.fixture
def lookups(monkeypatch):
    """A CountedLookup for every TripleStore.lookup call, in call order."""
    calls = []
    original = TripleStore.lookup

    def counting(self, s, p, o):
        calls.append(CountedLookup((s, p, o), original(self, s, p, o)))
        return calls[-1]

    monkeypatch.setattr(TripleStore, "lookup", counting)
    return calls


@pytest.fixture
def atomic_writes(monkeypatch):
    """Path of every file the repository writes."""
    paths = []
    original = Repository._atomic_write

    def counting(path, data):
        paths.append(path)
        original(path, data)

    monkeypatch.setattr(Repository, "_atomic_write", staticmethod(counting))
    return paths
