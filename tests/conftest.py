import importlib
import pkgutil

import pytest

import overlay_repo
from overlay_repo import graph
from overlay_repo.graph import TripleStore
from overlay_repo.store import Repository

from support import TickingClock


@pytest.fixture
def clock():
    return TickingClock()


@pytest.fixture
def repo(clock):
    return Repository(clock=clock)


@pytest.fixture
def rels_parses(monkeypatch):
    """pid of every parse_rels call, in whichever overlay_repo module it
    was imported."""
    calls = []
    original = graph.parse_rels

    def counting(pid, fragment):
        calls.append(pid)
        return original(pid, fragment)

    for info in pkgutil.iter_modules(overlay_repo.__path__):
        module = importlib.import_module(f"overlay_repo.{info.name}")
        if getattr(module, "parse_rels", None) is original:
            monkeypatch.setattr(module, "parse_rels", counting)
    return calls


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
