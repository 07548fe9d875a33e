"""The three workloads, their response oracles and their timings.

Every workload drives the engine through its public API only (Repository,
Harvester, GatewayApp), in one process, with one client and no extra
threads. Each operation's outcome is compared with what the generator
says it must be; a mismatch counts as a failed operation.

A run either measures for a number of seconds (untraced runs) or runs a
fixed schedule derived from the seed and the run length (traced runs),
so that traced runs with one seed do exactly the same work.
"""

from __future__ import annotations

import gc
import os
import pickle
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from copy import deepcopy
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from io import BytesIO
from pathlib import Path
from urllib.parse import urlencode
from xml.etree import ElementTree as ET

from overlay_repo import DigitalObject, Repository
from overlay_repo.canonical import export_object
from overlay_repo.graph import Triple, serialize_rels
from overlay_repo.harvest import Harvester, HarvestState, ProviderConfig
from overlay_repo.model import build_source_doc, local_stream
from overlay_repo.oai import OaiProvider
from overlay_repo.ontology import base_predicate
from overlay_repo.web import GatewayApp

import corpus as gen
from spans import NullTracer, Tracer, layer_metrics, source_lines

HERE = Path(__file__).resolve().parent
PROVIDERS = 4
INGEST_PER_PROVIDER = 250     # catalog-ingest: records per provider per cycle
CORPUS_PER_PROVIDER = 500     # oai-federation and portal-mix corpus
PAGE_SIZE = 250               # OAI page size of the repository under test
UPSTREAM_PAGE_SIZE = 25      # page size of the stub providers harvested from
# oai-federation and portal-mix run in ROUNDS rounds, each set up afresh
# from the built corpus: this machine's CPU speed swings over seconds, so
# set-up samples spread over the run give a steadier median than samples
# taken back to back.
ROUNDS = 5
WINDOWS_PER_ROUND = 21        # oai-federation: at least, so that p90 has 10 beyond it
LIVE_MALFORMED_EVERY = 31     # oai-federation: one malformed live record in so many
QUERY_ROW_CAP = 2500
REPOSITORY_ID = "overlay.local"

OAI = "{http://www.openarchives.org/OAI/2.0/}"
DC = "{http://purl.org/dc/elements/1.1/}"
XSI_TYPE = "{http://www.w3.org/2001/XMLSchema-instance}type"
DC_ELEMENT_ORDER = (
    "title", "creator", "subject", "description", "publisher", "contributor",
    "date", "type", "format", "identifier", "source", "language", "relation",
    "coverage", "rights",
)
GOLD_SINGLE_VALUED = {"title", "identifier", "date"}
# PUT edits carry their own datestamps, later than any clock reading.
EDIT_BASE = datetime(2030, 1, 1, tzinfo=gen.UTC)
EDIT_VERSION = 1000


# --------------------------------------------------------------------------
# shared plumbing


class Budget:
    """Run until `seconds` have passed, or for exactly `ops` operations."""

    def __init__(self, seconds: float | None = None, ops: int | None = None):
        self.seconds, self.ops = seconds, ops
        self.started = time.perf_counter()
        self.done = 0

    def exclude(self, seconds: float) -> None:
        """Set-up time does not count against the run length."""
        self.started += seconds

    def more(self, minimum: int = 1, share: float = 1.0) -> bool:
        """Whether to go on, within the first `share` of the budget."""
        if self.ops is not None:
            return self.done < self.ops * share
        return (self.done < minimum
                or time.perf_counter() - self.started < self.seconds * share)


@dataclass
class Oracle:
    """Counts operations checked and those whose outcome was wrong."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def tally(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.messages) < 20:
            self.messages.append(what)

    def check(self, ok: bool, what: str, weight: int = 1) -> None:
        self.tally(weight, 0 if ok else weight, what)


@dataclass
class Result:
    """What one workload run measured."""

    oracle: Oracle
    setup_s: list[float]
    open_s: list[float]
    named: dict[str, tuple[float, str]]   # the workload's own metrics, by name
    latencies_ms: list[float]             # the workload's characteristic latency
    throughput: float                     # the workload's headline rate, 1/s
    measured_s: float                     # wall time of the measured phase
    records_written: int = 0
    user_bytes: int = 0
    offered: int = 0       # upstream records harvested
    malformed: int = 0     # of which malformed


def tail_percentile(n: int) -> float | None:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def latency_summary(prefix: str, values: list[float], tail: float) -> dict:
    """`<prefix>_p50_ms` plus the `tail` percentile if the sample supports
    it, or else the highest percentile that it does."""
    out = {f"{prefix}_p50_ms": (statistics.median(values), "ms")} if values else {}
    supported = tail_percentile(len(values))
    if supported is not None:
        p = min(tail, supported)
        out[f"{prefix}_p{p:g}_ms"] = (percentile(values, p), "ms")
    out[f"{prefix}_samples"] = (len(values), "count")
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def wsgi(app, method: str, path: str, query: dict | None = None,
         body: bytes = b"") -> tuple[int, bytes]:
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": urlencode(query or {}),
        "CONTENT_LENGTH": str(len(body)),
        "wsgi.input": BytesIO(body),
        "SERVER_NAME": "localhost",
        "SERVER_PORT": "80",
        "wsgi.url_scheme": "http",
    }
    seen = {}

    def start_response(status, headers, exc_info=None):
        seen["status"] = status

    payload = b"".join(app(environ, start_response))
    return int(seen["status"].split(" ", 1)[0]), payload


def pid_of(identifier: str) -> str:
    """pid of an OAI identifier oai:<repository id>:<pid>."""
    return identifier.split(":", 2)[2]


def pid_key(pid: str) -> int:
    return int(pid.split(":", 1)[1])


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# --------------------------------------------------------------------------
# harvesting a generated corpus


@dataclass
class ProviderRun:
    cfg: ProviderConfig
    state: HarvestState
    stub: gen.StubOaiProvider


@dataclass
class Built:
    """A corpus harvested into a data directory, plus the identities the
    engine assigned, which the oracles use to name objects."""

    data_dir: Path
    providers: list[tuple[ProviderConfig, HarvestState]]
    meta_pid: dict[str, str]      # upstream identifier -> metadata pid
    content_pid: dict[str, str]   # resource URL -> content pid
    clock_now: datetime


class PageTimer:
    """Wraps a stub's transport to time each page from outside: a page
    costs the time from its response to the next request, or to the end
    of the pass. Samples are ms per record of the page."""

    def __init__(self, stub: gen.StubOaiProvider, samples: list[float]):
        self.stub, self.samples, self.last = stub, samples, None

    def transport(self, url: str) -> bytes:
        self.close()
        body = self.stub.transport(url)
        self.last = (time.perf_counter(), body.count(b"<record>"))
        return body

    def close(self) -> None:
        if self.last is not None:
            start, records = self.last
            if records:
                self.samples.append((time.perf_counter() - start) * 1000.0 / records)
            self.last = None


def expected_pass1(p: gen.Provider) -> dict:
    return {"created": sum(1 for r in p.records if not r.malformed), "updated": 0,
            "deleted": 0, "rejected": sum(1 for r in p.records if r.malformed)}


def expected_pass2(p: gen.Provider) -> dict:
    return {"created": 0, "updated": len(p.updates), "deleted": len(p.deletes),
            "rejected": 0}


def check_report(oracle: Oracle, report, expected: dict, label: str,
                 rejected_ids: set[str] | None = None) -> None:
    for key, want in expected.items():
        got = getattr(report, key)
        covered = max(want, 1)
        oracle.tally(covered, min(abs(got - want), covered), f"{label}: {key} {got} != {want}")
    if rejected_ids is not None:
        oracle.check({i for i, _ in report.rejects} == rejected_ids,
                     f"{label}: rejected identifiers differ")


def stage_pass1(p: gen.Provider) -> gen.StubOaiProvider:
    stub = gen.StubOaiProvider(UPSTREAM_PAGE_SIZE)
    for i, r in enumerate(p.records):
        stub.put(r.identifier, gen.UPSTREAM_BASE + timedelta(seconds=i), r.xml())
    return stub


def stage_pass2(p: gen.Provider, stub: gen.StubOaiProvider, clock) -> None:
    """Upstream changes happen 'now', after the first pass."""
    for identifier, record in p.updates.items():
        stub.put(identifier, clock(), record.xml())
    for identifier in p.deletes:
        stub.put(identifier, clock(), None)


def register(repo: Repository, p: gen.Provider, transport) -> tuple[Harvester, ProviderConfig]:
    harvester = Harvester(repo, transport=transport)
    cfg = harvester.register_provider(ProviderConfig(
        name=p.name, base_url=f"http://{p.name}.example/oai", brand_label=p.label))
    return harvester, cfg


# --------------------------------------------------------------------------
# catalog-ingest


def run_catalog_ingest(seed: int, budget: Budget, tracer, work_dir: Path) -> Result:
    """Cycles of: fresh data directory, register P providers, harvest every
    provider (first pass), apply upstream updates and deletes and harvest
    again (incremental pass), reopen the directory. One cycle is one
    operation of the budget."""
    oracle = Oracle()
    setup_s, open_s, page_ms = [], [], []
    harvest_s, harvested, accepted, user_bytes, disk_bytes = 0.0, 0, 0, 0, 0
    offered = malformed = 0
    started = time.perf_counter()
    while budget.more():
        t0 = time.perf_counter()
        corpus = gen.generate(seed, PROVIDERS, INGEST_PER_PROVIDER)
        data_dir = Path(tempfile.mkdtemp(prefix="ingest-", dir=work_dir))
        clock = gen.TickingClock()
        repo = Repository(data_dir, clock=clock)
        timers = [PageTimer(stage_pass1(p), page_ms) for p in corpus.providers]
        regs = [register(repo, p, t.transport) for p, t in zip(corpus.providers, timers)]
        setup_s.append(time.perf_counter() - t0)

        offered += corpus.record_count + sum(
            len(p.updates) + len(p.deletes) for p in corpus.providers)
        malformed += corpus.malformed_count()
        states = []
        with tracer.span("bench.ingest"):
            for p, timer, (harvester, cfg) in zip(corpus.providers, timers, regs):
                t = time.perf_counter()
                report, state = harvester.harvest(cfg)
                harvest_s += time.perf_counter() - t
                timer.close()
                states.append(state)
                harvested += report.harvested
                accepted += report.created + report.updated
                check_report(oracle, report, expected_pass1(p), f"{p.name} pass 1",
                             {r.identifier for r in p.records if r.malformed})
            user_bytes += sum(len(r.xml()) for p in corpus.providers
                              for r in p.records if not r.malformed)
            for p, timer in zip(corpus.providers, timers):
                stage_pass2(p, timer.stub, clock)
            for p, timer, (harvester, cfg), state in zip(
                    corpus.providers, timers, regs, states):
                t = time.perf_counter()
                report, _ = harvester.harvest(cfg, state)
                harvest_s += time.perf_counter() - t
                timer.close()
                harvested += report.harvested
                accepted += report.created + report.updated
                check_report(oracle, report, expected_pass2(p), f"{p.name} pass 2")
            user_bytes += sum(len(r.xml()) for p in corpus.providers
                              for r in p.updates.values())

        check_catalog(oracle, repo, corpus, regs)
        live = repo.graph.dump()
        with tracer.span("bench.reopen"):
            t = time.perf_counter()
            reopened = Repository(data_dir, clock=clock)
            open_s.append(time.perf_counter() - t)
        oracle.check(reopened.graph.dump() == live, "reopened graph differs from live one")
        disk_bytes = dir_bytes(data_dir)
        del repo, reopened
        shutil.rmtree(data_dir)
        # A repository is cyclic garbage; collect it so that it does not
        # add to the next cycle's peak memory.
        gc.collect()
        budget.done += 1
    measured = time.perf_counter() - started
    rate = harvested / harvest_s
    named = {
        "ingest_rps": (rate, "1/s"),
        "reopen_s": (statistics.median(open_s), "s"),
        "store_bytes_per_record": (disk_bytes / (accepted / budget.done), "B"),
        "cycles": (budget.done, "count"),
    }
    named.update(latency_summary("page_ms_per_record", page_ms, 90.0))
    return Result(oracle, setup_s, open_s, named, page_ms, rate, measured,
                  records_written=accepted, user_bytes=user_bytes,
                  offered=offered, malformed=malformed)


def check_catalog(oracle: Oracle, repo: Repository, corpus: gen.Corpus, regs) -> None:
    contents = [o for o in repo.active_objects() if "Content" in o.behaviors]
    oracle.check(len(contents) == len(corpus.urls()),
                 f"{len(contents)} content objects for {len(corpus.urls())} distinct URLs")
    # Every shared resource is a member of each provider still describing it.
    aggs = {p.name: cfg.aggregator_role_pid for p, (_, cfg) in zip(corpus.providers, regs)}
    deleted = {i for p in corpus.providers for i in p.deletes}
    expected: dict[str, set[str]] = {}
    for p in corpus.providers:
        for r in p.records:
            if not r.malformed and r.identifier not in deleted:
                expected.setdefault(r.url, set()).add(aggs[p.name])
    shared = [u for u in expected if u.startswith("http://shared.example/")]
    wrong = [u for u in shared if set(repo.graph.objects_of(
        repo.content_pid_for_url(u), "memberOf")) != expected[u]]
    oracle.check(not wrong, f"{len(wrong)} shared resources with wrong memberships")


# --------------------------------------------------------------------------
# corpus build for oai-federation and portal-mix


def build_corpus(seed: int, data_dir: Path) -> Built:
    """Harvest the generated corpus, both passes, into an on-disk data
    directory; the engine's own write path builds it."""
    corpus = gen.generate(seed, PROVIDERS, CORPUS_PER_PROVIDER)
    clock = gen.TickingClock()
    repo = Repository(data_dir, clock=clock)
    runs = []
    for p in corpus.providers:
        stub = stage_pass1(p)
        harvester, cfg = register(repo, p, stub.transport)
        report, state = harvester.harvest(cfg)
        if report.created != expected_pass1(p)["created"]:
            raise RuntimeError(f"corpus build: {p.name} created {report.created}")
        runs.append(ProviderRun(cfg, state, stub))
    meta_pid = {r.identifier: repo.source_pid(p.name, r.identifier)
                for p in corpus.providers for r in p.records if not r.malformed}
    content_pid = {url: repo.content_pid_for_url(url) for url in corpus.urls()}
    for p, run in zip(corpus.providers, runs):
        stage_pass2(p, run.stub, clock)
        harvester = Harvester(repo, transport=run.stub.transport)
        report, run.state = harvester.harvest(run.cfg, run.state)
        if report.updated != len(p.updates) or report.deleted != len(p.deletes):
            raise RuntimeError(f"corpus build: {p.name} second pass {report}")
    return Built(data_dir, [(run.cfg, run.state) for run in runs], meta_pid,
                 content_pid, clock.now)


def build(seed: int, work: Path, printed: dict) -> Built:
    """Build the corpus in a child process (build.py), so that the memory
    the build takes does not count in this process's peak."""
    t = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "build.py"), str(seed), str(work)],
                   check=True, timeout=600)
    printed["build_s"] = (time.perf_counter() - t, "s")
    return pickle.loads((work / "built.pickle").read_bytes())


def open_round(seed: int, built: Built, make_model, budget: Budget,
               setup_s: list, open_s: list):
    """Set-up of one round: copy the built corpus (hard links; the engine
    replaces files by rename, so the original stays as built), generate the
    inputs, open the copy and build the gateway. The callers pass the
    result straight into the round, so that no reference to the previous
    round's repository outlives it."""
    t_copy = time.perf_counter()
    data_dir = built.data_dir.parent / "live"
    shutil.rmtree(data_dir, ignore_errors=True)
    shutil.copytree(built.data_dir, data_dir, copy_function=os.link)
    # A repository is cyclic garbage; collect the previous round's so that
    # two are never in memory at once.
    gc.collect()
    t0 = time.perf_counter()
    corpus = gen.generate(seed, PROVIDERS, CORPUS_PER_PROVIDER)
    clock = gen.TickingClock(built.clock_now)
    t = time.perf_counter()
    repo = Repository(data_dir, clock=clock)
    open_s.append(time.perf_counter() - t)
    app = GatewayApp(repo, OaiProvider(repo, repository_id=REPOSITORY_ID,
                                       page_size=PAGE_SIZE),
                     query_row_cap=QUERY_ROW_CAP)
    model = make_model(corpus, built)
    setup_s.append(time.perf_counter() - t0)
    budget.exclude(time.perf_counter() - t_copy)
    return repo, app, model


# --------------------------------------------------------------------------
# oai-federation


@dataclass
class OaiModel:
    """Which pids each walk must list: live metadata, described content
    and every tombstone, in pid order."""

    metadata: set[str]
    described: set[str]
    tombstones: set[str]
    runs: list[ProviderRun]
    live_written: list[str] = field(default_factory=list)   # metadata pids
    content_written: list[str] = field(default_factory=list)
    offered: int = 0      # upstream records harvested between pages
    malformed: int = 0    # of which rejected as malformed


def oai_model(corpus: gen.Corpus, built: Built) -> OaiModel:
    deleted = {i for p in corpus.providers for i in p.deletes}
    metadata, tombstones, described = set(), set(), set()
    for p in corpus.providers:
        for r in p.records:
            if r.malformed:
                continue
            pid = built.meta_pid[r.identifier]
            if r.identifier in deleted:
                tombstones.add(pid)
            else:
                metadata.add(pid)
                described.add(built.content_pid[r.url])
    runs = [ProviderRun(cfg, deepcopy(state), gen.StubOaiProvider(UPSTREAM_PAGE_SIZE))
            for cfg, state in built.providers]
    return OaiModel(metadata, described, tombstones, runs)


def oai_list(app, params: dict) -> tuple[float, list[tuple[str, str]], str | None, bool]:
    """One ListRecords request: seconds, (pid, datestamp) items, token, ok."""
    t = time.perf_counter()
    status, body = wsgi(app, "GET", "/oai", params)
    elapsed = time.perf_counter() - t
    root = ET.fromstring(body)
    items = []
    for header in root.iter(f"{OAI}header"):
        items.append((pid_of(header.findtext(f"{OAI}identifier")),
                      header.findtext(f"{OAI}datestamp")))
    token = root.findtext(f".//{OAI}resumptionToken")
    return elapsed, items, token or None, status == 200 and root.find(f"{OAI}error") is None


def write_live_record(repo: Repository, model: OaiModel, rng: random.Random,
                      oracle: Oracle, corpus: gen.Corpus, tracer) -> int:
    """One new upstream record, harvested incrementally through the
    engine's write path; every LIVE_MALFORMED_EVERY-th is malformed and
    must be rejected. Returns the payload size of an accepted record."""
    k = model.offered
    model.offered += 1
    p, run = corpus.providers[k % PROVIDERS], model.runs[k % PROVIDERS]
    url = f"http://{p.name}.example/live/{corpus.seed}/{k}"
    record = gen.make_record(rng, p.name, 10_000_000 + k, url)
    malformed = k % LIVE_MALFORMED_EVERY == LIVE_MALFORMED_EVERY - 1
    if malformed:
        record.malformed = "no-url"
    payload = record.xml()
    with tracer.span("bench.write"):
        run.stub.put(record.identifier, repo.clock(), payload)
        report, run.state = Harvester(repo, transport=run.stub.transport).harvest(
            run.cfg, run.state)
    if malformed:
        model.malformed += 1
        oracle.check(report.rejected == 1 and report.harvested == 1,
                     f"malformed live record {record.identifier} not rejected: {report}")
        return 0
    oracle.check(report.created == 1 and report.harvested == 1,
                 f"live write {record.identifier}: {report}")
    model.live_written.append(repo.source_pid(p.name, record.identifier))
    model.content_written.append(repo.content_pid_for_url(url))
    return len(payload)


def oai_harvest(app, params: dict, between=None) -> tuple[float, list, int, bool]:
    """A ListRecords request and its resumptions: request seconds, (pid,
    datestamp) items, pages and whether every page was a valid answer.
    `between` runs between pages, outside the timed requests."""
    items, elapsed, pages, ok = [], 0.0, 0, True
    while True:
        t, page, token, page_ok = oai_list(app, params)
        elapsed += t
        pages += 1
        ok &= page_ok
        items.extend(page)
        if token is None:
            return elapsed, items, pages, ok
        params = {"verb": "ListRecords", "resumptionToken": token}
        if between is not None:
            between()


def run_oai_federation(seed: int, budget: Budget, tracer, built: Built) -> Result:
    """ROUNDS rounds, spread over the budget, each on a fresh copy of the
    corpus, of: a full oai_dc walk and a full nsdl_agg walk with one
    upstream record harvested in between pages, then small-window
    harvests until the round's share of the budget is spent."""
    corpus = gen.generate(seed, PROVIDERS, CORPUS_PER_PROVIDER)
    oracle = Oracle()
    rng = random.Random(seed * 7919 + 1)
    setup_s: list[float] = []
    open_s: list[float] = []
    sizes: list[int] = []
    windows: list[float] = []
    served = {"oai_dc": 0, "nsdl_agg": 0}
    spent = {"oai_dc": 0.0, "nsdl_agg": 0.0}
    totals = {"written": 0, "offered": 0, "malformed": 0, "window_size": 0}

    def one_round(round_no: int, repo: Repository, app, model: OaiModel) -> None:
        # Live records are numbered across the run, so that one in
        # LIVE_MALFORMED_EVERY is malformed however few a round writes.
        model.offered, model.malformed = totals["offered"], totals["malformed"]

        def write():
            sizes.append(write_live_record(repo, model, rng, oracle, corpus, tracer))

        for fmt in ("oai_dc", "nsdl_agg"):
            if fmt == "oai_dc":
                expected = sorted(model.metadata | model.tombstones, key=pid_key)
            else:
                expected = sorted(model.described | set(model.content_written)
                                  | model.tombstones, key=pid_key)
            with tracer.span("bench.walk", fmt):
                elapsed, items, pages, ok = oai_harvest(
                    app, {"verb": "ListRecords", "metadataPrefix": fmt}, write)
            oracle.check(ok and [pid for pid, _ in items] == expected,
                         f"{fmt} walk listed {len(items)} pids, expected {len(expected)}",
                         weight=pages)
            if fmt == "oai_dc":
                dc_items = items
            served[fmt] += len(items)
            spent[fmt] += elapsed

        # Small-window incremental harvests over the newest ~1% of the
        # oai_dc walk's datestamps; records written during and after that
        # walk are newer still and must appear, the frozen window having
        # kept them out of the walk itself.
        stamps = sorted(stamp for _, stamp in dc_items)
        threshold = stamps[-max(1, len(stamps) // 100)]
        expected = sorted({pid for pid, stamp in dc_items if stamp >= threshold}
                          | set(model.live_written), key=pid_key)
        while budget.more(minimum=WINDOWS_PER_ROUND * round_no,
                          share=round_no / ROUNDS):
            with tracer.span("bench.window"):
                elapsed, items, _, ok = oai_harvest(app, {
                    "verb": "ListRecords", "metadataPrefix": "oai_dc", "from": threshold})
            oracle.check(ok and [pid for pid, _ in items] == expected,
                         f"window from {threshold} listed {len(items)},"
                         f" expected {len(expected)}")
            windows.append(elapsed * 1000.0)
            budget.done += 1
        totals["written"] += len(model.live_written)
        totals["offered"], totals["malformed"] = model.offered, model.malformed
        totals["window_size"] = len(expected)

    started = time.perf_counter()
    for round_no in range(1, ROUNDS + 1):
        one_round(round_no, *open_round(seed, built, oai_model, budget, setup_s, open_s))
    measured = time.perf_counter() - started
    named = {
        "oai_walk_rps": (served["oai_dc"] / spent["oai_dc"], "1/s"),
        "oai_agg_walk_rps": (served["nsdl_agg"] / spent["nsdl_agg"], "1/s"),
        "oai_window_size": (totals["window_size"], "count"),
    }
    named.update(latency_summary("oai_window", windows, 90.0))
    return Result(oracle, setup_s, open_s, named, windows,
                  sum(served.values()) / sum(spent.values()), measured,
                  records_written=totals["written"], user_bytes=sum(sizes),
                  offered=totals["offered"], malformed=totals["malformed"])


# --------------------------------------------------------------------------
# portal-mix


@dataclass
class MetaState:
    provider: int
    record: gen.Record
    seq: tuple            # datestamp order of the record's last write
    live: bool
    streams: tuple[str, ...] = ("REC.nsdl_dc", "REC.oai_dc", "RELS", "SOURCE")


@dataclass
class PortalModel:
    meta: dict[str, MetaState]            # metadata pid -> state
    content: dict[str, str]               # content pid -> url
    url_content: dict[str, str]
    roles: list[str]                      # provider index -> provider role pid
    aggs: list[str]                       # provider index -> aggregator pid
    labels: list[str]
    shared: list[str]                     # content pids described by several providers
    orphaned: list[str]                   # content pids whose only record was deleted
    edits: int = 0
    # Which records are live, and what they describe, never changes during
    # the mix (writes edit records in place), so these views are computed once.
    _describing: dict[str, list[str]] = field(default_factory=dict)
    _members: dict[int, list[str]] = field(default_factory=dict)
    _provided: dict[int, list[str]] = field(default_factory=dict)

    def index(self) -> None:
        for m in sorted(self.meta, key=pid_key):
            s = self.meta[m]
            if s.live:
                self._describing.setdefault(self.url_content[s.record.url], []).append(m)
                self._provided.setdefault(s.provider, []).append(m)
        for i in range(len(self.aggs)):
            urls = {self.meta[m].record.url for m in self._provided.get(i, [])}
            self._members[i] = sorted((self.url_content[u] for u in urls), key=pid_key)

    def describing(self, content_pid: str) -> list[str]:
        return self._describing.get(content_pid, [])

    def members(self, agg_index: int) -> list[str]:
        return self._members[agg_index]

    def provided(self, role_index: int) -> list[str]:
        return self._provided.get(role_index, [])

    def triple_count(self) -> int:
        live = [s for s in self.meta.values() if s.live]
        memberships = {(s.record.url, s.provider) for s in live}
        return 2 * len(self.roles) + 2 * len(live) + len(memberships)


def portal_model(corpus: gen.Corpus, built: Built) -> PortalModel:
    meta: dict[str, MetaState] = {}
    for pi, p in enumerate(corpus.providers):
        for ri, r in enumerate(p.records):
            if not r.malformed:
                meta[built.meta_pid[r.identifier]] = MetaState(pi, r, (0, pi, ri), True)
    for pi, p in enumerate(corpus.providers):
        for ri, identifier in enumerate(sorted(p.updates)):
            state = meta[built.meta_pid[identifier]]
            state.record, state.seq = p.updates[identifier], (1, pi, ri)
        for identifier in p.deletes:
            meta[built.meta_pid[identifier]].live = False
    content = {pid: url for url, pid in built.content_pid.items()}
    model = PortalModel(
        meta, content, dict(built.content_pid),
        [cfg.provider_role_pid for cfg, _ in built.providers],
        [cfg.aggregator_role_pid for cfg, _ in built.providers],
        [p.label for p in corpus.providers], [], [])
    by_url: dict[str, list[MetaState]] = {}
    for s in meta.values():
        by_url.setdefault(s.record.url, []).append(s)
    for url, states in sorted(by_url.items()):
        live = [s for s in states if s.live]
        if len({s.provider for s in live}) > 1:
            model.shared.append(built.content_pid[url])
        elif not live:
            model.orphaned.append(built.content_pid[url])
    model.shared.sort(key=pid_key)
    model.orphaned.sort(key=pid_key)
    model.index()
    return model


def dc_entries(root: ET.Element) -> list[tuple[str, str, str | None]]:
    return [(el.tag[len(DC):], (el.text or "").strip(), el.get(XSI_TYPE))
            for el in root if el.tag.startswith(DC)]


def expected_gold(model: PortalModel, content_pid: str):
    """Fold of the live describing records in datestamp order: title,
    identifier and date come from the latest record; every other element
    is the union of values in first-seen order."""
    order = sorted(model.describing(content_pid),
                   key=lambda m: (model.meta[m].seq, pid_key(m)))
    single: dict[str, list] = {}
    repeat: dict[str, list] = {}
    seen: dict[str, set] = {}
    for m in order:
        grouped: dict[str, list] = {}
        for entry in model.meta[m].record.expected:
            grouped.setdefault(entry[0], []).append(entry)
        for name, entries in grouped.items():
            if name in GOLD_SINGLE_VALUED:
                single[name] = entries
            else:
                for entry in entries:
                    if entry[1] not in seen.setdefault(name, set()):
                        seen[name].add(entry[1])
                        repeat.setdefault(name, []).append(entry)
    names = list(DC_ELEMENT_ORDER) + sorted((set(single) | set(repeat))
                                            - set(DC_ELEMENT_ORDER))
    merged = [e for n in names for e in single.get(n, []) + repeat.get(n, [])]
    return merged, [f"info:nsdl/{m}" for m in order]


def uri_list(pids) -> bytes:
    return "".join(f"info:nsdl/{p}\n" for p in pids).encode("utf-8")


def rows(lines) -> bytes:
    return "".join("\t".join(row) + "\n" for row in lines).encode("utf-8")


# (kind, requests per 1000): 60% disseminations, 30% queries of which 2%
# are full scans, 10% writes. Only these class shares are given; within a
# class the kinds have equal shares, an assumption with no measured
# traffic behind it.
PORTAL_MIX = (
    ("dissem.getRecord", 100), ("dissem.getGold", 100), ("dissem.listMembers", 100),
    ("dissem.listProvided", 100), ("dissem.showBrand", 100), ("dissem.profile", 100),
    ("query.point", 98), ("query.join2", 98), ("query.join3", 98), ("query.scan", 6),
    ("write", 100),
)


class Portal:
    def __init__(self, app, model: PortalModel, rng: random.Random):
        self.app, self.model, self.rng = app, model, rng
        self.metas = sorted(model.meta, key=pid_key)
        self.contents = sorted(model.content, key=pid_key)
        # Multi-provider resources, and those whose only record was deleted
        # upstream (409), in the proportion the corpus holds them.
        self.gold_targets = sorted(model.shared + model.orphaned, key=pid_key)
        self.user_bytes = 0

    def request(self, kind: str) -> tuple[bool, str]:
        """Issue one request of `kind`; returns (outcome matches, label).
        Only the gateway call itself is timed, into `elapsed`."""
        return getattr(self, "do_" + kind.replace(".", "_"))()

    def call(self, *args, **kwargs) -> tuple[int, bytes]:
        t = time.perf_counter()
        reply = wsgi(self.app, *args, **kwargs)
        self.elapsed = time.perf_counter() - t
        return reply

    # -- disseminations

    def do_dissem_getRecord(self):
        m = self.rng.choice(self.metas)
        state = self.model.meta[m]
        status, body = self.call("GET", f"/objects/{m}/methods/getRecord",
                            {"format": "nsdl_dc"})
        if not state.live:
            return status == 410, f"getRecord {m} on tombstone -> {status}"
        return (status == 200 and dc_entries(ET.fromstring(body)) == state.record.expected,
                f"getRecord {m} -> {status}")

    def do_dissem_getGold(self):
        r = self.rng.choice(self.gold_targets)
        status, body = self.call("GET", f"/objects/{r}/methods/getGold")
        if not self.model.describing(r):
            return status == 409, f"getGold {r} without metadata -> {status}"
        if status != 200:
            return False, f"getGold {r} -> {status}"
        root = ET.fromstring(body)
        got = (dc_entries(root),
               [(c.text or "") for c in root.iter("contributor")])
        return got == expected_gold(self.model, r), f"getGold {r} body differs"

    def _paged(self, pids):
        offset = self.rng.randrange(0, max(1, len(pids)))
        limit = self.rng.choice((10, 25, 50))
        return {"offset": str(offset), "limit": str(limit)}, pids[offset:offset + limit]

    def do_dissem_listMembers(self):
        i = self.rng.randrange(len(self.model.aggs))
        params, want = self._paged(self.model.members(i))
        status, body = self.call("GET",
                            f"/objects/{self.model.aggs[i]}/methods/listMembers", params)
        return status == 200 and body == uri_list(want), f"listMembers {i} -> {status}"

    def do_dissem_listProvided(self):
        i = self.rng.randrange(len(self.model.roles))
        params, want = self._paged(self.model.provided(i))
        status, body = self.call("GET",
                            f"/objects/{self.model.roles[i]}/methods/listProvided", params)
        return status == 200 and body == uri_list(want), f"listProvided {i} -> {status}"

    def do_dissem_showBrand(self):
        r = self.rng.choice(self.contents)
        providers = {self.model.meta[m].provider for m in self.model.describing(r)}
        want = sorted(((self.model.aggs[i], self.model.labels[i]) for i in providers),
                      key=lambda t: pid_key(t[0]))
        status, body = self.call("GET", f"/objects/{r}/methods/showBrand")
        if status != 200:
            return False, f"showBrand {r} -> {status}"
        got = [(b.get("holder", "")[len("info:nsdl/"):], b.findtext("label"))
               for b in ET.fromstring(body)]
        return got == want, f"showBrand {r} brands differ"

    def do_dissem_profile(self):
        pid = self.rng.choice(self.metas + self.contents)
        status, body = self.call("GET", f"/objects/{pid}")
        state = self.model.meta.get(pid)
        if state is not None and not state.live:
            return status == 410, f"profile {pid} on tombstone -> {status}"
        if status != 200:
            return False, f"profile {pid} -> {status}"
        root = ET.fromstring(body)
        streams = tuple(sorted(d.get("dsId") for d in root.iter("datastream")))
        behaviors = [b.get("name") for b in root.iter("behavior")]
        if state is not None:
            ok = behaviors == ["Metadata"] and streams == state.streams
        else:
            ok = (behaviors == ["Content"] and streams == ("CONTENT", "RELS")
                  and (root.get("handle") or "").startswith("hdl:"))
        return ok and root.get("pid") == pid and root.get("state") == "active", \
            f"profile {pid} differs"

    # -- queries

    def _query(self, text: str, params=None):
        return self.call("POST", "/query", params, text.encode("utf-8"))

    def do_query_point(self):
        r = self.rng.choice(self.contents)
        status, body = self._query(
            f"select ?m where (?m <rel:metadataFor> <info:nsdl/{r}>)")
        return status == 200 and body == rows((m,) for m in self.model.describing(r)), \
            f"point query on {r} -> {status}"

    def do_query_join2(self):
        r = self.rng.choice(self.model.shared)
        status, body = self._query(
            f"select ?m ?p where (?m <rel:metadataFor> <info:nsdl/{r}>)"
            f" (?m <rel:providedBy> ?p)")
        want = rows((m, self.model.roles[self.model.meta[m].provider])
                    for m in self.model.describing(r))
        return status == 200 and body == want, f"2-clause join on {r} -> {status}"

    def do_query_join3(self):
        a, b = self.rng.sample(range(len(self.model.roles)), 2)
        members = set(self.model.members(b))
        described = {self.model.url_content[self.model.meta[m].record.url]
                     for m in self.model.provided(a)}
        hits = sorted(members & described, key=pid_key)
        offset = self.rng.randrange(0, max(1, len(hits)))
        status, body = self._query(
            f"select ?r where (?m <rel:providedBy> <info:nsdl/{self.model.roles[a]}>)"
            f" (?m <rel:metadataFor> ?r) (?r <rel:memberOf> <info:nsdl/{self.model.aggs[b]}>)",
            {"offset": str(offset), "limit": "20"})
        return (status == 200 and body == rows((r,) for r in hits[offset:offset + 20]),
                f"3-clause join {a}/{b} -> {status}")

    def do_query_scan(self):
        status, _ = self._query("select ?s ?p ?o where (?s ?p ?o)")
        return status == 413, f"full scan -> {status}"

    # -- writes

    def do_write(self):
        live = [m for m in self.metas if self.model.meta[m].live]
        m = self.rng.choice(live)
        state = self.model.meta[m]
        k = self.model.edits
        p_name = f"p{state.provider}"
        index = int(state.record.identifier.rsplit(":", 1)[1])
        edited = gen.make_record(self.rng, p_name, index, state.record.url,
                                 revision=3 + k)
        content = self.model.url_content[state.record.url]
        stamp = EDIT_BASE + timedelta(seconds=k)
        rels = serialize_rels(m, [
            Triple(m, base_predicate("metadataFor"), content, m),
            Triple(m, base_predicate("providedBy"), self.model.roles[state.provider], m)])
        obj = DigitalObject(
            pid=m, behaviors=frozenset({"Metadata"}), last_modified=stamp,
            version=EDIT_VERSION + k,
            datastreams=(
                local_stream("REC.oai_dc", "application/xml", edited.xml(), stamp),
                local_stream("SOURCE", "application/xml",
                             build_source_doc(p_name, edited.identifier, stamp), stamp),
                local_stream("RELS", "application/rdf+xml", rels, stamp)))
        body = export_object(obj)
        self.user_bytes += len(body)
        status, reply = self.call("PUT", f"/objects/{m}", body=body)
        self.model.edits += 1
        state.record, state.seq = edited, (2, k, 0)
        state.streams = ("REC.oai_dc", "RELS", "SOURCE")
        return status == 200 and reply == f"{m}\n".encode(), f"PUT {m} -> {status}"


def run_portal_mix(seed: int, budget: Budget, tracer, built: Built) -> Result:
    """ROUNDS rounds, each on a fresh copy of the corpus, of requests dealt
    from the mix until the round's share of the budget is spent."""
    oracle = Oracle()
    rng = random.Random(seed * 104729 + 3)
    setup_s: list[float] = []
    open_s: list[float] = []
    kinds = [k for k, _ in PORTAL_MIX]
    # Requests are dealt from shuffled decks of 1000 holding the mix exactly,
    # so every run has the same share of each kind whatever its seed.
    deck: list[str] = []
    lat: dict[str, list[float]] = {k: [] for k in kinds}
    every: list[float] = []
    user_bytes = 0

    def one_round(round_no: int, repo: Repository, app, model: PortalModel) -> int:
        if model.triple_count() <= QUERY_ROW_CAP:
            raise RuntimeError("corpus too small for the full-scan refusal")
        portal = Portal(app, model, rng)
        while budget.more(share=round_no / ROUNDS):
            if not deck:
                deck.extend(kind for kind, weight in PORTAL_MIX for _ in range(weight))
                rng.shuffle(deck)
            kind = deck.pop()
            with tracer.span("bench.request", kind):
                ok, label = portal.request(kind)
            lat[kind].append(portal.elapsed * 1000.0)
            every.append(portal.elapsed * 1000.0)
            oracle.check(ok, label)
            budget.done += 1
        return portal.user_bytes

    started = time.perf_counter()
    for round_no in range(1, ROUNDS + 1):
        user_bytes += one_round(
            round_no, *open_round(seed, built, portal_model, budget, setup_s, open_s))
    measured = time.perf_counter() - started
    rate = 1000.0 * len(every) / sum(every)
    dissem = [v for k in kinds if k.startswith("dissem.") for v in lat[k]]
    query = [v for k in kinds if k.startswith("query.") for v in lat[k]]
    named = {"gateway_rps": (rate, "1/s")}
    named.update(latency_summary("dissem", dissem, 99.0))
    named.update(latency_summary("query", query, 99.0))
    named.update(latency_summary("write", lat["write"], 90.0))
    named.update(latency_summary("request", every, 99.0))
    return Result(oracle, setup_s, open_s, named, every, rate, measured,
                  records_written=len(lat["write"]), user_bytes=user_bytes)


# --------------------------------------------------------------------------
# runs

RUNNERS = {
    "catalog-ingest": run_catalog_ingest,
    "oai-federation": run_oai_federation,
    "portal-mix": run_portal_mix,
}
# Fixed schedule of a traced run: operations per second of run length.
TRACE_OPS_PER_S = {"catalog-ingest": 0, "oai-federation": 1, "portal-mix": 150}
TRACE_MIN_OPS = {"catalog-ingest": 1, "oai-federation": 21, "portal-mix": 0}
# Percentile of the gated tail_ms: the workload's latencies are bimodal on
# this machine, so a median flips between modes from run to run.
TAIL = {"catalog-ingest": 90.0, "oai-federation": 90.0, "portal-mix": 99.0}


def runs_on(workload: str, seed: int, work: Path, printed: dict):
    """What a runner runs on: catalog-ingest its work directory, in which it
    builds its own repositories; the others a corpus built beforehand."""
    if workload == "catalog-ingest":
        return work
    return build(seed, work, printed)


def measure(workload: str, seed: int, seconds: float, work: Path,
            printed: dict) -> tuple[Result, dict]:
    """An untraced run for `seconds`: the result and the gated metrics,
    the same four names on every workload, each mapped to the workload's
    own figure (see NOTES.md)."""
    target = runs_on(workload, seed, work, printed)
    result = RUNNERS[workload](seed, Budget(seconds=seconds),
                               NullTracer(), target)
    return result, {
        "setup_s": (statistics.median(result.setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "throughput_rps": (result.throughput, "1/s"),
        "tail_ms": (percentile(result.latencies_ms, TAIL[workload]), "ms"),
    }


def measure_traced(workload: str, seed: int, seconds: float, work: Path, src: Path,
                   printed: dict) -> tuple[Result, dict, Tracer]:
    """The same fixed schedule twice from the same state, untraced and
    then traced: the traced result, the per-layer metrics and the spans.
    The traced half sets up under the tracer, so that opening the data
    directory is measured too."""
    run = RUNNERS[workload]
    ops = max(TRACE_MIN_OPS[workload], int(TRACE_OPS_PER_S[workload] * seconds))
    target = runs_on(workload, seed, work, printed)
    untraced = run(seed, Budget(ops=ops), NullTracer(), target)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run(seed, Budget(ops=ops), tracer, target)
    finally:
        tracer.uninstall()
    printed["untraced_schedule_s"] = (untraced.measured_s, "s")
    printed["traced_schedule_s"] = (traced.measured_s, "s")
    metrics = layer_metrics(tracer, traced.records_written, traced.user_bytes)
    metrics["trace.overhead_pct"] = (
        100.0 * (traced.measured_s - untraced.measured_s) / untraced.measured_s)
    metrics["src.loc"] = source_lines(src)
    if traced.offered:
        share = traced.malformed / traced.offered
        traced.oracle.check(abs(metrics["harvest.rejects_per_rec"] - share) < 1e-12,
                            f"rejects per record {metrics['harvest.rejects_per_rec']}"
                            f" != malformed share {share}")
    return traced, {k: (v, _layer_unit(k)) for k, v in metrics.items()}, tracer


def _layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    return "count"
