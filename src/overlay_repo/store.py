"""The repository: persistent digital objects joined to the relationship graph.

Every object change (put, restore, delete, handle assignment) goes
through one write path, Repository._store, serialized behind one lock: it
checks the object and its graph assertions, writes its record, commits
the record, its graph assertions and the secondary indexes as a single
unit, and moves the pid/handle counters past what it stored. Readers see
immutable snapshots. Repository._violations is the one ontology check;
validate_graph runs it too.
Persistence is a directory of canonical XML records plus state.json; the
triple index and all lookup tables are rebuilt from those records on
open, where objects/<n>.xml must hold nsdl:<n>. One record check,
_checked, runs on write and on open: the object is validated and takes
the triples the write hands it (a canonical document's, read where
canonical.import_object parses it, or the harvester's own), else those
of a RELS stream of bytes; every REC.<format> payload must be
embeddable as it is (one expat pass, no tree), so readers such as the
OAI provider splice stored records into their output unparsed. Every
parse refuses a DOCTYPE; a SOURCE payload that holds one, which no check
refuses, gives no key. Each relationship is held once, in the graph: an
object holds the RELS_IN_GRAPH marker for its RELS stream, and record
writes and exports render it from the triples.

For the OAI provider the commit also keeps a sorted (datestamp, pid
number) list over every object, tombstones included, so a datestamp
window is two bisects, plus the active Aggregator pids and a count of the
REC.<format> streams on active objects; open rebuilds them through the
same commits. state.json holds the minted-pid mark alone, written by
mint_pid only (a pid minted but never stored is never minted again); the
counters a write moves past its own pid and handle come back from the
records. Every state file goes through write_json, in one JSON form.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import logging
import threading
import time
import urllib.request
from dataclasses import replace
from datetime import datetime
from pathlib import Path
from typing import Callable, Iterator

from . import canonical
from .errors import (
    DisseminationError,
    NotFoundError,
    ObjectDeletedError,
    OperationNotSupportedError,
    RepositoryError,
    StoreError,
    ValidationError,
)
from .graph import Triple, TripleStore, parse_rels
from .model import (
    CONTENT_DS,
    RECORD_DS_PREFIX,
    RELS_DS,
    RELS_IN_GRAPH,
    SOURCE_DS,
    DigitalObject,
    Representation,
    handle_suffix,
    is_absolute_url,
    make_handle,
    make_pid,
    parse_representation_uri,
    parse_source_doc,
    pid_number,
    pid_sort_key,
    pid_sorted,
    quoteattr,
    utcnow_seconds,
)
from .behaviors import ALIASES, OPERATIONS, content_get_gold
from .ontology import check_triple, satisfies_type
from .records import check_record

log = logging.getLogger(__name__)

Clock = Callable[[], datetime]
UrlFetcher = Callable[[str, float], bytes]
HANDLE_PREFIX = "2200"  # of the handles the repository mints
FETCH_TIMEOUT = 10.0  # seconds a remote CONTENT fetch may take
# Bytes a request body or a fetched body may hold: canonical XML objects,
# OAI arguments, query text, remote streams and harvested pages.
MAX_BODY_BYTES = 16 * 1024 * 1024


def _default_fetcher(url: str, timeout: float) -> bytes:
    """The body at url. The fetch fails once the body passes
    MAX_BODY_BYTES or timeout seconds have passed since it began; the
    socket timeout bounds each read, so a stalled read ends too."""
    deadline, body = time.monotonic() + timeout, bytearray()
    with urllib.request.urlopen(url, timeout=timeout) as response:
        while chunk := response.read1(1 << 16):
            body += chunk
            if len(body) > MAX_BODY_BYTES:
                raise ValueError(f"body passes {MAX_BODY_BYTES} bytes")
            if time.monotonic() > deadline:
                raise TimeoutError(f"body not read within {timeout} s")
    return bytes(body)


def _read_json(path: Path, convert: Callable):
    """convert() of a JSON state file's value, or of None when there is no
    file; an unreadable or wrongly shaped file is a StoreError naming it."""
    try:
        return convert(json.loads(path.read_text("utf-8")))
    except FileNotFoundError:
        return convert(None)
    except (OSError, ValueError, AttributeError, LookupError, TypeError,
            ValidationError) as exc:
        raise StoreError(f"unreadable state file {path}: {exc}") from exc


def write_json(path: Path, data) -> None:
    """Write a JSON state file, indented, through the store's one writer,
    making its directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    Repository._atomic_write(path, (json.dumps(data, indent=2) + "\n").encode("utf-8"))


class Repository:
    """Store of digital objects with minted pids, a local handle table,
    and dissemination of stored or computed representations."""

    def __init__(
        self,
        data_dir: str | Path | None = None,
        *,
        clock: Clock | None = None,
        url_fetcher: UrlFetcher | None = None,
    ):
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self.clock = clock or utcnow_seconds
        self._fetch = url_fetcher or _default_fetcher

        self._lock = threading.RLock()
        self._objects: dict[str, DigitalObject] = {}
        self._pids: list[str] = []  # pid order, kept by _commit
        self._pid_counter = 0
        self._handle_counter = 0
        self._handles: dict[str, str] = {}
        # key -> its one active holder, or several as a pid-ordered tuple
        self._content_by_url: dict[str, str | tuple[str, ...]] = {}
        self._sources: dict[tuple[str, str], str | tuple[str, ...]] = {}
        self._stamps: list[tuple[datetime, int]] = []  # (last_modified, pid number), sorted
        self._aggregators: set[str] = set()  # active
        self._format_counts: dict[str, int] = {}  # REC.<format> streams, active objects
        self._golds: dict[str, bytes] = {}  # resource pid -> gold record, filled by gold()
        self.graph = TripleStore()
        if self.data_dir is not None:
            self._open_data_dir()

    # ------------------------------------------------------------------
    # identifiers

    def mint_pid(self) -> str:
        """Next unused pid; the counter is persisted, so pids are never
        reused across deletions or restarts."""
        with self._lock:
            self._pid_counter += 1
            if self.data_dir is not None:
                write_json(self.data_dir / "state.json", {"pid_counter": self._pid_counter})
            return make_pid(self._pid_counter)

    def resolve_handle(self, handle: str) -> str:
        """pid registered for a handle (tombstones keep their mapping)."""
        pid = self._handles.get(handle)
        if pid is None:
            raise NotFoundError(f"unknown handle {handle}")
        return pid

    def assign_handle(self, pid: str) -> str:
        """Handle of a resource object, minting and persisting one on
        first request."""
        with self._lock:
            obj = self.active_object(pid)
            if obj.handle is not None:
                return obj.handle
            if not satisfies_type(obj.behaviors, "Resource"):
                raise OperationNotSupportedError(
                    f"{pid} binds no resource type, handles do not apply")
            handle = make_handle(HANDLE_PREFIX, self._handle_counter + 1)
            self._store(replace(obj, handle=handle, version=obj.version + 1,
                                last_modified=self.clock()), obj, strict=False)
            return handle

    # ------------------------------------------------------------------
    # object lifecycle

    def put_object(self, obj: DigitalObject, *, strict: bool = True,
                   _triples: list[Triple] | None = None) -> int:
        """Create or update an object atomically with its graph assertions.

        Returns the new version. Any rejection (structure, relationship
        fragment, ontology) leaves both the object store and the graph
        untouched. _triples, from the package's own writers: see _checked.
        """
        with self._lock:
            if pid_number(obj.pid) > self._pid_counter:
                raise ValidationError(f"{obj.pid} was never minted")
            old = self._objects.get(obj.pid)
            prepared = replace(
                obj,
                state="active",
                handle=obj.handle if obj.handle is not None
                else (old.handle if old else None),
                version=(old.version + 1) if old else 1,
                last_modified=self.clock(),
            )
            return self._store(prepared, old, strict=strict, triples=_triples).version

    def restore_object(self, obj: DigitalObject, *, strict: bool = True,
                       _triples: list[Triple] | None = None) -> bool:
        """Import path: stores obj, tombstones included, as the document
        gives it, keeping its version and datestamp (bumping the version
        only when a replaced object is already past it); True if the pid
        is new. It passes the same checks as put_object, handle ownership
        included. _triples are the triples of obj's document."""
        with self._lock:
            old = self._objects.get(obj.pid)
            if old is not None and old.version >= obj.version:
                obj = replace(obj, version=old.version + 1)
            self._store(obj, old, strict=strict, triples=_triples)
            return old is None

    def get_object(self, pid: str) -> DigitalObject:
        obj = self._objects.get(pid)
        if obj is None:
            raise NotFoundError(f"unknown pid {pid}")
        return obj

    def active_object(self, pid: str) -> DigitalObject:
        """The object, unless it is a tombstone (ObjectDeletedError)."""
        obj = self.get_object(pid)
        if obj.state == "deleted":
            raise ObjectDeletedError(f"{pid} is deleted")
        return obj

    def delete_object(self, pid: str) -> None:
        """Tombstone an object: datastreams, behaviors and asserted triples
        go away; pid, datestamp and handle mapping remain. Idempotent."""
        with self._lock:
            old = self.get_object(pid)
            if old.state == "deleted":
                return
            self._store(old.tombstone(self.clock()), old, strict=True)

    def export_object(self, pid: str) -> bytes:
        with self._lock:
            return canonical.export_object(
                self.get_object(pid), self.graph.triples_asserted_by(pid))

    def import_object(self, doc: bytes, *, strict: bool = True) -> str:
        obj, triples = canonical.import_object(doc)
        self.restore_object(obj, strict=strict, _triples=triples)
        return obj.pid

    # ------------------------------------------------------------------
    # views

    def pids(self) -> list[str]:
        with self._lock:
            return list(self._pids)

    def pids_after(self, number: int, limit: int) -> list[str]:
        """Up to limit pids, pid order, past pid number number (from the first if < 0)."""
        with self._lock:
            start = 0 if number < 0 else bisect.bisect_right(
                self._pids, pid_sort_key(make_pid(number)), key=pid_sort_key)
            return self._pids[start:start + limit]

    def objects(self) -> Iterator[DigitalObject]:
        for pid in self.pids():
            yield self._objects[pid]

    def active_objects(self) -> Iterator[DigitalObject]:
        return (o for o in self.objects() if o.state == "active")

    def stamped(self, start: datetime, end: datetime) -> list[int]:
        """Pid numbers of the objects, tombstones included, last modified
        in [start, end), datestamp order."""
        with self._lock:
            return [number for _, number in self._stamps[
                bisect.bisect_left(self._stamps, (start,)):
                bisect.bisect_left(self._stamps, (end,))]]

    def count_stamped(self, end: datetime) -> int:
        """Number of objects, tombstones included, last modified before end."""
        with self._lock:
            return bisect.bisect_left(self._stamps, (end,))

    def earliest_datestamp(self) -> datetime | None:
        with self._lock:
            return self._stamps[0][0] if self._stamps else None

    def aggregators(self) -> list[str]:
        """Active Aggregator pids, pid order."""
        with self._lock:
            return pid_sorted(self._aggregators)

    def stored_formats(self) -> set[str]:
        """Formats stored as REC.<format> on some active object."""
        with self._lock:
            return set(self._format_counts)

    def behaviors_of(self, pid: str) -> frozenset[str] | None:
        """Behavior set of an active object, else None: the type the
        ontology check gives a pid."""
        obj = self._objects.get(pid)
        if obj is None or obj.state == "deleted":
            return None
        return obj.behaviors

    def content_pid_for_url(self, url: str) -> str | None:
        """Lowest active Content pid whose remote CONTENT stream is url."""
        with self._lock:
            return _first(self._content_by_url.get(url))

    def source_pid(self, provider: str, oai_identifier: str) -> str | None:
        """Lowest active pid whose SOURCE names this upstream record."""
        with self._lock:
            return _first(self._sources.get((provider, oai_identifier)))

    def fetch_remote(self, url: str) -> bytes:
        if not is_absolute_url(url):
            raise DisseminationError(f"remote fetch of {url} refused: not http, https or ftp")
        try:
            return self._fetch(url, FETCH_TIMEOUT)
        except Exception as exc:
            raise DisseminationError(f"remote fetch of {url} failed: {exc}") from exc

    def rebuild_graph(self) -> None:
        """Drop and reconstruct the triple index from the RELS of the
        active objects' records (their exports without a data directory)."""
        with self._lock:
            self.graph.rebuild((o.pid, canonical.import_object(
                self._record(pid_number(o.pid)).read_bytes() if self.data_dir
                else self.export_object(o.pid))[1]) for o in self.active_objects())
            self._golds.clear()

    def gold(self, pid: str) -> bytes:
        """The gold record of pid, a live Content object, folded by
        behaviors.content_get_gold on the first call after a write to its
        inputs and kept until the next (_commit drops it); a fold that
        fails is not kept."""
        with self._lock:
            xml = self._golds.get(pid)
            if xml is None:
                xml = self._golds[pid] = content_get_gold(self, pid).xml
            return xml

    def validate_graph(self) -> list[str]:
        """Domain/range violations across the whole joined graph; the
        post-staging check behind lenient bulk imports."""
        with self._lock:
            return [v for obj in self.active_objects() for v in self._violations(
                obj, self.graph.triples_asserted_by(obj.pid))]

    # ------------------------------------------------------------------
    # dissemination

    def resolve(self, uri: str, params: dict[str, str] | None = None) -> Representation:
        """Dereference an info URI: the object profile, or the output of
        the bound behavior operation. Stored and computed representations
        are indistinguishable here."""
        pid, op, uri_params = parse_representation_uri(uri)
        merged = dict(uri_params)
        merged.update(params or {})
        return self.disseminate(pid, op, merged)

    def disseminate(self, pid: str, op: str | None,
                    params: dict[str, str] | None = None) -> Representation:
        obj = self.active_object(pid)
        if op is None:
            return self._profile(obj)
        type_name, fn = OPERATIONS.get(ALIASES.get(op, op), (None, None))
        if fn is None or not satisfies_type(obj.behaviors, type_name):
            raise OperationNotSupportedError(f"{pid} does not support {op}")
        try:
            return fn(self, pid, params or {})
        except RepositoryError:
            raise
        except Exception as exc:
            raise DisseminationError(f"{pid}/{op} failed: {exc}") from exc

    def _profile(self, obj: DigitalObject) -> Representation:
        lines = [canonical.start_tag("objectProfile", obj) + ">"]
        for ds in sorted(obj.datastreams, key=lambda d: d.ds_id):
            lines.append(f"  <datastream dsId={quoteattr(ds.ds_id)} kind={quoteattr(ds.kind)}"
                         f" mediaType={quoteattr(ds.media_type)}/>")
        for name in sorted(obj.behaviors):
            lines.append(f"  <behavior name={quoteattr(name)}/>")
        lines.append("</objectProfile>")
        return Representation("application/xml", ("\n".join(lines) + "\n").encode("utf-8"))

    # ------------------------------------------------------------------
    # write path internals (lock held)

    def _store(self, obj: DigitalObject, old: DigitalObject | None,
               *, strict: bool, triples: list[Triple] | None = None) -> DigitalObject:
        """The one write path: check obj, write its record, commit it, and
        move the counters past its pid and handle. A rejection or a failed
        record write leaves the store as it was. The counters are not
        written: the record just written carries them back on open."""
        obj, triples = _checked(obj, triples, self.graph.triples_asserted_by)
        violations = self._violations(obj, triples)
        if violations:
            if strict:
                raise ValidationError(
                    f"{obj.pid}: relationship fragment rejected", violations)
            for v in violations:
                log.warning("accepting despite ontology violation: %s", v)
        if old is not None and old.handle is not None and obj.handle != old.handle:
            raise ValidationError(
                f"{obj.pid}: handle {old.handle} is permanent and cannot "
                f"change to {obj.handle}")
        if obj.handle is not None:
            owner = self._handles.get(obj.handle)
            if owner is not None and owner != obj.pid:
                raise ValidationError(
                    f"{obj.pid}: handle {obj.handle} already registered to {owner}")
        number = pid_number(obj.pid)
        self._write_record(obj, number, triples)
        self._commit(obj, old, triples, number)
        self._absorb(obj, number)
        return obj

    def _violations(self, obj: DigitalObject, triples: list[Triple]) -> list[str]:
        """The one ontology check: the domain/range violations of the
        triples obj asserts. obj is typed by its own behaviors, which it
        has once its write commits; every other pid by behaviors_of."""
        violations = []
        for t in triples:
            object_b = (obj.behaviors if t.object == obj.pid
                        else self.behaviors_of(t.object))
            for problem in check_triple(t.predicate, obj.behaviors, object_b):
                violations.append(f"({t.subject}, {t.predicate}, {t.object}): {problem}")
        return violations

    def _commit(self, obj: DigitalObject, old: DigitalObject | None,
                triples: list[Triple], number: int) -> None:
        """Apply a written object, whose pid has the given number, to the
        object table, the graph and the indexes."""
        if obj.pid not in self._objects:  # new pids mostly come last
            if self._pids and pid_sort_key(obj.pid) < pid_sort_key(self._pids[-1]):
                bisect.insort(self._pids, obj.pid, key=pid_sort_key)
            else:
                self._pids.append(obj.pid)
        self._objects[obj.pid] = obj
        # A gold reads only its resource's describing objects (their
        # records, stamps and augments edges): drop obj's own and those of
        # the resources obj describes, before this write and after it.
        stale = ({obj.pid, *self.graph.objects_of(obj.pid, "metadataFor")}
                 if self._golds else None)
        self.graph.replace_triples(obj.pid, triples)
        if stale:
            stale.update(self.graph.objects_of(obj.pid, "metadataFor"))
            for pid in stale:
                self._golds.pop(pid, None)
        self._index(obj, old, number)

    def _index(self, obj: DigitalObject, old: DigitalObject | None, number: int) -> None:
        if obj.handle is not None:
            self._handles[obj.handle] = obj.pid
        if old is not None:
            del self._stamps[bisect.bisect_left(
                self._stamps, (old.last_modified, number))]
            if old.state == "active":
                self._aggregators.discard(old.pid)
                for name in old.record_formats():
                    self._format_counts[name] -= 1
                    if not self._format_counts[name]:
                        del self._format_counts[name]
        bisect.insort(self._stamps, (obj.last_modified, number))
        if obj.state == "active":
            if "Aggregator" in obj.behaviors:
                self._aggregators.add(obj.pid)
            for name in obj.record_formats():
                self._format_counts[name] = self._format_counts.get(name, 0) + 1
        # a tombstone holds no key: it has no streams
        for index, key_of in ((self._content_by_url, _content_url),
                              (self._sources, _source_key)):
            key = key_of(obj)
            if obj.pid in _holders(index, key):
                continue  # then old held key too: nothing moves
            if old is not None and (old_key := key_of(old)) is not None:
                _hold(index, old_key, old.pid, False)
            if key is not None:
                _hold(index, key, obj.pid, True)

    def _absorb(self, obj: DigitalObject, number: int) -> None:
        """Move the counters past obj's pid, whose number is given, and any
        handle in HANDLE_PREFIX, so neither is minted again."""
        self._pid_counter = max(self._pid_counter, number)
        if obj.handle is not None and obj.handle.startswith(f"hdl:{HANDLE_PREFIX}/"):
            suffix = handle_suffix(obj.handle)
            if suffix.isdigit():
                self._handle_counter = max(self._handle_counter, int(suffix))

    # ------------------------------------------------------------------
    # persistence

    def _open_data_dir(self) -> None:
        assert self.data_dir is not None
        objects_dir = self.data_dir / "objects"
        try:
            objects_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StoreError(f"cannot initialize data directory: {exc}") from exc
        self._pid_counter = _read_json(self.data_dir / "state.json",
                                       lambda state: int((state or {}).get("pid_counter", 0)))
        records = sorted(objects_dir.glob("*.xml"),
                         key=lambda p: int(p.stem) if p.stem.isdigit() else 0)
        shared: dict[str, str] = {}  # one string per pid and repeated value
        for path in records:
            try:
                obj, triples = _checked(*canonical.import_object(
                    path.read_bytes(), shared), self.graph.triples_asserted_by)
                number = pid_number(obj.pid)
                if path.name != f"{number}.xml":
                    raise ValidationError(f"holds {obj.pid}, whose record is "
                                          f"{number}.xml")
            except ValidationError as exc:
                raise StoreError(f"corrupt object record {path.name}: {exc}") from exc
            self._absorb(obj, number)
            self._commit(obj, self._objects.get(obj.pid), triples, number)

    def _record(self, number: int) -> Path:
        return self.data_dir / "objects" / f"{number}.xml"

    def _write_record(self, obj: DigitalObject, number: int, triples: list[Triple]) -> None:
        if self.data_dir is not None:
            self._atomic_write(self._record(number), canonical.export_object(obj, triples))

    @staticmethod
    def _atomic_write(path: Path, data: bytes) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        try:
            tmp.write_bytes(data)
            tmp.replace(path)
        except OSError as exc:
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)
            raise StoreError(f"write to {path} failed: {exc}") from exc


def _checked(obj: DigitalObject, triples: list[Triple] | None,
             held: Callable[[str], list[Triple]],
             ) -> tuple[DigitalObject, list[Triple]]:
    """The one record check, on write and on open: obj, validated, with
    its streams in its record's order (every stream but RELS by id, then
    RELS_IN_GRAPH for any RELS stream), and the triples it asserts. Given
    triples are those, and obj gets the marker; else a RELS stream of bytes
    is parsed; else the marker keeps held(pid). Triples and RELS bytes
    both given are refused. A tombstone must be empty. Every REC.<format>
    stream must be local and embeddable as it is (records.check_record),
    so the OAI provider splices stored records into responses without
    parsing them."""
    obj.validate()
    if obj.state == "deleted" and (obj.datastreams or obj.behaviors
                                   or triples is not None):
        raise ValidationError(f"{obj.pid}: tombstone documents must be empty")
    for ds in obj.datastreams:
        if ds.ds_id.startswith(RECORD_DS_PREFIX):
            if ds.kind != "local":
                raise ValidationError(f"{obj.pid}: {ds.ds_id} must be local")
            try:
                check_record(ds.payload, ds.ds_id[len(RECORD_DS_PREFIX):])
            except ValidationError as exc:
                raise ValidationError(f"{obj.pid}: {ds.ds_id} {exc}") from None
    ds = obj.datastream(RELS_DS)
    if triples is None:
        triples = ([] if ds is None else held(obj.pid) if ds is RELS_IN_GRAPH
                   else parse_rels(obj.pid, ds.payload))
    elif ds is None or ds is RELS_IN_GRAPH:
        ds = RELS_IN_GRAPH
    else:
        raise ValidationError(f"{obj.pid}: triples given with RELS bytes")
    rest = sorted((d for d in obj.datastreams if d.ds_id != RELS_DS), key=lambda d: d.ds_id)
    streams = tuple(rest) if ds is None else (*rest, RELS_IN_GRAPH)
    if streams != obj.datastreams:
        obj = replace(obj, datastreams=streams)
    return obj, triples


def _holders(index: dict, key) -> tuple[str, ...]:
    held = index.get(key, ())
    return (held,) if isinstance(held, str) else held


def _hold(index: dict, key, pid: str, holds: bool) -> None:
    """Add pid to, or drop it from, the holders of key in index."""
    holders = [h for h in _holders(index, key) if h != pid]
    if holds:
        holders = pid_sorted(holders + [pid])
    if not holders:
        index.pop(key, None)
    else:
        index[key] = holders[0] if len(holders) == 1 else tuple(holders)


def _first(held: str | tuple[str, ...] | None) -> str | None:
    return held[0] if isinstance(held, tuple) else held


def _content_url(obj: DigitalObject) -> str | None:
    ds = obj.datastream(CONTENT_DS)
    if ds is not None and ds.kind == "remote" and "Content" in obj.behaviors:
        return ds.url
    return None


def _source_key(obj: DigitalObject) -> tuple[str, str] | None:
    ds = obj.datastream(SOURCE_DS)
    if ds is None or ds.payload is None:
        return None
    try:
        provider, oai_id, _ = parse_source_doc(ds.payload)
    except ValidationError:
        return None
    return provider, oai_id
