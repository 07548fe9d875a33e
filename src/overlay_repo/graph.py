"""Joined triple store over all objects' relationship datastreams.

Each object asserts relationships about itself in its RELS datastream
(RDF/XML, one rdf:Description about the object's info URI, parsed by
model.parse_xml, which refuses a DOCTYPE). Inside the package the
relationships move as triples: a canonical document's fragment is read
where the document is parsed, the harvester builds its own, and
serialize_rels writes the fragment back for a record or an export. The
triples are merged into one graph keyed by asserting object, indexed by
object, predicate, (subject, predicate) and (predicate, object) only (the
orderings that the queries probe; cf. Weiss et al., "Hexastore", VLDB
2008), and queried with conjunctive triple patterns. An index bucket of
two or more triples is a list kept in row order (Triple.sort_key) by the
write that changes it, under the store's lock, as the sorted indexes of
Neumann and Weikum ("RDF-3X", VLDB 2008) are, so the pids of a bucket's
one unbound position are read in pid order without a sort. The graph
holds what it is given: the repository checks each object's triples
against the base ontology before they land.

A query is planned before it runs. The clauses are ordered greedily, the
access-path choice of Selinger et al. (SIGMOD 1979): first a clause that
shares a variable bound by an earlier clause (so no cross product is
chosen while a connected clause remains), then the clause with the most
bound positions, then the smallest index bucket for its constant terms,
then, for the first clause, one that binds the first selected variable,
then the written order. A later clause with a constant whose variables
are all bound runs as a semi-join (Bernstein and Chiu, JACM 1981) when
its constants' bucket is no larger than the first clause's: that bucket
is read once, and a binding costs one set membership test, not a probe.

The plan runs as a lazy pipeline, one generator stage per step: a stage
pulls a binding from the stage before, probes, and leaves each binding of
its own in the one array of values that all stages share, so no binding
is copied, and a consumer that stops pulling stops the whole evaluation.
A page (a limit, from an offset) of a query whose first step binds just
the first selected variable is read in row order, the interesting order
of Selinger et al. and the order-preserving scans of Neumann and Weikum:
the first step's bucket is charged in full and read in its own order (a
predicate column alone is sorted, by URI), the other steps run per value
in that order, and evaluation stops once the rows of the values before
the next fill offset + limit. Such a page is charged the bucket and
costs the probes of the values up to its end, not O(result). Any other
query finds all its distinct rows and sorts them before the page is cut.
A caller may cap the rows and the triples the steps scan (a lookup's
whole bucket, even where a bound subject and object filter it);
evaluation stops with ``LimitExceededError`` as soon as a cap is passed,
so refusing a query costs O(cap), not O(result). A page and its whole
query share one plan, so a page read in row order makes its whole
query's probes for the values it reaches and is never refused where its
whole query is not.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections.abc import Collection, Iterable
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter, itemgetter
from xml.etree import ElementTree as ET

from . import ontology
from .errors import LimitExceededError, QueryParseError, ValidationError
from .model import (
    INFO_URI_PREFIX, is_pid, parse_xml, pid_sort_key, quoteattr, representation_uri)
from .ontology import BASE_NAMESPACE, Predicate, predicate, predicate_from_uri

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
_RDF_ROOT = f"{{{RDF_NS}}}RDF"
_RDF_DESCRIPTION = f"{{{RDF_NS}}}Description"
_RDF_ABOUT = f"{{{RDF_NS}}}about"
_RDF_RESOURCE = f"{{{RDF_NS}}}resource"

_EMPTY: frozenset = frozenset()
_FIELDS = ("subject", "predicate", "object")
_START = (None,)  # the one empty binding a plan starts from


@dataclass(frozen=True, order=True, slots=True)
class Triple:
    subject: str
    predicate: Predicate
    object: str
    # The subject, or "": it takes no part in equality, hashing or order.
    provenance: str = field(default="", compare=False)

    def sort_key(self):
        return pid_sort_key(self.subject), self.predicate, pid_sort_key(self.object)


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class QueryPattern:
    """Conjunctive pattern: ordered clauses plus the variables to project."""

    clauses: tuple[tuple[object, object, object], ...]
    select: tuple[str, ...]

    def validate(self) -> None:
        if not (self.clauses and self.select):
            raise QueryParseError("a query needs a clause and a selected variable")
        seen = {t.name for clause in self.clauses for t in clause if isinstance(t, Var)}
        missing = [v for v in self.select if v not in seen]
        if missing:
            raise QueryParseError(
                f"selected variables not bound by any clause: {missing}")


# --------------------------------------------------------------------------
# RELS fragment wire format


def parse_rels(pid: str, fragment: bytes | ET.Element,
               shared: dict[str, str] | None = None) -> list[Triple]:
    """Parse an object's RELS fragment, as bytes or as the rdf:RDF element
    of an already parsed document, into triples. Target pids come from
    shared, a table of the pids read so far that pid joins.

    The fragment must be RDF/XML with at most one rdf:Description, about
    the owning object; every property needs an rdf:resource pointing at
    another object's info URI. A repeated property is one triple.
    """
    root = fragment if isinstance(fragment, ET.Element) \
        else parse_xml(fragment, f"{pid}: RELS fragment")
    if root.tag != _RDF_ROOT:
        raise ValidationError(f"{pid}: RELS root must be rdf:RDF, got {root.tag}")
    descriptions = list(root)
    if not descriptions:
        return []
    if len(descriptions) > 1 or descriptions[0].tag != _RDF_DESCRIPTION:
        raise ValidationError(
            f"{pid}: RELS must contain exactly one rdf:Description")
    desc = descriptions[0]
    about = desc.get(_RDF_ABOUT, "")
    if about != representation_uri(pid):
        raise ValidationError(
            f"{pid}: RELS rdf:Description is about {about!r}, "
            f"not the owning object")
    shared = {} if shared is None else shared
    shared.setdefault(pid, pid)
    triples = []
    for prop in desc:
        if not prop.tag.startswith("{"):
            raise ValidationError(f"{pid}: RELS property {prop.tag!r} has no namespace")
        ns, name = prop.tag[1:].split("}", 1)
        target = prop.get(_RDF_RESOURCE)
        if target is None:
            raise ValidationError(
                f"{pid}: RELS property {name} needs an rdf:resource object")
        if not target.startswith(INFO_URI_PREFIX):
            raise ValidationError(
                f"{pid}: RELS property {name} points outside the repository: {target!r}")
        obj = target[len(INFO_URI_PREFIX):]
        if not is_pid(obj):
            raise ValidationError(f"{pid}: RELS property {name} targets malformed pid {obj!r}")
        obj = shared.setdefault(obj, obj)
        # Namespaces split by ElementTree lose their trailing separator.
        sep = "" if ns.endswith(("#", "/")) else "#"
        triples.append(Triple(pid, predicate(ns + sep, name), obj))
    return list(dict.fromkeys(triples))


def serialize_rels(pid: str, triples: Iterable[Triple]) -> bytes:
    """Deterministic RDF/XML for an object's assertions.

    Triples are ordered by (predicate, object); extension namespaces are
    assigned prefixes ext1, ext2, ... in first-use order.
    """
    ordered = sorted(
        triples,
        key=lambda t: (t.predicate, pid_sort_key(t.object)),
    )
    prefixes = {RDF_NS: "rdf", BASE_NAMESPACE: "rel"}
    for t in ordered:
        ns = t.predicate.namespace
        if ns not in prefixes:
            prefixes[ns] = f"ext{len(prefixes) - 1}"
    decls = "".join(f" xmlns:{prefix}={quoteattr(ns)}" for ns, prefix in prefixes.items())
    lines = [f"<rdf:RDF{decls}>"]
    about = quoteattr(representation_uri(pid))
    if not ordered:
        lines.append(f"  <rdf:Description rdf:about={about}/>")
    else:
        lines.append(f"  <rdf:Description rdf:about={about}>")
        for t in ordered:
            prefix = prefixes[t.predicate.namespace]
            target = quoteattr(representation_uri(t.object))
            lines.append(f"    <{prefix}:{t.predicate.name} rdf:resource={target}/>")
        lines.append("  </rdf:Description>")
    lines.append("</rdf:RDF>")
    return ("\n".join(lines) + "\n").encode("utf-8")


# --------------------------------------------------------------------------
# Store


class TripleStore:
    """In-memory joined graph with per-provenance replacement semantics.

    It is the one resident copy of the relationships; the records'
    RELS fragments, read again, rebuild it, and it is never persisted on
    its own. Mutations arrive only through the repository's serialized
    write path; an internal lock additionally keeps every read a
    consistent point-in-time view of the graph.

    A bucket of one triple, as most are, is a 1-tuple, a list from two on,
    in Triple.sort_key order and changed only under the lock: the triples
    of a pid past every subject held (each pid on open, as objects arrive
    in pid order) are appended in row order, others bisected in. The store
    itself, its _by_p buckets read in turn, is the bucket of all.
    """

    def __init__(self):
        self._mutex = threading.RLock()
        # Also the subject index: a triple's subject is its asserting pid.
        self._by_provenance: dict[str, tuple[Triple, ...]] = {}
        self._by_o: dict[str, Collection[Triple]] = {}
        self._by_p: dict[Predicate, Collection[Triple]] = {}
        self._by_sp: dict[tuple[str, Predicate], Collection[Triple]] = {}
        self._by_po: dict[tuple[Predicate, str], Collection[Triple]] = {}
        self._top = (0, "")  # pid_sort_key of the largest subject ever held

    def __len__(self) -> int:
        with self._mutex:
            return sum(map(len, self._by_p.values()))

    def __iter__(self):
        return chain.from_iterable(self._by_p.values())

    # -- mutation

    def replace_triples(self, pid: str, triples: list[Triple]) -> None:
        """Make triples, each with subject pid, all that pid asserts. A pid
        that re-asserts what it holds, in the same order, touches no bucket.
        A pid past every subject held so far, as each of an open is, puts
        its triples, in row order, last in their buckets, unchecked."""
        unique = tuple(dict.fromkeys(triples))
        with self._mutex:
            if self._by_provenance.get(pid, ()) == unique:
                return
            self.retract(pid)
            if unique:
                self._by_provenance[pid] = unique
                last = pid_sort_key(pid) > self._top
                self._top = max(self._top, pid_sort_key(pid))
                for t in sorted(unique, key=Triple.sort_key) if last else unique:
                    self._insert(t, last)

    def retract(self, pid: str) -> None:
        """Drop every triple asserted by pid."""
        with self._mutex:
            for t in self._by_provenance.pop(pid, ()):
                self._remove(t)

    def rebuild(self, asserted: Iterable[tuple[str, list[Triple] | None]]) -> None:
        """Drop and reconstruct the whole index from (pid, triples) pairs,
        None for a pid that asserts nothing.

        An exception raised while the pairs are read (a fragment that fails
        to parse, whose message starts with its pid) leaves the current
        graph untouched.
        """
        rebuilt = TripleStore()
        for pid, triples in asserted:
            rebuilt.replace_triples(pid, triples or ())
        with self._mutex:
            self.__dict__.update({**rebuilt.__dict__, "_mutex": self._mutex})

    def _keys(self, t: Triple):
        return ((self._by_o, t.object), (self._by_p, t.predicate),
                (self._by_sp, (t.subject, t.predicate)),
                (self._by_po, (t.predicate, t.object)))

    def _insert(self, t: Triple, last: bool) -> None:
        """Put t in its buckets; last: it sorts after every triple held."""
        key = None if last else t.sort_key()
        for index, k in self._keys(t):
            bucket = index.get(k)
            if bucket is None:
                index[k] = (t,)
            elif type(bucket) is tuple:
                index[k] = ([*bucket, t] if last or bucket[0].sort_key() < key
                            else [t, *bucket])
            elif last or bucket[-1].sort_key() < key:
                bucket.append(t)
            else:
                bucket.insert(bisect_left(bucket, key, key=Triple.sort_key), t)

    def _remove(self, t: Triple) -> None:
        key = t.sort_key()
        for index, k in self._keys(t):
            bucket = index[k]
            if type(bucket) is tuple:
                del index[k]
                continue
            at = bisect_left(bucket, key, key=Triple.sort_key)
            while bucket[at] is not t:
                at += 1
            del bucket[at]
            if len(bucket) == 1:
                index[k] = (bucket[0],)

    # -- reads

    def dump(self) -> list[Triple]:
        """Every triple, totally ordered by (subject, predicate, object)."""
        with self._mutex:
            snapshot = list(self)
        return sorted(snapshot, key=Triple.sort_key)

    def triples_asserted_by(self, pid: str) -> list[Triple]:
        with self._mutex:
            return list(self._by_provenance.get(pid, ()))

    def lookup(self, s: str | None, p: Predicate | None,
               o: str | None) -> Collection[Triple]:
        """Triples matching a single pattern with None as wildcard.

        Unless s and o are both bound, the index bucket itself is returned,
        not a copy: read it under the store's lock and never change it.
        """
        with self._mutex:
            bucket = self._bucket(s, p, o)
            if s is None or o is None:
                return bucket
            return [t for t in bucket if t.object == o]

    def _bucket(self, s, p, o) -> Collection[Triple]:
        """The index bucket of the bound terms, leaving o unmatched when s
        is bound too."""
        if s is not None:
            return (self._by_provenance.get(s, _EMPTY) if p is None
                    else self._by_sp.get((s, p), _EMPTY))
        if o is not None:
            return self._by_o.get(o, _EMPTY) if p is None else self._by_po.get((p, o), _EMPTY)
        return self if p is None else self._by_p.get(p, _EMPTY)

    def subjects_of(self, predicate_name: str, obj: str) -> list[str]:
        """Subjects s with (s, base:predicate, obj), in pid order; the
        inverse-relation query behind listMembers-style operations."""
        pred = ontology.base_predicate(predicate_name)
        with self._mutex:
            return [t.subject for t in self._by_po.get((pred, obj), ())]

    def objects_of(self, subj: str, predicate_name: str) -> list[str]:
        """Objects o with (subj, base:predicate, o), in pid order."""
        pred = ontology.base_predicate(predicate_name)
        with self._mutex:
            return [t.object for t in self._by_sp.get((subj, pred), ())]

    def query(self, pattern: QueryPattern, row_cap: int | None = None,
              max_candidates: int | None = None, offset: int = 0,
              limit: int | None = None) -> list[tuple[str, ...]]:
        """Distinct assignments of the selected variables, deterministically
        ordered, from offset on and at most limit of them (None: all).
        Conjunctive semantics, no inference.

        Raises LimitExceededError as soon as more than ``row_cap`` distinct
        rows are found, or once the steps have scanned more than
        ``max_candidates`` triples in all (each one a candidate binding at
        its clause); None leaves a bound off. A page read in row order
        finds only the rows up to its end, so it meets either cap no
        sooner than its whole query would.
        """
        pattern.validate()
        with self._mutex:
            rows = self._evaluate(pattern, row_cap, max_candidates, offset, limit)
        return [tuple(map(_render, row)) for row in rows]

    def _plan(self, clauses, lead: str | None = None
              ) -> tuple[list[tuple], list, dict[str, int]]:
        """Clauses in evaluation order, each compiled into a step over one
        list of values, and the slot of each variable in it. values[0] is
        None, a probe's wildcard; the variables follow in the order steps
        bind them, then the constants, indexed from the end. A step is
        (probe, get, slot, same, semi, wide): probe picks its (s, p, o) from
        the values; values[slot] takes get(t), the variables it binds from a
        match t (get is empty when it binds none); same holds (getter, slot)
        of a variable repeated in the clause; a semi-join's semi is (key,
        fields), and a binding passes if key(values) is fields(t) of some t
        matching the constants; wide marks a bound subject and object. Of
        first clauses that tie, one binding the variable lead goes first."""
        names: dict[str, int] = {}
        constants: list = []
        # each clause with the size of the bucket of its constants
        remaining = [(clause, len(self._bucket(
            *(None if isinstance(t, Var) else t for t in clause)))) for clause in clauses]
        steps = []

        def cost(clause, size):
            vars_ = {t.name for t in clause if isinstance(t, Var)}
            bound = sum(1 for t in clause if not isinstance(t, Var) or t.name in names)
            return (bool(vars_) and not vars_ & names.keys(), -bound, size,
                    bool(names) or lead not in vars_)

        def fields(positions):
            return attrgetter(*(_FIELDS[pos] for pos in positions))

        while remaining:
            _, at = min((cost(*c), n) for n, c in enumerate(remaining))
            clause, size = remaining.pop(at)
            first = len(names) + 1
            probe, bound, new, same = [], [], [], []
            for pos, term in enumerate(clause):
                if not isinstance(term, Var):
                    constants.append(term)
                    probe.append(-len(constants))
                elif term.name not in names:
                    names[term.name] = len(names) + 1
                    probe.append(0)
                    new.append(pos)
                elif names[term.name] >= first:
                    probe.append(0)
                    same.append((fields([pos]), names[term.name]))
                else:
                    probe.append(names[term.name])
                    bound.append(pos)
            if not steps:
                drive = size
            semi = None
            if bound and not new and len(bound) < 3 and size <= drive:
                semi = itemgetter(*(probe[pos] for pos in bound)), fields(bound)
                for pos in bound:
                    probe[pos] = 0
            steps.append((
                itemgetter(*probe), new and fields(new),
                first if len(new) == 1 else slice(first, first + len(new)),
                same, semi, bool(probe[0] and probe[2])))
        return steps, [None] * (len(names) + 1) + constants[::-1], names

    def _evaluate(self, pattern: QueryPattern, row_cap: int | None,
                  max_candidates: int | None, offset: int,
                  limit: int | None) -> list[tuple]:
        steps, values, names = self._plan(pattern.clauses, pattern.select[0])
        select = [names[name] for name in pattern.select]
        row_cap = float("inf") if row_cap is None else row_cap
        budget = float("inf") if max_candidates is None else max_candidates
        lookup, bucket = self.lookup, self._bucket
        rows: set = set()

        def matches_of(probe, wide):
            """A step's matches for the values bound so far, charged."""
            nonlocal budget
            args = probe(values)
            matches = lookup(*args)
            budget -= len(bucket(*args) if wide else matches)
            if budget < 0:
                raise LimitExceededError(
                    f"query examines more than {max_candidates} candidate "
                    f"bindings; narrow it")
            return matches

        def probed(step, upstream):
            """Each binding of a step for each binding pulled from upstream,
            left in values when it is yielded."""
            probe, get, slot, same, _, wide = step
            for _ in upstream:
                for t in matches_of(probe, wide):
                    if get:
                        values[slot] = get(t)
                    if same and any(field(t) != values[i] for field, i in same):
                        continue
                    yield

        def semi_joined(step, upstream):
            """The bindings pulled from upstream that pass a semi-join, its
            constants looked up at the first."""
            probe, _, _, _, (key, fields), wide = step
            members = None
            for _ in upstream:
                if members is None:
                    members = set(map(fields, matches_of(probe, wide)))
                if key(values) in members:
                    yield

        def in_row_order(step):
            """The value each match of the first step binds to the first
            selected variable, in row order, until the rows of the values
            before the next fill the page."""
            probe, get, slot, _, _, wide = step
            # a pid column is the bucket's own order; a bound subject and
            # object leave the predicate column, ordered by URI
            column = map(get, matches_of(probe, wide))
            for values[slot] in (sorted(column, key=attrgetter("uri")) if wide
                                 else column):
                if len(rows) >= offset + limit:
                    return
                yield

        # A page in row order: the first step binds just the first selected
        # variable, so its matches of one value bind alike.
        _, _, slot, same, *_ = steps[0]
        bindings = (in_row_order(steps[0])
                    if limit is not None and slot == select[0] and not same
                    else probed(steps[0], _START))
        for step in steps[1:]:
            bindings = (semi_joined if step[4] else probed)(step, bindings)
        # itemgetter builds a row four times as fast as tuple(map(...)), but
        # of one slot it gives the bare value
        project = (itemgetter(*select) if len(select) > 1
                   else lambda values, slot=select[0]: (values[slot],))
        for _ in bindings:
            rows.add(project(values))
            if len(rows) > row_cap:
                raise LimitExceededError(
                    f"query matches more than {row_cap} rows; pass offset/limit")
        return sorted(rows, key=_row_key)[offset:None if limit is None else offset + limit]


def _render(value) -> str:
    return value.uri if isinstance(value, Predicate) else value


def _row_key(row: tuple) -> list:
    return [v.uri if isinstance(v, Predicate) else pid_sort_key(v) for v in row]


# --------------------------------------------------------------------------
# Textual query form
#
#   select ?v where (?v <rel:memberOf> <info:nsdl/nsdl:2>) (...)


def parse_query(text: str) -> QueryPattern:
    tokens = _tokenize(text)
    pos = 0

    def expect(word: str):
        nonlocal pos
        if pos >= len(tokens) or tokens[pos].lower() != word:
            raise QueryParseError(f"expected {word!r} at token {pos + 1}")
        pos += 1

    expect("select")
    select: list[str] = []
    while pos < len(tokens) and tokens[pos].startswith("?"):
        name = tokens[pos][1:]
        if not name:
            raise QueryParseError("empty variable name")
        select.append(name)
        pos += 1
    expect("where")
    clauses = []
    while pos < len(tokens):
        if tokens[pos] != "(":
            raise QueryParseError(f"expected clause at token {pos + 1}")
        pos += 1
        terms = []
        while pos < len(tokens) and tokens[pos] != ")":
            terms.append(tokens[pos])
            pos += 1
        if pos >= len(tokens):
            raise QueryParseError("unterminated clause")
        pos += 1
        if len(terms) != 3:
            raise QueryParseError(f"clause needs 3 terms, got {len(terms)}")
        clauses.append((
            _parse_node(terms[0]),
            _parse_predicate_term(terms[1]),
            _parse_node(terms[2]),
        ))
    pattern = QueryPattern(tuple(clauses), tuple(select))
    pattern.validate()
    return pattern


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse_node(token: str):
    if token.startswith("?"):
        return Var(token[1:])
    if token.startswith("<") and token.endswith(">"):
        uri = token[1:-1]
        if uri.startswith(INFO_URI_PREFIX):
            pid = uri[len(INFO_URI_PREFIX):]
            if is_pid(pid):
                return pid
        raise QueryParseError(f"subject/object must be an info:nsdl URI: {token}")
    raise QueryParseError(f"malformed term {token!r}")


def _parse_predicate_term(token: str):
    if token.startswith("?"):
        return Var(token[1:])
    if token.startswith("<") and token.endswith(">"):
        uri = token[1:-1]
        if uri.startswith("rel:"):
            name = uri[len("rel:"):]
            return predicate(BASE_NAMESPACE, name)
        return predicate_from_uri(uri)
    raise QueryParseError(f"malformed predicate {token!r}")
