"""The relationship ontology: the type hierarchy, base predicates and
their typing rules.

TYPE_EXPANSION is the one statement of which bound behaviors make an
object count as each type; its values name every behavior
(model.BEHAVIOR_NAMES). satisfies_type answers from it for the predicate
checks, for handles and for dissemination (behaviors.OPERATIONS), the one
check of an operation. Eight base predicates carry fixed (domain, range)
constraints checked at write time against the behavior sets of the
subject and object. Predicates qualified by a foreign namespace are
accepted unvalidated, so other vocabularies can annotate the graph freely.
"""

from __future__ import annotations

from weakref import WeakValueDictionary

BASE_NAMESPACE = "http://ns.nsdl.org/ontologies/relationships#"

# Abstract types expand to the concrete behavior names that realize them.
# An object "is a" Resource if it binds Agent or Content; it "is a" Role
# if it binds Role itself or one of the two role subtypes; Information
# (what roles project their brands onto) is Metadata or a Resource.
TYPE_EXPANSION: dict[str, frozenset[str]] = {
    "Metadata": frozenset({"Metadata"}),
    "Agent": frozenset({"Agent"}),
    "Content": frozenset({"Content"}),
    "Resource": frozenset({"Agent", "Content"}),
    "Information": frozenset({"Metadata", "Agent", "Content"}),
    "Role": frozenset({"Role", "Aggregator", "MetadataProvider"}),
    "Aggregator": frozenset({"Aggregator"}),
    "MetadataProvider": frozenset({"MetadataProvider"}),
}

# predicate name -> (domain type, range type)
DOMAIN_RANGE: dict[str, tuple[str, str]] = {
    "annotates": ("Content", "Resource"),
    "assertedBy": ("Role", "Agent"),
    "augments": ("Metadata", "Metadata"),
    "hasRole": ("Agent", "Role"),
    "metadataFor": ("Metadata", "Resource"),
    "memberOf": ("Resource", "Aggregator"),
    "providedBy": ("Metadata", "MetadataProvider"),
    "representedBy": ("Aggregator", "Content"),
}


class Predicate(str):
    """A relationship term: a base-ontology name or a namespaced extension.

    Its str value is namespace, NUL, name. No RELS namespace or name holds
    a NUL, so it equals, hashes and orders as (namespace, name) does, by
    str's own C-level methods: every index probe keyed by one hashes it.
    The graph and the query parser take theirs from predicate(), so the
    index probes of a query meet the indexed predicate itself."""

    __slots__ = ("namespace", "name", "uri", "__weakref__")

    def __new__(cls, namespace: str, name: str) -> "Predicate":
        self = super().__new__(cls, f"{namespace}\0{name}")
        self.namespace, self.name, self.uri = namespace, name, namespace + name
        return self

    def __reduce__(self):  # an unpickled term is the interned one
        return predicate, (self.namespace, self.name)

    def __repr__(self) -> str:
        return f"Predicate(namespace={self.namespace!r}, name={self.name!r})"

    @property
    def is_base(self) -> bool:
        return self.namespace == BASE_NAMESPACE

    def __str__(self) -> str:
        if self.is_base:
            return self.name
        return self.uri


# (namespace, name) -> the shared Predicate, while one is referenced.
_PREDICATES: WeakValueDictionary = WeakValueDictionary()


def predicate(namespace: str, name: str) -> Predicate:
    """The one live Predicate for (namespace, name)."""
    found = _PREDICATES.get((namespace, name))
    if found is None:
        found = _PREDICATES.setdefault((namespace, name), Predicate(namespace, name))
    return found


# base name -> its Predicate, held for the life of the process
_BASE_TERMS = {name: predicate(BASE_NAMESPACE, name) for name in DOMAIN_RANGE}


def base_predicate(name: str) -> Predicate:
    if name not in _BASE_TERMS:
        raise ValueError(f"{name!r} is not a base relationship term")
    return _BASE_TERMS[name]


def predicate_from_uri(uri: str) -> Predicate:
    """Split a predicate URI on the last '#' or '/' separator."""
    for sep in ("#", "/"):
        if sep in uri:
            ns, _, name = uri.rpartition(sep)
            return predicate(ns + sep, name)
    return predicate("", uri)


def satisfies_type(behaviors: frozenset[str] | None, type_name: str) -> bool:
    """True when an object with the given behavior set counts as type_name.

    ``behaviors`` is None for objects that do not exist (or are deleted);
    those satisfy no type.
    """
    if behaviors is None:
        return False
    return bool(behaviors & TYPE_EXPANSION[type_name])


def check_triple(
    predicate: Predicate,
    subject_behaviors: frozenset[str] | None,
    object_behaviors: frozenset[str] | None,
) -> list[str]:
    """Domain/range violations for one triple, or that its name in the
    base namespace is no base term; empty when it conforms.

    Extension predicates are never checked.
    """
    if not predicate.is_base:
        return []
    if predicate.name not in DOMAIN_RANGE:
        return [f"{predicate.name} is not a base relationship term"]
    domain, range_ = DOMAIN_RANGE[predicate.name]
    problems = []
    if not satisfies_type(subject_behaviors, domain):
        problems.append(f"subject of {predicate.name} must be typed {domain}")
    if not satisfies_type(object_behaviors, range_):
        problems.append(f"object of {predicate.name} must be typed {range_}")
    return problems
