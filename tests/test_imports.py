"""The package runs on the standard library plus click, parses XML at one
entry point and writes files through one writer."""

import ast
import sys
from pathlib import Path

import overlay_repo

ALLOWED = set(sys.stdlib_module_names) | {"click"}


def test_absolute_imports_are_stdlib_or_click():
    outside = []
    for path in sorted(Path(overlay_repo.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in ALLOWED]
    assert not outside


# Where each parser of the standard library may be named: ElementTree's in
# the one parse of outside bytes into a tree, expat's in the one tree-free
# pass over a stored record.
PARSERS = {
    **dict.fromkeys(("fromstring", "XML", "fromstringlist", "XMLID", "XMLParser",
                     "XMLPullParser", "iterparse", "parse", "canonicalize"),
                    "model.parse_xml"),
    "ParserCreate": "records.check_record",
}
# The XML modules the package may import, and under which name.
XML_IMPORTS = {("xml.etree", "ElementTree", "ET"), ("xml.parsers", "expat", None)}


def test_outside_bytes_are_parsed_only_by_the_one_entry_point():
    """Every parse of XML goes through model.parse_xml, which refuses a
    DOCTYPE, or is check_record's expat pass, which refuses one too."""
    stray = []
    for path in sorted(Path(overlay_repo.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text("utf-8")).body:
            where = ".".join(filter(None, (path.stem, getattr(top, "name", None))))
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                        and node.value.id in ("ET", "expat") and node.attr in PARSERS \
                        and PARSERS[node.attr] != where:
                    stray.append(f"{where}: {node.value.id}.{node.attr}")
                elif isinstance(node, ast.Import):
                    stray += [f"{where}: import {alias.name}" for alias in node.names
                              if alias.name.partition(".")[0] in ("xml", "pyexpat")]
                elif isinstance(node, ast.ImportFrom) \
                        and (node.module or "").partition(".")[0] in ("xml", "pyexpat") \
                        and node.module != "xml.sax.saxutils":
                    stray += [f"{where}: from {node.module} import {alias.name}"
                              for alias in node.names
                              if (node.module, alias.name, alias.asname) not in XML_IMPORTS]
    assert not stray


def test_only_the_store_names_the_atomic_writer():
    """Every file the package writes goes through Repository._atomic_write,
    which store.py alone names; other modules write state files through
    store.write_json."""
    named = []
    for path in sorted(Path(overlay_repo.__file__).parent.glob("*.py")):
        if path.name == "store.py":
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [n for alias in node.names for n in (alias.name, alias.asname)]
            else:
                continue
            named += [f"{path.name}: {n}" for n in names if n == "_atomic_write"]
    assert not named
