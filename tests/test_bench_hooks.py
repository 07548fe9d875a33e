"""The benchmark tracer's hooks still name entry points of the engine.

perfbench/spans.py wraps engine functions by name from outside the
engine; a hook whose target is renamed or deleted is skipped and the
per-layer metrics that depend on it read 0. This guard imports the
tracer as it is and checks every hook against the engine.
"""

import importlib
import importlib.util
from pathlib import Path
from xml.etree import ElementTree as ET

import pytest

import overlay_repo
from overlay_repo.oai import OaiProvider

from support import seed_metadata

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Targets deleted before the tracer's hook list was updated; the benchmark
# reports them missing until its next change drops them.
DELETED = {
    "harvest.extract_resource_key",
    "records.validate_record",
    "records.apply_safe_transforms",
}


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _unresolved(hooks) -> list[str]:
    """Hooks the tracer would skip, by the rule Tracer.install applies."""
    missing = []
    for module_name, owner_name, attr, _, _ in hooks:
        module = importlib.import_module(f"{overlay_repo.__name__}.{module_name}")
        owner = module if owner_name is None else getattr(module, owner_name, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module_name}.{owner_name + '.' if owner_name else ''}{attr}")
    return missing


def test_every_hook_target_resolves():
    hooks = _load_spans().HOOKS
    assert set(_unresolved(hooks)) <= DELETED
    assert ("oai", "OaiProvider", "_record_element") in {h[:3] for h in hooks}


@pytest.mark.parametrize("verb", ["ListRecords", "ListIdentifiers"])
def test_record_element_renders_each_served_item_once(repo, monkeypatch, verb):
    """oai.render_ms_per_record divides the _record_element spans by the
    items served, so it must run once per header or record."""
    pids = seed_metadata(repo, 3)
    repo.delete_object(pids[0])
    calls = []
    original = OaiProvider._record_element

    def counting(self, item, *args, **kwargs):
        calls.append(item.pid)
        return original(self, item, *args, **kwargs)

    monkeypatch.setattr(OaiProvider, "_record_element", counting)
    provider = OaiProvider(repo, repository_id="test.local")
    for prefix in ("oai_dc", "nsdl_agg"):
        calls.clear()
        response = ET.fromstring(provider.handle_request(
            {"verb": verb, "metadataPrefix": prefix}))
        served = response.findall(".//{http://www.openarchives.org/OAI/2.0/}header")
        assert len(served) == 3 and len(calls) == 3
