"""Operator CLI: subprocess invocations for true exit-code behavior."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import overlay_repo
from overlay_repo.cli import load_fixture_dir, run
from overlay_repo.graph import Triple
from overlay_repo.oai import OaiProvider
from overlay_repo.store import Repository
from overlay_repo.web import GatewayApp, make_server

from support import FIGURES, TOPOLOGIES, TickingClock, load_topology, seed_metadata

# The child imports the package these tests import, installed or not.
_PACKAGE_PATH = os.pathsep.join(filter(None, [
    str(Path(overlay_repo.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]))


def cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "overlay_repo.cli", *args],
        capture_output=True, text=True, cwd=cwd, timeout=120,
        env={**os.environ, "PYTHONPATH": _PACKAGE_PATH})


def test_load_fixture_then_query(tmp_path):
    data = tmp_path / "data"
    loaded = cli("--data-dir", str(data), "load-fixture", str(FIGURES),
                 "--porcelain")
    assert loaded.returncode == 0, loaded.stderr
    assert "nsdl:4" in loaded.stdout.splitlines()

    result = cli("--data-dir", str(data), "query", "--porcelain",
                 "-e", "select ?r where (?r <rel:memberOf> <info:nsdl/nsdl:31>)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["nsdl:32", "nsdl:33"]


def test_export_round_trip(tmp_path):
    data = tmp_path / "data"
    cli("--data-dir", str(data), "load-fixture", str(FIGURES))
    result = cli("--data-dir", str(data), "export", "--pid", "nsdl:4")
    assert result.returncode == 0
    assert result.stdout.startswith('<?xml version="1.0"')
    assert 'pid="nsdl:4"' in result.stdout


def test_export_unknown_pid_is_user_error(tmp_path):
    result = cli("--data-dir", str(tmp_path / "d"), "export", "--pid", "nsdl:9")
    assert result.returncode == 1
    assert "unknown pid" in result.stderr


def test_unknown_subcommand_exit_1():
    result = cli("no-such-command")
    assert result.returncode == 1


def test_register_provider_requires_data_dir():
    result = cli("register-provider", "--name", "x",
                 "--base-url", "http://x/oai")
    assert result.returncode == 1
    assert "data directory" in result.stderr


def test_query_parse_error_exit_1(tmp_path):
    result = cli("--data-dir", str(tmp_path / "d"), "query", "-e", "bogus")
    assert result.returncode == 1


@pytest.fixture
def upstream_server():
    """A live gateway over a seeded repository, for real-HTTP harvests."""
    upstream = Repository(clock=TickingClock())  # datestamps safely in the past
    seed_metadata(upstream, 5, provider_label="Upstream")
    server = make_server(
        GatewayApp(upstream, OaiProvider(upstream, repository_id="up.local")),
        "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/oai"
    finally:
        server.shutdown()


@pytest.mark.parametrize(
    "name", ["state.json", "providers.json", "harvest_state/alpha.json"])
def test_truncated_state_file_is_storage_error(tmp_path, monkeypatch, capsys, name):
    data = tmp_path / "data"
    (data / "harvest_state").mkdir(parents=True)
    (data / "providers.json").write_text(
        '[{"name": "alpha", "base_url": "http://alpha.example/oai"}]')
    (data / name).write_text('{"pid_counter": ')
    monkeypatch.setattr(sys, "argv", [
        "overlay", "--data-dir", str(data), "harvest", "--provider", "alpha"])
    assert run() == 2
    err = capsys.readouterr().err
    assert err.startswith("storage error:") and name in err


@pytest.mark.parametrize(
    "name", ["state.json", "providers.json", "harvest_state/alpha.json"])
def test_wrong_shaped_state_file_is_storage_error(tmp_path, monkeypatch, capsys,
                                                  name):
    data = tmp_path / "data"
    (data / "harvest_state").mkdir(parents=True)
    (data / "providers.json").write_text(
        '[{"name": "alpha", "base_url": "http://alpha.example/oai"}]')
    (data / name).write_text("[1, 2]")
    monkeypatch.setattr(sys, "argv", [
        "overlay", "--data-dir", str(data), "harvest", "--provider", "alpha"])
    assert run() == 2
    err = capsys.readouterr().err
    assert err.startswith("storage error:") and name in err


def test_register_and_harvest_over_http(tmp_path, upstream_server):
    data = tmp_path / "data"
    registered = cli("--data-dir", str(data), "register-provider",
                     "--name", "up", "--base-url", upstream_server,
                     "--brand-label", "Upstream Mirror", "--porcelain")
    assert registered.returncode == 0, registered.stderr

    result = cli("--data-dir", str(data), "harvest", "--provider", "up",
                 "--porcelain")
    assert result.returncode == 0, result.stderr
    counters = dict(pair.split("=") for pair in result.stdout.split())
    assert counters["created"] == "5"
    assert counters["rejected"] == "0"

    again = cli("--data-dir", str(data), "harvest", "--provider", "up",
                "--porcelain")
    counters = dict(pair.split("=") for pair in again.stdout.split())
    assert counters["harvested"] == "0"


def test_harvest_unknown_provider(tmp_path):
    result = cli("--data-dir", str(tmp_path / "d"), "harvest",
                 "--provider", "ghost")
    assert result.returncode == 1


def test_fixture_files_load_into_one_repository():
    repo = Repository()
    pids = load_fixture_dir(repo, FIGURES)
    assert len(pids) == 21
    exports, triples = {}, set()
    for name in TOPOLOGIES:
        alone = Repository()
        labels = load_topology(alone, name)
        assert set(labels.values()) <= set(alone.pids())
        exports.update((pid, alone.export_object(pid)) for pid in alone.pids())
        triples.update(alone.graph.dump())
    assert sorted(pids) == sorted(exports)
    assert {pid: repo.export_object(pid) for pid in pids} == exports
    assert repo.graph.dump() == sorted(triples, key=Triple.sort_key)


def test_fixture_load_is_quiet_when_graph_is_sound(caplog):
    import logging

    repo = Repository()
    with caplog.at_level(logging.WARNING):
        load_fixture_dir(repo, FIGURES)
    assert caplog.records == []
    assert repo.validate_graph() == []


def test_fixture_load_reports_residual_violations(tmp_path, caplog):
    import logging

    from support import put_object

    donor = Repository()
    aggregator = put_object(donor, {"Aggregator"})
    offender = put_object(donor, {"Metadata"}, edges=[("memberOf", aggregator)],
                          strict=False)
    directory = tmp_path / "broken"
    directory.mkdir()
    for pid in (aggregator, offender):
        (directory / f"{pid.split(':')[1]}.xml").write_bytes(
            donor.export_object(pid))

    repo = Repository()
    with caplog.at_level(logging.WARNING):
        load_fixture_dir(repo, directory)
    assert any("memberOf" in r.message for r in caplog.records)
