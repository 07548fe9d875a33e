"""Operator command line: serve, register-provider, harvest, query,
export, load-fixture.

Exit codes: 0 success, 1 user error, 2 system error. ``--porcelain``
switches list output to one machine-readable record per line.
"""

from __future__ import annotations

import logging
import sys
from pathlib import Path

import click

from . import harvest as harvest_mod
from .errors import RepositoryError, StoreError
from .graph import parse_query
from .oai import OaiProvider
from .store import Repository
from .web import GatewayApp, GatewayConfig, load_config, make_server

log = logging.getLogger(__name__)


class Context:
    def __init__(self, config: GatewayConfig):
        self.config = config
        self._repo: Repository | None = None

    @property
    def repo(self) -> Repository:
        if self._repo is None:
            self._repo = Repository(self.config.data_dir)
        return self._repo

    def require_data_dir(self) -> Path:
        if self.config.data_dir is None:
            raise click.UsageError(
                "this command needs a data directory (--data-dir or config)")
        return Path(self.config.data_dir)


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True),
              default=None, help="JSON config file.")
@click.option("--data-dir", type=click.Path(), default=None,
              help="Repository data directory (overrides config).")
@click.pass_context
def main(ctx, config_path, data_dir):
    """Information-network overlay repository."""
    try:
        config = load_config(config_path)
    except (ValueError, OSError) as exc:
        raise click.UsageError(f"bad config: {exc}")
    if data_dir is not None:
        config.data_dir = data_dir
    ctx.obj = Context(config)


@main.command()
@click.pass_obj
def serve(app_ctx: Context):
    """Run the HTTP endpoints (/objects, /query, /oai)."""
    config = app_ctx.config
    repo = app_ctx.repo
    provider = OaiProvider(
        repo,
        repository_id=config.repository_id,
        repository_name=config.repository_name,
        base_url=config.oai_base_url(),
        admin_email=config.admin_email,
        page_size=config.page_size,
    )
    app = GatewayApp(repo, provider, query_row_cap=config.query_row_cap)
    server = make_server(app, config.host, config.port)
    click.echo(f"listening on http://{config.listen} "
               f"(data: {config.data_dir or 'in-memory'})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass


@main.command("register-provider")
@click.option("--name", required=True)
@click.option("--base-url", required=True)
@click.option("--format", "format_", default="oai_dc", show_default=True)
@click.option("--set", "set_spec", default=None, help="OAI set to harvest.")
@click.option("--schedule", default=3600, show_default=True,
              help="Harvest interval hint, seconds.")
@click.option("--brand-label", default=None)
@click.option("--brand-logo", default=None)
@click.option("--porcelain", is_flag=True)
@click.pass_obj
def register_provider(app_ctx: Context, name, base_url, format_, set_spec,
                      schedule, brand_label, brand_logo, porcelain):
    """Provision a harvest source: agent, roles, brands, config entry."""
    data_dir = app_ctx.require_data_dir()
    path = harvest_mod.providers_path(data_dir)
    configs = harvest_mod.load_provider_configs(path)
    if name in configs:
        raise click.UsageError(f"provider {name!r} is already registered")
    cfg = harvest_mod.ProviderConfig(
        name=name, base_url=base_url, format=format_, set_spec=set_spec,
        schedule_hint=schedule, brand_label=brand_label,
        brand_logo_url=brand_logo)
    cfg = harvest_mod.Harvester(app_ctx.repo).register_provider(cfg)
    configs[name] = cfg
    harvest_mod.save_provider_configs(path, configs)
    if porcelain:
        click.echo(f"{name}\t{cfg.agent_pid}\t{cfg.provider_role_pid}"
                   f"\t{cfg.aggregator_role_pid}")
    else:
        click.echo(f"registered {name}: agent {cfg.agent_pid}, "
                   f"provider role {cfg.provider_role_pid}, "
                   f"aggregation {cfg.aggregator_role_pid}")


@main.command()
@click.option("--provider", "provider_name", required=True)
@click.option("--porcelain", is_flag=True)
@click.pass_obj
def harvest(app_ctx: Context, provider_name, porcelain):
    """Run one incremental harvest for a registered provider."""
    data_dir = app_ctx.require_data_dir()
    configs = harvest_mod.load_provider_configs(
        harvest_mod.providers_path(data_dir))
    cfg = configs.get(provider_name)
    if cfg is None:
        raise click.UsageError(f"unknown provider {provider_name!r}")
    state = harvest_mod.load_state(data_dir, provider_name)
    harvester = harvest_mod.Harvester(app_ctx.repo)
    try:
        report, state = harvester.harvest(cfg, state)
    finally:
        harvest_mod.save_state(data_dir, provider_name, state)
    if porcelain:
        click.echo(f"harvested={report.harvested}\tcreated={report.created}"
                   f"\tupdated={report.updated}\tdeleted={report.deleted}"
                   f"\trejected={report.rejected}")
        for identifier, reason in report.rejects:
            click.echo(f"reject\t{identifier}\t{reason}")
    else:
        click.echo(
            f"{provider_name}: {report.harvested} harvested "
            f"({report.created} created, {report.updated} updated, "
            f"{report.deleted} deleted, {report.rejected} rejected)")
        for identifier, reason in report.rejects:
            click.echo(f"  rejected {identifier}: {reason}")


@main.command()
@click.option("-e", "--expression", required=True,
              help='e.g. select ?r where (?r <rel:memberOf> <info:nsdl/nsdl:2>)')
@click.option("--porcelain", is_flag=True)
@click.pass_obj
def query(app_ctx: Context, expression, porcelain):
    """Run a graph query and print one binding row per line."""
    pattern = parse_query(expression)
    rows = app_ctx.repo.graph.query(pattern)
    if not porcelain:
        click.echo("\t".join("?" + v for v in pattern.select))
    for row in rows:
        click.echo("\t".join(row))


@main.command()
@click.option("--pid", required=True)
@click.option("-o", "--output", type=click.Path(), default=None)
@click.pass_obj
def export(app_ctx: Context, pid, output):
    """Write an object's canonical XML to stdout or a file."""
    doc = app_ctx.repo.export_object(pid)
    if output:
        Path(output).write_bytes(doc)
    else:
        sys.stdout.buffer.write(doc)


@main.command("load-fixture")
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
@click.option("--porcelain", is_flag=True)
@click.pass_obj
def load_fixture(app_ctx: Context, directory, porcelain):
    """Bulk-import every canonical XML document under a directory."""
    pids = load_fixture_dir(app_ctx.repo, directory)
    if porcelain:
        for pid in pids:
            click.echo(pid)
    else:
        click.echo(f"imported {len(pids)} objects from {directory}")


def load_fixture_dir(repo: Repository, directory: str | Path) -> list[str]:
    """Bulk-import every canonical XML file under a directory tree.

    File order is arbitrary, so objects stage in the lenient mode with
    forward references silenced; once everything has landed the whole
    graph is validated and only the violations that remain are logged.
    """
    paths = sorted(Path(directory).rglob("*.xml"))
    staging_log = logging.getLogger("overlay_repo.store")
    level = staging_log.level
    staging_log.setLevel(logging.ERROR)
    try:
        pids = [repo.import_object(path.read_bytes(), strict=False)
                for path in paths]
    finally:
        staging_log.setLevel(level)
    for violation in repo.validate_graph():
        log.warning("fixture graph violation: %s", violation)
    return pids


def run() -> int:
    try:
        main(standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        return 1
    except StoreError as exc:
        click.echo(f"storage error: {exc}", err=True)
        return 2
    except RepositoryError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except OSError as exc:
        click.echo(f"system error: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(run())
