"""Check that reading canonical nsdl_dc contributors line by line changes
no byte of an nsdl_agg harvest.

    python3 tests/check_agg_walk.py <data directory>

walks ListRecords in nsdl_agg through GatewayApp over the repository in
<data directory> twice: as the code stands, and with records.read_dc_lines
declining every record, so that every gold record is folded from parsed
contributors. It exits 1 when a page differs outside responseDate, the
resumption token and the <request> echo, or when the walk holds no gold
record or reads no contributor line by line, which would compare
nothing. `perfbench/build.py <seed> <work directory>` writes such a data
directory to <work directory>/corpus. The tests import agg_walk and
reader_declining.
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from io import BytesIO
from pathlib import Path
from urllib.parse import urlencode
from xml.sax.saxutils import unescape

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from overlay_repo import records  # noqa: E402
from overlay_repo.oai import OaiProvider  # noqa: E402
from overlay_repo.store import Repository  # noqa: E402
from overlay_repo.web import GatewayApp  # noqa: E402

# What differs between two walks of one repository: the response time,
# the token (it holds its expiry) and the request echo (it holds the token).
_VOLATILE = re.compile(rb"<responseDate>[^<]*</responseDate>|<request[ >][^<]*</request>"
                       rb"|<resumptionToken[^>]*>[^<]*</resumptionToken>")
_TOKEN = re.compile(rb"<resumptionToken[^>]*>([^<]+)</resumptionToken>")


def agg_walk(app, prefix: str = "nsdl_agg") -> list[bytes]:
    """Every page of a ListRecords walk in prefix through the WSGI app,
    its volatile parts cut out."""
    pages, query = [], {"verb": "ListRecords", "metadataPrefix": prefix}
    while True:
        status = []
        environ = {"REQUEST_METHOD": "GET", "PATH_INFO": "/oai",
                   "QUERY_STRING": urlencode(query), "wsgi.input": BytesIO()}
        body = b"".join(app(environ, lambda line, headers: status.append(line)))
        if not status[0].startswith("200"):
            raise AssertionError(f"{query} answered {status[0]}")
        pages.append(_VOLATILE.sub(b"", body))
        token = _TOKEN.search(body)
        if token is None:
            return pages
        query = {"verb": "ListRecords", "resumptionToken": unescape(token[1].decode())}


@contextmanager
def reader_declining():
    """records.read_dc_lines declines every record while the block runs."""
    reader = records.read_dc_lines
    records.read_dc_lines = lambda xml: None
    try:
        yield
    finally:
        records.read_dc_lines = reader


@contextmanager
def parses_counted(counts: list[int]):
    """Appends to counts the records.parse_dc_entries calls the block makes."""
    parse, calls = records.parse_dc_entries, [0]

    def counted(*args):
        calls[0] += 1
        return parse(*args)

    records.parse_dc_entries = counted
    try:
        yield
    finally:
        records.parse_dc_entries = parse
        counts.append(calls[0])


def main(argv: list[str]) -> int:
    repo = Repository(Path(argv[1]))
    app = GatewayApp(repo, OaiProvider(repo))
    parses: list[int] = []
    with parses_counted(parses):
        read = agg_walk(app)
    with reader_declining(), parses_counted(parses):
        parsed = agg_walk(app)
    golds = sum(page.count(b'<nsdl_agg:gold xmlns="">') for page in read)
    differ = [i for i, (a, b) in enumerate(zip(read, parsed)) if a != b]
    print(f"{len(read)} pages, {golds} gold records, {sum(map(len, read))} bytes; "
          f"DC parses {parses[0]} as is, {parses[1]} with the reader declining; "
          f"pages that differ: {differ or 'none'}")
    compared = golds and parses[0] < parses[1]
    return 0 if compared and len(read) == len(parsed) and not differ else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
