#!/usr/bin/env python3
"""Benchmark of the overlay repository engine.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oai-federation --seed 1 --seconds 35 --trace 0

Workloads: catalog-ingest, oai-federation, portal-mix (see NOTES.md).
With --trace 0 the run measures for --seconds and reports the end-to-end
metrics; with --trace 1 it runs a fixed schedule twice, untraced and then
traced, and reports the per-layer metrics and the tracing overhead.
Every metric is printed by name and unit; the last line of standard
output is one JSON object {correct, attempted, failed, metrics}. The spans
of a traced run and every run's full result are written under
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("catalog-ingest", "oai-federation", "portal-mix"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "overlay_repo" / "__init__.py").is_file():
        print(f"perfbench: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    printed: dict[str, tuple[float, str]] = {}
    try:
        if args.trace == 0:
            result, metrics = wl.measure(args.workload, args.seed, args.seconds, work,
                                         printed)
        else:
            result, metrics, tracer = wl.measure_traced(
                args.workload, args.seed, args.seconds, work, SRC, printed)
            for hook in tracer.missing:
                print(f"# hook not found, metrics depending on it read 0: {hook}")
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    oracle = result.oracle
    printed.update(result.named)
    printed["setup_s_median"] = (statistics.median(result.setup_s), "s")
    printed["open_s_median"] = (statistics.median(result.open_s), "s")
    printed["peak_rss_mb"] = (wl.peak_rss_mb(), "MB")
    printed["error_rate"] = (oracle.failed / oracle.attempted, "ratio")
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g}"
          f" trace {args.trace}")
    for name, (value, unit) in sorted(printed.items()):
        print(f"{name:44s} {value:14.6g} {unit}")
    print("# end-to-end metrics (gated)" if args.trace == 0 else "# per-layer metrics")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    for message in oracle.messages:
        print(f"# mismatch: {message}")

    out = {
        "correct": oracle.failed == 0,
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = dict(out, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace,
                  named={k: {"value": v, "unit": u} for k, (v, u) in printed.items()})
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n", "utf-8")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
