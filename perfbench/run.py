"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {ingest,query,mixed} --seed N \\
        --seconds S --trace {0,1}

The system is imported from ``src/`` of the same checkout; there is
nothing to build.  Human-readable lines (checks, notes with the
workload-specific metric names such as ``ingest_docs_per_s``, the
output digest) come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced run with ``--trace 1``.  Each run also writes its full
record (and, when traced, its spans) under ``perfbench/out/``.

A failed output check, a traced name that no longer exists, or a
checkout without ``src/repro`` exits non-zero without printing a
result.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
SPEC = HERE / "spec.json"
OUT = HERE / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "query", "mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no system sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads
    from perfbench.tracer import MissingTarget

    # BENCHMARK.json declares the metrics; spec.json adds only what it
    # cannot hold, such as the workloads a layer is reached on.
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    trace = bool(args.trace)
    started = time.perf_counter()
    try:
        if args.workload == "ingest":
            result = workloads.run_ingest(args.seed, args.seconds, trace, OUT)
        elif args.workload == "query":
            result = workloads.run_query(args.seed, args.seconds, trace, OUT)
        else:
            result = workloads.run_mixed(
                args.seed, args.seconds, trace, OUT,
                rate=float(spec["mixed"]["rate_per_s"]),
            )
    except (workloads.CheckFailed, MissingTarget) as exc:
        print(f"FAILED ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1

    declared = bench["per_layer"] if trace else bench["end_to_end"]
    values = result.layers if trace else result.e2e
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"FAILED: metrics not measured: {missing}", file=sys.stderr)
        return 1
    if trace:
        # A layer this workload reaches must show work: a zero means a
        # wrapper no longer sits on the path the program takes.
        layers = spec["per_layer"]
        silent = [
            m["name"] for m in declared
            if args.workload in layers[m["name"]]["workloads"]
            and not layers[m["name"]].get("zero_ok")
            and values[m["name"]] == 0
        ]
        if silent:
            print(f"FAILED: layers reported no work on {args.workload}: "
                  f"{silent}", file=sys.stderr)
            return 1
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in declared
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "digest": result.digest,
        "checks": result.checks,
        "notes": result.notes,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8"
    )
    if trace and result.tracer is not None:
        result.tracer.write(OUT / f"{stem}.spans.jsonl")

    for line in result.checks:
        print(f"check ok: {line}")
    for line in result.notes:
        print(f"note: {line}")
    print(f"digest {args.workload} seed={args.seed}: {result.digest}")
    for name, metric in metrics.items():
        print(f"{name:56s} {metric['value']:16.6f} {metric['unit']}")
    print(json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
