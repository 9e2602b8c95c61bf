"""End-to-end benchmark of the reseeding flow and the diagnosis service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload flow_cold --seed 2001 --seconds 10 --trace 0

Workloads: ``flow_cold``, ``tradeoff``, ``serve_mixed`` (see README.md).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the ``end_to_end`` ones of BENCHMARK.json;
with ``--trace 1`` a separate, traced run reports the ``per_layer`` ones
and writes its spans under ``.perfbench-out/``.  A failed correctness
check makes the exit code 1; a checkout without the program's source
exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("flow_cold", "tradeoff", "serve_mixed")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2001)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def run(args: argparse.Namespace):
    """Run one workload; returns its ``Outcome``."""
    common.use_checkout_source()
    start = time.perf_counter()
    import repro  # noqa: F401  (timed: the import is part of set-up)

    import_s = time.perf_counter() - start
    from flows import flow_cold, tradeoff
    from serve_mixed import serve_mixed

    out = common.Outcome()
    trace = bool(args.trace)
    if args.workload == "flow_cold":
        flow_cold(args.seed, args.seconds, trace, out)
    elif args.workload == "tradeoff":
        tradeoff(args.seed, args.seconds, trace, out, import_s)
    else:
        serve_mixed(args.seed, args.seconds, trace, out)
    if trace:
        out.put("flow.import_s", import_s)
    return out


def report(out, spec: dict, trace: bool) -> dict:
    """The result document: every metric of the requested kind, by name
    and unit.  In a traced run, a per-layer metric the workload did not
    produce belongs to a layer it never calls, and reads 0."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    extra = sorted(set(out.metrics) - known)
    if extra:
        raise common.BenchError(f"metrics missing from BENCHMARK.json: {extra}")
    metrics = {}
    for metric in wanted:
        value = out.metrics.get(metric["name"], 0.0 if trace else None)
        if value is None:
            raise common.BenchError(f"workload did not measure {metric['name']}")
        metrics[metric["name"]] = {"value": common.finite(value),
                                   "unit": metric["unit"]}
    return {"correct": out.failed == 0, "attempted": out.attempted,
            "failed": out.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind normally so servers and scratch are cleaned up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    try:
        out = run(args)
        document = report(out, spec, bool(args.trace))
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        common.clean_work()
    for problem in out.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(document))
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
