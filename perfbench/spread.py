"""Run the benchmark several times per workload and report the spread.

    python3 perfbench/spread.py --workloads flow_cold tradeoff --runs 10 \\
        --out .perfbench-out/spread.json

Each run uses its own seed (``--first-seed``, ``--first-seed + 1``, ...).
For every end-to-end metric this prints the median, the quartiles and
the spread — the quartile distance as a share of the median — next to
the metric's bound from BENCHMARK.json, and flags any run that failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from common import ROOT, spread


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict[str, dict] = {}
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for run in range(args.runs):
            seed = args.first_seed + run
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary[workload] = {}
        for name, series in values.items():
            q1, mid, q3 = statistics.quantiles(series, n=4)
            share = spread(series)
            summary[workload][name] = {
                "median": statistics.median(series), "q1": q1, "q3": q3,
                "spread": share, "runs": len(series), "values": series}
            flag = "  over a third of bound" if share > bounds[name] / 3 else ""
            print(f"{workload:12s} {name:15s} median {statistics.median(series):12.4f}"
                  f"  spread {share:.3f} / bound {bounds[name]}{flag}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
