"""Run the benchmark over several seeds and summarise it, one row per metric.

    python3 perfbench/collect.py [--workload NAME ...] [--seeds 1-10]
                                 [--trace 0|1] [--out FILE]

Each run is ``perfbench/run.py`` in its own process, with the run length
from ``BENCHMARK.json``.  For every metric the summary gives the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound.  ``--out`` writes the summary as JSON; name it
``BENCH_<change>.json`` to record a before or after measurement.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit("%s failed (%d):\n%s" % (" ".join(cmd), proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: list, bounds: dict) -> dict:
    out = {
        "runs": len(results),
        "correct": all(r["correct"] for r in results),
        "failed_share": sorted({"%d/%d" % (r["failed"], r["attempted"]) for r in results}),
        "metrics": {},
    }
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out["metrics"][name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "bound": bounds.get(name),
            "values": values,
        }
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the summary as JSON")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": bench["run_seconds"], "seeds": args.seeds, "trace": args.trace,
               "workloads": {}}
    for workload in args.workload or names:
        results = [run_once(workload, s, bench["run_seconds"], args.trace) for s in _seeds(args.seeds)]
        row = summarise(results, bounds)
        summary["workloads"][workload] = row
        print("%s: runs=%d correct=%s failed=%s" % (workload, row["runs"], row["correct"],
                                                   ",".join(row["failed_share"])))
        for name, m in row["metrics"].items():
            bound = "" if m["bound"] is None else "  bound %.2f" % m["bound"]
            print("  %-38s median %12.6g %-5s q1 %12.6g q3 %12.6g spread %.4f%s"
                  % (name, m["median"], m["unit"], m["q1"], m["q3"], m["spread"], bound))
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
