"""Steadiness of the benchmark: run every workload many times and print each
end-to-end metric's median, quartiles and spread.

    python3 bench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...]
                            [--compare EARLIER.json]

Runs ``bench/run.py`` one process at a time, each with another seed, for
the run length in BENCHMARK.json. The spread of a metric is
(Q3 - Q1) / median over the runs, with the quartiles of
``statistics.quantiles(values, n=4)``; a bound in BENCHMARK.json must be at
least three times the spread seen, for every metric.
The values are saved under .bench_out/ so that a second set can be compared
with --compare: a median worse than the earlier one by more than the bound
is flagged, as is a different share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--compare", type=Path, help="an earlier set saved by this command")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    earlier = json.loads(args.compare.read_text(encoding="utf-8")) if args.compare else {}

    saved: dict[str, dict] = {}
    flagged = 0
    for workload in workloads:
        results = [run_once(workload, args.first_seed + i, bench["run_seconds"]) for i in range(args.runs)]
        shares = {r["failed"] / r["attempted"] for r in results}
        values = {name: [r["metrics"][name]["value"] for r in results] for name in bounds}
        saved[workload] = {"values": values, "failed_shares": sorted(shares),
                           "correct": all(r["correct"] for r in results)}
        print(f"{workload}: {args.runs} runs, correct={saved[workload]['correct']}, "
              f"failed shares {sorted(shares)}")
        if not saved[workload]["correct"] or len(shares) != 1:
            flagged += 1
        for name, vals in values.items():
            median, q1, q3, spread = summarize(vals)
            bound = bounds[name]
            note = ""
            if spread > bound / 3:
                note = "  SPREAD ABOVE BOUND/3"
                flagged += 1
            before = earlier.get(workload, {}).get("values", {}).get(name)
            if before:
                shift = median / statistics.median(before) - 1
                note += f"  vs earlier median {shift:+.1%}"
                if shift > bound:
                    note += " WORSE THAN BOUND"
                    flagged += 1
            print(f"  {name:12s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.2%}  bound {bound:.0%}{note}")
        if earlier.get(workload) and earlier[workload]["failed_shares"] != sorted(shares):
            print(f"  failed share differs from earlier: {earlier[workload]['failed_shares']}")
            flagged += 1
    OUT.mkdir(exist_ok=True)
    path = OUT / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(saved), encoding="utf-8")
    print(f"saved {path.relative_to(ROOT)}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
