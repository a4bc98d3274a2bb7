"""Run the benchmark over workloads and seeds and summarise every metric.

    python3 bench/report.py --seeds 1 2 --trace 0 1
    python3 bench/report.py --workloads rules --seeds 1 2 3 4 5 --trace 0
    python3 bench/report.py --seeds 1 2 3 --trace 0 1 --trace-seeds 1 1 --write bench/baseline.json

Each (workload, trace, seed) is one ``bench/run.py`` process, run one after
another; traced runs use ``--trace-seeds`` when given.  For every metric
the table gives its unit, the median over seeds, the quartiles and their
distance as a share of the median (the spread the bounds in
``BENCHMARK.json`` are compared with); ``failed_frac`` is failed over
attempted operations.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    command = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0])["environment"], json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    mid = median(values)
    return {
        "values": values,
        "median": mid,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / mid if mid else 0.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workloads", nargs="+", default=["rules", "exact", "audit", "cli"])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--trace", nargs="+", type=int, choices=(0, 1), default=[0])
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace-seeds", nargs="+", type=int, help="seeds of the traced runs")
    parser.add_argument("--write", type=Path, help="also write the summary as JSON")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    settings = {"seeds": args.seeds, "trace_seeds": args.trace_seeds, "seconds": seconds}
    report: dict = {"settings": settings, "workloads": {}}
    for workload in args.workloads:
        entry = report["workloads"].setdefault(workload, {})
        for trace in args.trace:
            seeds = args.trace_seeds if trace and args.trace_seeds else args.seeds
            results = []
            for seed in seeds:
                env, result = run(workload, seed, seconds, trace)
                report.setdefault(
                    "environment",
                    {k: v for k, v in env.items() if k not in ("workload", "seed", "trace")},
                )
                results.append(result)
            metrics = {
                name: dict(summarise([r["metrics"][name]["value"] for r in results]), unit=metric["unit"])
                for name, metric in results[0]["metrics"].items()
            }
            metrics["failed_frac"] = dict(
                summarise([r["failed"] / r["attempted"] for r in results]), unit="ratio"
            )
            entry["per_layer" if trace else "end_to_end"] = metrics
            print(f"\n{workload}  trace={trace}  seeds={seeds}  seconds={seconds}")
            print(f"  {'metric':36s} {'unit':>11s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}")
            for name, m in metrics.items():
                flag = ""
                if name in bounds and m["spread"] > bounds[name] / 3:
                    flag = f"  > bound/3 ({bounds[name]})"
                print(
                    f"  {name:36s} {m['unit']:>11s} {m['median']:12.6g} {m['q1']:12.6g}"
                    f" {m['q3']:12.6g} {m['spread']:7.3f}{flag}"
                )
    if args.write:
        args.write.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
