"""Steadiness of the benchmark: run workloads over several seeds and print,
per metric, the median and quartiles across runs.

    python3 perfbench/steady.py --workloads sweep,bank --seeds 1-5
    python3 perfbench/steady.py --workloads all --seeds 1-10 --trace

The spread is (Q3 - Q1) / median with ``statistics.quantiles(n=4)``; it is
printed next to the bound BENCHMARK.json gives the metric, and bounds are
set from it.  With ``--trace`` each seed also gets a traced run, and the
tracing overhead (traced minus untraced median op_p50_s) is printed.
Raw results go to ``.perfbench_runs/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics

from run import ROOT, RUNS, run_workload
from workloads import WORKLOADS


def _seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("nan")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    seconds = args.seconds or declared["run_seconds"]
    workloads = WORKLOADS if args.workloads == "all" else tuple(args.workloads.split(","))
    seeds = _seeds(args.seeds)

    raw = {}
    for workload in workloads:
        runs, traced = [], []
        for seed in seeds:  # traced right after untraced, so drift cancels
            runs.append(run_workload(workload, seed, seconds, False))
            if args.trace:
                traced.append(run_workload(workload, seed, seconds, True))
        raw[workload] = {"runs": runs, "traced": traced}
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{workload}: {len(runs)} runs, seeds {args.seeds}, {seconds:g} s each; "
              f"failed share {shares}; all correct: {all(r['correct'] for r in runs + traced)}")
        print(f"  {'metric':14s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            median, q1, q3, spread = _spread([r["end_to_end"][name] for r in runs])
            flag = "" if name == "setup_s" or spread < bound / 3 else "  above bound/3"
            print(f"  {name:14s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {bound:6.3f}{flag}")
        if traced:
            plain = statistics.median(r["end_to_end"]["op_p50_s"] for r in runs)
            with_trace = statistics.median(r["end_to_end"]["op_p50_s"] for r in traced)
            print(f"  tracing overhead on op_p50_s: {with_trace - plain:+.4f} s "
                  f"({(with_trace - plain) / plain:+.1%}) over {plain:.4f} s")
    RUNS.mkdir(exist_ok=True)
    with open(RUNS / "steady.json", "w", encoding="utf-8") as handle:
        json.dump(raw, handle, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
