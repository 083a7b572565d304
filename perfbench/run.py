"""Benchmark of the mlia toolkit: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 1

A run starts PROCESSES fresh worker processes one after another (never two
at once).  Each sets up (import, inputs from the seed, one cold operation)
and then runs a closed loop of operations for its share of ``--seconds``.
Every output is checked against ``reference.py`` once the processes have
ended.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A run that cannot complete exits 1 without that line.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from workloads import WORKLOADS, make_spec, noise_free

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
# several set-ups per run give setup_s as a median, and pooling warm
# operations over processes evens out process-to-process noise
PROCESSES = 3
DEADLINE_S = 170


class BenchmarkError(Exception):
    """The run could not complete; no result is printed."""


def _metric_units() -> dict[str, dict[str, str]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    return {kind: {m["name"]: m["unit"] for m in declared[kind]}
            for kind in ("end_to_end", "per_layer")}


def _spawn(workload: str, seed: int, window: float, trace: bool, rundir: Path,
           index: int, deadline: float) -> dict:
    spawned = time.monotonic()
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--window", str(window), "--trace", str(int(trace)),
               "--rundir", str(rundir), "--index", str(index)]
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"process {index} did not finish before the deadline") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"process {index} exited {proc.returncode}:\n{proc.stderr}")
    with open(rundir / f"process-{index}.json", encoding="utf-8") as handle:
        result = json.load(handle)
    result["setup_s"] = result["first_end"] - spawned
    return result


def _check(spec: dict, record: dict) -> None:
    """Reference check of one operation that did not fail."""
    payload = None
    if record["output"] is not None:
        with open(record["output"], encoding="utf-8") as handle:
            payload = json.load(handle)
    reference.check_operation(spec, record["exit"], record["stderr"], payload)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload, check every output, and return its figures."""
    if not (ROOT / "src" / "mlia" / "cli.py").is_file():
        raise BenchmarkError(f"no mlia source under {ROOT / 'src'}; run from a checkout")
    deadline = time.monotonic() + DEADLINE_S
    spec = make_spec(workload, seed)
    rundir = RUNS / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    processes = [_spawn(workload, seed, seconds / PROCESSES, trace, rundir, index, deadline)
                 for index in range(PROCESSES)]

    attempted = 0
    failures, mismatches = [], []
    for proc in processes:
        for record in proc["ops"]:
            attempted += 1
            if record["exit"] != spec["exit"]:
                failures.append(f"exit {record['exit']}: {record['stderr'].strip()}")
                continue
            try:
                _check(spec, record)
            except reference.CheckError as exc:
                mismatches.append(str(exc))
        if proc["noise_free"] is not None:
            try:
                _check(noise_free(spec), proc["noise_free"])
            except reference.CheckError as exc:
                mismatches.append(f"noise-free run: {exc}")
    for output in rundir.glob("out-*.json"):
        output.unlink()

    warm = [record for proc in processes for record in proc["ops"][1:]]
    walls = [record["wall"] for record in warm]
    done = sum(1 for record in warm if record["exit"] == spec["exit"])
    end_to_end = {
        "setup_s": statistics.median(proc["setup_s"] for proc in processes),
        "op_p50_s": statistics.median(walls),
        "work_per_s": reference.work_units(spec) * done / sum(walls),
        "cpu_per_op_s": statistics.median(record["cpu"] for record in warm),
        "peak_rss_mb": statistics.median(proc["rss_mb"] for proc in processes),
    }
    per_layer = None
    if trace:
        layers = [row for proc in processes for row in proc["layers"]]
        per_layer = {name: statistics.median(row[name] for row in layers) for name in layers[0]}
    return {
        "workload": workload, "seed": seed, "trace": trace, "correct": not mismatches,
        "attempted": attempted, "failed": len(failures),
        "problems": [f"failed: {f}" for f in failures] + [f"check: {m}" for m in mismatches],
        "processes": len(processes), "warm_ops": len(warm), "walls": walls,
        "end_to_end": end_to_end, "per_layer": per_layer,
    }


def _report(result: dict, units: dict) -> dict:
    """Print the figures for a reader and return the result line."""
    kind = "per_layer" if result["trace"] else "end_to_end"
    values = result[kind]
    if set(values) != set(units[kind]):
        raise BenchmarkError(f"metrics {sorted(set(values) ^ set(units[kind]))} "
                             "do not match BENCHMARK.json")
    print(f"{result['workload']} seed {result['seed']}: {result['processes']} processes, "
          f"{result['attempted']} operations attempted ({result['warm_ops']} warm), "
          f"{result['failed']} failed, checks {'passed' if result['correct'] else 'FAILED'}")
    for problem in result["problems"]:
        print(f"  {problem}")
    notes = {"setup_s": f"median of {result['processes']} set-ups",
             "op_p50_s": f"median of {result['warm_ops']} warm operations"}
    if result["trace"]:
        print(f"  traced op_p50_s {result['end_to_end']['op_p50_s']:.4f} s "
              f"(compare a --trace 0 run for the tracing overhead)")
    for name, unit in units[kind].items():
        print(f"  {name:42s} {values[name]:14.6g} {unit:6s} {notes.get(name, '')}")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units[kind].items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        units = _metric_units()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        lines = [_report(run_workload(w, args.seed, args.seconds, bool(args.trace)), units)
                 for w in workloads]
    except (BenchmarkError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(json.dumps(line))
    return 0 if all(line["correct"] for line in lines) else 2


if __name__ == "__main__":
    sys.exit(main())
