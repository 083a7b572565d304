"""One benchmark process: set up, then a closed loop of timed operations.

Started by ``run.py``, once per set-up:

    python3 perfbench/worker.py --workload W --seed S --window SEC \
        --trace 0|1 --rundir DIR --index I

Set-up is the import of mlia, the input generation and one cold operation.
Then operations follow each other for about ``--window`` seconds, each an
in-process call of ``mlia.cli.main(argv)`` writing to its own file in
``DIR``.  Timings, exit codes, captured stderr, peak RSS and (when traced)
per-operation layer metrics go to ``DIR/process-I.json``; the outputs are
checked by ``run.py`` after this process has ended.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_op(cli, argv: list[str], output: Path) -> dict:
    """One operation; a traceback counts as a failed operation."""
    captured = io.StringIO()
    failure = ""
    start_wall = time.perf_counter()
    start_cpu = time.process_time()
    with contextlib.redirect_stderr(captured):
        try:
            code = cli.main(argv)
        except Exception:
            code = None
            failure = traceback.format_exc()
    wall = time.perf_counter() - start_wall
    cpu = time.process_time() - start_cpu
    exists = output.exists()
    return {
        "wall": wall,
        "cpu": cpu,
        "exit": code,
        "stderr": captured.getvalue() + failure,
        "output": str(output) if exists else None,
        "output_bytes": output.stat().st_size if exists else 0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--window", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--rundir", type=Path, required=True)
    parser.add_argument("--index", type=int, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import mlia.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"mlia was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    from workloads import make_argv, make_spec, noise_free

    spec = make_spec(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    def op(number: int | None, request: dict, name: str) -> dict:
        output = args.rundir / f"out-p{args.index}-{name}.json"
        if output.exists():
            output.unlink()
        if tracer is not None:  # spans are kept per operation number
            tracer.op = number
        record = run_op(cli, make_argv(request, str(output)), output)
        if tracer is not None:
            tracer.op = None
        return record

    ops = [op(0, spec, "op0")]
    first_end = time.monotonic()
    start = time.perf_counter()
    while True:  # closed loop: start another only if it should end in the window
        ops.append(op(len(ops), spec, f"op{len(ops)}"))
        if time.perf_counter() - start + ops[-1]["wall"] > args.window:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"first_end": first_end, "ops": ops, "rss_mb": rss_mb, "layers": None,
              "noise_free": None}
    if tracer is not None:
        result["layers"] = [
            dict(tracer.op_metrics(number), **{"cli.output_bytes": ops[number]["output_bytes"]})
            for number in range(1, len(ops))
        ]
        tracer.write(args.rundir / f"spans-p{args.index}.jsonl")
    if args.workload == "sweep" and args.index == 0:
        # untimed, for the margin-lemma check
        result["noise_free"] = op(None, noise_free(spec), "noise-free")
    with open(args.rundir / f"process-{args.index}.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
