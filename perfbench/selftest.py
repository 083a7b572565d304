"""Self-test of the reference checks: each checker must pass a genuine
output and reject corrupted copies of it, each with the message of the
check that was aimed at, so that no check is vacuous.

    python3 perfbench/selftest.py [--seed 1]

Exits 0 when every genuine output passes and every corruption is caught.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import shutil
import sys
from fractions import Fraction

import reference as ref
from run import ROOT, RUNS
from workloads import make_argv, make_spec, noise_free

sys.path.insert(0, str(ROOT / "src"))


def _produce(cli, spec: dict, name: str) -> dict:
    """Run one genuine operation; returns what the checkers look at."""
    output = RUNS / "selftest" / f"{name}.json"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main(make_argv(spec, str(output)))
    payload = None
    if output.exists():
        with open(output, encoding="utf-8") as handle:
            payload = json.load(handle)
    return {"exit": code, "stderr": stderr.getvalue(), "payload": payload}


def _alignment_cells(report):
    return [c for c in report["cells"] if c["layer"] == 1]


def _scale(pick, key, factor):
    def corrupt(report):
        cell = pick(_alignment_cells(report))
        cell[key] *= factor
    return corrupt


def _errors_above_trials(report):
    cell = report["cells"][0]
    cell["errors"] = cell["trials"] + 1
    cell["ser"] = cell["errors"] / cell["trials"]


def _frame_above_worst_cell(report):
    worst = max(report["cells"], key=lambda c: c["ser"])["p"]
    next(s for s in report["summaries"] if s["p"] == worst)["frame_success_rate"] = 1.0


def _noise_free_errors(report):
    for cell in _alignment_cells(report):
        cell["errors"] = 1


def _first_left_weight(payload):
    lhs = payload["bounds"][0]["lhs"]
    lhs[next(i for i, w in enumerate(lhs) if w)] = 3


def _rhs_value(payload):
    row = payload["bounds"][-1]
    row["rhs_value"] = str(Fraction(row["rhs_value"]) + 1)


def _certified_average(payload):
    payload["certified_average"] = str(Fraction(payload["certified_average"]) + Fraction(1, 10**6))


def _move_first_user(payload):
    """Shift one bound's first weighted user down by one: the row keeps its
    pattern and a matching rhs value, but the column sums break."""
    alphas = [Fraction(a) for a in payload["alphas"]]
    for row in payload["bounds"]:
        u = next(i for i, w in enumerate(row["lhs"]) if w)
        if u > 0:
            for side in ("lhs", "rhs"):
                row[side][u - 1], row[side][u] = row[side][u], 0
            row["rhs_value"] = str(sum(w * a for w, a in zip(row["rhs"], alphas)))
            return
    raise AssertionError("no bound to move")


def _named_size(record):
    record["stderr"] = record["stderr"].replace("about 10^", "about 10^9")


# (workload, what is corrupted, corruption, message the check must give)
CASES = [
    ("sweep", "a dmin by 0.1%", _scale(lambda cells: cells[0], "dmin", 1.001), "dmin"),
    ("sweep", "a tbound by 0.1%", _scale(lambda cells: cells[0], "tbound", 1.001), "tbound"),
    ("sweep", "errors above trials", _errors_above_trials, "outside"),
    ("sweep", "a layer row's errors", lambda r: r["layers"][0].update(errors=r["layers"][0]["errors"] + 1), "layer rows"),
    ("sweep", "frame success above the worst cell", _frame_above_worst_cell, "frame failure"),
    ("margin", "one error in every alignment cell", _noise_free_errors, "positive margin"),
    ("bank", "a dmin by 0.1%", _scale(lambda cells: cells[-1], "dmin", 1.001), "dmin"),
    ("exact", "the certified average", _certified_average, "certified average"),
    ("exact", "a left weight", _first_left_weight, "left weights"),
    ("exact", "an rhs value", _rhs_value, "rhs value"),
    ("exact", "a column sum", _move_first_user, "left column sums"),
    ("exact", "the row count", lambda payload: payload["bounds"].pop(), "expected"),
    ("refuse", "the exit code", lambda record: record.update(exit=0), "exit code"),
    ("refuse", "a left output file", lambda record: record.update(payload={}), "output file"),
    ("refuse", "the named size", _named_size, "within a decade"),
]


def _check(spec: dict, got: dict) -> None:
    ref.check_operation(spec, got["exit"], got["stderr"], got["payload"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    import mlia.cli as cli

    shutil.rmtree(RUNS / "selftest", ignore_errors=True)
    (RUNS / "selftest").mkdir(parents=True)
    specs = {w: make_spec(w, args.seed) for w in ("sweep", "bank", "exact", "refuse")}
    specs["margin"] = noise_free(specs["sweep"])
    genuine = {kind: _produce(cli, spec, kind) for kind, spec in specs.items()}
    bad = 0
    for kind, got in genuine.items():
        try:
            _check(specs[kind], got)
            print(f"pass  genuine {kind} output")
        except ref.CheckError as exc:
            bad += 1
            print(f"FAIL  genuine {kind} output rejected: {exc}")
    for kind, what, corrupt, expected in CASES:
        got = copy.deepcopy(genuine[kind])
        corrupt(got["payload"] if got["payload"] is not None else got)
        try:
            _check(specs[kind], got)
        except ref.CheckError as exc:
            caught = expected in str(exc)
            bad += not caught
            print(f"{'pass' if caught else 'FAIL'}  {kind}: corrupted {what}: {exc}")
            continue
        bad += 1
        print(f"FAIL  {kind}: corrupted {what} was not caught")
    shutil.rmtree(RUNS / "selftest", ignore_errors=True)
    print(f"{len(CASES)} corruptions, {bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
