"""The four benchmark workloads: their inputs, made from a seed, and argv.

Pure Python on purpose: the worker builds argv before it times anything,
and the checker in ``reference.py`` reads the same spec to know what the
program was asked.
"""

from __future__ import annotations

import random

WORKLOADS = ("sweep", "bank", "exact", "refuse")

# sweep: eps 1499/10000 pins Q=1 in every layer over P = 1e4..1e12, so each
# alignment decoder holds 3 * 7 * 7 = 147 points and decoding dominates.
SWEEP_P = tuple(f"1e{e}" for e in range(4, 13))
# bank: default eps, so Q grows with P up to 32 and the largest alignment
# decoder holds (2*32+1) * (6*32+1)^2 = 2,421,185 points.
BANK_P = ("1e16", "1e18", "1e20")
BANK_CAP = 2_500_000
# exact: one fixed K, so every seed does the same amount of work; every
# alpha is a multiple of 1/EXACT_DEN, which keeps the Fraction sums' size
# independent of the seed.
EXACT_K = 512
EXACT_DEN = 10_000


def make_spec(workload: str, seed: int) -> dict:
    """Everything one operation of ``workload`` asks for, from ``seed``."""
    if workload == "sweep":
        return {
            "workload": workload, "command": "simulate",
            "alphas": ["1/2", "4/5", "1"], "n": 1, "eps": "1499/10000",
            "p_grid": list(SWEEP_P), "trials": 100_000, "seed": seed,
            "cap": None, "with_dmin": True, "noise_std": None, "exit": 0,
        }
    if workload == "bank":
        return {
            "workload": workload, "command": "simulate",
            "alphas": ["1/2", "4/5", "1"], "n": 1, "eps": None,
            "p_grid": list(BANK_P), "trials": 1000, "seed": seed,
            "cap": BANK_CAP, "with_dmin": True, "noise_std": None, "exit": 0,
        }
    rng = random.Random(seed)
    if workload == "exact":
        nums = sorted(rng.sample(range(1, EXACT_DEN + 1), EXACT_K))
        return {
            "workload": workload, "command": "bounds",
            "alphas": [f"{num}/{EXACT_DEN}" for num in nums], "exit": 0,
        }
    if workload == "refuse":
        # K=5, n=2: layer 1 has N = 2^20 data and M - N = 3*2^20 - 1
        # interference dimensions, so the decode search space is about
        # 10^3.8M points whatever the seed; the documented answer is exit 3.
        nums = sorted(rng.sample(range(1, 21), 5))
        return {
            "workload": workload, "command": "simulate",
            "alphas": [f"{num}/20" for num in nums], "n": 2, "eps": None,
            "p_grid": [f"1e{rng.randint(6, 12)}"], "trials": 1000,
            "seed": seed, "cap": None, "with_dmin": False, "noise_std": None,
            "exit": 3,
        }
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def noise_free(spec: dict) -> dict:
    """The same simulate request with the noise switched off."""
    return dict(spec, noise_std="0")


def make_argv(spec: dict, output: str) -> list[str]:
    """The ``mlia`` argv of one operation, writing to ``output``."""
    argv = [spec["command"], "--alphas", ",".join(spec["alphas"]), "--output", output]
    if spec["command"] == "bounds":
        return argv
    argv += ["--n", str(spec["n"]), "--p-grid", ",".join(spec["p_grid"]),
             "--trials", str(spec["trials"]), "--seed", str(spec["seed"])]
    for flag, key in (("--eps", "eps"), ("--cap", "cap"), ("--noise-std", "noise_std")):
        if spec[key] is not None:
            argv += [flag, str(spec[key])]
    if spec["with_dmin"]:
        argv.append("--with-dmin")
    return argv
