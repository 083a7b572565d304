"""Reference checks of mlia's outputs, computed apart from the program.

Nothing here imports mlia.  Layer sizes, PAM levels, power scaling,
minimum distances and residual bounds are recomputed from the paper's
construction with numpy and ``fractions``; no check compares against a
stored copy of an earlier output.  Every check raises ``CheckError``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np


class CheckError(Exception):
    """An output of the program disagrees with the reference."""


def _require(condition, message: str):
    if not condition:
        raise CheckError(message)


def _close(value, reference: float, rel: float, abs_tol: float = 0.0) -> bool:
    return value is not None and abs(value - reference) <= rel * abs(reference) + abs_tol


def check_operation(spec: dict, exit_code, stderr: str, payload) -> None:
    """The checks for one operation of ``spec``; ``payload`` is its parsed
    output file, or None when it wrote none."""
    workload = spec["workload"]
    if workload == "refuse":
        check_refusal(spec, exit_code, stderr, payload is not None)
        return
    _require(exit_code == 0, f"exit code {exit_code}: {stderr.strip()}")
    _require(payload is not None, "the operation wrote no output")
    if workload == "exact":
        check_bounds(spec, payload)
        return
    if spec["noise_std"] == "0":
        _require(payload["config"]["noise_std"] == 0.0, "the noise was not switched off")
        check_margin_lemma(spec, payload)
    check_simulate(spec, payload, dmin_rounding if workload == "bank" else dmin_enumerate)


# ---------------------------------------------------------------------------
# the paper's scheme, recomputed


def alignment_dims(k_layer: int, n: int) -> tuple[int, int]:
    """(N, M): n^{k(k-1)} data monomials in a receive space of size M."""
    g = k_layer * (k_layer - 1)
    n_dims = n**g
    return n_dims, 2 * n_dims + (k_layer - 1) * n ** (g - 1) - 1


def pam_levels(spec: dict, p: float) -> list[int]:
    """PAM level Q of every layer 1..K, for a profile of distinct alphas.

    Layer ell's per-symbol budget is (a_ell - a_{ell-1}) / M for alignment
    layers and divided by the users served for the last two; eps defaults
    to a tenth of the smallest budget, and Q = floor(P^{(budget - eps)/2}).
    """
    alphas = [Fraction(0)] + [Fraction(a) for a in spec["alphas"]]
    k = len(alphas) - 1
    _require(all(a < b for a, b in zip(alphas, alphas[1:])),
             "reference assumes strictly increasing alphas (every layer active)")
    budgets = []
    for ell in range(1, k + 1):
        step = alphas[ell] - alphas[ell - 1]
        width = alignment_dims(k - ell + 1, spec["n"])[1] if ell <= k - 2 else k - ell + 1
        budgets.append(step / width)
    eps = Fraction(spec["eps"]) if spec["eps"] is not None else min(budgets) / 10
    return [max(1, math.floor(p ** (float(b - eps) / 2))) for b in budgets]


def work_units(spec: dict) -> int:
    """Work one operation of the workload does, in the workload's unit."""
    workload = spec["workload"]
    k = len(spec["alphas"])
    if workload == "sweep":  # decoded symbols: trials x data cells x P points
        return spec["trials"] * (k * (k + 1) // 2) * len(spec["p_grid"])
    if workload == "bank":  # composite-constellation points of the cells
        n_dims, m_dims = alignment_dims(k, spec["n"])
        total = 0
        for p in spec["p_grid"]:
            q = pam_levels(spec, float(p))[0]
            total += k * (2 * q + 1) ** n_dims * (2 * k * q + 1) ** (m_dims - n_dims)
        return total
    if workload == "exact":  # bounds certified
        return 1 << _family_exponent(k)
    return 1  # refuse: requests answered


# ---------------------------------------------------------------------------
# simulate reports (K users, n = 1, every layer active)


def _cell_geometry(spec, h, p, k, ell):
    """Scale, dimension values and half ranges of alignment cell (k, ell).

    With n = 1 the monomial set V is {1}: the desired dimension is h_kk
    and the aligned interference dimensions are h_kl for the other users
    l of the layer.  The power normalizer is gamma = 1/sqrt(K), one unit
    of beam energy per active layer.
    """
    k_users = h.shape[0]
    alphas = [Fraction(0)] + [Fraction(a) for a in spec["alphas"]]
    q = pam_levels(spec, p)[ell - 1]
    k_layer = k_users - ell + 1
    gamma = 1.0 / math.sqrt(k_users)
    scale = gamma / q * p ** (float(alphas[k] - alphas[ell - 1]) / 2)
    dims = [h[k - 1, k - 1]] + [h[k - 1, l - 1] for l in range(ell, k_users + 1) if l != k]
    halves = [q] + [k_layer * q] * (len(dims) - 1)
    return scale, np.array(dims), halves


def _box(halves) -> np.ndarray:
    """Every nonzero integer vector with |v_d| <= halves[d], as rows."""
    grids = np.meshgrid(*[np.arange(-r, r + 1) for r in halves], indexing="ij")
    vectors = np.stack([g.ravel() for g in grids], axis=1)
    return vectors[np.any(vectors != 0, axis=1)]


def dmin_enumerate(spec, h, p, k, ell) -> float:
    """Smallest nonzero point magnitude, the quantity mlia reports as dmin,
    by evaluating every integer vector of the cell (147 at Q=1, K=3)."""
    scale, dims, halves = _cell_geometry(spec, h, p, k, ell)
    return float(scale * np.min(np.abs(_box(halves) @ dims)))


def dmin_pairwise(spec, h, p, k, ell) -> float:
    """Smallest distance between two points of the cell's constellation:
    the same minimum over the difference vectors, which range twice as far.
    This is the distance the margin lemma needs."""
    scale, dims, halves = _cell_geometry(spec, h, p, k, ell)
    return float(scale * np.min(np.abs(_box([2 * r for r in halves]) @ dims)))


def dmin_rounding(spec, h, p, k, ell) -> float:
    """The reported dmin again, without sorting: for every choice of the
    leading coordinates, round to the best last coordinate in its range."""
    scale, dims, halves = _cell_geometry(spec, h, p, k, ell)
    grids = np.meshgrid(*[np.arange(-r, r + 1) for r in halves[:-1]], indexing="ij")
    lead = np.stack([g.ravel() for g in grids], axis=1)
    partial = lead @ dims[:-1]
    last = np.clip(np.rint(-partial / dims[-1]), -halves[-1], halves[-1])
    best = np.abs(partial + last * dims[-1])
    # the all-zero lead vector must not pick the zero point: its best
    # nonzero last coordinate is +-1
    zero = np.flatnonzero(np.all(lead == 0, axis=1))
    best[zero] = abs(dims[-1])
    return float(scale * np.min(best))


def tbound_closed_form(spec, h, p, k, ell) -> float:
    """P^{(a_k - a_ell)/2} gamma sum_{l > ell} sum_{j >= l} |h_kj|, n = 1."""
    k_users = h.shape[0]
    alphas = [Fraction(0)] + [Fraction(a) for a in spec["alphas"]]
    mass = sum(np.sum(np.abs(h[k - 1, l - 1:])) for l in range(ell + 1, k_users + 1))
    return p ** (float(alphas[k] - alphas[ell]) / 2) / math.sqrt(k_users) * float(mass)


def _tolerance(spec, h, p, k, ell) -> float:
    """Absolute slack for floating-point cancellation in a dmin."""
    scale, dims, halves = _cell_geometry(spec, h, p, k, ell)
    return 1e-12 * scale * float(np.abs(dims) @ np.array(halves))


def check_simulate(spec: dict, report: dict, dmin_method) -> None:
    """Counts, layer sums, frame success, dmin and tbound of a report."""
    k_users = len(spec["alphas"])
    config = report["config"]
    _require([str(Fraction(a)) for a in spec["alphas"]] == config["alphas"], "alphas differ")
    _require(config["trials"] == spec["trials"] and config["seed"] == spec["seed"],
             "trials or seed differ")
    grid = [float(p) for p in spec["p_grid"]]
    _require(config["p_grid"] == grid, "P grid differs")
    h = np.array(report["h_matrix"], dtype=float)
    _require(h.shape == (k_users, k_users), "h matrix has the wrong shape")
    _require(np.all((np.abs(h) >= 0.5) & (np.abs(h) <= 2.0)), "h outside [0.5, 2]")
    trials = spec["trials"]
    expected = [(p, k, ell) for p in grid for k in range(1, k_users + 1) for ell in range(1, k + 1)]
    got = [(c["p"], c["user"], c["layer"]) for c in report["cells"]]
    _require(sorted(got) == sorted(expected), "report cells are not one per data cell")

    worst = {p: 0.0 for p in grid}
    totals: dict = {}
    for cell in report["cells"]:
        p, k, ell, errors = cell["p"], cell["user"], cell["layer"], cell["errors"]
        where = f"cell (P={p:g}, user {k}, layer {ell})"
        _require(cell["trials"] == trials, f"{where}: trials {cell['trials']}")
        _require(isinstance(errors, int) and 0 <= errors <= trials,
                 f"{where}: errors {errors} outside [0, {trials}]")
        _require(cell["ser"] == errors / trials, f"{where}: ser != errors / trials")
        worst[p] = max(worst[p], cell["ser"])
        row = totals.setdefault((p, ell), [0, 0])
        row[0] += trials
        row[1] += errors
        if ell <= k_users - 2:
            tb = tbound_closed_form(spec, h, p, k, ell)
            _require(_close(cell["tbound"], tb, 1e-9),
                     f"{where}: tbound {cell['tbound']} != reference {tb}")
            dmin = dmin_method(spec, h, p, k, ell)
            _require(_close(cell["dmin"], dmin, 1e-6, _tolerance(spec, h, p, k, ell)),
                     f"{where}: dmin {cell['dmin']} != reference {dmin}")
        else:
            _require(cell["tbound"] is None and cell["dmin"] is None,
                     f"{where}: dmin/tbound given for a non-alignment layer")

    rows = {(r["p"], r["layer"]): [r["trials"], r["errors"]] for r in report["layers"]}
    _require(rows == totals, "layer rows are not the sums of their cells")
    summaries = {s["p"]: s for s in report["summaries"]}
    _require(sorted(summaries) == sorted(grid), "one summary per P expected")
    for p in grid:
        frame = summaries[p]["frame_success_rate"]
        _require(frame is not None and 1.0 - frame >= worst[p] - 1e-12,
                 f"P={p:g}: frame failure {1 - frame} below the worst cell SER {worst[p]}")


def check_margin_lemma(spec: dict, report: dict) -> int:
    """Noise-free report: every alignment cell whose margin d/2 - tbound is
    positive, d the smallest distance between two constellation points,
    must decode without error.  Returns the number of cells checked."""
    h = np.array(report["h_matrix"], dtype=float)
    k_users = h.shape[0]
    checked = 0
    for cell in report["cells"]:
        p, k, ell = cell["p"], cell["user"], cell["layer"]
        if ell > k_users - 2:
            continue
        dmin = dmin_pairwise(spec, h, p, k, ell)
        margin = dmin / 2 - tbound_closed_form(spec, h, p, k, ell)
        if margin > 1e-6 * dmin:
            _require(cell["errors"] == 0,
                     f"cell (P={p:g}, user {k}, layer {ell}): {cell['errors']} errors "
                     f"without noise inside a positive margin {margin:.3g}")
            checked += 1
    _require(checked > 0, "no alignment cell has a positive margin; the check is vacuous")
    return checked


# ---------------------------------------------------------------------------
# bounds


def _family_exponent(k_users: int) -> int:
    """ceil(log2(K/2)) in integers: the smallest j with 2^(j+1) >= K."""
    j = 0
    while (2 << j) < k_users:
        j += 1
    return j


def check_bounds(spec: dict, payload: dict) -> None:
    """Certified average, row weight patterns, column sums and values."""
    alphas = [Fraction(a) for a in spec["alphas"]]
    k = len(alphas)
    jl = _family_exponent(k)
    _require(payload["k"] == k and payload["certified"] is True, "k or certified flag wrong")
    _require(payload["alphas"] == [str(a) for a in alphas], "alphas differ")
    _require(payload["jl"] == jl, f"jl {payload['jl']} != {jl}")
    bounds = payload["bounds"]
    _require(len(bounds) == 1 << jl, f"{len(bounds)} bounds, expected {1 << jl}")
    optimum = (sum(alphas) + alphas[-1] - alphas[-2]) / 2
    _require(Fraction(payload["certified_average"]) == optimum,
             f"certified average {payload['certified_average']} != {optimum}")
    _require(Fraction(payload["optimal"]) == optimum, "optimal differs from the closed form")
    lhs_cols = [0] * k
    rhs_cols = [0] * k
    for idx, row in enumerate(bounds, start=1):
        lhs, rhs = row["lhs"], row["rhs"]
        _require(len(lhs) == k and len(rhs) == k, f"bound {idx}: rows are not length K")
        users = [u for u, w in enumerate(lhs, start=1) if w]
        depth = len(users) - 2
        _require(depth >= 0 and users[-2:] == [k - 1, k],
                 f"bound {idx}: left users {users[-2:]} do not end at K-1, K")
        _require([lhs[u - 1] for u in users] == [2 ** (depth - i) for i in range(depth)] + [1, 1],
                 f"bound {idx}: left weights are not 2^J..2, 1, 1")
        _require([rhs[u - 1] for u in users] == [2 ** (depth - 1 - i) for i in range(depth)] + [0, 1]
                 and sum(1 for w in rhs if w) == depth + 1,
                 f"bound {idx}: right weights are not 2^(J-1)..1, 0, 1")
        value = sum(rhs[u - 1] * alphas[u - 1] for u in users)
        _require(Fraction(row["rhs_value"]) == value,
                 f"bound {idx}: rhs value {row['rhs_value']} != {value}")
        for u in users:
            lhs_cols[u - 1] += lhs[u - 1]
            rhs_cols[u - 1] += rhs[u - 1]
    _require(lhs_cols == [1 << jl] * k, "left column sums are not all 2^jl")
    _require(rhs_cols == [1 << (jl - 1)] * (k - 2) + [0, 1 << jl],
             "right column sums are not 2^(jl-1), ..., 0, 2^jl")


# ---------------------------------------------------------------------------
# refusals

_REFUSAL = re.compile(
    r"\(user (\d+), layer (\d+)\): enumeration size about 10\^(\d+) exceeds cap"
)


def check_refusal(spec: dict, exit_code: int, stderr: str, output_exists: bool) -> None:
    """Exit 3, no output file, and a named size within one decade of
    N log10(2Q+1) + (M-N) log10(2 K_layer Q + 1)."""
    _require(exit_code == 3, f"exit code {exit_code}, expected 3")
    _require(not output_exists, "a refused request left an output file")
    match = _REFUSAL.search(stderr)
    _require(match is not None, f"refusal does not name a size: {stderr.strip()!r}")
    ell = int(match.group(2))
    k_users = len(spec["alphas"])
    _require(1 <= ell <= k_users - 2, f"refusal names layer {ell}")
    k_layer = k_users - ell + 1
    n_dims, m_dims = alignment_dims(k_layer, spec["n"])
    q = pam_levels(spec, float(spec["p_grid"][0]))[ell - 1]
    decades = n_dims * math.log10(2 * q + 1) + (m_dims - n_dims) * math.log10(2 * k_layer * q + 1)
    _require(abs(int(match.group(3)) - decades) <= 1,
             f"named size 10^{match.group(3)} is not within a decade of 10^{decades:.1f}")
