"""Finite-SNR Monte Carlo simulation of the layered alignment chain.

One trial is a single channel use: every transmitter superimposes its PAM
layers, receiver k observes

    y_k = sqrt(P^{a_k}) * sum_l h_kl x_l + z_k,

and decoding peels layer by layer.  At an alignment layer the receiver
jointly resolves its own data vector q and the aggregated interference
vector q' by an exhaustive nearest-point search over the composite
constellation

    scale * (sum_i S(i) q_i + sum_i I(i) q'_i),
    q_i in [-Q, Q],  q'_i in [-K_layer Q, K_layer Q],

treating the lower layers as noise, then subtracts the reconstruction.
The next-to-last layer is a joint two-symbol decode at the two remaining
receivers, and the last layer a plain PAM slice at receiver K.

The nearest-point search sorts the composite constellation once per
(receiver, layer, P) and then decodes whole trial batches with binary
search; ties are broken toward the lexicographically smallest integer
vector.  The reported ``dmin`` (the smallest nonzero point magnitude, read
off the same sorted enumeration) and the deterministic
residual-interference bound are computed from the same machinery.
Everything is reproducible from (seed, config).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .channel import ChannelRealization, sample_channel  # noqa: F401  (re-export)
from .gdof_core import AlphaProfile
from .scheme import (
    EnumerationCapError,
    LayerPlan,
    SchemeGeometry,
    TransmitConfig,
    build_geometry,
    build_layer_plan,
    build_transmit_config,
    power_normalizer,
)

SCHEMA_VERSION = "mlia-sim-1"
DEFAULT_ENUM_CAP = 500_000


# ---------------------------------------------------------------------------
# nearest-point decoding over an explicit composite constellation


def _dot_rows(matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """matrix @ weights as multiply-adds over the columns in index order.

    The inner dimension is small on every per-trial path (at most K, or
    the data and interference dimensions the cap bounds), so the explicit
    sum beats a BLAS call and wakes no BLAS threads.
    """
    acc = matrix[:, 0] * weights[0]
    for d in range(1, len(weights)):
        acc += matrix[:, d] * weights[d]
    return acc


@dataclass(eq=False)
class NearestPointDecoder:
    """Exhaustive min-distance decoder for scale * sum_d dim[d] * q_d.

    Enumerates every integer vector with |q_d| <= half_range[d]
    (lexicographic order, first coordinate most significant), sorts the
    point values once, then decodes observations by binary search.  Row i
    of ``table`` is the lexicographically smallest integer vector whose
    value is ``sorted_values[i]``, stored in the smallest signed integer
    type that holds the half ranges.  An exact distance tie resolves to
    the lexicographically smallest vector.
    """

    scale: float
    dim_values: np.ndarray
    half_ranges: np.ndarray
    table: np.ndarray = field(init=False)
    _padded: np.ndarray = field(init=False)  # -inf, sorted values, +inf

    def __post_init__(self):
        halves = [int(h) for h in self.half_ranges]
        sizes = [2 * half + 1 for half in halves]
        values = np.zeros(1)
        for dim, half in zip(self.dim_values, halves):
            step = self.scale * dim
            offsets = step * np.arange(-half, half + 1)
            values = (values[:, None] + offsets[None, :]).ravel()
        top = max(halves)
        dtype = next(
            t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= top
        )
        n_dims = len(halves)
        table = np.empty(sizes + [n_dims], dtype=dtype)
        for d, half in enumerate(halves):
            shape = [1] * n_dims
            shape[d] = sizes[d]
            table[..., d] = np.arange(-half, half + 1, dtype=dtype).reshape(shape)
        order = np.argsort(values, kind="stable")
        self._padded = np.empty(len(values) + 2)
        self._padded[0], self._padded[-1] = -np.inf, np.inf
        values.take(order, out=self._padded[1:-1])
        # a stable sort leaves the lowest enumeration index, which is the
        # lexicographically smallest vector, at the head of each run of
        # equal values; duplicates only occur on measure-zero channel draws
        sv = self.sorted_values
        dup = sv[1:] == sv[:-1]
        if dup.any():
            head = np.arange(len(sv))
            head[1:][dup] = 0
            np.maximum.accumulate(head, out=head)
            order = order[head]
        self.table = table.reshape(-1, n_dims).take(order, axis=0)

    @property
    def sorted_values(self) -> np.ndarray:
        return self._padded[1:-1]

    @property
    def size(self) -> int:
        return len(self._padded) - 2

    def decode(self, obs: np.ndarray) -> np.ndarray:
        """Integer vectors (rows) of the nearest points to each observation."""
        obs = np.atleast_1d(np.asarray(obs, dtype=float))
        pad = self._padded
        # searching the unpadded values keeps pos + 1 in range even for NaN;
        # pad[pos] and pad[pos + 1] are the neighbours below and above obs,
        # so both differences equal |obs - neighbour| bitwise, and the
        # sentinels make an observation beyond either extreme pick that
        # extreme.  Clipping keeps an observation of -inf on the lowest point.
        pos = np.searchsorted(self.sorted_values, obs)
        d_left = obs - pad.take(pos)
        d_right = pad.take(pos + 1) - obs
        chosen = pos - 1 + (d_right < d_left)
        rows = self.table.take(chosen, axis=0, mode="clip")
        tie = np.flatnonzero(d_right == d_left)
        if tie.size:
            left = self.table.take(pos[tie] - 1, axis=0, mode="clip")
            right = self.table.take(pos[tie], axis=0, mode="clip")
            first = (left != right).argmax(axis=1)
            picks = np.arange(tie.size)
            smaller = right[picks, first] < left[picks, first]
            rows[tie[smaller]] = right[smaller]
        return rows

    def point_value(self, vectors: np.ndarray) -> np.ndarray:
        """scale * sum_d dim[d] * q_d for integer vectors (rows)."""
        return self.scale * _dot_rows(np.atleast_2d(vectors), self.dim_values)

    def min_distance(self) -> float:
        """Smallest |point value| over all nonzero integer vectors.

        This is the distance from the origin to the nearest other point,
        not the smallest distance between two constellation points, so
        dmin/2 is not a decoding margin.
        """
        sv = self.sorted_values
        pos = int(np.searchsorted(sv, 0.0))
        window = np.sort(np.abs(sv[max(0, pos - 3) : pos + 4]))
        # the all-zero vector accounts for one zero in the window; a second
        # zero is another vector of value zero, and then the answer is zero
        return float(window[1])


def enumeration_log10(n_dims: int, m_dims: int, k_layer: int, q: int) -> float:
    """log10 of the search-space size of an alignment-layer decode."""
    return n_dims * math.log10(2 * q + 1) + (m_dims - n_dims) * math.log10(
        2 * k_layer * q + 1
    )


def enumeration_size(n_dims: int, m_dims: int, k_layer: int, q: int) -> int:
    """Exact search-space size of an alignment-layer decode.

    The integer has about ``enumeration_log10`` digits; ``_check_cap``
    builds it only when the size is near the cap.
    """
    return (2 * q + 1) ** n_dims * (2 * k_layer * q + 1) ** (m_dims - n_dims)


def _check_cap(what: str, n_dims: int, m_dims: int, k_layer: int, q: int, cap: int):
    """Refuse a search space above ``cap`` without building a huge integer.

    Sizes within a decade of the cap, or below 10^19, are compared exactly;
    the latter keep their exact count in the message.
    """
    log10_size = enumeration_log10(n_dims, m_dims, k_layer, q)
    if cap < 1 or log10_size > max(math.log10(cap), 18) + 1:
        raise EnumerationCapError(what, None, cap, log10_size=log10_size)
    size = enumeration_size(n_dims, m_dims, k_layer, q)
    if size > cap:
        raise EnumerationCapError(what, size, cap)


def _check_bank_caps(plan: LayerPlan, cap: int):
    """Every cap check of ``build_decoder_bank``, from the plan alone."""
    kk = plan.k_users
    for ell in range(1, kk - 1):
        lay = plan.layer(ell)
        if lay.active:  # every receiver of the layer searches the same space
            _check_cap(
                f"decode search for (user {ell}, layer {ell})",
                lay.n_dims, lay.m_dims, lay.k_users, lay.q_level, cap,
            )
    if plan.layer(kk - 1).active:
        _check_cap("pair decode", 2, 2, 1, plan.layer(kk - 1).q_level, cap)
    if plan.layer(kk).active:
        _check_cap("final-layer decode", 1, 1, 1, plan.layer(kk).q_level, cap)


def _cell_decoder(
    geometry: SchemeGeometry, plan: LayerPlan, gamma: float, k: int, ell: int
) -> NearestPointDecoder:
    """Decoder of cell (receiver k, layer ell).

    An alignment cell's dimensions are S then I, with half ranges Q and
    K_layer Q; a PAM cell's are the links h_kj of its transmitters
    j = ell..K, with half ranges Q.
    """
    lay = plan.layer(ell)
    q = lay.q_level
    if ell <= plan.k_users - 2:
        sets = geometry.cell(k, ell)
        dims = np.concatenate([sets.s_set.values, sets.i_set.values])
        halves = np.array([q] * len(sets.s_set) + [lay.k_users * q] * len(sets.i_set))
    else:
        dims = geometry.channel.h[k - 1, ell - 1 :]
        halves = np.full(len(dims), q)
    exponent = float(plan.alpha.alpha(k) - lay.power_offset)
    scale = gamma / q * plan.p ** (exponent / 2)
    return NearestPointDecoder(scale=scale, dim_values=dims, half_ranges=halves)


def t_bound(
    geometry: SchemeGeometry, plan: LayerPlan, k: int, ell: int, gamma: float
) -> float:
    """Deterministic ceiling on the treated-as-noise term below layer ell.

    P^{(a_k - a_ell)/2} * gamma * sum over active lower layers l > ell of
    (sum_{j=l..K} |h_kj|) (sum_i |v_{l,i}|); every realized residual is at
    most this, whatever the symbols.
    """
    kk = plan.k_users
    if not 1 <= ell <= kk - 2:
        raise ValueError(f"the residual bound applies to layers 1..{kk - 2}")
    delta = 0.0
    for l in range(ell + 1, kk + 1):
        if not plan.layer(l).active:
            continue
        beam_mass = float(np.sum(np.abs(geometry.beam(l))))
        h_mass = float(np.sum(np.abs(geometry.channel.h[k - 1, l - 1 :])))
        delta += h_mass * beam_mass
    delta *= gamma
    exponent = float(plan.alpha.alpha(k) - plan.alpha.alpha(ell))
    return plan.p ** (exponent / 2) * delta


# ---------------------------------------------------------------------------
# synthesis


def draw_symbols_batch(
    plan: LayerPlan, rng: np.random.Generator, trials: int
) -> dict[tuple[int, int], np.ndarray]:
    """Uniform integer PAM indices for every data cell, (trials, N) each."""
    symbols = {}
    for k in range(1, plan.k_users + 1):
        for ell in range(1, k + 1):
            lay = plan.layer(ell)
            if not lay.active:
                continue
            symbols[(k, ell)] = rng.integers(
                -lay.q_level, lay.q_level + 1, size=(trials, lay.n_dims)
            )
    return symbols


def transmit_batch(
    configs: dict[int, TransmitConfig],
    symbols: dict[tuple[int, int], np.ndarray],
    trials: int,
) -> np.ndarray:
    """(trials, K) matrix of transmitted signals, column-major."""
    kk = len(configs)
    x = np.zeros((kk, trials))
    for k, config in configs.items():
        for lay in config.layers:
            if not lay.active:
                continue
            q = symbols[(k, lay.index)]
            x[k - 1] += lay.power_factor * lay.constellation.xi * _dot_rows(q, lay.beam)
    return x.T


def synthesize_batch(
    channel: ChannelRealization,
    plan: LayerPlan,
    configs: dict[int, TransmitConfig],
    symbols: dict[tuple[int, int], np.ndarray],
    noise: np.ndarray,
) -> np.ndarray:
    """(trials, K) received observations y = sqrt(P^a) (x h^T) + z,
    column-major."""
    trials = noise.shape[0]
    x = transmit_batch(configs, symbols, trials)
    y = np.empty((channel.k_users, trials))
    for k, a in enumerate(plan.alpha.alphas):
        gain = plan.p ** (float(a) / 2)
        y[k] = _dot_rows(x, channel.h[k]) * gain + noise[:, k]
    return y.T


def realized_residual_batch(
    geometry: SchemeGeometry, plan: LayerPlan, gamma: float,
    symbols: dict[tuple[int, int], np.ndarray], k: int, ell: int,
) -> np.ndarray:
    """The exact treated-as-noise term below layer ell at receiver k."""
    trials = next(iter(symbols.values())).shape[0]
    total = np.zeros(trials)
    for l in range(ell + 1, plan.k_users + 1):
        lay = plan.layer(l)
        if not lay.active:
            continue
        xi = gamma / lay.q_level
        beam = geometry.beam(l)
        exponent = float(plan.alpha.alpha(k) - lay.power_offset)
        gain = plan.p ** (exponent / 2)
        for j in range(l, plan.k_users + 1):
            total += gain * geometry.channel.coeff(k, j) * xi * (symbols[(j, l)] @ beam)
    return total


# ---------------------------------------------------------------------------
# successive decoding


@dataclass(eq=False)
class DecoderBank:
    """One decoder per active (receiver, layer) cell for one (geometry,
    plan, gamma), in decode order: layer ascending, then receiver.  Build
    once, decode any number of batches."""

    geometry: SchemeGeometry
    plan: LayerPlan
    gamma: float
    decoders: dict[tuple[int, int], NearestPointDecoder]

    def aggregate_truth(
        self, symbols: dict[tuple[int, int], np.ndarray], k: int, ell: int
    ) -> np.ndarray:
        """True aggregated interference integers at (receiver k, layer ell)."""
        sets = self.geometry.cell(k, ell)
        trials = next(iter(symbols.values())).shape[0]
        agg = np.zeros((trials, len(sets.i_set)), dtype=np.int64)
        for j, positions in sets.scatter.items():
            agg[:, positions] += symbols[(j, ell)]
        return agg


def build_decoder_bank(
    geometry: SchemeGeometry, plan: LayerPlan, gamma: float | None = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> DecoderBank:
    kk = plan.k_users
    _check_bank_caps(plan, cap)  # before any cell's sets are built
    if gamma is None:
        _, gamma = power_normalizer(geometry, plan)
    decoders = {
        (k, ell): _cell_decoder(geometry, plan, gamma, k, ell)
        for ell in range(1, kk + 1)
        if plan.layer(ell).active
        for k in range(ell, kk + 1)
    }
    return DecoderBank(geometry=geometry, plan=plan, gamma=gamma, decoders=decoders)


@dataclass(eq=False)
class DecodeResult:
    """Batch decode output: estimates per data cell plus success flags."""

    symbols: dict[tuple[int, int], np.ndarray]  # (user, layer) -> (T, N) ints
    desired_ok: dict[tuple[int, int], np.ndarray]  # (T,) bool per data cell
    aggregate_ok: dict[tuple[int, int], np.ndarray]  # alignment cells only

    def frame_ok(self) -> np.ndarray:
        flags = None
        for ok in self.desired_ok.values():
            flags = ok if flags is None else flags & ok
        return flags


def successive_decode_batch(
    y: np.ndarray,
    bank: DecoderBank,
    truth: dict[tuple[int, int], np.ndarray] | None = None,
    force: dict[tuple[int, int], np.ndarray] | None = None,
) -> DecodeResult:
    """Layer-peeling decode of a (trials, K) observation batch.

    Cells are decoded in the bank's order and each reconstruction is
    subtracted from its receiver's observation: an alignment layer at every
    participating receiver, the next-to-last layer jointly at the last two
    receivers, the last layer at receiver K.  The receiver's own symbols
    are the first N entries of an alignment cell's integer vector and entry
    k - ell of a PAM cell's.  ``truth`` enables the per-cell success flags;
    ``force`` replaces the integer vector of chosen cells (one vector, or
    one row per trial) before peeling, to make error propagation observable
    on demand.
    """
    kk = bank.plan.k_users
    force = force or {}
    # receiver-major: one contiguous row of observations per receiver
    residual = np.array(np.transpose(y), dtype=float, order="C")
    decoded, desired_ok, aggregate_ok = {}, {}, {}
    for (k, ell), dec in bank.decoders.items():
        vectors = dec.decode(residual[k - 1])
        if (k, ell) in force:
            vectors = np.broadcast_to(force[(k, ell)], vectors.shape).astype(np.int64)
        residual[k - 1] -= dec.point_value(vectors)
        aligned = ell <= kk - 2
        n_data = bank.plan.layer(ell).n_dims
        start = 0 if aligned else k - ell
        own = vectors[:, start : start + n_data]
        decoded[(k, ell)] = own
        if truth is not None:
            desired_ok[(k, ell)] = np.all(own == truth[(k, ell)], axis=1)
            if aligned:
                agg_true = bank.aggregate_truth(truth, k, ell)
                aggregate_ok[(k, ell)] = np.all(vectors[:, n_data:] == agg_true, axis=1)
    return DecodeResult(symbols=decoded, desired_ok=desired_ok, aggregate_ok=aggregate_ok)


# ---------------------------------------------------------------------------
# Monte Carlo harness


@dataclass(frozen=True)
class SimConfig:
    """Everything a run needs; the report embeds it for provenance."""

    alphas: tuple[Fraction, ...]
    n: int
    p_grid: tuple[float, ...]
    trials: int
    seed: int = 0
    eps: Fraction | None = None
    h_min: float = 0.5
    h_max: float = 2.0
    noise_std: float = 1.0
    enum_cap: int = DEFAULT_ENUM_CAP
    ser_threshold: float = 1e-2
    with_dmin: bool = False

    def profile(self) -> AlphaProfile:
        return AlphaProfile.parse(self.alphas)

    def to_json_dict(self) -> dict:
        return {
            "alphas": [str(Fraction(a)) for a in self.alphas],
            "n": self.n,
            "p_grid": list(self.p_grid),
            "trials": self.trials,
            "seed": self.seed,
            "eps": None if self.eps is None else str(Fraction(self.eps)),
            "h_min": self.h_min,
            "h_max": self.h_max,
            "noise_std": self.noise_std,
            "enum_cap": self.enum_cap,
            "ser_threshold": self.ser_threshold,
            "with_dmin": self.with_dmin,
        }


@dataclass(eq=False)
class SimReport:
    """Decode statistics per (P, user, layer) plus per-P summaries."""

    config: dict
    channel_seed: int
    h_matrix: list
    cells: list  # dicts: p, user, layer, trials, errors, ser, dmin, tbound
    layers: list  # dicts: p, layer, trials, errors, ser
    summaries: list  # dicts: p, gdof_estimate, frame_success_rate
    schema_version: str = SCHEMA_VERSION

    def to_json(self) -> str:
        payload = {
            "schema_version": self.schema_version,
            "config": self.config,
            "channel_seed": self.channel_seed,
            "h_matrix": self.h_matrix,
            "cells": self.cells,
            "layers": self.layers,
            "summaries": self.summaries,
        }
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        )

    def csv_rows(self) -> list[list]:
        header = ["p", "user", "layer", "trials", "errors", "ser", "dmin", "tbound"]
        rows = [header]
        for cell in self.cells:
            rows.append([cell[name] for name in header])
        return rows

    def cell(self, p: float, user: int, layer: int) -> dict:
        for entry in self.cells:
            if entry["p"] == p and entry["user"] == user and entry["layer"] == layer:
                return entry
        raise KeyError((p, user, layer))


def estimate_gdof(plan: LayerPlan, reliable_cells: list[tuple[int, int]]) -> float:
    """Sum of per-symbol entropies over reliable cells, in GDoF units."""
    bits = 0.0
    for _, ell in reliable_cells:
        lay = plan.layer(ell)
        bits += lay.n_dims * math.log2(1 + 2 * lay.q_level)
    return bits / (0.5 * math.log2(plan.p))


def run_monte_carlo(config: SimConfig) -> SimReport:
    """Seeded SER sweep over the P grid.

    The trial randomness is re-seeded identically at every P point (common
    random numbers), noise first, so SER curves across P are directly
    comparable.  A cell's estimated rate enters the sum-GDoF estimate only
    when its measured SER is at or below the configured threshold.  The
    scheme geometry is built once, after every cap check; only the plan
    and the decoders change with P.
    """
    alpha = config.profile()
    kk = alpha.k_users
    if config.trials < 0:
        raise ValueError("trials must be >= 0")
    if not (math.isfinite(config.noise_std) and config.noise_std >= 0):
        raise ValueError(f"noise_std must be finite and >= 0, got {config.noise_std}")
    plans = []
    for p in config.p_grid:  # validate the whole grid before any work
        plans.append(build_layer_plan(alpha, config.n, eps=config.eps, p=p))
        _check_bank_caps(plans[-1], config.enum_cap)
    channel = sample_channel(kk, config.h_min, config.h_max, config.seed)
    geometry = build_geometry(channel, config.n)
    cells = []
    layer_rows = []
    summaries = []
    for p, plan in zip(config.p_grid, plans):
        bank = build_decoder_bank(geometry, plan, cap=config.enum_cap)
        gamma = bank.gamma
        configs = {
            k: build_transmit_config(geometry, plan, k, gamma=gamma)
            for k in range(1, kk + 1)
        }
        data_cells = [
            (k, ell)
            for k in range(1, kk + 1)
            for ell in range(1, k + 1)
            if plan.layer(ell).active
        ]
        if config.trials:
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=config.seed, spawn_key=(1,))
            )
            noise = config.noise_std * rng.standard_normal((config.trials, kk))
            symbols = draw_symbols_batch(plan, rng, config.trials)
            y = synthesize_batch(channel, plan, configs, symbols, noise)
            result = successive_decode_batch(y, bank, truth=symbols)
            frame_rate = float(np.mean(result.frame_ok()))
        else:
            result = None
            frame_rate = None

        reliable = []
        layer_totals: dict[int, list[int]] = {}
        for k, ell in data_cells:
            if result is not None:
                errors = int(config.trials - np.sum(result.desired_ok[(k, ell)]))
                ser = errors / config.trials
                if ser <= config.ser_threshold:
                    reliable.append((k, ell))
            else:
                errors, ser = 0, None
            dmin = None
            tb = None
            if ell <= kk - 2:
                tb = t_bound(geometry, plan, k, ell, gamma)
                if config.with_dmin:
                    dmin = bank.decoders[(k, ell)].min_distance()
            cells.append(
                {
                    "p": p,
                    "user": k,
                    "layer": ell,
                    "trials": config.trials,
                    "errors": errors,
                    "ser": ser,
                    "dmin": dmin,
                    "tbound": tb,
                }
            )
            totals = layer_totals.setdefault(ell, [0, 0])
            totals[0] += config.trials
            totals[1] += errors
        for ell in sorted(layer_totals):
            trials_total, errors_total = layer_totals[ell]
            layer_rows.append(
                {
                    "p": p,
                    "layer": ell,
                    "trials": trials_total,
                    "errors": errors_total,
                    "ser": errors_total / trials_total if trials_total else None,
                }
            )
        summaries.append(
            {
                "p": p,
                "gdof_estimate": (
                    estimate_gdof(plan, reliable) if result and p > 1.0 else None
                ),
                "frame_success_rate": frame_rate,
            }
        )
    return SimReport(
        config=config.to_json_dict(),
        channel_seed=config.seed,
        h_matrix=channel.h.tolist(),
        cells=cells,
        layers=layer_rows,
        summaries=summaries,
    )
