"""Construction of the multi-layer interference-alignment transmitter.

The scheme stacks K layers at decreasing power levels.  Layer ell serves
users ell..K; its signals ride on beam vectors whose entries are the
monomials

    V = { prod h_ij^{b_ij} : b_ij in [0, n-1] }   over the cross links
                                                  i != j, i, j in [ell, K],

so that at every receiver the interference collapses onto the shared
monomial set while the desired signal occupies h_kk * V.  Each scalar
symbol is PAM with spacing chosen so the layer spends exactly its exponent
budget a_ell - a_{ell-1}.  The last two layers are plain single-symbol PAM
(two users, then one).

Monomials are tracked by their integer exponent matrices, encoded as
base-(n+1) digit strings over the (i, j) pair grid, which makes set
cardinality and disjointness checks exact integer comparisons.  None of
these sets depends on P: ``build_geometry`` holds them for one (channel, n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .channel import ChannelRealization
from .gdof_core import AlphaProfile, alignment_dims

DEFAULT_MAX_SET_SIZE = 1 << 23


def _format_count(value: int) -> str:
    """Decimal string for small counts, order of magnitude for huge ones."""
    if value < 10**18:
        return str(value)
    return f"about 10^{(value.bit_length() - 1) * 30103 // 100000}"


class EnumerationCapError(Exception):
    """An exhaustive enumeration would exceed its configured cap.

    ``size`` is None for a count too large to build exactly; its base-10
    logarithm ``log10_size`` names it instead.
    """

    def __init__(
        self, what: str, size: int | None, cap: int, log10_size: float | None = None
    ):
        shown = (
            _format_count(size) if size is not None
            else f"about 10^{math.floor(log10_size)}"
        )
        super().__init__(
            f"{what}: enumeration size {shown} exceeds cap {_format_count(cap)}"
        )
        self.size = size
        self.cap = cap


class DimensionCollisionError(Exception):
    """Two supposedly distinct monomials share an exponent matrix."""


# ---------------------------------------------------------------------------
# layer parameters


@dataclass(frozen=True)
class Layer:
    """Per-layer scheme parameters (1-based layer index)."""

    index: int
    k_users: int  # number of users served: K - index + 1
    n_dims: int  # data monomials per user
    m_dims: int | None  # receive-space size; None for the last two layers
    lam: Fraction  # GDoF carried by each scalar symbol
    q_level: int  # PAM level count parameter Q
    power_offset: Fraction  # transmit scaling exponent a_{index-1}
    active: bool


@dataclass(frozen=True)
class LayerPlan:
    """All deterministic layer parameters for a given (alpha, n, eps, P)."""

    alpha: AlphaProfile
    n: int
    eps: Fraction
    p: float
    layers: tuple[Layer, ...]

    @property
    def k_users(self) -> int:
        return self.alpha.k_users

    def layer(self, ell: int) -> Layer:
        return self.layers[ell - 1]

    def to_json_dict(self) -> dict:
        return {
            "alphas": [str(a) for a in self.alpha.alphas],
            "n": self.n,
            "eps": str(self.eps),
            "p": self.p,
            "layers": [
                {
                    "layer": lay.index,
                    "users": lay.k_users,
                    "n_dims": lay.n_dims,
                    "m_dims": lay.m_dims,
                    "lambda": str(lay.lam),
                    "q": lay.q_level,
                    "power_offset": str(lay.power_offset),
                    "active": lay.active,
                }
                for lay in self.layers
            ],
        }


def pre_eps_lambda(alpha: AlphaProfile, n: int, ell: int) -> Fraction:
    """Per-symbol GDoF budget of layer ell before the eps back-off."""
    k = alpha.k_users
    step = alpha.alpha(ell) - alpha.alpha(ell - 1)
    if ell <= k - 2:
        _, m_dims = alignment_dims(k - ell + 1, n)
        return step / m_dims
    return step / (k - ell + 1)


def default_eps(alpha: AlphaProfile, n: int) -> Fraction:
    """A tenth of the smallest active per-symbol budget."""
    budgets = [
        pre_eps_lambda(alpha, n, ell)
        for ell in range(1, alpha.k_users + 1)
        if alpha.alpha(ell) > alpha.alpha(ell - 1)
    ]
    return min(budgets) / 10


def build_layer_plan(
    alpha: AlphaProfile, n: int, eps: Fraction | None = None, p: float = 1.0
) -> LayerPlan:
    """Lay out every layer of the scheme for nominal power ``p``.

    Layers whose exponent step is zero are kept in place but flagged
    inactive (their signal is identically zero).  ``eps`` must leave every
    active layer a positive per-symbol budget; by default it is a tenth of
    the smallest one.
    """
    if n < 1:
        raise ValueError("monomial exponent range n must be >= 1")
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"nominal power P must be finite and >= 1, got {p}")
    if eps is None:
        eps = default_eps(alpha, n)
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    k = alpha.k_users
    layers = []
    for ell in range(1, k + 1):
        active = alpha.alpha(ell) > alpha.alpha(ell - 1)
        if ell <= k - 2:
            n_dims, m_dims = alignment_dims(k - ell + 1, n)
        else:
            n_dims, m_dims = 1, None
        lam = pre_eps_lambda(alpha, n, ell) - eps
        if active and lam <= 0:
            raise ValueError(
                f"eps={eps} leaves layer {ell} no symbol budget "
                f"(pre-eps value {pre_eps_lambda(alpha, n, ell)})"
            )
        q_level = max(1, math.floor(p ** (float(lam) / 2))) if active else 1
        layers.append(
            Layer(
                index=ell,
                k_users=k - ell + 1,
                n_dims=n_dims,
                m_dims=m_dims,
                lam=lam,
                q_level=q_level,
                power_offset=alpha.alpha(ell - 1),
                active=active,
            )
        )
    return LayerPlan(alpha=alpha, n=n, eps=eps, p=float(p), layers=tuple(layers))


# ---------------------------------------------------------------------------
# monomial dimension sets


@dataclass(frozen=True, eq=False)
class DimensionSet:
    """An ordered set of channel-coefficient monomials.

    ``codes`` encodes each exponent matrix as a base-(n+1) digit string
    over ``pair_order`` (row-major (i, j) grid over users first..last,
    diagonals included); ``values`` holds the evaluated monomials in the
    same order.  V and S sets are in ascending-code order, which is the
    lexicographic order of the flattened exponent matrix; I sets are sorted
    the same way after merging their branches.
    """

    n: int
    pair_order: tuple[tuple[int, int], ...]
    codes: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)

    def exponent_rows(self) -> np.ndarray:
        """Decode codes into an (count, num_pairs) integer exponent table."""
        base = self.n + 1
        num = len(self.pair_order)
        places = base ** np.arange(num - 1, -1, -1, dtype=np.int64)
        return (self.codes[:, None] // places[None, :]) % base

    def place(self, pair: tuple[int, int]) -> np.int64:
        """Code increment of one more power of the coefficient h_pair."""
        digits_after = len(self.pair_order) - 1 - self.pair_order.index(pair)
        return np.int64((self.n + 1) ** digits_after)


def _pair_grid(first: int, last: int) -> tuple[tuple[int, int], ...]:
    return tuple(
        (i, j) for i in range(first, last + 1) for j in range(first, last + 1)
    )


def _check_code_width(base: int, num_pairs: int):
    if base**num_pairs > 1 << 62:
        raise EnumerationCapError(
            "monomial code width", base**num_pairs, 1 << 62
        )


def _enumerate_monomials(
    channel: ChannelRealization,
    first: int,
    last: int,
    n: int,
    fixed: dict[tuple[int, int], int],
) -> tuple[np.ndarray, np.ndarray]:
    """Codes and values of all monomials with free cross exponents in
    [0, n-1] and the given fixed digits, in ascending-code order."""
    base = n + 1
    pairs = _pair_grid(first, last)
    _check_code_width(base, len(pairs))
    codes = np.zeros(1, dtype=np.int64)
    values = np.ones(1)
    free_digits = np.arange(n, dtype=np.int64)
    for i, j in pairs:
        if i == j or (i, j) in fixed:
            digit = fixed.get((i, j), 0)
            codes = codes * base + digit
            if digit:
                values = values * channel.coeff(i, j) ** digit
        else:
            powers = channel.coeff(i, j) ** np.arange(n)
            codes = (codes[:, None] * base + free_digits[None, :]).ravel()
            values = (values[:, None] * powers[None, :]).ravel()
    return codes, values


def monomial_set(channel: ChannelRealization, ell: int, n: int) -> DimensionSet:
    """The data monomial set V of layer ell: all cross-link monomials among
    users [ell, K] with exponents in [0, n-1], lexicographic order."""
    k = channel.k_users
    if not 1 <= ell <= k - 2:
        raise ValueError(f"alignment layers are 1..{k - 2}, got {ell}")
    n_dims, _ = alignment_dims(k - ell + 1, n)
    if n_dims > DEFAULT_MAX_SET_SIZE:
        raise EnumerationCapError(f"V set for layer {ell}", n_dims, DEFAULT_MAX_SET_SIZE)
    codes, values = _enumerate_monomials(channel, ell, k, n, {})
    assert len(codes) == n_dims
    return DimensionSet(n=n, pair_order=_pair_grid(ell, k), codes=codes, values=values)


def _check_receiver(v_set: DimensionSet, k: int) -> tuple[int, int]:
    """(ell, K) of the layer that V belongs to, after checking receiver k."""
    ell, kk = v_set.pair_order[0][0], v_set.pair_order[-1][0]
    if not ell <= k <= kk:
        raise ValueError(f"receiver {k} is not served by layer {ell}")
    return ell, kk


def interference_set(
    channel: ChannelRealization, v_set: DimensionSet, k: int
) -> DimensionSet:
    """The aligned interference monomials seen by receiver k at the layer
    of the data set ``v_set``.

    Union of one branch per interferer l (the monomials carrying h_kl^n)
    with V \\ {1}; the union is disjoint by the h_kl exponent, which this
    builder verifies before returning.  Cardinality is exactly M - N.
    """
    ell, kk = _check_receiver(v_set, k)
    n = v_set.n
    n_dims, m_dims = alignment_dims(kk - ell + 1, n)
    expected = m_dims - n_dims
    if expected > DEFAULT_MAX_SET_SIZE:
        raise EnumerationCapError(f"I set for layer {ell}", expected, DEFAULT_MAX_SET_SIZE)
    parts_codes = []
    parts_values = []
    for l in range(ell, kk + 1):
        if l == k:
            continue
        codes, values = _enumerate_monomials(channel, ell, kk, n, {(k, l): n})
        parts_codes.append(codes)
        parts_values.append(values)
    parts_codes.append(v_set.codes[1:])  # drop the all-ones monomial (code 0)
    parts_values.append(v_set.values[1:])
    codes = np.concatenate(parts_codes)
    values = np.concatenate(parts_values)
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    values = values[order]
    if len(codes) != expected or np.any(np.diff(codes) == 0):
        raise DimensionCollisionError(
            f"interference set for (k={k}, layer={ell}) has "
            f"{len(codes)} entries with collisions; expected {expected} distinct"
        )
    return DimensionSet(n=n, pair_order=v_set.pair_order, codes=codes, values=values)


def desired_set(channel: ChannelRealization, v_set: DimensionSet, k: int) -> DimensionSet:
    """The desired-signal monomials h_kk * V at receiver k."""
    _check_receiver(v_set, k)
    return DimensionSet(
        n=v_set.n,
        pair_order=v_set.pair_order,
        codes=v_set.codes + v_set.place((k, k)),
        values=v_set.values * channel.coeff(k, k),
    )


# ---------------------------------------------------------------------------
# the P-independent scheme geometry


@dataclass(frozen=True, eq=False)
class CellSets:
    """The dimension sets of one alignment cell (receiver k, layer ell)."""

    s_set: DimensionSet
    i_set: DimensionSet
    scatter: dict[int, np.ndarray]  # transmitter j -> positions of h_kj * V in I


@dataclass(eq=False)
class SchemeGeometry:
    """The beam geometry of the scheme for one (channel, n); it does not
    depend on P.

    V is built for every alignment layer up front, since every transmitter
    needs its beams.  A cell's S, I and scatter map are built on first use
    and kept: most callers need only the beams, and the sets of all cells
    can be several times the size of V.
    """

    channel: ChannelRealization
    n: int
    v_sets: dict[int, DimensionSet]
    _cells: dict[tuple[int, int], CellSets] = field(default_factory=dict, init=False)

    def v_set(self, ell: int) -> DimensionSet:
        if ell not in self.v_sets:
            raise ValueError(
                f"alignment layers are 1..{self.channel.k_users - 2}, got {ell}"
            )
        return self.v_sets[ell]

    def beam(self, ell: int) -> np.ndarray:
        """Beam vector shared by every transmitter of layer ell."""
        v_set = self.v_sets.get(ell)
        return np.ones(1) if v_set is None else v_set.values

    def cell(self, k: int, ell: int) -> CellSets:
        """S, I and the scatter map of the alignment cell (k, ell)."""
        sets = self._cells.get((k, ell))
        if sets is None:
            v_set = self.v_set(ell)
            i_set = interference_set(self.channel, v_set, k)
            scatter = {}
            for j in range(ell, self.channel.k_users + 1):
                if j == k:
                    continue
                codes = v_set.codes + v_set.place((k, j))
                pos = np.searchsorted(i_set.codes, codes)
                assert np.array_equal(i_set.codes[pos], codes)
                scatter[j] = pos
            sets = CellSets(desired_set(self.channel, v_set, k), i_set, scatter)
            self._cells[(k, ell)] = sets
        return sets


def build_geometry(channel: ChannelRealization, n: int) -> SchemeGeometry:
    """The geometry of (channel, n), with V built for every alignment layer.

    This is the one place that checks the beams stay finite: extreme h
    ranges at large n overflow the monomial products.
    """
    v_sets = {}
    with np.errstate(over="ignore"):
        for ell in range(1, channel.k_users - 1):
            v_sets[ell] = monomial_set(channel, ell, n)
            # a finite beam energy implies finite beam values
            if not np.isfinite(np.sum(v_sets[ell].values ** 2)):
                raise ValueError(
                    f"channel coefficients h in [{channel.h_min}, {channel.h_max}] "
                    f"overflow the layer-{ell} beam energy at n={n}"
                )
    return SchemeGeometry(channel=channel, n=n, v_sets=v_sets)


# ---------------------------------------------------------------------------
# PAM constellation and transmit configuration


@dataclass(frozen=True)
class Constellation:
    """PAM point set {xi * a : a integer, |a| <= q}."""

    xi: float
    q: int

    def average_power(self) -> float:
        return self.xi**2 * self.q * (self.q + 1) / 3.0

    def draw_integers(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.integers(-self.q, self.q + 1, size=size)


def power_normalizer(geometry: SchemeGeometry, plan: LayerPlan) -> tuple[float, float]:
    """(eta, gamma): worst-case beam energy and the matched symbol scale.

    eta is the largest, over users k, of the summed squared beam entries of
    the active layers user k transmits in; gamma = 1 / sqrt(eta) makes the
    analytic transmit power of every user at most 1.
    """
    k = plan.k_users
    weights = [
        float(np.sum(geometry.beam(ell) ** 2)) if plan.layer(ell).active else 0.0
        for ell in range(1, k + 1)
    ]
    eta = max(sum(weights[:kk]) for kk in range(1, k + 1))
    return eta, 1.0 / math.sqrt(eta)


@dataclass(frozen=True, eq=False)
class TransmitLayer:
    index: int
    power_factor: float  # P^{-a_{index-1} / 2}
    beam: np.ndarray
    constellation: Constellation
    active: bool


@dataclass(frozen=True, eq=False)
class TransmitConfig:
    """Everything one transmitter needs: one beamed PAM block per layer it
    transmits in."""

    gamma: float
    layers: tuple[TransmitLayer, ...]


def build_transmit_config(
    geometry: SchemeGeometry, plan: LayerPlan, k: int, gamma: float | None = None
) -> TransmitConfig:
    if not 1 <= k <= plan.k_users:
        raise ValueError(f"user {k} out of range")
    if gamma is None:
        _, gamma = power_normalizer(geometry, plan)
    layers = []
    for ell in range(1, k + 1):
        lay = plan.layer(ell)
        layers.append(
            TransmitLayer(
                index=ell,
                power_factor=plan.p ** (-float(lay.power_offset) / 2),
                beam=geometry.beam(ell),
                constellation=Constellation(xi=gamma / lay.q_level, q=lay.q_level),
                active=lay.active,
            )
        )
    return TransmitConfig(gamma=gamma, layers=tuple(layers))


def analytic_power(config: TransmitConfig) -> float:
    """E|x_k|^2 under independent uniform PAM draws."""
    total = 0.0
    for lay in config.layers:
        if not lay.active:
            continue
        total += (
            lay.power_factor**2
            * float(np.sum(lay.beam**2))
            * lay.constellation.average_power()
        )
    return total
