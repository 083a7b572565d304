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
cardinality and disjointness checks exact integer comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    kind: str  # "V", "S" or "I"
    first_user: int
    last_user: int
    n: int
    owner: int | None  # receiver k for S and I sets
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


def monomial_set(
    channel: ChannelRealization,
    ell: int,
    n: int,
    max_size: int = DEFAULT_MAX_SET_SIZE,
) -> DimensionSet:
    """The data monomial set V of layer ell: all cross-link monomials among
    users [ell, K] with exponents in [0, n-1], lexicographic order."""
    k = channel.k_users
    if not 1 <= ell <= k - 2:
        raise ValueError(f"alignment layers are 1..{k - 2}, got {ell}")
    n_dims, _ = alignment_dims(k - ell + 1, n)
    if n_dims > max_size:
        raise EnumerationCapError(f"V set for layer {ell}", n_dims, max_size)
    codes, values = _enumerate_monomials(channel, ell, k, n, {})
    assert len(codes) == n_dims
    return DimensionSet(
        kind="V",
        first_user=ell,
        last_user=k,
        n=n,
        owner=None,
        pair_order=_pair_grid(ell, k),
        codes=codes,
        values=values,
    )


def interference_set(
    channel: ChannelRealization,
    k: int,
    ell: int,
    n: int,
    max_size: int = DEFAULT_MAX_SET_SIZE,
) -> DimensionSet:
    """The aligned interference monomials seen by receiver k at layer ell.

    Union of one branch per interferer l (the monomials carrying h_kl^n)
    with V \\ {1}; the union is disjoint by the h_kl exponent, which this
    builder verifies before returning.  Cardinality is exactly M - N.
    """
    kk = channel.k_users
    if not 1 <= ell <= kk - 2:
        raise ValueError(f"alignment layers are 1..{kk - 2}, got {ell}")
    if not ell <= k <= kk:
        raise ValueError(f"receiver {k} is not served by layer {ell}")
    n_dims, m_dims = alignment_dims(kk - ell + 1, n)
    expected = m_dims - n_dims
    if expected > max_size:
        raise EnumerationCapError(f"I set for layer {ell}", expected, max_size)
    parts_codes = []
    parts_values = []
    for l in range(ell, kk + 1):
        if l == k:
            continue
        codes, values = _enumerate_monomials(channel, ell, kk, n, {(k, l): n})
        parts_codes.append(codes)
        parts_values.append(values)
    base = monomial_set(channel, ell, n, max_size=max_size)
    parts_codes.append(base.codes[1:])  # drop the all-ones monomial (code 0)
    parts_values.append(base.values[1:])
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
    return DimensionSet(
        kind="I",
        first_user=ell,
        last_user=kk,
        n=n,
        owner=k,
        pair_order=base.pair_order,
        codes=codes,
        values=values,
    )


def desired_set(
    channel: ChannelRealization,
    k: int,
    ell: int,
    n: int,
    max_size: int = DEFAULT_MAX_SET_SIZE,
) -> DimensionSet:
    """The desired-signal monomials h_kk * V at receiver k, layer ell."""
    kk = channel.k_users
    if not ell <= k <= kk:
        raise ValueError(f"receiver {k} is not served by layer {ell}")
    base = monomial_set(channel, ell, n, max_size=max_size)
    num = len(base.pair_order)
    diag_pos = base.pair_order.index((k, k))
    place = (n + 1) ** (num - 1 - diag_pos)
    codes = base.codes + np.int64(place)
    values = base.values * channel.coeff(k, k)
    return DimensionSet(
        kind="S",
        first_user=ell,
        last_user=kk,
        n=n,
        owner=k,
        pair_order=base.pair_order,
        codes=codes,
        values=values,
    )


# ---------------------------------------------------------------------------
# PAM constellation and transmit configuration


@dataclass(frozen=True)
class Constellation:
    """PAM point set {xi * a : a integer, |a| <= q}."""

    xi: float
    q: int

    def points(self) -> np.ndarray:
        return self.xi * np.arange(-self.q, self.q + 1)

    def average_power(self) -> float:
        return self.xi**2 * self.q * (self.q + 1) / 3.0

    def draw_integers(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.integers(-self.q, self.q + 1, size=size)


def beam_values(channel: ChannelRealization, plan: LayerPlan, ell: int) -> np.ndarray:
    """Beam vector shared by every transmitter of layer ell."""
    if ell <= plan.k_users - 2:
        return monomial_set(channel, ell, plan.n).values
    return np.ones(1)


def power_normalizer(
    channel: ChannelRealization, plan: LayerPlan
) -> tuple[float, float]:
    """(eta, gamma): worst-case beam energy and the matched symbol scale.

    eta is the largest, over users k, of the summed squared beam entries of
    the active layers user k transmits in; gamma = 1 / sqrt(eta) makes the
    analytic transmit power of every user at most 1.
    """
    k = plan.k_users
    weights = []
    for ell in range(1, k + 1):
        lay = plan.layer(ell)
        if not lay.active:
            weights.append(0.0)
            continue
        v = beam_values(channel, plan, ell)
        weights.append(float(np.sum(v**2)))
    eta = max(sum(weights[:kk]) for kk in range(1, k + 1))
    return eta, 1.0 / math.sqrt(eta)


@dataclass(frozen=True, eq=False)
class TransmitLayer:
    index: int
    power_offset: Fraction
    power_factor: float  # P^{-power_offset / 2}
    beam: np.ndarray
    constellation: Constellation
    active: bool


@dataclass(frozen=True, eq=False)
class TransmitConfig:
    """Everything transmitter k needs: one beamed PAM block per layer <= k."""

    user: int
    gamma: float
    layers: tuple[TransmitLayer, ...]


def build_transmit_config(
    channel: ChannelRealization,
    plan: LayerPlan,
    k: int,
    gamma: float | None = None,
) -> TransmitConfig:
    if not 1 <= k <= plan.k_users:
        raise ValueError(f"user {k} out of range")
    if gamma is None:
        _, gamma = power_normalizer(channel, plan)
    layers = []
    for ell in range(1, k + 1):
        lay = plan.layer(ell)
        layers.append(
            TransmitLayer(
                index=ell,
                power_offset=lay.power_offset,
                power_factor=plan.p ** (-float(lay.power_offset) / 2),
                beam=beam_values(channel, plan, ell),
                constellation=Constellation(xi=gamma / lay.q_level, q=lay.q_level),
                active=lay.active,
            )
        )
    return TransmitConfig(user=k, gamma=gamma, layers=tuple(layers))


def transmit_signal(config: TransmitConfig, symbols: dict[int, np.ndarray]) -> float:
    """x_k for one symbol assignment: integer PAM indices per layer index."""
    x = 0.0
    for lay in config.layers:
        if not lay.active:
            continue
        q = np.asarray(symbols[lay.index])
        x += lay.power_factor * float(lay.beam @ (lay.constellation.xi * q))
    return x


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
