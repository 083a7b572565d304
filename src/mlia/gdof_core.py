"""Exact sum-GDoF arithmetic for the K-user asymmetric interference channel.

The channel is described by sorted link-strength exponents
0 < a_1 <= a_2 <= ... <= a_K <= 1 (receiver k sees all its links scaled by
sqrt(P^a_k)).  The optimal sum GDoF has the closed form

    d_sum = (a_1 + ... + a_K + a_K - a_{K-1}) / 2.

This module certifies that closed form from the outer-bound side and
evaluates the matching inner bound:

* ``make_weighted_bound`` instantiates the weighted inequality

      sum_j 2^{J-j+1} d_{l_j} + d_{l_{J+1}} + d_{l_{J+2}}
          <= sum_j 2^{J-j} a_{l_j} + a_{l_{J+2}}

  for any strictly increasing user subset l_1 < ... < l_{J+2}.  A bound is
  stored as a sparse row: its nonzero (user, weight) pairs on each side, so
  it costs O(J) whatever K is; ``lhs_weights`` and ``rhs_weights`` are
  dense views built on demand for the writers.

* ``converse_family`` generates the family of 2^ceil(log2(K/2)) such
  inequalities whose per-user weight columns sum to fixed totals, so the
  family average collapses to the closed form above.  ``certify_family``
  checks that identity exactly, and checks every bound twice more: it has
  the paper's weight structure, and it holds with equality at the scheme's
  per-user point d* = (a_1/2, ..., a_{K-1}/2, a_K - a_{K-1}/2), which joins
  outer and inner bound user by user.

* ``achievable_gdof`` evaluates the rate of the layered alignment scheme at
  a finite monomial-exponent range ``n``; its n -> infinity limit equals the
  optimal sum GDoF.

Everything here is exact: inputs are ``fractions.Fraction``, weights are
ints, and no floating point is used.  Weighted sums of exponents are
integer sums of numerators over the lcm D of the alpha denominators
(``AlphaProfile.integer_form``), divided by D once at the end, so
generating and certifying the family costs O(K + nonzero weights).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence


class CertificationError(Exception):
    """A bound family failed its exact structural / identity checks."""


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"``, decimal or integer strings into an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Canonical string form, ``"5/4"`` or ``"2"`` for whole numbers."""
    return str(value)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        # Floats are accepted for convenience but converted through their
        # shortest decimal repr so 0.8 means 4/5, not its binary neighbour.
        return Fraction(repr(value))
    raise ValueError(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True)
class AlphaProfile:
    """Sorted link-strength exponents, one per receiver (1-based users)."""

    alphas: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.alphas) < 2:
            raise ValueError("need at least 2 users")
        if any(not isinstance(a, Fraction) for a in self.alphas):
            object.__setattr__(
                self, "alphas", tuple(_as_fraction(a) for a in self.alphas)
            )
        if self.alphas[0] <= 0:
            raise ValueError("link strengths must be positive")
        if self.alphas[-1] > 1:
            raise ValueError("link strengths must be at most 1")
        if any(a > b for a, b in zip(self.alphas, self.alphas[1:])):
            raise ValueError("link strengths must be sorted ascending")

    @classmethod
    def parse(cls, items: Iterable) -> "AlphaProfile":
        return cls(tuple(_as_fraction(a) for a in items))

    @property
    def k_users(self) -> int:
        return len(self.alphas)

    def alpha(self, k: int) -> Fraction:
        """1-based accessor with the virtual entry a_0 = 0."""
        if k == 0:
            return Fraction(0)
        if not 1 <= k <= self.k_users:
            raise ValueError(f"user index {k} out of range [1, {self.k_users}]")
        return self.alphas[k - 1]

    @cached_property
    def integer_form(self) -> tuple[int, tuple[int, ...]]:
        """(D, (a_1 D, ..., a_K D)): the lcm D of the denominators and each
        exponent's numerator over it."""
        d = math.lcm(*(a.denominator for a in self.alphas))
        return d, tuple(a.numerator * (d // a.denominator) for a in self.alphas)


Pairs = tuple[tuple[int, int], ...]


def _dense(k_users: int, pairs: Pairs) -> list[int]:
    weights = [0] * k_users
    for user, weight in pairs:
        weights[user - 1] = weight
    return weights


@dataclass(frozen=True)
class WeightedBound:
    """One inequality sum_k lhs[k] d_k <= sum_k rhs[k] a_k (= rhs_value)
    on ``k_users`` users, stored as the nonzero (user, weight) pairs of
    each side on increasing users."""

    k_users: int
    lhs: Pairs
    rhs: Pairs
    rhs_value: Fraction

    @property
    def lhs_weights(self) -> tuple[int, ...]:
        """Dense left weights, one per user, built on each access."""
        return tuple(_dense(self.k_users, self.lhs))

    @property
    def rhs_weights(self) -> tuple[int, ...]:
        """Dense right weights, one per user, built on each access."""
        return tuple(_dense(self.k_users, self.rhs))

    def to_json_dict(self) -> dict:
        return {
            "lhs": _dense(self.k_users, self.lhs),
            "rhs": _dense(self.k_users, self.rhs),
            "rhs_value": format_rational(self.rhs_value),
        }


@dataclass(frozen=True)
class BoundFamily:
    """The full set of 2^jl inequalities whose average is the optimum."""

    bounds: tuple[WeightedBound, ...]
    jl: int

    def __len__(self) -> int:
        return len(self.bounds)


def family_size_exponent(k_users: int) -> int:
    """ceil(log2(K/2)): the number of geometric weight levels for K users."""
    if k_users < 3:
        raise ValueError("the bound family is defined for K >= 3")
    return (k_users - 1).bit_length() - 1


def optimal_sum_gdof(alpha: AlphaProfile) -> Fraction:
    """(sum_k a_k + a_K - a_{K-1}) / 2, exactly."""
    d, nums = alpha.integer_form
    return Fraction(sum(nums) + nums[-1] - nums[-2], 2 * d)


def _weighted_sum(values: tuple[int, ...], pairs: Pairs) -> int:
    """sum of weight * values[user - 1] over the (user, weight) pairs; with
    the numerators of ``integer_form``, a side's exponent sum times D."""
    return sum(weight * values[user - 1] for user, weight in pairs)


def make_weighted_bound(
    alpha: AlphaProfile, subset: Sequence[int], j_depth: int
) -> WeightedBound:
    """Weighted inequality on the users ``subset`` = (l_1, ..., l_{J+2}).

    The first ``j_depth`` users carry the geometric left weights
    2^J, 2^{J-1}, ..., 2 and right weights 2^{J-1}, ..., 1; the last two
    users carry left weight 1 each, and only the last contributes its
    exponent on the right.
    """
    k = alpha.k_users
    j = j_depth
    if j < 1:
        raise ValueError("geometric depth J must be >= 1")
    if j > family_size_exponent(k):
        raise ValueError(f"geometric depth J={j} exceeds ceil(log2(K/2)) for K={k}")
    subset = tuple(subset)
    if len(subset) != j + 2:
        raise ValueError(f"subset must list J+2 = {j + 2} users, got {len(subset)}")
    if any(not 1 <= u <= k for u in subset):
        raise ValueError(f"subset {subset} has users outside [1, {k}]")
    if any(a >= b for a, b in zip(subset, subset[1:])):
        raise ValueError(f"subset {subset} must be strictly increasing")

    lhs = [(user, 1 << (j - pos)) for pos, user in enumerate(subset[:j])]
    rhs = [(user, weight >> 1) for user, weight in lhs]
    lhs += [(subset[j], 1), (subset[j + 1], 1)]
    rhs.append((subset[j + 1], 1))
    d, nums = alpha.integer_form
    value = Fraction(_weighted_sum(nums, rhs), d)
    return WeightedBound(k, tuple(lhs), tuple(rhs), value)


def make_pair_bound(alpha: AlphaProfile, i: int, j: int) -> WeightedBound:
    """The two-user inequality d_i + d_j <= a_j for i < j."""
    k = alpha.k_users
    if not 1 <= i < j <= k:
        raise ValueError(f"need 1 <= i < j <= {k}, got ({i}, {j})")
    rhs = ((j, 1),)
    d, nums = alpha.integer_form
    value = Fraction(_weighted_sum(nums, rhs), d)
    return WeightedBound(k, ((i, 1), (j, 1)), rhs, value)


def _geometric_indices(k_users: int, jl: int, ell: int) -> list[int]:
    """Surviving users of the weight-2^{jl-j} terms of the ell-th bound.

    For ell in the first half the index at level j is
    ceil(ell / 2^j) + (2^jl - 2^{jl-j}); in the second half the same
    expression is shifted by K - 1 - 2^jl and erased whenever it falls
    below 2^jl.  Erased levels are dropped entirely (their weight moves to
    no user).
    """
    half = 1 << (jl - 1)
    indices: list[int] = []
    for j in range(jl):
        prefix = (1 << jl) - (1 << (jl - j))
        if ell <= half:
            idx = ((ell + (1 << j) - 1) >> j) + prefix
        else:
            m = ell - half
            idx = k_users - 1 - (1 << jl) + ((m + (1 << j) - 1) >> j) + prefix
            if idx < (1 << jl):
                # erased level: legal only while no lighter level survived yet,
                # so that surviving weights stay a geometric run 2^J, ..., 2
                if indices:
                    raise CertificationError(
                        f"non-contiguous erasure pattern in bound {ell} "
                        f"for K={k_users}"
                    )
                continue
        indices.append(idx)
    if any(a >= b for a, b in zip(indices, indices[1:])):
        raise CertificationError(
            f"duplicate or unsorted users {indices} in bound {ell} for K={k_users}"
        )
    if indices and indices[-1] >= k_users - 1:
        raise CertificationError(
            f"geometric user {indices[-1]} collides with the fixed pair for K={k_users}"
        )
    return indices


def converse_family(alpha: AlphaProfile) -> BoundFamily:
    """All 2^jl weighted bounds whose exact average is the optimal sum GDoF.

    Every bound carries d_{K-1} + d_K on the left and a_K on the right; the
    geometric part of the ell-th bound follows the index schedule of
    ``_geometric_indices``.  Bounds whose geometric part is fully erased
    degenerate to the pair bound d_{K-1} + d_K <= a_K.
    """
    k = alpha.k_users
    jl = family_size_exponent(k)
    bounds = []
    for ell in range(1, (1 << jl) + 1):
        users = _geometric_indices(k, jl, ell)
        if users:
            bounds.append(make_weighted_bound(alpha, users + [k - 1, k], len(users)))
        else:
            bounds.append(make_pair_bound(alpha, k - 1, k))
    return BoundFamily(tuple(bounds), jl)


def _check_bound(k: int, index: int, bound: WeightedBound, d: int,
                 nums: tuple[int, ...], d_star: tuple[int, ...]) -> int:
    """Check one bound of a K-user family; return its right side times D.

    ``d_star`` is the scheme's per-user point times 2D.  The structure
    check implies tightness at d*; tightness is checked first because it
    is the certificate itself, and the structure check catches what it
    cannot see, such as a weight moved between users of equal exponent.
    """
    where = f"bound {index}"
    if bound.k_users != k:
        raise CertificationError(f"{where} is a row over {bound.k_users} users, not {k}")
    for pairs in (bound.lhs, bound.rhs):
        users = [0, *(user for user, _ in pairs), k + 1]
        if any(a >= b for a, b in zip(users, users[1:])):
            raise CertificationError(
                f"{where} is not a row on strictly increasing users 1..{k}"
            )
    value = _weighted_sum(nums, bound.rhs)
    stored = bound.rhs_value
    if value * stored.denominator != stored.numerator * d:
        raise CertificationError(
            f"{where}: stored rhs value {stored} != recomputed {Fraction(value, d)}"
        )
    if _weighted_sum(d_star, bound.lhs) != 2 * value:
        raise CertificationError(
            f"{where} is not tight at d* = (a_1/2, ..., a_{{K-1}}/2, a_K - a_{{K-1}}/2)"
        )
    geometric = bound.lhs[:-2]
    depth = len(geometric)
    if (
        bound.lhs[-2:] != ((k - 1, 1), (k, 1))
        or [w for _, w in geometric] != [1 << (depth - i) for i in range(depth)]
        or bound.rhs != tuple((u, w >> 1) for u, w in geometric) + ((k, 1),)
    ):
        raise CertificationError(
            f"{where} lacks the weights 2^J, ..., 2, 1, 1 on the left and "
            f"2^(J-1), ..., 1, 0, 1 on the right"
        )
    return value


def certify_family(alpha: AlphaProfile, family: BoundFamily) -> Fraction:
    """Exact check that the family averages to the optimal sum GDoF.

    Checks every bound (``_check_bound``): a sparse row on strictly
    increasing users, its stored right-hand value, equality at the
    scheme's point d* = (a_1/2, ..., a_{K-1}/2, a_K - a_{K-1}/2), and the
    paper's weight structure.  Then checks the fixed column sums (left
    weight 2^jl on every user; right weight 2^{jl-1} on users 1..K-2, zero
    on user K-1 and 2^jl on user K) and returns the family average, which
    must equal ``optimal_sum_gdof`` exactly.  All sums are integers over
    the profile's ``integer_form``, so this costs O(K + nonzero weights).
    """
    k = alpha.k_users
    jl = family.jl
    if jl < 1 or jl != family_size_exponent(k):
        raise CertificationError(f"family exponent {jl} does not fit K={k}")
    if len(family.bounds) != 1 << jl:
        raise CertificationError(
            f"family has {len(family.bounds)} bounds, expected {1 << jl}"
        )
    d, nums = alpha.integer_form
    d_star = nums[:-1] + (2 * nums[-1] - nums[-2],)
    lhs_cols = [0] * k
    rhs_cols = [0] * k
    total = 0
    for index, bound in enumerate(family.bounds, start=1):
        total += _check_bound(k, index, bound, d, nums, d_star)
        for user, weight in bound.lhs:
            lhs_cols[user - 1] += weight
        for user, weight in bound.rhs:
            rhs_cols[user - 1] += weight
    if lhs_cols != [1 << jl] * k:
        raise CertificationError(f"left column sums {lhs_cols} != {1 << jl}")
    expected_rhs = [1 << (jl - 1)] * (k - 2) + [0, 1 << jl]
    if rhs_cols != expected_rhs:
        raise CertificationError(f"right column sums {rhs_cols} != {expected_rhs}")
    average = Fraction(total, d << jl)
    if average != optimal_sum_gdof(alpha):
        raise CertificationError(
            f"family average {average} != optimum {optimal_sum_gdof(alpha)}"
        )
    return average


def alignment_dims(k_layer: int, n: int) -> tuple[int, int]:
    """(N, M) monomial counts for an alignment layer serving k_layer users.

    N = n^{k(k-1)} cross-link monomials carry data; the aligned receive
    space adds (k-1) n^{k(k-1)-1} - 1 interference-only monomials, so
    M = 2N + (k-1) n^{k(k-1)-1} - 1.
    """
    if k_layer < 3:
        raise ValueError("alignment layers serve at least 3 users")
    if n < 1:
        raise ValueError("monomial exponent range n must be >= 1")
    g = k_layer * (k_layer - 1)
    n_dims = n**g
    m_dims = 2 * n_dims + (k_layer - 1) * n ** (g - 1) - 1
    return n_dims, m_dims


def achievable_gdof(alpha: AlphaProfile, n: int) -> Fraction:
    """Sum GDoF of the layered scheme at finite exponent range n, exactly.

    Layer ell <= K-2 contributes (K-ell+1)(a_ell - a_{ell-1}) N/M; the last
    two layers contribute their exponent increments outright.  Layers with
    a_ell = a_{ell-1} contribute zero.
    """
    if n < 1:
        raise ValueError("monomial exponent range n must be >= 1")
    k = alpha.k_users
    total = Fraction(0)
    for ell in range(1, k - 1):
        n_dims, m_dims = alignment_dims(k - ell + 1, n)
        total += (k - ell + 1) * (alpha.alpha(ell) - alpha.alpha(ell - 1)) * Fraction(
            n_dims, m_dims
        )
    total += alpha.alpha(k - 1) - alpha.alpha(k - 2)
    total += alpha.alpha(k) - alpha.alpha(k - 1)
    return total


def achievable_gdof_limit(alpha: AlphaProfile) -> Fraction:
    """n -> infinity limit of ``achievable_gdof`` (each N/M ratio -> 1/2)."""
    k = alpha.k_users
    total = Fraction(0)
    for ell in range(1, k - 1):
        total += Fraction(k - ell + 1, 2) * (alpha.alpha(ell) - alpha.alpha(ell - 1))
    total += alpha.alpha(k - 1) - alpha.alpha(k - 2)
    total += alpha.alpha(k) - alpha.alpha(k - 1)
    return total
