"""Exact-arithmetic checks of the bound machinery.

Expected values were computed independently before being frozen here:
closed-form optima by substituting the profile into
(sum a + a_K - a_{K-1})/2 by hand, bound weights by instantiating the
weight template by hand, and the achievability numbers from the N/M
counting formulas.
"""

from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlia.gdof_core as gdof_core
from conftest import random_profile
from mlia.gdof_core import (
    AlphaProfile,
    CertificationError,
    WeightedBound,
    achievable_gdof,
    achievable_gdof_limit,
    alignment_dims,
    certify_family,
    converse_family,
    family_size_exponent,
    format_rational,
    make_pair_bound,
    make_weighted_bound,
    optimal_sum_gdof,
    parse_rational,
)


def profile(*items):
    return AlphaProfile.parse(items)


# ---------------------------------------------------------------------------
# rationals and profiles


def test_parse_rational_forms():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("0.8") == F(4, 5)  # decimal strings stay exact
    assert parse_rational("1") == 1
    assert format_rational(F(5, 4)) == "5/4"
    assert format_rational(F(2)) == "2"
    with pytest.raises(ValueError):
        parse_rational("abc")


def test_profile_validation():
    with pytest.raises(ValueError):
        profile("0.9", "0.5")  # unsorted
    with pytest.raises(ValueError):
        profile("0", "1")  # not positive
    with pytest.raises(ValueError):
        profile("0.5", "1.5")  # above 1
    with pytest.raises(ValueError):
        profile("1")  # K < 2
    p = profile("0.5", "0.8", "1.0")
    assert p.alpha(0) == 0
    assert p.alpha(3) == 1


# ---------------------------------------------------------------------------
# optimal sum GDoF


def test_optimal_symmetric_full_strength():
    assert optimal_sum_gdof(profile("1", "1", "1", "1")) == 2


def test_optimal_direct_substitution():
    # (0.2 + 0.5 + 0.9 + 0.9 - 0.5) / 2 = 1
    assert optimal_sum_gdof(profile("0.2", "0.5", "0.9")) == 1


def test_optimal_symmetric_scales_linearly():
    rng = np.random.default_rng(0)
    for _ in range(20):
        k = int(rng.integers(2, 12))
        den = int(rng.integers(1, 30))
        c = F(int(rng.integers(1, den + 1)), den)
        alpha = AlphaProfile((c,) * k)
        assert optimal_sum_gdof(alpha) == F(k, 2) * c


def test_optimal_k2_equals_pair_bound_rhs():
    rng = np.random.default_rng(1)
    for _ in range(20):
        alpha = random_profile(rng, 2)
        assert optimal_sum_gdof(alpha) == make_pair_bound(alpha, 1, 2).rhs_value


# ---------------------------------------------------------------------------
# single bounds


def weights(bound: WeightedBound) -> tuple[dict, dict]:
    lhs = {k + 1: w for k, w in enumerate(bound.lhs_weights) if w}
    rhs = {k + 1: w for k, w in enumerate(bound.rhs_weights) if w}
    return lhs, rhs


def test_weighted_bound_k8_listing_row():
    alpha = AlphaProfile(tuple(F(i, 8) for i in range(1, 9)))
    lhs, rhs = weights(make_weighted_bound(alpha, (1, 3, 7, 8), 2))
    assert lhs == {1: 4, 3: 2, 7: 1, 8: 1}
    assert rhs == {1: 2, 3: 1, 8: 1}


def test_weighted_bound_k13_listing_row():
    alpha = AlphaProfile(tuple(F(i, 13) for i in range(1, 14)))
    lhs, rhs = weights(make_weighted_bound(alpha, (8, 10, 11, 12, 13), 3))
    assert lhs == {8: 8, 10: 4, 11: 2, 12: 1, 13: 1}
    assert rhs == {8: 4, 10: 2, 11: 1, 13: 1}


def test_weighted_bound_k3_template():
    alpha = profile("0.5", "0.8", "1.0")
    bound = make_weighted_bound(alpha, (1, 2, 3), 1)
    assert bound.lhs_weights == (2, 1, 1)
    assert bound.rhs_weights == (1, 0, 1)
    assert bound.rhs_value == F(3, 2)


def test_weighted_bound_rejects_bad_input():
    alpha = AlphaProfile(tuple(F(i, 8) for i in range(1, 9)))
    with pytest.raises(ValueError):
        make_weighted_bound(alpha, (1, 3, 7), 2)  # wrong length
    with pytest.raises(ValueError):
        make_weighted_bound(alpha, (3, 1, 7, 8), 2)  # not increasing
    with pytest.raises(ValueError):
        make_weighted_bound(alpha, (1, 2, 3), 0)  # J too small
    with pytest.raises(ValueError):
        make_weighted_bound(alpha, tuple(range(1, 8)), 5)  # J above the cap


def test_pair_bound():
    alpha = AlphaProfile(tuple(F(i, 9) for i in range(1, 10)))
    lhs, rhs = weights(make_pair_bound(alpha, 8, 9))
    assert lhs == {8: 1, 9: 1} and rhs == {9: 1}
    two = profile("0.3", "0.7")
    assert make_pair_bound(two, 1, 2).rhs_value == F(7, 10)
    five = random_profile(np.random.default_rng(2), 5)
    lhs, rhs = weights(make_pair_bound(five, 2, 4))
    assert lhs == {2: 1, 4: 1} and rhs == {4: 1}
    with pytest.raises(ValueError):
        make_pair_bound(five, 4, 2)


# ---------------------------------------------------------------------------
# the family


def test_family_k3():
    alpha = profile("0.5", "0.8", "1.0")
    family = converse_family(alpha)
    assert family.jl == 1 and len(family) == 2
    assert weights(family.bounds[0]) == ({1: 2, 2: 1, 3: 1}, {1: 1, 3: 1})
    assert weights(family.bounds[1]) == ({2: 1, 3: 1}, {3: 1})
    # the two-bound average is the closed form
    assert certify_family(alpha, family) == F(5, 4)


def test_family_rejects_k2():
    with pytest.raises(ValueError):
        converse_family(profile("0.3", "0.7"))


def test_family_bounds_match_bound_templates():
    """Each family member is the general template on its surviving users."""
    rng = np.random.default_rng(3)
    for k in range(3, 17):
        alpha = random_profile(rng, k)
        for bound in converse_family(alpha).bounds:
            geo = {u + 1: w for u, w in enumerate(bound.lhs_weights) if w >= 2}
            users = sorted(geo)
            if users:
                rebuilt = make_weighted_bound(alpha, users + [k - 1, k], len(users))
            else:
                rebuilt = make_pair_bound(alpha, k - 1, k)
            assert rebuilt == bound
            for w in bound.lhs_weights + bound.rhs_weights:
                assert w == 0 or (w & (w - 1)) == 0  # powers of two only


def test_certify_random_profiles():
    rng = np.random.default_rng(4)
    for k in range(3, 17):
        for _ in range(10):
            alpha = random_profile(rng, k)
            assert certify_family(alpha, converse_family(alpha)) == optimal_sum_gdof(
                alpha
            )


def test_certify_k8_all_ones():
    alpha = AlphaProfile((F(1),) * 8)
    assert certify_family(alpha, converse_family(alpha)) == 4


def test_certify_flags_tampering():
    alpha = profile("0.5", "0.8", "1.0")
    family = converse_family(alpha)
    bad = list(family.bounds)
    bad[0] = WeightedBound(
        k_users=3,
        lhs=((1, 1),) + bad[0].lhs[1:],
        rhs=bad[0].rhs,
        rhs_value=bad[0].rhs_value,
    )
    with pytest.raises(CertificationError):
        certify_family(alpha, type(family)(tuple(bad), family.jl))
    worse = list(family.bounds)
    worse[1] = WeightedBound(3, worse[1].lhs, worse[1].rhs, worse[1].rhs_value + 1)
    with pytest.raises(CertificationError):
        certify_family(alpha, type(family)(tuple(worse), family.jl))


def test_family_size_exponent_values():
    assert [family_size_exponent(k) for k in (3, 4, 5, 8, 9, 16)] == [1, 1, 2, 2, 3, 3]


def test_certify_generalizes_past_sixteen_users():
    rng = np.random.default_rng(6)
    for k in (17, 23, 32, 33, 48):
        alpha = random_profile(rng, k)
        assert certify_family(alpha, converse_family(alpha)) == optimal_sum_gdof(alpha)


def test_certify_checks_each_bound(monkeypatch):
    """Rearrangements that keep the column sums and the average: swapped
    left rows are not tight at d*, a weight moved between users of equal
    exponent is tight but lacks the paper's structure, and a row must list
    each user once, in order."""
    eighths = AlphaProfile(tuple(F(i, 8) for i in range(1, 9)))
    family = converse_family(eighths)
    first, second = family.bounds[:2]
    swapped = (replace(first, lhs=second.lhs), replace(second, lhs=first.lhs))
    with pytest.raises(CertificationError, match="bound 1 is not tight at d"):
        certify_family(eighths, type(family)(swapped + family.bounds[2:], family.jl))

    ones = AlphaProfile((F(1),) * 8)
    family = converse_family(ones)
    first, second = family.bounds[:2]
    moved = (  # left weight 4 of user 1 goes to user 2 and back
        replace(first, lhs=((2, 4),) + first.lhs[1:]),
        replace(second, lhs=((1, 4),) + second.lhs[1:]),
    )
    with pytest.raises(CertificationError, match="bound 1 lacks the weights"):
        certify_family(ones, type(family)(moved + family.bounds[2:], family.jl))

    reversed_row = replace(first, lhs=first.lhs[::-1])
    with pytest.raises(CertificationError, match="strictly increasing users"):
        certify_family(ones, type(family)((reversed_row,) + family.bounds[1:], family.jl))


def test_bound_sparse_pairs():
    alpha = AlphaProfile(tuple(F(i, 8) for i in range(1, 9)))
    bound = make_weighted_bound(alpha, (1, 3, 7, 8), 2)
    assert bound.lhs == ((1, 4), (3, 2), (7, 1), (8, 1))
    assert bound.rhs == ((1, 2), (3, 1), (8, 1))


def dense_weighted_bound(alpha, subset, j):
    """The dense construction of ``make_weighted_bound``: K-tuples of
    weights and a ``Fraction`` sum, the oracle for the sparse rows."""
    k = alpha.k_users
    lhs = [0] * k
    rhs = [0] * k
    for pos, user in enumerate(subset[:j], start=1):
        lhs[user - 1] += 2 ** (j - pos + 1)
        rhs[user - 1] += 2 ** (j - pos)
    lhs[subset[j] - 1] += 1
    lhs[subset[j + 1] - 1] += 1
    rhs[subset[j + 1] - 1] += 1
    return tuple(lhs), tuple(rhs), sum(w * a for w, a in zip(rhs, alpha.alphas))


@st.composite
def profiles(draw, k_min=3, k_max=64):
    k = draw(st.integers(k_min, k_max))
    values = []
    for _ in range(k):
        den = draw(st.integers(1, 10_000))
        values.append(F(draw(st.integers(1, den)), den))
    return AlphaProfile(tuple(sorted(values)))


@settings(max_examples=60, deadline=None)
@given(alpha=profiles(), data=st.data())
def test_sparse_rows_match_dense_oracle(alpha, data):
    k = alpha.k_users
    rows = []
    for bound in converse_family(alpha).bounds:
        users = [u for u, w in bound.lhs if w >= 2]
        rows.append((bound, users + [k - 1, k], len(users)))
    j = data.draw(st.integers(1, family_size_exponent(k)))
    subset = sorted(data.draw(st.sets(st.integers(1, k), min_size=j + 2, max_size=j + 2)))
    rows.append((make_weighted_bound(alpha, subset, j), subset, j))
    for bound, subset, j in rows:
        if j:
            lhs, rhs, value = dense_weighted_bound(alpha, subset, j)
        else:  # the pair bound d_{K-1} + d_K <= a_K
            lhs = (0,) * (k - 2) + (1, 1)
            rhs = (0,) * (k - 1) + (1,)
            value = alpha.alphas[-1]
        assert bound.lhs_weights == lhs and bound.rhs_weights == rhs
        assert bound.lhs == tuple((u, w) for u, w in enumerate(lhs, start=1) if w)
        assert bound.rhs == tuple((u, w) for u, w in enumerate(rhs, start=1) if w)
        assert bound.rhs_value == value


def test_family_certifies_without_dense_views(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a dense weight view was built")

    monkeypatch.setattr(WeightedBound, "lhs_weights", property(forbidden))
    monkeypatch.setattr(WeightedBound, "rhs_weights", property(forbidden))
    monkeypatch.setattr(gdof_core, "_dense", forbidden)
    k = 4096
    alpha = AlphaProfile(tuple(F(i, k) for i in range(1, k + 1)))
    family = converse_family(alpha)
    assert len(family) == 2048
    assert certify_family(alpha, family) == optimal_sum_gdof(alpha)


def test_bound_json_shape():
    alpha = profile("0.5", "0.8", "1.0")
    bound = make_weighted_bound(alpha, (1, 2, 3), 1)
    assert bound.to_json_dict() == {
        "lhs": [2, 1, 1],
        "rhs": [1, 0, 1],
        "rhs_value": "3/2",
    }


# ---------------------------------------------------------------------------
# achievability


def test_alignment_dims_small_cases():
    assert alignment_dims(3, 1) == (1, 3)
    assert alignment_dims(3, 2) == (64, 191)


def test_achievable_k3_benchmark():
    alpha = profile("0.5", "0.8", "1.0")
    assert achievable_gdof(alpha, 1) == 1
    assert achievable_gdof_limit(alpha) == F(5, 4)
    assert achievable_gdof_limit(alpha) == optimal_sum_gdof(alpha)


def test_achievable_monotone_and_bounded():
    rng = np.random.default_rng(5)
    for _ in range(20):
        k = int(rng.integers(2, 10))
        alpha = random_profile(rng, k)
        values = [achievable_gdof(alpha, n) for n in (1, 2, 4, 8, 16)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(v <= optimal_sum_gdof(alpha) for v in values)
        assert achievable_gdof_limit(alpha) == optimal_sum_gdof(alpha)


def test_achievable_k2_is_flat_at_optimum():
    alpha = profile("0.3", "0.7")
    for n in (1, 2, 5):
        assert achievable_gdof(alpha, n) == F(7, 10)


def test_achievable_rejects_bad_n():
    with pytest.raises(ValueError):
        achievable_gdof(profile("0.5", "1"), 0)
