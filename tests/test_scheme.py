"""Scheme construction checks against independent enumeration oracles."""

import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest

from mlia.channel import sample_channel
from mlia.gdof_core import AlphaProfile, alignment_dims
from mlia.link_sim import transmit_batch
from mlia.scheme import (
    Constellation,
    analytic_power,
    build_geometry,
    build_layer_plan,
    build_transmit_config,
    default_eps,
    desired_set,
    interference_set,
    monomial_set,
    power_normalizer,
    pre_eps_lambda,
)

ALPHA3 = AlphaProfile.parse(["0.5", "0.8", "1.0"])


# ---------------------------------------------------------------------------
# layer plans


def test_plan_k3_n1_counts():
    plan = build_layer_plan(ALPHA3, 1, p=100.0)
    lay = plan.layer(1)
    assert (lay.k_users, lay.n_dims, lay.m_dims) == (3, 1, 3)
    assert plan.layer(2).m_dims is None and plan.layer(3).n_dims == 1


def test_plan_k3_n2_counts():
    plan = build_layer_plan(ALPHA3, 2, p=100.0)
    assert plan.layer(1).n_dims == 64
    assert plan.layer(1).m_dims == 191  # 2*64 + 2*32 - 1


def test_plan_last_layer_budget():
    alpha = AlphaProfile.parse(["0.2", "0.4", "0.7", "1.0"])
    eps = F(1, 100)
    plan = build_layer_plan(alpha, 1, eps=eps, p=10.0)
    assert plan.layer(4).lam == F(3, 10) - eps
    assert plan.layer(3).lam == F(3, 10) / 2 - eps


def test_plan_q_levels_floor():
    eps = F(1, 1000)
    p = 1e8
    plan = build_layer_plan(ALPHA3, 1, eps=eps, p=p)
    for lay in plan.layers:
        assert lay.q_level == max(1, math.floor(p ** (float(lay.lam) / 2)))


def test_plan_inactive_layer_flagged():
    alpha = AlphaProfile.parse(["0.5", "0.5", "1.0"])
    plan = build_layer_plan(alpha, 1, p=100.0)
    assert plan.layer(1).active and not plan.layer(2).active
    assert plan.layer(3).active


def test_plan_rejects_oversized_eps():
    with pytest.raises(ValueError, match="layer 1"):
        build_layer_plan(ALPHA3, 1, eps=F(1, 4), p=100.0)
    with pytest.raises(ValueError):
        build_layer_plan(ALPHA3, 1, p=0.5)


def test_default_eps_is_tenth_of_smallest_budget():
    assert default_eps(ALPHA3, 1) == min(
        pre_eps_lambda(ALPHA3, 1, ell) for ell in (1, 2, 3)
    ) / 10


# ---------------------------------------------------------------------------
# dimension sets, against a brute-force oracle


def oracle_monomials(channel, ell, n, extra=None):
    """Every cross-link monomial as (exponent dict, value), lexicographic."""
    k = channel.k_users
    pairs = [(i, j) for i in range(ell, k + 1) for j in range(ell, k + 1) if i != j]
    items = []
    for combo in itertools.product(range(n), repeat=len(pairs)):
        exps = dict(zip(pairs, combo))
        if extra:
            for key, digit in extra.items():
                exps[key] = exps.get(key, 0) + digit
        value = 1.0
        for (i, j), e in exps.items():
            value *= channel.coeff(i, j) ** e
        items.append((exps, value))
    return items


def test_monomial_set_n1_is_unity():
    channel = sample_channel(3, seed=0)
    v_set = monomial_set(channel, 1, 1)
    assert len(v_set) == 1
    assert v_set.values[0] == 1.0
    assert v_set.codes[0] == 0


def test_monomial_set_k3_n2_matches_oracle():
    channel = sample_channel(3, seed=1)
    v_set = monomial_set(channel, 1, 2)
    oracle = oracle_monomials(channel, 1, 2)
    assert len(v_set) == len(oracle) == 64
    assert np.allclose(np.sort(v_set.values), np.sort([v for _, v in oracle]))
    # lexicographic order over the flattened exponent matrix
    rows = v_set.exponent_rows().tolist()
    assert rows == sorted(rows)


def test_monomial_set_k4_inner_layer():
    channel = sample_channel(4, seed=2)
    v_set = monomial_set(channel, 2, 2)
    assert len(v_set) == 64  # 6 cross links among users {2,3,4}
    assert v_set.pair_order[0] == (2, 2)
    with pytest.raises(ValueError):
        monomial_set(channel, 3, 2)  # only layers 1..K-2 align


def test_interference_set_k3_n1():
    channel = sample_channel(3, seed=3)
    v_set = monomial_set(channel, 1, 1)
    i_set = interference_set(channel, v_set, 1)
    assert sorted(i_set.values.tolist()) == sorted(
        [channel.coeff(1, 2), channel.coeff(1, 3)]
    )
    i_set = interference_set(channel, v_set, 3)
    assert sorted(i_set.values.tolist()) == sorted(
        [channel.coeff(3, 1), channel.coeff(3, 2)]
    )


def test_interference_set_matches_oracle_k3_n2():
    # oracle: per interferer l, h_1l^2 times monomials free on the other
    # pairs, unioned with V minus the unit monomial
    channel = sample_channel(3, seed=4)
    i_set = interference_set(channel, monomial_set(channel, 1, 2), 1)
    k = channel.k_users
    pairs = [(i, j) for i in range(1, k + 1) for j in range(1, k + 1) if i != j]
    expected = {}
    for l in (2, 3):
        others = [pq for pq in pairs if pq != (1, l)]
        for combo in itertools.product(range(2), repeat=len(others)):
            exps = dict(zip(others, combo))
            exps[(1, l)] = 2
            value = channel.coeff(1, l) ** 2
            for (i, j), e in zip(others, combo):
                value *= channel.coeff(i, j) ** e
            expected[tuple(sorted(exps.items()))] = value
    for exps, value in oracle_monomials(channel, 1, 2)[1:]:  # V minus the unit
        expected[tuple(sorted(exps.items()))] = value
    assert len(i_set) == len(expected) == 191 - 64
    assert np.allclose(np.sort(i_set.values), np.sort(list(expected.values())))


def test_set_cardinalities_formula_grid():
    for k in (3, 4, 5):
        channel = sample_channel(k, seed=k)
        for n in (1, 2):
            for ell in range(1, k - 1):
                n_dims, m_dims = alignment_dims(k - ell + 1, n)
                v_set = monomial_set(channel, ell, n)
                assert len(v_set) == n_dims
                for recv in range(ell, k + 1):
                    assert len(interference_set(channel, v_set, recv)) == (
                        m_dims - n_dims
                    )
                    assert len(desired_set(channel, v_set, recv)) == n_dims


def test_desired_set_carries_direct_link():
    channel = sample_channel(3, seed=5)
    s_set = desired_set(channel, monomial_set(channel, 1, 1), 2)
    assert s_set.values.tolist() == [channel.coeff(2, 2)]
    v_set = monomial_set(channel, 1, 2)
    s_set = desired_set(channel, v_set, 1)
    diag = s_set.pair_order.index((1, 1))
    rows = s_set.exponent_rows()
    assert np.all(rows[:, diag] == 1)
    assert np.allclose(s_set.values, channel.coeff(1, 1) * v_set.values)


def test_desired_and_interference_disjoint():
    for seed in range(5):
        geometry = build_geometry(sample_channel(4, seed=seed), 2)
        for ell in (1, 2):
            for recv in range(ell, 5):
                sets = geometry.cell(recv, ell)
                s_set, i_set = sets.s_set, sets.i_set
                assert np.intersect1d(s_set.codes, i_set.codes).size == 0
                assert np.all(np.diff(s_set.codes) > 0)
                assert np.all(np.diff(i_set.codes) > 0)


def test_interference_never_contains_direct_link():
    for seed in range(3):
        geometry = build_geometry(sample_channel(4, seed=seed), 2)
        for ell in (1, 2):
            for recv in range(ell, 5):
                i_set = geometry.cell(recv, ell).i_set
                diag = i_set.pair_order.index((recv, recv))
                assert np.all(i_set.exponent_rows()[:, diag] == 0)


def test_exponent_rows_reproduce_values():
    channel = sample_channel(3, seed=6)
    i_set = interference_set(channel, monomial_set(channel, 1, 2), 2)
    rows = i_set.exponent_rows()
    rebuilt = np.ones(len(i_set))
    for col, (i, j) in enumerate(i_set.pair_order):
        rebuilt *= channel.coeff(i, j) ** rows[:, col].astype(float)
    assert np.allclose(rebuilt, i_set.values)


def test_rational_independence_proxy():
    """No small integer combination of S u I values comes near zero."""
    rng = np.random.default_rng(7)
    combos = [
        c
        for c in itertools.product(range(-2, 3), repeat=3)
        if any(ci for ci in c)
    ]
    for trial in range(100):
        geometry = build_geometry(sample_channel(3, seed=int(rng.integers(1 << 31))), 1)
        for recv in (1, 2, 3):
            sets = geometry.cell(recv, 1)
            dims = np.concatenate([sets.s_set.values, sets.i_set.values])
            smallest = min(abs(float(np.dot(c, dims))) for c in combos)
            assert smallest > 1e-9


# ---------------------------------------------------------------------------
# constellation and power


def test_constellation_power_identity():
    rng = np.random.default_rng(8)
    cons = Constellation(xi=0.37, q=5)
    draws = cons.xi * cons.draw_integers(rng, 10**6)
    assert abs(np.mean(draws**2) - cons.average_power()) < 0.01 * cons.average_power()


def test_constellation_sumset_closure():
    rng = np.random.default_rng(9)
    q = 4
    m = 7
    ints = rng.integers(-q, q + 1, size=(2000, m))
    sums = ints.sum(axis=1)
    assert np.all(np.abs(sums) <= m * q)  # sums stay inside the scaled set


def test_power_normalizer_k3_n1():
    geometry = build_geometry(sample_channel(3, seed=10), 1)
    plan = build_layer_plan(ALPHA3, 1, p=100.0)
    eta, gamma = power_normalizer(geometry, plan)
    assert eta == pytest.approx(3.0)
    assert gamma == pytest.approx(1.0 / math.sqrt(3.0))


def test_power_normalizer_k2_floor():
    geometry = build_geometry(sample_channel(2, seed=11), 1)
    plan = build_layer_plan(AlphaProfile.parse(["0.4", "1.0"]), 1, p=100.0)
    eta, _ = power_normalizer(geometry, plan)
    assert eta >= 1.0


def test_analytic_power_below_one_and_empirical_match():
    rng = np.random.default_rng(12)
    geometry = build_geometry(sample_channel(3, seed=13), 2)
    plan = build_layer_plan(ALPHA3, 2, p=100.0)
    _, gamma = power_normalizer(geometry, plan)
    for user in (1, 2, 3):
        config = build_transmit_config(geometry, plan, user, gamma=gamma)
        power = analytic_power(config)
        assert power <= 1.0
        draws = np.zeros(10**5)
        for lay in config.layers:
            q = lay.constellation.draw_integers(rng, (10**5, len(lay.beam)))
            draws += lay.power_factor * lay.constellation.xi * (q @ lay.beam)
        assert abs(np.mean(draws**2) - power) < 0.02 * power


def test_transmit_batch_zero_and_superposition():
    geometry = build_geometry(sample_channel(3, seed=14), 1)
    p = 1e6
    plan = build_layer_plan(ALPHA3, 1, p=p)
    configs = {k: build_transmit_config(geometry, plan, k) for k in (1, 2, 3)}
    zeros = {(k, ell): np.zeros((1, 1), dtype=int) for k in (1, 2, 3) for ell in range(1, k + 1)}
    assert transmit_batch(configs, zeros, 1)[0, 2] == 0.0
    own = {(3, 1): np.array([[2]]), (3, 2): np.array([[-1]]), (3, 3): np.array([[1]])}
    expected = 0.0
    for ell in (1, 2, 3):
        lay = plan.layer(ell)
        xi = configs[3].gamma / lay.q_level
        expected += p ** (-float(plan.alpha.alpha(ell - 1)) / 2) * xi * own[(3, ell)][0, 0]
    x = transmit_batch(configs, {**zeros, **own}, 1)[0, 2]
    assert x == pytest.approx(expected, rel=1e-12)


def test_transmit_k2_single_layer_user1():
    geometry = build_geometry(sample_channel(2, seed=15), 1)
    plan = build_layer_plan(AlphaProfile.parse(["0.4", "1.0"]), 1, p=1e4)
    config = build_transmit_config(geometry, plan, 1)
    assert len(config.layers) == 1
    q1 = plan.layer(1).q_level
    x = transmit_batch({1: config}, {(1, 1): np.array([[q1]])}, 1)[0, 0]
    assert x == pytest.approx(config.gamma)  # peak symbol hits gamma exactly
