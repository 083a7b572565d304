"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Criteria, tolerances and budgets:

1  exact-identity      family average == closed form, K in [3,16], 100
                       random rational profiles each, zero tolerance, < 5 s
2  reference-listings  generated families match the hand-derived weight
                       tables for K = 8, 9, 10, 13, 16, weight for weight
3  achievability       rates nondecreasing in n over {1,2,4,8,16} and the
                       closed-form limit equals the optimum exactly, 100
                       random profiles; K=3 benchmark values
4  cardinalities       |V| = N, |S| = N, |I| = M - N and S disjoint from I,
                       exhaustively for K <= 5, n <= 2, exact
5  transmit-power      gamma = 1/sqrt(eta) keeps analytic E|x|^2 <= 1 on
                       100 channels; empirical mean over 1e5 draws within
                       2% of analytic (10 seeded channels, every user)
6  dmin-scaling        pooled log-log slope of brute-forced minimum
                       distance over P = 1e4..1e12 within +-0.05 of
                       (a_k - a_l)/2, 20 seeded channels, < 2 min
7  residual-bound      realized |T| <= bound on 1e5 symbol draws, zero
                       violations
8  decoding            zero-noise peeling exact above a searched P
                       threshold (1e3 frames); with unit noise, per-layer
                       SER nonincreasing across the grid and below 1e-2 at
                       the top (1e4 trials)
9  reproducibility     identical (seed, config) gives byte-identical
                       reports
"""

import contextlib
import math
import time
from fractions import Fraction as F

import numpy as np

from conftest import random_profile
from mlia.channel import sample_channel
from mlia.gdof_core import (
    AlphaProfile,
    achievable_gdof,
    achievable_gdof_limit,
    alignment_dims,
    certify_family,
    converse_family,
    optimal_sum_gdof,
)
from mlia.link_sim import (
    SimConfig,
    build_decoder_bank,
    draw_symbols_batch,
    realized_residual_batch,
    run_monte_carlo,
    successive_decode_batch,
    synthesize_batch,
    t_bound,
)
from mlia.scheme import (
    analytic_power,
    build_geometry,
    build_layer_plan,
    build_transmit_config,
    desired_set,
    interference_set,
    monomial_set,
    power_normalizer,
)

ALPHA3 = AlphaProfile.parse(["0.5", "0.8", "1.0"])
EPS_FLAT = F(1499, 10000)  # pins every PAM level at Q=1 over P = 1e4..1e12
P_DECADES = tuple(10.0**e for e in range(4, 13))


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


# ---------------------------------------------------------------------------


def test_criterion_1_exact_identity():
    with criterion("exact-identity"):
        rng = np.random.default_rng(2024)
        start = time.monotonic()
        for k in range(3, 17):
            for _ in range(100):
                alpha = random_profile(rng, k)
                average = certify_family(alpha, converse_family(alpha))
                assert average == optimal_sum_gdof(alpha)  # exact, no tolerance
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"identity sweep took {elapsed:.2f} s"


# hand-derived instantiations of the weight template for selected K:
# per row, the left weights on d_k and the right weights on a_k
REFERENCE_LISTINGS = {
    8: [
        ({1: 4, 3: 2, 7: 1, 8: 1}, {1: 2, 3: 1, 8: 1}),
        ({2: 4, 3: 2, 7: 1, 8: 1}, {2: 2, 3: 1, 8: 1}),
        ({4: 4, 6: 2, 7: 1, 8: 1}, {4: 2, 6: 1, 8: 1}),
        ({5: 4, 6: 2, 7: 1, 8: 1}, {5: 2, 6: 1, 8: 1}),
    ],
    9: [
        ({1: 8, 5: 4, 7: 2, 8: 1, 9: 1}, {1: 4, 5: 2, 7: 1, 9: 1}),
        ({2: 8, 5: 4, 7: 2, 8: 1, 9: 1}, {2: 4, 5: 2, 7: 1, 9: 1}),
        ({3: 8, 6: 4, 7: 2, 8: 1, 9: 1}, {3: 4, 6: 2, 7: 1, 9: 1}),
        ({4: 8, 6: 4, 7: 2, 8: 1, 9: 1}, {4: 4, 6: 2, 7: 1, 9: 1}),
        ({8: 1, 9: 1}, {9: 1}),
        ({8: 1, 9: 1}, {9: 1}),
        ({8: 1, 9: 1}, {9: 1}),
        ({8: 1, 9: 1}, {9: 1}),
    ],
    10: [
        ({1: 8, 5: 4, 7: 2, 9: 1, 10: 1}, {1: 4, 5: 2, 7: 1, 10: 1}),
        ({2: 8, 5: 4, 7: 2, 9: 1, 10: 1}, {2: 4, 5: 2, 7: 1, 10: 1}),
        ({3: 8, 6: 4, 7: 2, 9: 1, 10: 1}, {3: 4, 6: 2, 7: 1, 10: 1}),
        ({4: 8, 6: 4, 7: 2, 9: 1, 10: 1}, {4: 4, 6: 2, 7: 1, 10: 1}),
        ({8: 2, 9: 1, 10: 1}, {8: 1, 10: 1}),
        ({8: 2, 9: 1, 10: 1}, {8: 1, 10: 1}),
        ({8: 2, 9: 1, 10: 1}, {8: 1, 10: 1}),
        ({8: 2, 9: 1, 10: 1}, {8: 1, 10: 1}),
    ],
    13: [
        ({1: 8, 5: 4, 7: 2, 12: 1, 13: 1}, {1: 4, 5: 2, 7: 1, 13: 1}),
        ({2: 8, 5: 4, 7: 2, 12: 1, 13: 1}, {2: 4, 5: 2, 7: 1, 13: 1}),
        ({3: 8, 6: 4, 7: 2, 12: 1, 13: 1}, {3: 4, 6: 2, 7: 1, 13: 1}),
        ({4: 8, 6: 4, 7: 2, 12: 1, 13: 1}, {4: 4, 6: 2, 7: 1, 13: 1}),
        ({9: 4, 11: 2, 12: 1, 13: 1}, {9: 2, 11: 1, 13: 1}),
        ({9: 4, 11: 2, 12: 1, 13: 1}, {9: 2, 11: 1, 13: 1}),
        ({10: 4, 11: 2, 12: 1, 13: 1}, {10: 2, 11: 1, 13: 1}),
        ({8: 8, 10: 4, 11: 2, 12: 1, 13: 1}, {8: 4, 10: 2, 11: 1, 13: 1}),
    ],
    16: [
        ({1: 8, 5: 4, 7: 2, 15: 1, 16: 1}, {1: 4, 5: 2, 7: 1, 16: 1}),
        ({2: 8, 5: 4, 7: 2, 15: 1, 16: 1}, {2: 4, 5: 2, 7: 1, 16: 1}),
        ({3: 8, 6: 4, 7: 2, 15: 1, 16: 1}, {3: 4, 6: 2, 7: 1, 16: 1}),
        ({4: 8, 6: 4, 7: 2, 15: 1, 16: 1}, {4: 4, 6: 2, 7: 1, 16: 1}),
        ({8: 8, 12: 4, 14: 2, 15: 1, 16: 1}, {8: 4, 12: 2, 14: 1, 16: 1}),
        ({9: 8, 12: 4, 14: 2, 15: 1, 16: 1}, {9: 4, 12: 2, 14: 1, 16: 1}),
        ({10: 8, 13: 4, 14: 2, 15: 1, 16: 1}, {10: 4, 13: 2, 14: 1, 16: 1}),
        ({11: 8, 13: 4, 14: 2, 15: 1, 16: 1}, {11: 4, 13: 2, 14: 1, 16: 1}),
    ],
}


def test_criterion_2_reference_listings():
    with criterion("reference-listings"):
        for k, listing in REFERENCE_LISTINGS.items():
            alpha = AlphaProfile(tuple(F(i, k) for i in range(1, k + 1)))
            family = converse_family(alpha)
            assert len(family.bounds) == len(listing)
            for bound, (lhs_ref, rhs_ref) in zip(family.bounds, listing):
                lhs = {u + 1: w for u, w in enumerate(bound.lhs_weights) if w}
                rhs = {u + 1: w for u, w in enumerate(bound.rhs_weights) if w}
                assert lhs == lhs_ref and rhs == rhs_ref


def test_criterion_3_achievability_limit():
    with criterion("achievability"):
        rng = np.random.default_rng(7)
        for _ in range(100):
            alpha = random_profile(rng, int(rng.integers(2, 13)))
            rates = [achievable_gdof(alpha, n) for n in (1, 2, 4, 8, 16)]
            assert all(a <= b for a, b in zip(rates, rates[1:]))
            assert achievable_gdof_limit(alpha) == optimal_sum_gdof(alpha)  # exact
        assert achievable_gdof(ALPHA3, 1) == 1
        assert achievable_gdof_limit(ALPHA3) == F(5, 4)


def test_criterion_4_cardinalities():
    with criterion("cardinalities"):
        for k in (3, 4, 5):
            channel = sample_channel(k, seed=k)
            for n in (1, 2):
                for ell in range(1, k - 1):
                    n_dims, m_dims = alignment_dims(k - ell + 1, n)
                    v_set = monomial_set(channel, ell, n)
                    assert len(v_set) == n_dims
                    for recv in range(ell, k + 1):
                        s_set = desired_set(channel, v_set, recv)
                        i_set = interference_set(channel, v_set, recv)
                        assert len(s_set) == n_dims
                        assert len(i_set) == m_dims - n_dims
                        # both code lists are strictly increasing, so a
                        # sorted merge decides disjointness exactly
                        assert np.all(np.diff(s_set.codes) > 0)
                        assert np.all(np.diff(i_set.codes) > 0)
                        pos = np.searchsorted(i_set.codes, s_set.codes)
                        pos = np.minimum(pos, len(i_set) - 1)
                        assert not np.any(i_set.codes[pos] == s_set.codes)


def test_criterion_5_transmit_power():
    with criterion("transmit-power"):
        p = 100.0
        plan_alpha = ALPHA3
        rng = np.random.default_rng(55)
        for seed in range(100):
            geometry = build_geometry(sample_channel(3, seed=seed), 2)
            plan = build_layer_plan(plan_alpha, 2, p=p)
            _, gamma = power_normalizer(geometry, plan)
            configs = [
                build_transmit_config(geometry, plan, k, gamma=gamma) for k in (1, 2, 3)
            ]
            for config in configs:
                assert analytic_power(config) <= 1.0
            if seed >= 10:
                continue
            for config in configs:  # empirical check on the first 10 channels
                power = analytic_power(config)
                draws = np.zeros(10**5)
                for lay in config.layers:
                    q = lay.constellation.draw_integers(rng, (10**5, len(lay.beam)))
                    draws += lay.power_factor * lay.constellation.xi * (q @ lay.beam)
                assert abs(np.mean(draws**2) - power) <= 0.02 * power


def test_criterion_6_dmin_scaling():
    with criterion("dmin-scaling"):
        start = time.monotonic()
        exps = np.arange(4.0, 13.0)
        seeds = range(20)
        pooled = np.zeros((3, len(exps)))
        for seed in seeds:
            geometry = build_geometry(sample_channel(3, seed=seed), 1)
            for i, e in enumerate(exps):
                plan = build_layer_plan(ALPHA3, 1, eps=F(1, 1000), p=10.0**e)
                bank = build_decoder_bank(geometry, plan)
                for k in (1, 2, 3):
                    pooled[k - 1, i] += math.log10(bank.decoders[(k, 1)].min_distance())
        pooled /= len(list(seeds))
        for k in (1, 2, 3):
            target = float(ALPHA3.alpha(k) - ALPHA3.alpha(1)) / 2
            slope = np.polyfit(exps, pooled[k - 1], 1)[0]
            assert abs(slope - target) <= 0.05, (k, slope, target)
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"minimum-distance sweep took {elapsed:.1f} s"


def test_criterion_7_residual_bound():
    with criterion("residual-bound"):
        draws = 10**5
        for alphas, k_users in ((ALPHA3, 3), (AlphaProfile.parse(["0.3", "0.5", "0.8", "1.0"]), 4)):
            geometry = build_geometry(sample_channel(k_users, seed=17), 1)
            plan = build_layer_plan(alphas, 1, p=1e8)
            _, gamma = power_normalizer(geometry, plan)
            rng = np.random.default_rng(17)
            symbols = draw_symbols_batch(plan, rng, draws)
            for ell in range(1, k_users - 1):
                for k in range(ell, k_users + 1):
                    realized = realized_residual_batch(
                        geometry, plan, gamma, symbols, k, ell
                    )
                    bound = t_bound(geometry, plan, k, ell, gamma)
                    assert np.all(np.abs(realized) <= bound)  # zero violations


def test_criterion_8_decoding():
    with criterion("decoding"):
        # zero noise: exact peeling above a searched threshold, 1e3 frames
        trials = 1000
        channel = sample_channel(3, seed=2)
        geometry = build_geometry(channel, 1)
        threshold = None
        for p in P_DECADES:
            plan = build_layer_plan(ALPHA3, 1, eps=EPS_FLAT, p=p)
            _, gamma = power_normalizer(geometry, plan)
            bank = build_decoder_bank(geometry, plan, gamma=gamma)
            configs = {
                k: build_transmit_config(geometry, plan, k, gamma=gamma)
                for k in (1, 2, 3)
            }
            rng = np.random.default_rng(2)
            symbols = draw_symbols_batch(plan, rng, trials)
            y = synthesize_batch(
                channel, plan, configs, symbols, np.zeros((trials, 3))
            )
            result = successive_decode_batch(y, bank, truth=symbols)
            exact = bool(np.all(result.frame_ok()))
            if threshold is None and exact:
                threshold = p
            if threshold is not None:
                assert exact, f"zero-noise decode regressed at P={p:g}"
        assert threshold is not None and threshold <= P_DECADES[-1]

        # unit noise: per-layer SER nonincreasing, below 1e-2 at the top
        config = SimConfig(
            alphas=ALPHA3.alphas,
            n=1,
            p_grid=P_DECADES,
            trials=10**4,
            seed=2,
            eps=EPS_FLAT,
            noise_std=1.0,
        )
        report = run_monte_carlo(config)
        for ell in (1, 2, 3):
            sers = [row["ser"] for row in report.layers if row["layer"] == ell]
            assert len(sers) == len(P_DECADES)
            assert all(b <= a for a, b in zip(sers, sers[1:])), (ell, sers)
            assert sers[-1] <= 1e-2, (ell, sers[-1])


def test_criterion_9_reproducibility():
    with criterion("reproducibility"):
        config = SimConfig(
            alphas=ALPHA3.alphas,
            n=1,
            p_grid=(1e6, 1e9, 1e12),
            trials=2000,
            seed=9,
            eps=EPS_FLAT,
            with_dmin=True,
        )
        first = run_monte_carlo(config).to_json()
        second = run_monte_carlo(config).to_json()
        assert first.encode() == second.encode()  # byte identical
