"""Link-simulation checks: channel sampling, decoding against an
exhaustive oracle, residual bounds and the Monte Carlo harness."""

import itertools
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlia.channel import sample_channel
from mlia.gdof_core import AlphaProfile
from mlia.link_sim import (
    NearestPointDecoder,
    SimConfig,
    build_decoder_bank,
    draw_symbols_batch,
    realized_residual_batch,
    run_monte_carlo,
    successive_decode_batch,
    synthesize_batch,
    t_bound,
    transmit_batch,
)
from mlia.scheme import (
    EnumerationCapError,
    build_geometry,
    build_layer_plan,
    build_transmit_config,
    power_normalizer,
)

ALPHA3 = AlphaProfile.parse(["0.5", "0.8", "1.0"])
EPS_FLAT = F(1499, 10000)  # keeps every PAM level at Q=1 across wide P ranges


def make_setup(p, eps=None, seed=11, n=1, alpha=ALPHA3):
    geometry = build_geometry(sample_channel(alpha.k_users, seed=seed), n)
    plan = build_layer_plan(alpha, n, eps=eps, p=p)
    _, gamma = power_normalizer(geometry, plan)
    configs = {
        k: build_transmit_config(geometry, plan, k, gamma=gamma)
        for k in range(1, alpha.k_users + 1)
    }
    return geometry, plan, gamma, configs


# ---------------------------------------------------------------------------
# channel sampling


def test_sample_channel_deterministic():
    a = sample_channel(4, seed=42)
    b = sample_channel(4, seed=42)
    assert np.array_equal(a.h, b.h)
    assert not np.array_equal(a.h, sample_channel(4, seed=43).h)


def test_sample_channel_bounds_and_mean():
    channel = sample_channel(100, h_min=0.5, h_max=2.0, seed=1)  # 10^4 draws
    mags = np.abs(channel.h)
    assert np.all(mags >= 0.5) and np.all(mags <= 2.0)
    assert abs(mags.mean() - 1.25) < 0.02 * 1.25


def test_sample_channel_rejects_bad_bounds():
    with pytest.raises(ValueError):
        sample_channel(3, h_min=2.0, h_max=0.5)
    with pytest.raises(ValueError):
        sample_channel(3, h_min=0.0, h_max=1.0)


# ---------------------------------------------------------------------------
# signal decomposition and single-cell decoding


def test_peeling_first_layer_leaves_decomposition():
    """With the true layer-1 cell subtracted the residue is exactly
    S + I + T (+ noise)."""
    geometry, plan, gamma, configs = make_setup(1e6)
    channel = geometry.channel
    rng = np.random.default_rng(1)
    symbols = draw_symbols_batch(plan, rng, 1)
    noise = rng.standard_normal((1, 3))
    y = synthesize_batch(channel, plan, configs, symbols, noise)
    bank = build_decoder_bank(geometry, plan, gamma=gamma)
    k, ell = 3, 2  # second layer at the last receiver, history = layer 1
    layer1 = np.hstack([symbols[(k, 1)], bank.aggregate_truth(symbols, k, 1)])
    obs = y[0, k - 1] - bank.decoders[(k, 1)].point_value(layer1)[0]

    lay = plan.layer(ell)
    scale = gamma / lay.q_level * plan.p ** (
        float(plan.alpha.alpha(k) - lay.power_offset) / 2
    )
    # desired + aggregated interference at the pair layer (K-1 = 2)
    s_val = scale * channel.coeff(k, k) * symbols[(k, ell)][0, 0]
    i_val = scale * channel.coeff(k, 2) * symbols[(2, ell)][0, 0]
    t_val = realized_residual_batch(geometry, plan, gamma, symbols, k, ell)[0]
    assert obs == pytest.approx(s_val + i_val + t_val + noise[0, k - 1], rel=1e-9)


def test_cell_decoder_exact_without_noise():
    geometry, plan, gamma, _ = make_setup(1e8, eps=F(1, 1000))
    k, ell = 2, 1
    sets = geometry.cell(k, ell)
    lay = plan.layer(ell)
    assert lay.q_level >= 2
    scale = gamma / lay.q_level * plan.p ** (
        float(plan.alpha.alpha(k) - lay.power_offset) / 2
    )
    dec = build_decoder_bank(geometry, plan, gamma=gamma).decoders[(k, ell)]
    rng = np.random.default_rng(3)
    for _ in range(50):
        q = rng.integers(-lay.q_level, lay.q_level + 1, size=1)
        qp = rng.integers(-3 * lay.q_level, 3 * lay.q_level + 1, size=2)
        obs = scale * (sets.s_set.values @ q + sets.i_set.values @ qp)
        got = dec.decode(obs)[0]
        assert np.array_equal(got[:1], q) and np.array_equal(got[1:], qp)


def test_cell_decoder_matches_exhaustive_oracle():
    geometry, plan, gamma, _ = make_setup(1e4, eps=F(1, 1000), seed=21)
    k, ell = 1, 1
    sets = geometry.cell(k, ell)
    lay = plan.layer(ell)
    q_lim, qp_lim = lay.q_level, lay.k_users * lay.q_level
    assert q_lim == 2
    scale = gamma / q_lim * plan.p ** (
        float(plan.alpha.alpha(k) - lay.power_offset) / 2
    )
    dims = np.concatenate([sets.s_set.values, sets.i_set.values])
    points = [
        (scale * float(np.dot(dims, vec)), vec)
        for vec in (
            np.array(c)
            for c in itertools.product(
                range(-q_lim, q_lim + 1),
                range(-qp_lim, qp_lim + 1),
                range(-qp_lim, qp_lim + 1),
            )
        )
    ]
    dec = build_decoder_bank(geometry, plan, gamma=gamma).decoders[(k, ell)]
    rng = np.random.default_rng(4)
    for _ in range(200):
        obs = float(rng.uniform(-1.5, 1.5) * scale * 10)
        best = min(points, key=lambda item: (abs(obs - item[0]), tuple(item[1])))
        assert np.array_equal(dec.decode(obs)[0], best[1])


def test_cell_cap_guard():
    geometry, plan, gamma, _ = make_setup(1e8, eps=F(1, 1000))
    with pytest.raises(EnumerationCapError, match="exceeds cap"):
        build_decoder_bank(geometry, plan, gamma=gamma, cap=10)


def test_bank_cap_is_exact_at_the_cap():
    geometry, plan, gamma, _ = make_setup(1e8, eps=EPS_FLAT)
    build_decoder_bank(geometry, plan, gamma=gamma, cap=147)  # 3 * 7 * 7 points
    with pytest.raises(
        EnumerationCapError,
        match=r"^decode search for \(user 1, layer 1\): enumeration size 147 exceeds cap 146$",
    ):
        build_decoder_bank(geometry, plan, gamma=gamma, cap=146)


def forbid_set_builders(monkeypatch):
    """Make every dimension-set builder fail the test; returns ``mlia.cli``."""
    import mlia.cli as cli
    import mlia.link_sim as link_sim
    import mlia.scheme as scheme

    def forbidden(*args, **kwargs):
        raise AssertionError("a dimension set was built before the cap check")

    for module, name in (
        (scheme, "monomial_set"), (scheme, "desired_set"),
        (scheme, "interference_set"), (scheme, "build_geometry"),
        (link_sim, "build_geometry"), (cli, "build_geometry"),
    ):
        monkeypatch.setattr(module, name, forbidden)
    return cli


def test_huge_search_space_refused_before_any_set(monkeypatch, capsys):
    """K=5, n=2 needs about 10^3.8M points at layer 1: the refusal names the
    size from logarithms and builds no monomial set."""
    cli = forbid_set_builders(monkeypatch)
    code = cli.main([
        "simulate", "--alphas", "0.2,0.4,0.6,0.8,1.0", "--n", "2",
        "--p-grid", "1e6,1e8", "--trials", "1000",
    ])
    err = capsys.readouterr().err
    assert code == 3
    assert "decode search for (user 1, layer 1): enumeration size about 10^" in err


def test_mindist_huge_search_space_refused_before_any_set(monkeypatch, capsys):
    cli = forbid_set_builders(monkeypatch)
    code = cli.main([
        "mindist", "--alphas", "0.2,0.4,0.6,0.8,1.0", "--n", "2", "--p-grid", "1e8",
    ])
    captured = capsys.readouterr()
    assert code == 3 and not captured.out
    assert "decode search for (user 1, layer 1): enumeration size about 10^" in captured.err


def test_nearest_point_tie_breaks_lexicographically():
    # exact midpoint between two points: the smaller integer vector wins
    dec = NearestPointDecoder(
        scale=1.0, dim_values=np.array([1.0]), half_ranges=np.array([1])
    )
    assert dec.decode(0.5)[0].tolist() == [0]
    assert dec.decode(-0.5)[0].tolist() == [-1]


def test_nearest_point_duplicate_values_pick_smallest_vector():
    # 2*1.0 + (-1)*2.0, 0, and (-2)*1.0 + 1*2.0 all hit exactly zero; every
    # observation near zero must resolve to the lexicographically smallest
    dec = NearestPointDecoder(
        scale=1.0, dim_values=np.array([1.0, 2.0]), half_ranges=np.array([2, 1])
    )
    assert dec.decode(1e-9)[0].tolist() == [-2, 1]
    assert dec.min_distance() == 0.0  # a nonzero vector sits on the origin


def _points(scale, dims, halves):
    """(value, vector) of every integer vector, values summed in the
    decoder's order."""
    points = []
    for vec in itertools.product(*(range(-h, h + 1) for h in halves)):
        value = 0.0
        for dim, q in zip(dims, vec):
            value = value + (scale * dim) * q
        points.append((value, vec))
    return points


# multiples of 1/8 and power-of-two scales keep every point value, midpoint
# and distance exact in binary floating point, so the oracle's ties are the
# true ties, and duplicate values and zero dimensions are common
_EIGHTHS = st.integers(-24, 24).map(lambda k: k / 8)


@settings(max_examples=150, deadline=None)
@given(
    scale=st.sampled_from([0.5, 1.0, 2.0]),
    dims=st.lists(_EIGHTHS, min_size=1, max_size=3),
    halves=st.lists(st.integers(1, 3), min_size=3, max_size=3),
    extra=st.lists(st.integers(-8000, 8000).map(lambda k: k / 64), max_size=20),
)
def test_decode_matches_bruteforce_oracle(scale, dims, halves, extra):
    """The observations include every point, every midpoint between
    neighbours (exact ties) and points beyond both extremes."""
    halves = halves[: len(dims)]
    dec = NearestPointDecoder(
        scale=scale, dim_values=np.array(dims), half_ranges=np.array(halves)
    )
    points = _points(scale, dims, halves)
    values = sorted(value for value, _ in points)
    mids = [(a + b) / 2 for a, b in zip(values, values[1:])]
    beyond = [values[0] - 1.0, values[0] - 1e6, values[-1] + 1.0, values[-1] + 1e6]
    obs = values + mids + beyond + extra
    # brute force: nearest point, ties to the lexicographically smallest vector
    expected = [min(points, key=lambda item: (abs(o - item[0]), item[1]))[1] for o in obs]
    assert np.array_equal(dec.decode(np.array(obs)), np.array(expected))


def test_nearest_point_single_dimension_spacing():
    # degenerate one-dimension search: the minimum distance is the spacing
    dec = NearestPointDecoder(
        scale=0.25, dim_values=np.array([1.7]), half_ranges=np.array([4])
    )
    assert dec.min_distance() == pytest.approx(0.25 * 1.7)


# ---------------------------------------------------------------------------
# successive decoding


def test_synthesize_batch_matches_matrix_form():
    geometry, plan, gamma, configs = make_setup(1e8, n=2)
    channel = geometry.channel
    rng = np.random.default_rng(13)
    trials = 500
    symbols = draw_symbols_batch(plan, rng, trials)
    noise = rng.standard_normal((trials, 3))
    # tolerances are relative to the summed magnitudes of the terms: the
    # beam sums cancel, so an entry may be far smaller than what rounds into it
    x = np.zeros((trials, 3))
    x_mag = np.zeros((trials, 3))
    for k, config in configs.items():
        for lay in config.layers:
            if lay.active:
                q = symbols[(k, lay.index)]
                step = lay.power_factor * lay.constellation.xi
                x[:, k - 1] += step * (q @ lay.beam)
                x_mag[:, k - 1] += step * (np.abs(q) @ np.abs(lay.beam))
    gains = np.array([plan.p ** (float(a) / 2) for a in plan.alpha.alphas])
    expected = (x @ channel.h.T) * gains + noise
    y_mag = (x_mag @ np.abs(channel.h.T)) * gains + np.abs(noise)
    x_got = transmit_batch(configs, symbols, trials)
    assert np.all(np.abs(x_got - x) <= 1e-12 * x_mag)
    y_got = synthesize_batch(channel, plan, configs, symbols, noise)
    assert np.all(np.abs(y_got - expected) <= 1e-12 * y_mag)


def test_successive_decode_zero_noise_above_threshold():
    trials = 200
    threshold = None
    for exp in range(4, 13):
        geometry, plan, gamma, configs = make_setup(10.0**exp, eps=EPS_FLAT, seed=2)
        bank = build_decoder_bank(geometry, plan, gamma=gamma)
        rng = np.random.default_rng(5)
        symbols = draw_symbols_batch(plan, rng, trials)
        y = synthesize_batch(geometry.channel, plan, configs, symbols, np.zeros((trials, 3)))
        result = successive_decode_batch(y, bank, truth=symbols)
        exact = bool(np.all(result.frame_ok()))
        aggregates_exact = all(np.all(ok) for ok in result.aggregate_ok.values())
        if threshold is None and exact:
            threshold = exp
            assert aggregates_exact
        if threshold is not None:
            assert exact, f"decode regressed above the threshold at P=1e{exp}"
    assert threshold is not None


def test_successive_decode_single_frame_matches_batch():
    """A single frame is a batch of one."""
    geometry, plan, gamma, configs = make_setup(1e10, eps=EPS_FLAT, seed=2)
    bank = build_decoder_bank(geometry, plan, gamma=gamma)
    rng = np.random.default_rng(6)
    trials = 30
    symbols = draw_symbols_batch(plan, rng, trials)
    noise = rng.standard_normal((trials, 3))
    y = synthesize_batch(geometry.channel, plan, configs, symbols, noise)
    batch = successive_decode_batch(y, bank, truth=symbols)
    for t in range(trials):
        single = successive_decode_batch(
            y[t : t + 1], bank, truth={cell: q[t : t + 1] for cell, q in symbols.items()}
        )
        for cell in batch.symbols:
            assert np.array_equal(single.symbols[cell][0], batch.symbols[cell][t])


def test_forced_corruption_propagates_downstream():
    geometry, plan, gamma, configs = make_setup(1e10, eps=EPS_FLAT, seed=2)
    bank = build_decoder_bank(geometry, plan, gamma=gamma)
    rng = np.random.default_rng(7)
    trials = 20
    symbols = draw_symbols_batch(plan, rng, trials)
    y = synthesize_batch(geometry.channel, plan, configs, symbols, np.zeros((trials, 3)))
    clean = successive_decode_batch(y, bank, truth=symbols)
    assert np.all(clean.frame_ok())
    # feed receiver 3 a wrong layer-1 reconstruction: its later layers break
    q_lim = plan.layer(1).q_level
    truth_q = symbols[(3, 1)]
    truth_agg = bank.aggregate_truth(symbols, 3, 1)
    wrong = np.hstack([
        np.where(truth_q < q_lim, truth_q + 1, truth_q - 1),
        np.where(truth_agg < 3 * q_lim, truth_agg + 1, truth_agg - 1),
    ])
    broken = successive_decode_batch(y, bank, truth=symbols, force={(3, 1): wrong})
    assert not np.any(broken.desired_ok[(3, 1)])
    assert not np.all(broken.desired_ok[(3, 2)] & broken.desired_ok[(3, 3)])
    # receivers 1 and 2 are untouched
    assert np.all(broken.desired_ok[(1, 1)])
    assert np.all(broken.desired_ok[(2, 1)] & broken.desired_ok[(2, 2)])


def test_decode_exact_whenever_margins_hold():
    """Frames whose noise + residual stay inside half the minimum distance
    at every stage must decode without error."""
    p = 1e10
    geometry, plan, gamma, configs = make_setup(p, eps=EPS_FLAT, seed=2)
    channel = geometry.channel
    bank = build_decoder_bank(geometry, plan, gamma=gamma)
    rng = np.random.default_rng(12)
    trials = 1000
    symbols = draw_symbols_batch(plan, rng, trials)
    noise = rng.standard_normal((trials, 3))
    y = synthesize_batch(channel, plan, configs, symbols, noise)
    result = successive_decode_batch(y, bank, truth=symbols)

    margins_ok = np.ones(trials, dtype=bool)
    for k in (1, 2, 3):  # alignment layer at every receiver
        dmin = bank.decoders[(k, 1)].min_distance()
        bound = t_bound(geometry, plan, k, 1, gamma)
        margins_ok &= np.abs(noise[:, k - 1]) + bound < dmin / 2
    for k in (2, 3):  # pair layer; the last layer is the residual there
        dmin = bank.decoders[(k, 2)].min_distance()
        bound = gamma * abs(channel.coeff(k, 3)) * p ** (
            float(ALPHA3.alpha(k) - ALPHA3.alpha(2)) / 2
        )
        margins_ok &= np.abs(noise[:, k - 1]) + bound < dmin / 2
    dmin = bank.decoders[(3, 3)].min_distance()
    margins_ok &= np.abs(noise[:, 2]) < dmin / 2

    assert np.any(margins_ok) and not np.all(margins_ok)
    assert np.all(result.frame_ok()[margins_ok])


def test_peeling_consistency_reconstructs_received():
    geometry, plan, gamma, configs = make_setup(1e10, eps=EPS_FLAT, seed=2)
    channel = geometry.channel
    bank = build_decoder_bank(geometry, plan, gamma=gamma)
    rng = np.random.default_rng(8)
    trials = 50
    symbols = draw_symbols_batch(plan, rng, trials)
    noise = rng.standard_normal((trials, 3))
    y = synthesize_batch(channel, plan, configs, symbols, noise)
    result = successive_decode_batch(y, bank, truth=symbols)
    ok = result.frame_ok()
    assert np.any(ok)
    rebuilt = synthesize_batch(
        channel, plan, configs, result.symbols, np.zeros((trials, 3))
    )
    clean = y - noise
    rel = np.abs(rebuilt[ok] - clean[ok]) / np.maximum(np.abs(clean[ok]), 1e-30)
    assert np.max(rel) < 1e-6


# ---------------------------------------------------------------------------
# minimum distance and the residual bound


def test_dmin_positive_on_random_channels():
    plan_p = 1e6
    for seed in range(100):
        geometry = build_geometry(sample_channel(3, seed=seed), 1)
        plan = build_layer_plan(ALPHA3, 1, eps=F(1, 1000), p=plan_p)
        bank = build_decoder_bank(geometry, plan)
        for k in (1, 2, 3):
            assert bank.decoders[(k, 1)].min_distance() > 0.0


def test_t_bound_hand_formula_k3():
    geometry, plan, gamma, _ = make_setup(1e6)
    for k in (1, 2, 3):
        h = np.abs(geometry.channel.h[k - 1])
        delta = gamma * ((h[1] + h[2]) + h[2])  # layer 2 then layer 3
        expected = plan.p ** (float(ALPHA3.alpha(k) - ALPHA3.alpha(1)) / 2) * delta
        assert t_bound(geometry, plan, k, 1, gamma) == pytest.approx(expected, rel=1e-12)


def test_t_bound_exponent_in_p():
    geometry = build_geometry(sample_channel(3, seed=9), 1)
    values = {}
    for p in (1e6, 1e10):
        plan = build_layer_plan(ALPHA3, 1, eps=F(1, 1000), p=p)
        _, gamma = power_normalizer(geometry, plan)
        values[p] = t_bound(geometry, plan, 2, 1, gamma)
    ratio = values[1e10] / values[1e6]
    assert ratio == pytest.approx((1e10 / 1e6) ** (float(ALPHA3.alpha(2) - ALPHA3.alpha(1)) / 2), rel=1e-9)


def test_t_bound_dominates_realized_residual():
    geometry, plan, gamma, _ = make_setup(1e8)
    rng = np.random.default_rng(10)
    symbols = draw_symbols_batch(plan, rng, 10**4)
    for k in (1, 2, 3):
        realized = realized_residual_batch(geometry, plan, gamma, symbols, k, 1)
        assert np.all(np.abs(realized) <= t_bound(geometry, plan, k, 1, gamma))


def test_t_bound_layer_range():
    with pytest.raises(ValueError):
        geometry, plan, gamma, _ = make_setup(1e6)
        t_bound(geometry, plan, 3, 2, gamma)  # layer K-1 has no residual bound


# ---------------------------------------------------------------------------
# Monte Carlo harness


def test_run_monte_carlo_zero_trials():
    config = SimConfig(alphas=ALPHA3.alphas, n=1, p_grid=(1e6,), trials=0)
    report = run_monte_carlo(config)
    cell = report.cell(1e6, 1, 1)
    assert cell["trials"] == 0 and cell["errors"] == 0 and cell["ser"] is None
    assert report.summaries[0]["gdof_estimate"] is None


def test_run_monte_carlo_reproducible():
    config = SimConfig(
        alphas=ALPHA3.alphas,
        n=1,
        p_grid=(1e6, 1e8),
        trials=300,
        seed=5,
        eps=EPS_FLAT,
    )
    assert run_monte_carlo(config).to_json() == run_monte_carlo(config).to_json()


def test_run_monte_carlo_gdof_estimate_matches_rate_accounting():
    import math

    p = 1e10
    config = SimConfig(
        alphas=ALPHA3.alphas, n=1, p_grid=(p,), trials=500, seed=2, eps=EPS_FLAT,
        noise_std=0.0,
    )
    report = run_monte_carlo(config)
    plan = build_layer_plan(ALPHA3, 1, eps=EPS_FLAT, p=p)
    expected = sum(
        plan.layer(ell).n_dims * math.log2(1 + 2 * plan.layer(ell).q_level)
        for k in (1, 2, 3)
        for ell in range(1, k + 1)
    ) / (0.5 * math.log2(p))
    assert report.summaries[0]["gdof_estimate"] == pytest.approx(expected)
    assert report.summaries[0]["gdof_estimate"] < 1.0  # stays below the n=1 rate
    assert report.summaries[0]["frame_success_rate"] == 1.0


def test_run_monte_carlo_k2():
    config = SimConfig(
        alphas=(F(2, 5), F(1)), n=1, p_grid=(1e8,), trials=200, seed=3,
        eps=F(19, 100), noise_std=0.0,
    )
    report = run_monte_carlo(config)
    assert report.summaries[0]["frame_success_rate"] == 1.0


@pytest.mark.parametrize(
    "alphas,eps,p,seed",
    [
        ((F(1, 2), F(1, 2), F(1)), F(16, 100), 1e10, 2),  # pair layer inactive
        ((F(1, 2), F(4, 5), F(4, 5)), F(12, 100), 1e10, 2),  # last layer inactive
        ((F(1, 2), F(1, 2), F(4, 5), F(1)), F(12, 100), 1e16, 1),  # aligned layer
    ],
)
def test_inactive_layers_are_skipped_cleanly(alphas, eps, p, seed):
    """Profiles with repeated strengths drop the tied layer entirely; the
    remaining chain still decodes exactly at high enough P."""
    config = SimConfig(
        alphas=alphas, n=1, p_grid=(p,), trials=200, seed=seed, eps=eps,
        noise_std=0.0,
    )
    report = run_monte_carlo(config)
    assert report.summaries[0]["frame_success_rate"] == 1.0
    k = len(alphas)
    inactive = {
        ell for ell in range(2, k + 1) if alphas[ell - 1] == alphas[ell - 2]
    }
    assert inactive
    reported_layers = {cell["layer"] for cell in report.cells}
    assert not reported_layers & inactive


def test_run_monte_carlo_with_dmin_columns():
    config = SimConfig(
        alphas=ALPHA3.alphas, n=1, p_grid=(1e6,), trials=10, seed=4, with_dmin=True
    )
    report = run_monte_carlo(config)
    cell = report.cell(1e6, 2, 1)
    assert cell["dmin"] > 0 and cell["tbound"] > 0
    assert report.cell(1e6, 2, 2)["dmin"] is None  # defined for aligned layers only
    rows = report.csv_rows()
    assert rows[0] == ["p", "user", "layer", "trials", "errors", "ser", "dmin", "tbound"]
