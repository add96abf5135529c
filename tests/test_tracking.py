import cmath
import math
import warnings

import numpy as np
import pytest

from ristrack import (
    CandidatePair,
    ChannelState,
    LinkGeometry,
    SearchGrid,
    TrackingObservables,
    coherent_gain_values,
    measure_observables,
    optimal_config,
    r_from_eta,
    received_sample,
    select_by_training,
    two_dim_search,
    update_config,
    wrap_principal,
)
from ristrack.wavefield import TWO_PI

GEOM = LinkGeometry(r1=4.0)


def synthetic_transition(theta_ref, d_theta, d_r, r2_ref=4.0, beta_ref=0.8 + 0.3j,
                         geom=GEOM):
    """Noiseless before/after samples of one status transition.

    The reference slot uses the aligned configuration; the transition slot
    keeps that stale configuration while the channel moves by (d_theta, d_r).
    """
    cfg = optimal_config(geom.theta1, theta_ref, geom)
    ref_state = ChannelState(beta=beta_ref, theta2=theta_ref, r2=r2_ref)
    rho = (geom.r1 + r2_ref) / (geom.r1 + r2_ref + d_r)
    beta_now = rho * beta_ref * cmath.exp(2j * math.pi * d_r / geom.wavelength)
    now_state = ChannelState(beta=beta_now, theta2=theta_ref + d_theta, r2=r2_ref + d_r)
    y_ref = received_sample(ref_state, cfg, geom)
    y_now = received_sample(now_state, cfg, geom)
    return y_ref, y_now, cfg


class TestMeasureObservables:
    def test_identical_samples(self):
        obs = measure_observables(1.0 + 1.0j, 1.0 + 1.0j, r_ref=8.0, theta2_ref=0.3)
        assert obs.eta == pytest.approx(1.0)
        assert obs.xi == pytest.approx(0.0)

    def test_scaled_rotation(self):
        y = 2.0 - 1.0j
        obs = measure_observables(y, 0.5 * y * cmath.exp(1j * math.pi / 3), 8.0, 0.3)
        assert obs.eta == pytest.approx(0.25)
        assert obs.xi == pytest.approx(math.pi / 3)

    def test_matches_closed_form_model(self):
        # eta = rho^2 |gain|^2 / N^2 and xi = 2*pi*r_delta/lambda + angle(gain)
        theta_ref, d_theta, d_r = np.deg2rad(25.0), np.deg2rad(0.4), 0.0013
        y_ref, y_now, _ = synthetic_transition(theta_ref, d_theta, d_r)
        obs = measure_observables(y_ref, y_now, GEOM.r1 + 4.0, theta_ref)
        w = math.sin(theta_ref + d_theta) - math.sin(theta_ref)
        gain = complex(coherent_gain_values(w, GEOM.n_ris, GEOM.spacing_d, GEOM.wavelength))
        rho = 8.0 / (8.0 + d_r)
        assert obs.eta == pytest.approx(rho**2 * abs(gain)**2 / GEOM.n_ris**2, rel=1e-9)
        want_xi = wrap_principal(2 * math.pi * d_r / GEOM.wavelength + cmath.phase(gain))
        assert obs.xi == pytest.approx(want_xi, abs=1e-9)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            measure_observables(0.0j, 1.0 + 0.0j, 8.0, 0.3)

    @pytest.mark.parametrize("field, value", [
        (field, value) for field in ("eta", "rss_ref", "r_ref")
        for value in (math.nan, math.inf, -math.inf, 0.0, -1.0)
    ] + [("theta2_ref", value) for value in (math.nan, math.inf, -math.inf)]
      + [("xi", value) for value in (math.nan, math.inf, -math.pi)])
    def test_non_finite_or_out_of_range_field_rejected(self, field, value):
        values = dict(eta=0.5, xi=0.1, rss_ref=2.0, r_ref=8.0, theta2_ref=-0.3)
        TrackingObservables(**values)
        values[field] = value
        with pytest.raises(ValueError, match=field):
            TrackingObservables(**values)
        # numpy scalars, as the engine passes them, are checked the same way
        values[field] = np.float64(value)
        with pytest.raises(ValueError, match=field):
            TrackingObservables(**values)


class TestRFromEta:
    def test_no_drop_returns_reference(self):
        obs = measure_observables(1.0 + 0.0j, 1.0 + 0.0j, r_ref=8.0, theta2_ref=0.3)
        assert r_from_eta(obs, gain_mag=64.0, n_ris=64) == pytest.approx(8.0)

    def test_pure_pathloss_reading(self):
        obs = measure_observables(2.0 + 0.0j, 1.0 + 0.0j, r_ref=8.0, theta2_ref=0.3)
        assert obs.eta == pytest.approx(0.25)
        assert r_from_eta(obs, gain_mag=64.0, n_ris=64) == pytest.approx(16.0)

    def test_inverts_rho_with_true_gain(self):
        theta_ref, d_theta, d_r = np.deg2rad(25.0), np.deg2rad(0.5), 0.002
        y_ref, y_now, _ = synthetic_transition(theta_ref, d_theta, d_r)
        obs = measure_observables(y_ref, y_now, 8.0, theta_ref)
        w = math.sin(theta_ref + d_theta) - math.sin(theta_ref)
        gain = complex(coherent_gain_values(w, GEOM.n_ris, GEOM.spacing_d, GEOM.wavelength))
        rho = 8.0 / (8.0 + d_r)
        assert r_from_eta(obs, abs(gain), GEOM.n_ris) == pytest.approx(8.0 / rho, rel=1e-9)


class TestSearchGrid:
    def test_defaults(self):
        grid = SearchGrid()
        assert grid.theta2_halfwidth == pytest.approx(np.deg2rad(2.5))
        assert grid.theta2_step == pytest.approx(np.deg2rad(0.05))
        assert grid.r_halfwidth == pytest.approx(0.005)
        assert grid.r_step is None
        assert grid.n_sol == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchGrid(n_sol=0)
        with pytest.raises(ValueError):
            SearchGrid(theta2_step=np.deg2rad(3.0))
        with pytest.raises(ValueError):
            SearchGrid(r_step=0.01)


def brute_force_minimum(obs, geom, theta_halfwidth, theta_step, r_halfwidth, r_step):
    """Fine-grid reimplementation of the search objective (direct-sum gains).

    Every (angle, distance) grid point is scored; each angle's gain is the
    explicit element sum sum_k exp(j*kd*k*w). Returns (theta, |w|,
    total_error) of the first global grid minimiser in angle-major order. The
    observables determine |w| only up to sign, so comparisons use |w|.
    """
    kd = 2 * math.pi * geom.spacing_d / geom.wavelength
    n_th = int(round(2 * theta_halfwidth / theta_step)) + 1
    n_r = int(round(2 * r_halfwidth / r_step)) + 1
    theta = obs.theta2_ref - theta_halfwidth + np.arange(n_th) * theta_step
    w = np.sin(theta) - math.sin(obs.theta2_ref)
    acc = np.exp(1j * kd * np.arange(geom.n_ris)[None, :] * w[:, None]).sum(axis=1)
    gm = np.abs(acc) / geom.n_ris
    ga = np.angle(acc)
    r = obs.r_ref - r_halfwidth + np.arange(n_r) * r_step
    e1 = np.abs((obs.r_ref / r)[None, :] ** 2 * (gm**2)[:, None] - obs.eta)
    e2 = np.abs(wrap_principal(
        (2 * math.pi * (r - obs.r_ref) / geom.wavelength)[None, :] + ga[:, None] - obs.xi
    ))
    total = e1 + e2
    best = int(np.argmin(total))
    i = best // n_r
    return theta[i], abs(w[i]), total.flat[best]


def loop_two_dim_search(obs, grid, geom):
    """Per-angle reference implementation of two_dim_search.

    Builds each angle's distance set (grid distances, phase-residual zeros
    inside the window, calibration distance when inside the window, all
    positive), keeps its first minimum and sorts by (total, |w|, angle).
    """
    r_step = grid.r_step if grid.r_step is not None else geom.wavelength / 50.0
    n_theta = int(round(2.0 * grid.theta2_halfwidth / grid.theta2_step)) + 1
    thetas = obs.theta2_ref + np.linspace(
        -grid.theta2_halfwidth, grid.theta2_halfwidth, n_theta
    )
    w = np.sin(thetas) - np.sin(obs.theta2_ref)
    gains = coherent_gain_values(w, geom.n_ris, geom.spacing_d, geom.wavelength)
    gain_mag = np.abs(gains)
    gain_ang = np.angle(gains)
    gain_ratio = gain_mag / geom.n_ris

    n_r = int(round(2.0 * grid.r_halfwidth / r_step)) + 1
    base_offsets = np.linspace(-grid.r_halfwidth, grid.r_halfwidth, n_r)
    sqrt_eta = np.sqrt(obs.eta)
    lam = geom.wavelength

    candidates = []
    for i in range(n_theta):
        r_cal = obs.r_ref * gain_mag[i] / (sqrt_eta * geom.n_ris)
        r_set = obs.r_ref + base_offsets
        zero_base = (obs.xi - gain_ang[i]) * lam / TWO_PI
        k_lo = np.ceil((-grid.r_halfwidth - zero_base) / lam)
        k_hi = np.floor((grid.r_halfwidth - zero_base) / lam)
        if k_hi >= k_lo:
            ks = np.arange(k_lo, k_hi + 1)
            r_set = np.concatenate([r_set, obs.r_ref + zero_base + ks * lam])
        if abs(r_cal - obs.r_ref) <= grid.r_halfwidth:
            r_set = np.append(r_set, r_cal)
        r_set = r_set[r_set > 0]
        if r_set.size == 0:
            continue
        ratio_sq = (obs.r_ref / r_set) ** 2
        error_rss = np.abs(ratio_sq * gain_ratio[i] ** 2 - obs.eta)
        error_angle = np.abs(
            wrap_principal((TWO_PI / lam) * (r_set - obs.r_ref) + gain_ang[i] - obs.xi)
        )
        total = error_rss + error_angle
        j = int(np.argmin(total))
        candidates.append(
            CandidatePair(
                theta2_cand=float(thetas[i]),
                w_cand=float(w[i]),
                r_cand=float(r_set[j]),
                error_total=float(total[j]),
                error_rss=float(error_rss[j]),
                error_angle=float(error_angle[j]),
            )
        )

    candidates.sort(key=lambda c: (c.error_total, abs(c.w_cand), c.theta2_cand))
    return candidates[: grid.n_sol]


def random_observables(rng, **fixed):
    """Seeded random observables; keyword arguments pin single fields.

    A non-finite pinned value, which the constructor rejects, is set past its
    checks, so the search's rules for NaN and infinite totals stay pinned.
    """
    values = dict(
        eta=float(np.exp(rng.uniform(np.log(1e-3), np.log(4.0)))),
        xi=wrap_principal(rng.uniform(-math.pi, math.pi)),
        rss_ref=1.0,
        r_ref=rng.uniform(2.0, 15.0),
        theta2_ref=np.deg2rad(rng.uniform(-60.0, 60.0)),
    )
    values.update(fixed)
    if all(map(math.isfinite, values.values())):
        return TrackingObservables(**values)
    obs = object.__new__(TrackingObservables)
    for name, value in values.items():
        object.__setattr__(obs, name, value)
    return obs


# (observable pins, grid, geometry) of the matrix search's edge cases
EDGE_CASES = {
    "tiny_r_ref": (dict(r_ref=0.003), SearchGrid(), GEOM),
    "wide_r_window": ({}, SearchGrid(r_halfwidth=0.02), GEOM),
    "five_angles": (
        {}, SearchGrid(theta2_halfwidth=np.deg2rad(0.1), theta2_step=np.deg2rad(0.05)), GEOM,
    ),
    "two_elements": ({}, SearchGrid(), LinkGeometry(r1=4.0, n_ris=2)),
    "four_elements": ({}, SearchGrid(), LinkGeometry(r1=4.0, n_ris=4)),
    "xi_pi": (dict(xi=math.pi), SearchGrid(), GEOM),
    "eta_tiny": (dict(eta=1e-6), SearchGrid(), GEOM),
    "eta_large": (dict(eta=50.0), SearchGrid(), GEOM),
    # the stationary observable: the centre row's phase zero, calibration
    # distance and centre grid distance coincide at r_ref with a zero total
    "stationary": (dict(eta=1.0, xi=0.0), SearchGrid(), GEOM),
    # every cell totals inf, so each row's first grid column wins the tie
    # against the exact columns at other distances
    "eta_infinite": (dict(eta=math.inf), SearchGrid(), GEOM),
    # phase residuals reach +-6*pi, past the comparison wrap's range
    "r_window_two_wavelengths": ({}, SearchGrid(r_halfwidth=2 * GEOM.wavelength), GEOM),
}


class TestTwoDimSearch:
    def test_stationary_transition(self):
        obs = measure_observables(1.0 + 0.0j, 1.0 + 0.0j, r_ref=8.0, theta2_ref=np.deg2rad(25.0))
        grid = SearchGrid()
        top = two_dim_search(obs, grid, GEOM)
        assert abs(top[0].w_cand) < 1e-12
        assert top[0].r_cand == pytest.approx(8.0, abs=1e-9)

    def test_known_shift_recovered(self):
        theta_ref = np.deg2rad(25.0)
        d_theta, d_r = np.deg2rad(0.512), 0.00203
        y_ref, y_now, _ = synthetic_transition(theta_ref, d_theta, d_r)
        obs = measure_observables(y_ref, y_now, 8.0, theta_ref)
        grid = SearchGrid()
        top = two_dim_search(obs, grid, GEOM)
        w_true = math.sin(theta_ref + d_theta) - math.sin(theta_ref)
        step_w = math.sin(theta_ref + grid.theta2_step) - math.sin(theta_ref)
        assert any(abs(c.w_cand - w_true) <= step_w * 1.01 for c in top)

    def test_agrees_with_fine_grid_brute_force(self):
        # the 10x-resolution brute force must not find a structurally better
        # |w| than the candidate set (sign is not identifiable from the
        # residuals alone; the training probes resolve it)
        theta_ref = np.deg2rad(24.0)
        for d_theta_deg, d_r in ((0.31, 0.0011), (-0.74, -0.0022), (1.13, 0.0035)):
            y_ref, y_now, _ = synthetic_transition(theta_ref, np.deg2rad(d_theta_deg), d_r)
            obs = measure_observables(y_ref, y_now, 8.0, theta_ref)
            grid = SearchGrid()
            top = two_dim_search(obs, grid, GEOM)
            _, w_star, _ = brute_force_minimum(
                obs, GEOM, grid.theta2_halfwidth, grid.theta2_step / 10,
                grid.r_halfwidth, GEOM.wavelength / 500,
            )
            step_w = math.sin(theta_ref + grid.theta2_step) - math.sin(theta_ref)
            assert any(abs(abs(c.w_cand) - w_star) <= step_w * 1.01 for c in top)

    def test_monte_carlo_recovery_rate(self):
        rng = np.random.default_rng(404)
        grid = SearchGrid()
        hits = 0
        trials = 40
        for _ in range(trials):
            theta_ref = np.deg2rad(rng.uniform(20.0, 45.0))
            d_theta = np.deg2rad(rng.uniform(-2.0, 2.0))
            d_r = rng.uniform(-0.004, 0.004)
            y_ref, y_now, _ = synthetic_transition(theta_ref, d_theta, d_r)
            obs = measure_observables(y_ref, y_now, 8.0, theta_ref)
            top = two_dim_search(obs, grid, GEOM)
            w_true = math.sin(theta_ref + d_theta) - math.sin(theta_ref)
            step_w = math.sin(theta_ref + grid.theta2_step) - math.sin(theta_ref)
            hits += any(abs(c.w_cand - w_true) <= step_w * 1.01 for c in top)
        assert hits >= trials - 1

    def test_pure_function_and_ordering(self):
        theta_ref = np.deg2rad(25.0)
        y_ref, y_now, _ = synthetic_transition(theta_ref, np.deg2rad(0.3), 0.001)
        obs = measure_observables(y_ref, y_now, 8.0, theta_ref)
        grid = SearchGrid()
        a = two_dim_search(obs, grid, GEOM)
        b = two_dim_search(obs, grid, GEOM)
        assert a == b
        totals = [c.error_total for c in a]
        assert totals == sorted(totals)
        thetas = [c.theta2_cand for c in a]
        assert len(set(thetas)) == len(thetas)
        for c in a:
            assert c.error_total == pytest.approx(c.error_rss + c.error_angle)
            assert c.error_total >= 0

    def test_total_error_invariant_to_xi_wrapping(self):
        # adding whole turns to the measured phase difference cannot matter
        # (the rotation perturbs the sample by one ulp, hence the tolerances)
        theta_ref = np.deg2rad(25.0)
        y_ref, y_now, _ = synthetic_transition(theta_ref, np.deg2rad(0.4), 0.0015)
        obs = measure_observables(y_ref, y_now, 8.0, theta_ref)
        shifted = measure_observables(
            y_ref, y_now * cmath.exp(4j * math.pi), 8.0, theta_ref
        )
        assert shifted.xi == pytest.approx(obs.xi, abs=1e-12)
        a = two_dim_search(obs, SearchGrid(), GEOM)
        b = two_dim_search(shifted, SearchGrid(), GEOM)
        assert [c.theta2_cand for c in a] == [c.theta2_cand for c in b]
        for ca, cb in zip(a, b):
            assert ca.error_total == pytest.approx(cb.error_total, abs=1e-9)

    def test_respects_n_sol(self):
        obs = measure_observables(1.0 + 0.0j, 0.9 + 0.1j, 8.0, np.deg2rad(25.0))
        assert len(two_dim_search(obs, SearchGrid(n_sol=3), GEOM)) == 3

    def test_equals_per_angle_loop_on_random_observables(self):
        rng = np.random.default_rng(2024)
        grid = SearchGrid()
        for _ in range(500):
            obs = random_observables(rng)
            assert two_dim_search(obs, grid, GEOM) == loop_two_dim_search(obs, grid, GEOM)

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_equals_per_angle_loop_on_edge_cases(self, case):
        fixed, grid, geom = EDGE_CASES[case]
        rng = np.random.default_rng(sorted(EDGE_CASES).index(case))
        for _ in range(100):
            obs = random_observables(rng, **fixed)
            assert two_dim_search(obs, grid, geom) == loop_two_dim_search(obs, grid, geom)

    def test_nan_total_takes_first_grid_cell(self):
        # a NaN strength ratio makes every unmasked cell NaN; as in argmin
        # over the whole row, the first NaN (the first positive grid
        # distance) wins. The loop's sort is undefined on NaN keys, so every
        # row is returned and rows are matched by angle; repr compares the
        # NaN totals, which == does not
        grid = SearchGrid(n_sol=101)
        rng = np.random.default_rng(11)
        for fixed in (dict(eta=math.nan), dict(eta=math.nan, r_ref=0.003)):
            for _ in range(10):
                obs = random_observables(rng, **fixed)
                got = two_dim_search(obs, grid, GEOM)
                want = loop_two_dim_search(obs, grid, GEOM)
                assert len(got) == 101 and all(math.isnan(c.error_total) for c in got)
                by_angle = lambda cands: sorted(cands, key=lambda c: c.theta2_cand)
                assert repr(by_angle(got)) == repr(by_angle(want))

    def test_masked_cells_do_not_warn(self):
        # with r_ref below r_halfwidth, non-positive distances are masked
        # before the division by r
        fixed, grid, geom = EDGE_CASES["tiny_r_ref"]
        rng = np.random.default_rng(7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(50):
                assert two_dim_search(random_observables(rng, **fixed), grid, geom)


class TestSelectByTraining:
    def test_single_candidate_wins(self):
        obs = measure_observables(1.0 + 0.0j, 1.0 + 0.0j, 8.0, np.deg2rad(25.0))
        cands = two_dim_search(obs, SearchGrid(n_sol=1), GEOM)
        assert select_by_training(cands, [1.0]) == 0

    def test_true_candidate_wins_under_noiseless_probe(self):
        theta_ref = np.deg2rad(25.0)
        d_theta = np.deg2rad(0.87)
        y_ref, y_now, cfg_ref = synthetic_transition(theta_ref, d_theta, 0.001)
        obs = measure_observables(y_ref, y_now, 8.0, theta_ref)
        cands = two_dim_search(obs, SearchGrid(), GEOM)
        truth = ChannelState(beta=0.8 + 0.3j, theta2=theta_ref + d_theta, r2=4.0)
        rss = [abs(received_sample(truth, update_config(cfg_ref, c.w_cand, GEOM), GEOM)) ** 2
               for c in cands]
        chosen = cands[select_by_training(cands, rss)]
        w_true = math.sin(theta_ref + d_theta) - math.sin(theta_ref)
        step_w = math.sin(theta_ref + np.deg2rad(0.05)) - math.sin(theta_ref)
        assert abs(chosen.w_cand - w_true) <= step_w * 1.01

    def test_tie_break_prefers_smaller_w(self):
        obs = measure_observables(1.0 + 0.0j, 1.0 + 0.0j, 8.0, np.deg2rad(25.0))
        cands = two_dim_search(obs, SearchGrid(n_sol=5), GEOM)
        smallest = min(range(5), key=lambda i: abs(cands[i].w_cand))
        assert select_by_training(cands, [42.0] * 5) == smallest
        # the tie-break only orders exact ties: a stronger candidate still wins
        largest = max(range(5), key=lambda i: abs(cands[i].w_cand))
        rss = [42.0] * 5
        rss[largest] = 42.0 + 1e-9
        assert select_by_training(cands, rss) == largest

    def test_needs_one_strength_per_candidate(self):
        obs = measure_observables(1.0 + 0.0j, 0.95 + 0.0j, 8.0, np.deg2rad(25.0))
        cands = two_dim_search(obs, SearchGrid(n_sol=4), GEOM)
        for rss in ([1.0, 2.0, 3.0], [1.0] * 5, [[1.0] * 4]):
            with pytest.raises(ValueError, match="one strength per candidate"):
                select_by_training(cands, rss)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            select_by_training([], [])
