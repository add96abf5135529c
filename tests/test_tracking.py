import cmath
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

import ristrack.simengine as simengine
from oracles import brute_force_gain, synthetic_transition
from ristrack import (
    CandidatePair,
    ChannelState,
    LinkGeometry,
    ProposedPolicy,
    SearchGrid,
    TrackingObservables,
    TrajectorySpec,
    coherent_gain_values,
    generate_path,
    measure_observables,
    received_sample,
    run_timeline,
    select_by_training,
    two_dim_search,
    update_config,
    wrap_principal,
)
from ristrack.wavefield import TWO_PI

GEOM = LinkGeometry(r1=4.0)


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
        y_ref, y_now, _ = synthetic_transition(theta_ref, d_theta, d_r, GEOM)
        obs = measure_observables(y_ref, y_now, GEOM.r1 + 4.0, theta_ref)
        w = math.sin(theta_ref + d_theta) - math.sin(theta_ref)
        gain = complex(coherent_gain_values(w, GEOM.n_ris, GEOM.spacing_d, GEOM.wavelength))
        rho = 8.0 / (8.0 + d_r)
        assert obs.eta == pytest.approx(rho**2 * abs(gain)**2 / GEOM.n_ris**2, rel=1e-9)
        want_xi = wrap_principal(2 * math.pi * d_r / GEOM.wavelength + cmath.phase(gain))
        assert obs.xi == pytest.approx(want_xi, abs=1e-9)

    def test_xi_is_the_np_angle_form_bit_for_bit(self):
        # both phases come from numpy's arctan2 in one call; libm's atan2
        # (cmath.phase) differs from it in the last ulp on some hosts
        rng = np.random.default_rng(5)
        axes = [complex(1.0, 0.0), complex(1.0, -0.0), complex(-1.0, 0.0), complex(-1.0, -0.0),
                complex(0.0, 1.0), complex(-0.0, 1.0), complex(0.0, -1.0), complex(-0.0, -1.0)]
        draws = ((rng.standard_normal(400) + 1j * rng.standard_normal(400))
                 * np.exp(rng.uniform(-10.0, 10.0, 400))).tolist()
        pairs = ([(a, b) for a in axes for b in axes + draws[:10]]
                 + [(b, a) for a in axes for b in draws[:10]] + list(zip(draws[::2], draws[1::2])))
        for y_ref, y_now in pairs:
            obs = measure_observables(y_ref, y_now, 8.0, 0.3)
            want = wrap_principal(np.angle(y_now) - np.angle(y_ref))
            assert repr(obs.xi) == repr(want), (y_ref, y_now)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            measure_observables(0.0j, 1.0 + 0.0j, 8.0, 0.3)

    @pytest.mark.parametrize("field, value", [
        (field, value) for field in ("eta", "r_ref")
        for value in (math.nan, math.inf, -math.inf, 0.0, -1.0)
    ] + [("theta2_ref", value) for value in (math.nan, math.inf, -math.inf)]
      + [("xi", value) for value in (math.nan, math.inf, -math.pi)])
    def test_non_finite_or_out_of_range_field_rejected(self, field, value):
        values = dict(eta=0.5, xi=0.1, r_ref=8.0, theta2_ref=-0.3)
        TrackingObservables(**values)
        values[field] = value
        with pytest.raises(ValueError, match=field):
            TrackingObservables(**values)
        # numpy scalars, as the engine passes them, are checked the same way
        values[field] = np.float64(value)
        with pytest.raises(ValueError, match=field):
            TrackingObservables(**values)


class TestSearchGrid:
    def test_defaults(self):
        grid = SearchGrid()
        assert grid.theta2_halfwidth == pytest.approx(np.deg2rad(2.5))
        assert grid.theta2_step == pytest.approx(np.deg2rad(0.05))
        assert grid.r_halfwidth == pytest.approx(0.005)
        assert grid.n_sol == 7
        # the search scores no distance grid, so it has no distance step
        assert [f.name for f in fields(SearchGrid)] == [
            "theta2_halfwidth", "theta2_step", "r_halfwidth", "n_sol"]

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchGrid(n_sol=0)
        with pytest.raises(ValueError):
            SearchGrid(theta2_step=np.deg2rad(3.0))
        # non-finite values fail at construction, not at the first search
        for name in ("theta2_halfwidth", "theta2_step", "r_halfwidth"):
            for value in (math.nan, math.inf, 0.0, -1.0):
                with pytest.raises(ValueError, match=name):
                    SearchGrid(**{name: value})
        for n_sol in (2.5, 7.0, "7"):
            with pytest.raises(ValueError, match="n_sol must be an integer"):
                SearchGrid(n_sol=n_sol)
        assert SearchGrid(n_sol=np.int64(3)).n_sol == 3


def fit_totals(obs, geom, w, r):
    """Search objective at every (w, r) pair, as a (w.size, r.size) array.

    Each angle's gain is the explicit element sum sum_k exp(j*kd*k*w), not
    coherent_gain_values.
    """
    acc = brute_force_gain(TWO_PI * geom.spacing_d / geom.wavelength * w, geom.n_ris)
    gm = np.abs(acc) / geom.n_ris
    ga = np.angle(acc)
    e1 = np.abs((obs.r_ref / r)[None, :] ** 2 * (gm**2)[:, None] - obs.eta)
    e2 = np.abs(wrap_principal(
        (2 * math.pi * (r - obs.r_ref) / geom.wavelength)[None, :] + ga[:, None] - obs.xi
    ))
    return e1 + e2


def brute_force_minimum(obs, geom, theta_halfwidth, theta_step, r_halfwidth, r_step):
    """Fine-grid reimplementation of the search objective (direct-sum gains).

    Every (angle, distance) grid point is scored by fit_totals. Returns
    (theta, |w|, total_error) of the first global grid minimiser in
    angle-major order. The observables determine |w| only up to sign, so
    comparisons use |w|.
    """
    n_th = int(round(2 * theta_halfwidth / theta_step)) + 1
    n_r = int(round(2 * r_halfwidth / r_step)) + 1
    theta = obs.theta2_ref - theta_halfwidth + np.arange(n_th) * theta_step
    w = np.sin(theta) - math.sin(obs.theta2_ref)
    r = obs.r_ref - r_halfwidth + np.arange(n_r) * r_step
    total = fit_totals(obs, geom, w, r)
    best = int(np.argmin(total))
    i = best // n_r
    return theta[i], abs(w[i]), total.flat[best]


def assert_no_finer_distance_wins(obs, grid, geom):
    """No distance of a 10x finer grid than the loop's beats a candidate on its row.

    Each candidate's total must be at most the minimum of fit_totals over its
    own angle row on a lambda/500 distance grid spanning the window edges,
    within rounding: one ulp of its distance on the phase residual, plus a
    few ulps of the strength terms, which the direct-sum gains round
    differently.
    """
    candidates = two_dim_search(obs, grid, geom)
    n_r = int(round(2 * grid.r_halfwidth / (geom.wavelength / 500))) + 1
    r = np.linspace(obs.r_ref - grid.r_halfwidth, obs.r_ref + grid.r_halfwidth, n_r)
    finer = fit_totals(obs, geom, np.array([c.w_cand for c in candidates]), r).min(axis=1)
    for c, row_min in zip(candidates, finer.tolist()):
        slack = (TWO_PI / geom.wavelength * math.ulp(c.r_cand)
                 + 8 * math.ulp(obs.eta + (obs.r_ref / c.r_cand) ** 2))
        assert c.error_total <= row_min + slack, (obs, c, row_min)


def loop_two_dim_search(obs, grid, geom):
    """Per-angle reference implementation of two_dim_search.

    Builds each angle's distance set (a lambda/50 grid over the window, the
    phase-residual zeros inside the window, the calibration distance when
    inside the window, all positive), keeps its first minimum and sorts by
    (total, |w|, angle). The search itself scores no grid: on its
    precondition the window edges and the zeros hold each row's minimum.
    """
    r_step = geom.wavelength / 50.0
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
    # just above the smallest r_ref the search accepts on this grid (1.066 cm);
    # the 3 mm of earlier versions is now refused (TOO_CLOSE["r_ref_3_mm"])
    "tiny_r_ref": (dict(r_ref=0.012), SearchGrid(), GEOM),
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
    # every cell totals inf, so each row's lower window edge wins the tie, as
    # the loop's first grid distance does
    "eta_infinite": (dict(eta=math.inf), SearchGrid(), GEOM),
    # phase residuals reach +-6*pi, more than two turns from zero
    "r_window_two_wavelengths": ({}, SearchGrid(r_halfwidth=2 * GEOM.wavelength), GEOM),
    # a window narrower than a wavelength leaves many rows without a phase
    # zero, so only the window edges can win them
    "narrow_r_window": ({}, SearchGrid(r_halfwidth=0.001), GEOM),
}

# observables too close to the surface for the search's precondition
TOO_CLOSE = {
    "r_ref_3_mm": (dict(r_ref=0.003), SearchGrid(), GEOM),
    "below_the_bound": (dict(r_ref=0.0106), SearchGrid(), GEOM),
    "narrow_r_window_tiny_r_ref": (dict(r_ref=0.0008), SearchGrid(r_halfwidth=0.001), GEOM),
    "window_wider_than_r_ref": (dict(r_ref=4.0), SearchGrid(r_halfwidth=5.0), GEOM),
    "r_ref_nan": (dict(r_ref=math.nan), SearchGrid(), GEOM),
}


def searches_in(policy, geom, runs):
    """Inputs of every search that runs of `policy` make on (walk, noise seed) pairs."""
    seen = []
    real = simengine.two_dim_search

    def record(obs, grid, g):
        seen.append((obs, grid, g))
        return real(obs, grid, g)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simengine, "two_dim_search", record)
        for walk, noise_seed in runs:
            run_timeline(walk, policy, geom, noise_seed=noise_seed)
    return seen


@pytest.fixture(scope="module")
def recorded_searches():
    """Inputs of every search in short proposed runs of a fast two-turn walk.

    A fast walk with a high threshold puts eta near gamma, where many rows
    score close totals; uniformly drawn observables seldom do.
    """
    geom = LinkGeometry()
    turns = ((np.deg2rad(70.0), 0.1), (np.deg2rad(150.0), 0.1))
    spec = TrajectorySpec(speed_v=1.8, path_length=0.1)
    return searches_in(ProposedPolicy(gamma=0.95), geom, [
        (generate_path(replace(spec, rng_seed=seed), turns, geom), seed + 1) for seed in (14, 15)])


# pins and grids for the n_sol prefix checks: random observables, a NaN
# strength ratio (which the per-angle loop cannot rank) and edge cases
PRUNING_CASES = {
    "random": ({}, SearchGrid(), GEOM),
    "eta_nan": (dict(eta=math.nan), SearchGrid(), GEOM),
    **{case: EDGE_CASES[case] for case in ("eta_infinite", "tiny_r_ref", "narrow_r_window")},
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
        y_ref, y_now, _ = synthetic_transition(theta_ref, d_theta, d_r, GEOM)
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
            y_ref, y_now, _ = synthetic_transition(theta_ref, np.deg2rad(d_theta_deg), d_r, GEOM)
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
            y_ref, y_now, _ = synthetic_transition(theta_ref, d_theta, d_r, GEOM)
            obs = measure_observables(y_ref, y_now, 8.0, theta_ref)
            top = two_dim_search(obs, grid, GEOM)
            w_true = math.sin(theta_ref + d_theta) - math.sin(theta_ref)
            step_w = math.sin(theta_ref + grid.theta2_step) - math.sin(theta_ref)
            hits += any(abs(c.w_cand - w_true) <= step_w * 1.01 for c in top)
        assert hits >= trials - 1

    def test_pure_function_and_ordering(self):
        theta_ref = np.deg2rad(25.0)
        y_ref, y_now, _ = synthetic_transition(theta_ref, np.deg2rad(0.3), 0.001, GEOM)
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
        y_ref, y_now, _ = synthetic_transition(theta_ref, np.deg2rad(0.4), 0.0015, GEOM)
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
            got = two_dim_search(obs, grid, geom)
            want = loop_two_dim_search(obs, grid, geom)
            if case != "xi_pi":
                assert got == want
                continue
            # a phase zero can fall exactly on a grid distance of the loop,
            # whose rounding then gives a residual one ulp smaller: the
            # ranking stays exact, the distance and errors may move by an ulp
            assert [(c.theta2_cand, c.w_cand) for c in got] == [
                (c.theta2_cand, c.w_cand) for c in want]
            for a, b in zip(got, want):
                ulp = math.ulp(b.r_cand)
                assert a.r_cand == pytest.approx(b.r_cand, rel=0, abs=ulp)
                for name in ("error_total", "error_rss", "error_angle"):
                    assert getattr(a, name) == pytest.approx(
                        getattr(b, name), rel=0, abs=TWO_PI / geom.wavelength * ulp)

    def test_equals_per_angle_loop_on_recorded_observables(self, recorded_searches):
        assert len(recorded_searches) >= 20
        for obs, grid, geom in recorded_searches:
            assert two_dim_search(obs, grid, geom) == loop_two_dim_search(obs, grid, geom)

    @pytest.mark.parametrize("case", sorted({"random", *EDGE_CASES}))
    def test_no_finer_distance_wins(self, case):
        fixed, grid, geom = EDGE_CASES.get(case, PRUNING_CASES["random"])
        rng = np.random.default_rng(41)
        for _ in range(100):
            assert_no_finer_distance_wins(random_observables(rng, **fixed), grid, geom)

    def test_no_finer_distance_wins_on_recorded_observables(self, recorded_searches):
        for obs, grid, geom in recorded_searches:
            assert_no_finer_distance_wins(obs, grid, geom)

    @pytest.mark.parametrize("case", sorted(PRUNING_CASES))
    def test_pruning_cannot_change_the_ranking(self, case):
        # whatever n_sol, every result is a prefix of the full ranking. repr
        # compares NaN totals, which == does not
        fixed, grid, geom = PRUNING_CASES[case]
        rng = np.random.default_rng(31)
        n_theta = 101
        for _ in range(40):
            obs = random_observables(rng, **fixed)
            full = two_dim_search(obs, replace(grid, n_sol=n_theta), geom)
            assert len(full) == n_theta
            for k in (1, 2, 7, 100, 101, 200):
                assert repr(two_dim_search(obs, replace(grid, n_sol=k), geom)) == repr(full[:k])

    def test_pruning_cannot_change_the_ranking_on_recorded_observables(self, recorded_searches):
        for obs, grid, geom in recorded_searches:
            full = two_dim_search(obs, SearchGrid(n_sol=101), geom)
            for k in (1, 2, 7, 100):
                assert two_dim_search(obs, SearchGrid(n_sol=k), geom) == full[:k]

    def test_default_scene_candidates_sit_at_phase_zeros(self):
        # h >= lambda/2 puts each row's minimum at a zero of the phase residual
        # (module docstring). A zero's distance r_ref + zero_base + k*lambda is
        # rounded twice, to within one ulp of r_ref + h, which (2*pi/lambda)*(r
        # - r_ref) turns into 2*pi/lambda such ulps of phase; the phase's own
        # products, sums and wrap add a few ulps of 4*pi
        geom, h = LinkGeometry(), SearchGrid().r_halfwidth
        assert 2 * h >= geom.wavelength
        runs = [(generate_path(TrajectorySpec(rng_seed=s), (), geom), s + 1) for s in (1, 2, 3)]
        searches = searches_in(ProposedPolicy(), geom, runs)
        candidates = [(obs, c) for obs, grid, g in searches for c in two_dim_search(obs, grid, g)]
        assert len(candidates) > 1000
        for obs, c in candidates:
            bound = TWO_PI / geom.wavelength * math.ulp(obs.r_ref + h) + 8 * math.ulp(4 * math.pi)
            assert abs(c.error_angle) <= bound, (obs, c)

    def test_nan_total_takes_first_grid_cell(self):
        # a NaN strength ratio makes every cell NaN; as in argmin over the
        # whole row, the first NaN wins: the lower window edge, which is also
        # the loop's first grid distance. The loop's sort is undefined on NaN
        # keys, so every row is returned and rows are matched by angle; repr
        # compares the NaN totals, which == does not
        grid = SearchGrid(n_sol=101)
        rng = np.random.default_rng(11)
        for _ in range(10):
            obs = random_observables(rng, eta=math.nan)
            got = two_dim_search(obs, grid, GEOM)
            want = loop_two_dim_search(obs, grid, GEOM)
            assert len(got) == 101 and all(math.isnan(c.error_total) for c in got)
            by_angle = lambda cands: sorted(cands, key=lambda c: c.theta2_cand)
            assert repr(by_angle(got)) == repr(by_angle(want))

    def test_masked_cells_do_not_warn(self):
        # no distance is masked any more: near the surface the search either
        # scores every column without a numpy warning or, below its
        # precondition, raises before any arithmetic
        rng = np.random.default_rng(7)
        fixed, grid, geom = EDGE_CASES["tiny_r_ref"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(50):
                assert two_dim_search(random_observables(rng, **fixed), grid, geom)
            for fixed, grid, geom in TOO_CLOSE.values():
                with pytest.raises(ValueError, match="r_ref="):
                    two_dim_search(random_observables(rng, **fixed), grid, geom)

    @pytest.mark.parametrize("case", sorted(TOO_CLOSE))
    def test_window_too_close_to_the_surface_is_rejected(self, case):
        # below the precondition the edges and zeros need not hold a row's
        # minimum, so the search refuses rather than rank on a guess
        fixed, grid, geom = TOO_CLOSE[case]
        obs = random_observables(np.random.default_rng(7), **fixed)
        with pytest.raises(ValueError, match=(
                rf"r_ref={obs.r_ref}, r_halfwidth={grid.r_halfwidth}, "
                rf"wavelength={geom.wavelength}$")):
            two_dim_search(obs, grid, geom)


class TestSelectByTraining:
    def test_single_candidate_wins(self):
        obs = measure_observables(1.0 + 0.0j, 1.0 + 0.0j, 8.0, np.deg2rad(25.0))
        cands = two_dim_search(obs, SearchGrid(n_sol=1), GEOM)
        assert select_by_training(cands, [1.0]) == 0

    def test_true_candidate_wins_under_noiseless_probe(self):
        theta_ref = np.deg2rad(25.0)
        d_theta = np.deg2rad(0.87)
        y_ref, y_now, slope_ref = synthetic_transition(theta_ref, d_theta, 0.001, GEOM)
        obs = measure_observables(y_ref, y_now, 8.0, theta_ref)
        cands = two_dim_search(obs, SearchGrid(), GEOM)
        truth = ChannelState(beta=0.8 + 0.3j, theta2=theta_ref + d_theta, r2=4.0)
        slopes = update_config(slope_ref, [c.w_cand for c in cands], GEOM)
        rss = [abs(received_sample(truth, s, GEOM)) ** 2 for s in slopes]
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
