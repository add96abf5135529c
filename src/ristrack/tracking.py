"""Feedback observables and the two-dimensional candidate search.

A tracking call sees only two complex samples: the reference sample captured
when the current configuration was installed and the sample at the slot where
the received strength dropped below threshold. The strength ratio eta and the
wrapped phase difference xi of those two samples are fitted against the
closed-form model over a (departure angle, total distance) grid. The best few
distinct-angle hypotheses become candidate configurations through the
differential update law; the timeline engine probes them over the air, one
training slot each, and the strongest one wins.

The distance dimension sweeps the physically reachable window around the
believed total distance. On top of the uniform grid, two kinds of exact
points are evaluated per angle: the calibration distance implied by the
strength ratio (when it falls inside the window) and the zeros of the wrapped
phase residual, so candidate ranking is not limited by grid quantisation.
Each angle is one row of two blocks. The grid block's distances are shared
by every row, so its distance ratio and phase ramp are column vectors. The
exact block holds each row's phase-residual zeros (padded to the longest
row) and its calibration distance; the cells a row does not have total
infinity. Each row keeps its first minimum over the grid columns followed by
the exact ones, exactly as argmin over the joined row would (ties go to the
grid, a NaN wins), and the rows are ranked by (total error, |w|, angle).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .ris import coherent_gain_values
from .wavefield import TWO_PI, LinkGeometry, wrap_principal


@dataclass(frozen=True)
class TrackingObservables:
    """Measured strength ratio and phase difference between two statuses.

    `r_ref` and `theta2_ref` are the believed total propagation distance
    (AP-RIS + RIS-UE) and departure angle at the reference status.
    """

    eta: float
    xi: float
    rss_ref: float
    r_ref: float
    theta2_ref: float

    def __post_init__(self):
        # written so that NaN fails every check
        for name in ("eta", "rss_ref", "r_ref"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not -np.pi < self.xi <= np.pi:
            raise ValueError(f"xi must lie in (-pi, pi], got {self.xi}")
        if not -np.inf < self.theta2_ref < np.inf:
            raise ValueError(f"theta2_ref must be finite, got {self.theta2_ref}")


@dataclass(frozen=True)
class CandidatePair:
    """One (angle, distance) hypothesis with its decomposed fit error."""

    theta2_cand: float
    w_cand: float
    r_cand: float
    error_total: float
    error_rss: float
    error_angle: float


@dataclass(frozen=True)
class SearchGrid:
    """Search ranges and steps for the two-dimensional candidate search.

    ``r_step=None`` resolves to wavelength/50 at call time.
    """

    theta2_halfwidth: float = np.deg2rad(2.5)
    theta2_step: float = np.deg2rad(0.05)
    r_halfwidth: float = 0.005
    r_step: float | None = None
    n_sol: int = 7

    def __post_init__(self):
        if self.theta2_halfwidth <= 0 or self.theta2_step <= 0:
            raise ValueError("theta2 halfwidth and step must be > 0")
        if self.theta2_step > self.theta2_halfwidth:
            raise ValueError("theta2_step must not exceed theta2_halfwidth")
        if self.r_halfwidth <= 0:
            raise ValueError("r_halfwidth must be > 0")
        if self.r_step is not None:
            if self.r_step <= 0:
                raise ValueError("r_step must be > 0")
            if self.r_step > self.r_halfwidth:
                raise ValueError("r_step must not exceed r_halfwidth")
        if self.n_sol < 1:
            raise ValueError("n_sol must be >= 1")


def measure_observables(
    y_ref: complex, y_now: complex, r_ref: float, theta2_ref: float
) -> TrackingObservables:
    """Strength ratio and wrapped phase difference of two received samples."""
    rss_ref = abs(y_ref) ** 2
    if rss_ref == 0:
        raise ValueError("reference sample must be nonzero")
    eta = abs(y_now) ** 2 / rss_ref
    xi = wrap_principal(np.angle(y_now) - np.angle(y_ref))
    return TrackingObservables(
        eta=eta, xi=xi, rss_ref=rss_ref, r_ref=r_ref, theta2_ref=theta2_ref
    )


def r_from_eta(
    obs: TrackingObservables, gain_mag: float | np.ndarray, n_ris: int
) -> float | np.ndarray:
    """Calibration distance implied by the strength ratio for a gain hypothesis.

    Inverts eta = (r_ref/r)^2 * (gain_mag/N)^2 for r. `gain_mag` is a scalar
    or an array of gain magnitudes; the result has the same shape.
    """
    return obs.r_ref * gain_mag / (np.sqrt(obs.eta) * n_ris)


@functools.lru_cache(maxsize=8)
def _grid_offsets(grid: SearchGrid, wavelength: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only angle and distance offsets of the search grid around the belief."""
    r_step = grid.r_step if grid.r_step is not None else wavelength / 50.0
    n_theta = int(round(2.0 * grid.theta2_halfwidth / grid.theta2_step)) + 1
    n_r = int(round(2.0 * grid.r_halfwidth / r_step)) + 1
    theta_off = np.linspace(-grid.theta2_halfwidth, grid.theta2_halfwidth, n_theta)
    r_off = np.linspace(-grid.r_halfwidth, grid.r_halfwidth, n_r)
    for arr in (theta_off, r_off):
        arr.setflags(write=False)
    return theta_off, r_off


def _score(obs: TrackingObservables, r_set, gain_ratio_sq, gain_ang, lam: float):
    """Strength and phase residuals of distances `r_set` for every angle row.

    `r_set` is one row of distances that every angle shares, or one row per
    angle; the residuals are (n_theta, n_distances) either way.
    """
    # strength residual on squared gain ratios, the relation r_cal inverts
    ratio_sq = (obs.r_ref / r_set) ** 2
    error_rss = ratio_sq * gain_ratio_sq[:, None]
    error_rss -= obs.eta
    np.abs(error_rss, out=error_rss)
    phase = (TWO_PI / lam) * (r_set - obs.r_ref) + gain_ang[:, None]
    phase -= obs.xi
    error_angle = wrap_principal(phase)
    np.abs(error_angle, out=error_angle)
    return error_rss, error_angle


def two_dim_search(
    obs: TrackingObservables, grid: SearchGrid, geom: LinkGeometry
) -> list[CandidatePair]:
    """Best distinct-angle hypotheses explaining the observables.

    Every candidate angle is one row of two blocks. The grid block's columns
    are the grid distances, which every row shares; the exact block's columns
    are the row's phase-residual zeros inside the window (padded to the
    longest row) and its calibration distance. Padding, a calibration
    distance outside the window and non-positive distances are masked with an
    infinite total. Each cell scores errorI (strength-ratio residual) plus
    errorII (wrapped phase residual); each row keeps its first minimum over
    the grid columns followed by the exact ones, and the rows are ranked by
    (total error, |w|, angle). At most n_sol candidates are returned, one per
    angle. The search is a pure function of its inputs.
    """
    theta_off, r_off = _grid_offsets(grid, geom.wavelength)
    n_theta = theta_off.size
    thetas = obs.theta2_ref + theta_off
    w = np.sin(thetas) - np.sin(obs.theta2_ref)
    gains = coherent_gain_values(w, geom.n_ris, geom.spacing_d, geom.wavelength)
    gain_mag = np.abs(gains)
    gain_ang = np.angle(gains)
    # float_power squares as the scalar pow does; an array ** 2 is x*x and
    # can differ in the last ulp
    gain_ratio_sq = np.float_power(gain_mag / geom.n_ris, 2.0)
    lam = geom.wavelength

    # grid block: masked (non-positive) distances are scored at r_ref
    r_grid = obs.r_ref + r_off
    masked = ~(r_grid > 0)
    r_grid[masked] = obs.r_ref
    grid_rss, grid_angle = _score(obs, r_grid, gain_ratio_sq, gain_ang, lam)
    grid_total = grid_rss + grid_angle
    grid_total[:, masked] = np.inf

    # exact block: zeros of the wrapped phase residual inside the window
    # (padded to the longest row), then the calibration distance
    zero_base = (obs.xi - gain_ang) * lam / TWO_PI
    k_lo = np.ceil((-grid.r_halfwidth - zero_base) / lam)
    k_hi = np.floor((grid.r_halfwidth - zero_base) / lam)
    n_k = int(np.max(k_hi - k_lo)) + 1  # k_hi >= k_lo - 1 on every row
    ks = k_lo[:, None] + np.arange(n_k)
    r_cal = r_from_eta(obs, gain_mag, geom.n_ris)
    r_exact = np.concatenate([(obs.r_ref + zero_base)[:, None] + ks * lam, r_cal[:, None]],
                             axis=1)
    valid = np.concatenate(
        [ks <= k_hi[:, None], (np.abs(r_cal - obs.r_ref) <= grid.r_halfwidth)[:, None]], axis=1
    )
    valid &= r_exact > 0
    r_exact[~valid] = obs.r_ref
    exact_rss, exact_angle = _score(obs, r_exact, gain_ratio_sq, gain_ang, lam)
    exact_total = np.where(valid, exact_rss + exact_angle, np.inf)

    # each row's first minimum over its grid then exact columns: argmin of
    # the two block minima keeps argmin's rules over the whole row (the first
    # minimum wins ties, the first NaN wins outright). The last grid distance
    # r_ref + r_halfwidth is always valid, so every row has a minimum.
    rows = np.arange(n_theta)
    grid_col = np.argmin(grid_total, axis=1)
    exact_col = np.argmin(exact_total, axis=1)
    block_best = np.stack([grid_total[rows, grid_col], exact_total[rows, exact_col]], axis=1)
    use_exact = np.argmin(block_best, axis=1)
    best = block_best[rows, use_exact]
    candidates = []
    for i in np.lexsort((thetas, np.abs(w), best))[: grid.n_sol].tolist():
        if use_exact[i]:
            j = exact_col[i]
            r, e_rss, e_ang = r_exact[i, j], exact_rss[i, j], exact_angle[i, j]
        else:
            j = grid_col[i]
            r, e_rss, e_ang = r_grid[j], grid_rss[i, j], grid_angle[i, j]
        candidates.append(
            CandidatePair(
                theta2_cand=float(thetas[i]),
                w_cand=float(w[i]),
                r_cand=float(r),
                error_total=float(best[i]),
                error_rss=float(e_rss),
                error_angle=float(e_ang),
            )
        )
    return candidates


def select_by_training(candidates: list[CandidatePair], rss) -> int:
    """Index of the candidate whose training slot received the most power.

    `rss[i]` is the strength measured while candidate i's configuration was
    installed; the timeline engine probes all candidates as one slice of
    training slots. Exact ties go to the candidate with smaller |w|, then to
    the earlier one.
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    rss = np.asarray(rss, dtype=float)
    if rss.shape != (len(candidates),):
        raise ValueError(f"need one strength per candidate ({len(candidates)}), "
                         f"got shape {rss.shape}")
    return min(range(len(candidates)), key=lambda i: (-rss[i], abs(candidates[i].w_cand)))
