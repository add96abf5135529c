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
"""

from __future__ import annotations

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
        if self.eta <= 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if not -np.pi < self.xi <= np.pi:
            raise ValueError(f"xi must lie in (-pi, pi], got {self.xi}")
        if self.rss_ref <= 0:
            raise ValueError("rss_ref must be > 0")
        if self.r_ref <= 0:
            raise ValueError("r_ref must be > 0")


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


def r_from_eta(obs: TrackingObservables, gain_mag: float, n_ris: int) -> float:
    """Calibration distance implied by the strength ratio for a gain hypothesis.

    Inverts eta = (r_ref/r)^2 * (gain_mag/N)^2 for r.
    """
    return obs.r_ref * gain_mag / (np.sqrt(obs.eta) * n_ris)


def two_dim_search(
    obs: TrackingObservables, grid: SearchGrid, geom: LinkGeometry
) -> list[CandidatePair]:
    """Best distinct-angle hypotheses explaining the observables.

    For each candidate angle on the grid the mismatch w, the complex coherent
    gain and the calibration distance are computed; the distance sweep then
    scores errorI (strength-ratio residual) plus errorII (wrapped phase
    residual) and the per-angle best distance is kept. Candidates are sorted
    by total error (ties by smaller |w|); at most n_sol are returned, one per
    angle. The search is a pure function of its inputs.
    """
    r_step = grid.r_step if grid.r_step is not None else geom.wavelength / 50.0
    n_theta = int(round(2.0 * grid.theta2_halfwidth / grid.theta2_step)) + 1
    if n_theta < 1:
        raise ValueError("empty angle grid")
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

    candidates: list[CandidatePair] = []
    for i in range(n_theta):
        r_cal = obs.r_ref * gain_mag[i] / (sqrt_eta * geom.n_ris)
        r_set = obs.r_ref + base_offsets
        # exact zeros of the wrapped phase residual inside the window
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
        # strength residual on squared gain ratios, the relation r_cal inverts
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
