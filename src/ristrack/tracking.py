"""Feedback observables and the two-dimensional candidate search.

A tracking call sees only two complex samples: the reference sample captured
when the current configuration was installed and the sample at the slot where
the received strength dropped below threshold. The strength ratio eta and the
wrapped phase difference xi of those two samples are fitted against the
closed-form model over (departure angle, total distance) hypotheses. The best
few distinct-angle hypotheses become candidate configurations through the
differential update law; the timeline engine probes them over the air, one
training slot each, and the strongest one wins.

The angles are a uniform grid around the believed angle. The distances are
the window of half-width h around the believed total distance r_ref, and each
angle row is scored at a few of them only: the lower window edge, the upper
window edge, then the row's phase-residual zeros inside the window (padded
to the longest row; padding totals infinity). Each row keeps its first
minimum over those columns (ties go to the earlier column, a NaN wins), and
the rows are ranked by (total error, |w|, angle).

These points hold each row's minimum over the whole window. A row's total is
|x(r)| + |p(r)|. The strength residual x = (r_ref/r)**2 * g - eta has a slope
of at most 2 * r_ref**2 / (r_ref - h)**3 in the window, since the normalised
gain g is at most 1. The wrapped phase residual p has slope 2*pi/lambda, so
|p| falls at that rate toward each zero of p and rises at it away from one.
When the phase slope is the larger, the total falls only toward a zero of p,
and its minimum over the window lies at a zero or at an edge, never only at
the distance where x vanishes. two_dim_search checks that precondition,
(r_ref - h)**3 * 2*pi/lambda > 2 * r_ref**2, on every call; on the default
grid it holds for any r_ref above 1.066 cm.
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
    r_ref: float
    theta2_ref: float

    def __post_init__(self):
        # written so that NaN fails every check
        for name in ("eta", "r_ref"):
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
    """Angle range and step, distance half-width and candidate count of the search."""

    theta2_halfwidth: float = np.deg2rad(2.5)
    theta2_step: float = np.deg2rad(0.05)
    r_halfwidth: float = 0.005
    n_sol: int = 7

    def __post_init__(self):
        # written so that NaN fails every check
        for name in ("theta2_halfwidth", "theta2_step", "r_halfwidth"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if self.theta2_step > self.theta2_halfwidth:
            raise ValueError("theta2_step must not exceed theta2_halfwidth")
        if not isinstance(self.n_sol, (int, np.integer)) or self.n_sol < 1:
            raise ValueError(f"n_sol must be an integer >= 1, got {self.n_sol!r}")


def measure_observables(
    y_ref: complex, y_now: complex, r_ref: float, theta2_ref: float
) -> TrackingObservables:
    """Strength ratio and wrapped phase difference of two received samples."""
    rss_ref = abs(y_ref) ** 2
    if rss_ref == 0:
        raise ValueError("reference sample must be nonzero")
    eta = abs(y_now) ** 2 / rss_ref
    # numpy's arctan2, as np.angle of each sample, in one call: libm's atan2
    # (cmath.phase) can differ from it in the last ulp
    phase_now, phase_ref = np.angle([y_now, y_ref]).tolist()
    xi = wrap_principal(phase_now - phase_ref)
    return TrackingObservables(eta=eta, xi=xi, r_ref=r_ref, theta2_ref=theta2_ref)


@functools.lru_cache(maxsize=8)
def _angle_offsets(grid: SearchGrid) -> np.ndarray:
    """Read-only angle offsets of the search grid around the believed angle."""
    n_theta = int(round(2.0 * grid.theta2_halfwidth / grid.theta2_step)) + 1
    theta_off = np.linspace(-grid.theta2_halfwidth, grid.theta2_halfwidth, n_theta)
    theta_off.setflags(write=False)
    return theta_off


def two_dim_search(
    obs: TrackingObservables, grid: SearchGrid, geom: LinkGeometry
) -> list[CandidatePair]:
    """Best distinct-angle hypotheses explaining the observables.

    Every candidate angle is one row whose columns are the lower and upper
    window edges r_ref -/+ r_halfwidth, then the row's phase-residual zeros
    inside the window (padded to the longest row with an infinite total).
    Each cell scores errorI (strength-ratio residual) plus errorII (wrapped
    phase residual); each row keeps its first minimum, and the rows are
    ranked by (total error, |w|, angle). At most n_sol candidates are
    returned, one per angle. The columns hold each row's minimum over the
    whole window when (r_ref - r_halfwidth)**3 * 2*pi/wavelength exceeds
    2 * r_ref**2 (see the module docstring); otherwise ValueError is raised.
    The search is a pure function of its inputs.
    """
    lam = geom.wavelength
    h = grid.r_halfwidth
    # written so that NaN fails it; it also implies r_ref > h, so every
    # distance scored below is positive
    if not (obs.r_ref - h) ** 3 * TWO_PI / lam > 2.0 * obs.r_ref ** 2:
        raise ValueError(
            f"distance window too close to the surface for the search: need "
            f"(r_ref - r_halfwidth)**3 * 2*pi/wavelength > 2 * r_ref**2, got "
            f"r_ref={obs.r_ref}, r_halfwidth={h}, wavelength={lam}"
        )
    thetas = obs.theta2_ref + _angle_offsets(grid)
    w = np.sin(thetas) - np.sin(obs.theta2_ref)
    gains = coherent_gain_values(w, geom.n_ris, geom.spacing_d, lam)
    gain_ang = np.angle(gains)
    # float_power squares as the scalar pow does; an array ** 2 is x*x and
    # can differ in the last ulp
    gain_ratio_sq = np.float_power(np.abs(gains) / geom.n_ris, 2.0)

    # the window edges, then the zeros of the wrapped phase residual inside
    # the window, padded to the longest row
    zero_base = (obs.xi - gain_ang) * lam / TWO_PI
    k_lo = np.ceil((-h - zero_base) / lam)
    k_hi = np.floor((h - zero_base) / lam)
    n_k = int((k_hi - k_lo).max()) + 1  # k_hi >= k_lo - 1 on every row
    ks = k_lo[:, None] + np.arange(n_k)
    edges = np.broadcast_to([obs.r_ref - h, obs.r_ref + h], (thetas.size, 2))
    r_set = np.concatenate([edges, (obs.r_ref + zero_base)[:, None] + ks * lam], axis=1)

    error_rss = (obs.r_ref / r_set) ** 2 * gain_ratio_sq[:, None]
    error_rss -= obs.eta
    np.abs(error_rss, out=error_rss)
    phase = (TWO_PI / lam) * (r_set - obs.r_ref) + gain_ang[:, None]
    phase -= obs.xi
    error_angle = wrap_principal(phase)
    np.abs(error_angle, out=error_angle)
    total = error_rss + error_angle
    total[:, 2:][ks > k_hi[:, None]] = np.inf

    # each row's first minimum (argmin: ties go to the earlier column, the
    # first NaN wins), then the rows ranked by (total, |w|, angle)
    col = total.argmin(1)
    best = total[np.arange(thetas.size), col]
    i = np.lexsort((thetas, np.abs(w), best))[: grid.n_sol]
    c = col[i]
    fields = np.array([
        thetas[i], w[i], r_set[i, c], best[i], error_rss[i, c], error_angle[i, c],
    ])
    return [CandidatePair(*f) for f in zip(*fields.tolist())]


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
    power = rss.tolist()
    return min(range(len(candidates)), key=lambda i: (-power[i], abs(candidates[i].w_cand)))
