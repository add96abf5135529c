"""RIS phase configurations, the aligned-configuration law and signal synthesis.

Every configuration the simulator installs has linear phase phi_k = k*slope:
the aligned law, its differential update and the exhaustive sweep all move
only the per-element slope, so a configuration stores that slope wrapped to
[0, 2*pi). The received downlink sample reduces, under the fixed AP
beamformer, to c*alpha*beta * sum_k exp(j*k*(slope - kd*(sin(theta1) -
sin(theta2)))) with c = sqrt(SNR*n_tx). That geometric series in the
per-element step mu is evaluated in Dirichlet form, exp(j*(N-1)*mu/2) *
sin(N*mu/2) / sin(mu/2), with both sines taken of mu wrapped into (-pi, pi]:
it keeps about 1e-14 relative accuracy next to every whole turn of mu, where
the ratio (exp(j*N*mu) - 1) / (exp(j*mu) - 1) lost up to 5e-9 next to 0 and,
for N = 7 or 100, 5e-6 at 1e-9 rad from +-2*pi. The explicit matrix pipeline
h^H Theta G f over the element phases gives the same value and is kept as a
test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mobility import ChannelState
from .wavefield import TWO_PI, LinkGeometry, wrap_two_pi


@dataclass(frozen=True)
class RisConfiguration:
    """Linear-phase configuration phi_k = k*slope over n_ris elements, plus an id."""

    slope: float
    n_ris: int
    config_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "slope", wrap_two_pi(float(self.slope)))

    @property
    def phases(self) -> np.ndarray:
        """Read-only element phases k*slope wrapped to [0, 2*pi)."""
        phases = wrap_two_pi(np.arange(self.n_ris) * self.slope)
        phases.setflags(write=False)
        return phases


def optimal_config(
    theta1: float, theta2: float, geom: LinkGeometry, config_id: int = 0
) -> RisConfiguration:
    """Phase-aligned configuration with slope kd * (sin(theta1) - sin(theta2)).

    Applying it to a channel at exactly `theta2` makes all N element
    contributions add in phase, so the noiseless received magnitude is
    |c*alpha*beta|*N.
    """
    slope = geom.kd * (np.sin(theta1) - np.sin(theta2))
    return RisConfiguration(slope=slope, n_ris=geom.n_ris, config_id=config_id)


def update_config(
    current: RisConfiguration, w: float, geom: LinkGeometry, config_id: int | None = None
) -> RisConfiguration:
    """Differential update phi_k <- phi_k - kd * k * w, i.e. slope <- slope - kd*w.

    Starting from the aligned configuration for some reference angle and
    applying w = sin(theta_new) - sin(theta_ref) lands exactly on the aligned
    configuration for theta_new; successive updates add.
    """
    if abs(w) > 2.0:
        raise ValueError(f"|w| must be <= 2, got {w}")
    if config_id is None:
        config_id = current.config_id + 1
    return RisConfiguration(slope=current.slope - geom.kd * w, n_ris=current.n_ris,
                            config_id=config_id)


def _dirichlet(mu, n_ris: int) -> tuple[np.ndarray, np.ndarray]:
    """Real Dirichlet kernel D(mu) = sin(N*mu/2) / sin(mu/2) and its degenerate mask.

    sum_{k=0}^{N-1} exp(j*k*mu) = exp(j*(N-1)*mu/2) * D(mu) for every real mu.
    Both sines are taken of mu wrapped by m turns into (-pi, pi], where they
    keep their digits next to every multiple of 2*pi; undoing the wrap
    multiplies D by (-1)**((N-1)*m). A step with |exp(j*mu) - 1| =
    2*|sin(mu/2)| < 1e-12 is degenerate: D is then +-N exactly.
    """
    mu = np.asarray(mu, dtype=float)
    turns = np.rint(mu / TWO_PI)
    half = 0.5 * mu - np.pi * turns
    den = np.sin(half)
    d = np.sin(n_ris * half)
    degenerate = np.abs(den) < 0.5e-12
    # the fix-ups below cost as much as a sine, so they run only when needed
    if degenerate.any():
        # adding the mask keeps degenerate denominators nonzero and leaves
        # the others bit-for-bit unchanged; their ratios are replaced by N
        d = np.where(degenerate, float(n_ris), d / (den + degenerate))
    else:
        d = d / den
    if n_ris % 2 == 0 and turns.any():
        d = np.where(np.fmod(turns, 2.0) != 0.0, -d, d)
    return d, degenerate


def _geometric_sum(mu, n_ris: int) -> np.ndarray:
    """sum_{k=0}^{N-1} exp(j*k*mu) for per-element steps mu, in Dirichlet form.

    Degenerate steps (|exp(j*mu) - 1| < 1e-12) return exactly N + 0j.
    """
    mu = np.asarray(mu, dtype=float)
    d, degenerate = _dirichlet(mu, n_ris)
    return np.where(degenerate, n_ris + 0.0j, np.exp(0.5j * (n_ris - 1) * mu) * d)


def coherent_gain_values(w, n_ris: int, spacing_d: float, wavelength: float) -> np.ndarray:
    """Vectorised closed form of sum_{k=0}^{N-1} exp(j*kd*k*w)."""
    mu = (2.0 * np.pi * spacing_d / wavelength) * np.asarray(w, dtype=float)
    return _geometric_sum(mu, n_ris)


def aggregate_gains(u: np.ndarray, slope, geom: LinkGeometry) -> np.ndarray:
    """Per-slot sums sum_k exp(j*k*(slope - kd*u)) over the geometry's n_ris elements.

    `slope` is one configuration's slope for every slot, or a per-slot array
    with the shape of `u`: slot i is then received under slope i, which is
    how the timeline engine evaluates a batch of training slots in one call.
    """
    return _geometric_sum(slope - geom.kd * np.asarray(u, dtype=float), geom.n_ris)


def received_sample(
    channel: ChannelState,
    config: RisConfiguration,
    geom: LinkGeometry,
    noise: complex = 0.0j,
) -> complex:
    """One downlink baseband sample for a unit-power symbol.

    The timeline engine computes the same Dirichlet form for whole slot
    ranges, from per-trajectory columns that hold kd*(sin(theta1) -
    sin(theta2)) and the amplitude times the slope-free half of the phase.
    """
    if config.n_ris != geom.n_ris:
        raise ValueError(
            f"configuration has {config.n_ris} elements, geometry expects {geom.n_ris}"
        )
    u = np.sin(geom.theta1) - np.sin(channel.theta2)
    gain = aggregate_gains(u, config.slope, geom)
    return complex(geom.beamformer_gain * geom.alpha * channel.beta * gain) + complex(noise)
