"""The aligned-configuration law, its differential update and signal synthesis.

Every configuration the simulator installs has linear phase phi_k = k*slope:
the aligned law, its differential update and the exhaustive sweep all move
only the per-element slope, so a configuration is that slope, wrapped into
[0, 2*pi] by `wrap_two_pi` (2*pi itself only within half an ulp below a
whole turn). The received downlink sample reduces, under the fixed AP
beamformer, to c*beta * sum_k exp(j*k*(slope - kd*(sin(theta1) -
sin(theta2)))) plus unit-power noise, with c = sqrt(SNR*n_tx) and the
AP-RIS path gain 1. That geometric series in the per-element step mu is
evaluated in Dirichlet form, exp(j*(N-1)*mu/2) * sin(N*mu/2) / sin(mu/2),
with both sines taken of mu wrapped into (-pi, pi]: it keeps about 1e-14
relative accuracy next to every whole turn of mu, where the ratio
(exp(j*N*mu) - 1) / (exp(j*mu) - 1) lost up to 5e-9 next to 0 and, for N =
7 or 100, 5e-6 at 1e-9 rad from +-2*pi. The explicit matrix pipeline h^H
Theta G f over the element phases gives the same value and is kept as a
test oracle.
"""

from __future__ import annotations

import numpy as np

from .mobility import ChannelState
from .wavefield import TWO_PI, LinkGeometry, wrap_two_pi


def optimal_config(theta1: float, theta2: float, geom: LinkGeometry) -> float:
    """Phase-aligned slope kd * (sin(theta1) - sin(theta2)), wrapped into [0, 2*pi].

    Applying it to a channel at exactly `theta2` makes all N element
    contributions add in phase, so the noiseless received magnitude is
    |c*beta|*N.
    """
    return wrap_two_pi(geom.kd * (np.sin(theta1) - np.sin(theta2)))


def update_config(slope, w, geom: LinkGeometry):
    """Differential update phi_k <- phi_k - kd * k * w, i.e. slope <- slope - kd*w.

    `slope` is one surface slope. `w` is one mismatch, which gives one
    float, or a sequence or array of them, which gives an array of one
    updated slope each, wrapped by `wrap_two_pi`. Starting from the aligned
    slope for some reference angle and applying w = sin(theta_new) -
    sin(theta_ref) lands exactly on the aligned slope for theta_new;
    successive updates add.
    """
    w = np.asarray(w, dtype=float)
    if np.any(np.abs(w) > 2.0):
        raise ValueError(f"|w| must be <= 2, got {w}")
    return wrap_two_pi(slope - geom.kd * w)


def _dirichlet(mu, n_ris: int) -> tuple[np.ndarray, np.ndarray]:
    """Real Dirichlet kernel D(mu) = sin(N*mu/2) / sin(mu/2) and its degenerate mask.

    sum_{k=0}^{N-1} exp(j*k*mu) = exp(j*(N-1)*mu/2) * D(mu) for every real mu.
    Both sines are taken of mu wrapped by m turns into (-pi, pi], where they
    keep their digits next to every multiple of 2*pi; undoing the wrap
    multiplies D by (-1)**((N-1)*m). A step with |exp(j*mu) - 1| =
    2*|sin(mu/2)| < 1e-12 is degenerate: D is then +-N exactly.
    """
    mu = np.asarray(mu, dtype=float)
    # most passes write in place into two columns (0-d ones for one step):
    # every scan calls this on a long range
    turns = np.divide(mu, TWO_PI, out=np.empty_like(mu))
    np.rint(turns, out=turns)
    wraps = bool(turns.any())
    half = np.multiply(mu, 0.5, out=np.empty_like(mu))
    # with no wrap, subtracting the zero turns could only flip the sign of a
    # zero half step, which is degenerate and gives N either way
    if wraps:
        half -= np.pi * turns
    den = np.sin(half)
    d = np.multiply(half, n_ris, out=half)
    np.sin(d, out=d)
    degenerate = np.abs(den) < 0.5e-12
    # the fix-ups below cost as much as a sine, so they run only when needed
    if degenerate.any():
        # adding the mask keeps degenerate denominators nonzero and leaves
        # the others bit-for-bit unchanged; their ratios are replaced by N
        d = np.where(degenerate, float(n_ris), d / (den + degenerate))
    else:
        d /= den
    if n_ris % 2 == 0 and wraps:
        # halving and flooring a whole number are exact, so this is its parity
        turns *= 0.5
        np.negative(d, out=d, where=turns != np.floor(turns))
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


def received_sample(
    channel: ChannelState, slope: float, geom: LinkGeometry, noise: complex = 0.0j
) -> complex:
    """One downlink baseband sample for a unit-power symbol under the surface `slope`.

    The timeline engine computes the same Dirichlet form for whole slot
    ranges, from the walk's columns (`ristrack.mobility.Walk.channel`):
    kd*(sin(theta1) - sin(theta2)) and the channel of a unit initial gain,
    with the slope-free half of the phase, which the trajectory's initial
    gain b0 scales.
    """
    u = np.sin(geom.theta1) - np.sin(channel.theta2)
    gain = _geometric_sum(slope - geom.kd * u, geom.n_ris)
    return complex(geom.beamformer_gain * channel.beta * gain) + complex(noise)
