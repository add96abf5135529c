"""The closed forms of the model that the tests check the program against.

Each law is stated once, from numpy and math alone: nothing here imports
ristrack, so a defect in the program cannot carry over into the value a test
compares it with. pytest does not collect this file.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def cartesian_states(spec, continuations=()):
    """r2 and theta2 at every slot of a polyline walk, from planar coordinates.

    RIS at the origin, broadside along +y, position (r*sin(theta), r*cos(theta)).
    Each segment walks along the direction to the RIS rotated counterclockwise
    by its psi_a, from the previous segment's last slot, for ceil(length /
    (v*t0)) slots.
    """
    start = np.array(
        [spec.r2_init * math.sin(spec.theta2_init), spec.r2_init * math.cos(spec.theta2_init)]
    )
    step = spec.speed_v * spec.slot_duration_t0
    legs = []
    for psi, length in ((spec.psi_a, spec.path_length), *continuations):
        to_ris = -start / np.hypot(*start)
        c, s = math.cos(psi), math.sin(psi)
        heading = np.array([c * to_ris[0] - s * to_ris[1], s * to_ris[0] + c * to_ris[1]])
        disp = step * np.arange(1, math.ceil(length / step) + 1)
        legs.append(start[None, :] + disp[:, None] * heading[None, :])
        start = legs[-1][-1]
    pos = np.concatenate(legs)
    return np.hypot(pos[:, 0], pos[:, 1]), np.arctan2(pos[:, 0], pos[:, 1])


def gain_step(beta, r_from, r_to, geom):
    """The RIS-UE gain at distance `r_to` of a gain `beta` at `r_from`.

    beta scales by (r1 + r_from) / (r1 + r_to) and turns by the extra travel
    phase 2*pi*(r_to - r_from)/lambda, in the operation order of
    `mobility._segment_gain`, so a column for an array `r_to` has its bits.
    """
    ratio = (geom.r1 + r_from) / (geom.r1 + r_to)
    return beta * ratio * np.exp(1j * (TWO_PI * (r_to - r_from) * (1.0 / geom.wavelength)))


def gain_column(b0, r0, r2, starts, geom) -> np.ndarray:
    """The gain at every slot of a walk, b0 at distance r0 just before slot 1.

    Each segment (from its index in `starts`) is one `gain_step` pass from
    the segment before at its last slot.
    """
    parts, b, r = [], b0, r0
    for lo, hi in zip(starts, (*starts[1:], len(r2))):
        if lo:
            b, r = complex(parts[-1][-1]), float(r2[lo - 1])
        parts.append(gain_step(b, r, r2[lo:hi], geom))
    return np.concatenate(parts)


def noise_column(n: int, uncut: int, noise_seed: int | None) -> np.ndarray:
    """The first n slots of the unit-power noise drawn for a walk of `uncut` slots.

    ``default_rng(noise_seed)`` draws all real parts, then all imaginary
    parts, each scaled by sqrt(1/2); a seed of None draws no noise.
    """
    if noise_seed is None:
        return np.zeros(n, dtype=complex)
    rng = np.random.default_rng(noise_seed)
    real = rng.standard_normal(uncut)[:n]
    imag = rng.standard_normal(uncut)[:n]
    return math.sqrt(0.5) * (real + 1j * imag)


def brute_force_gain(mu, n: int) -> np.ndarray:
    """sum_{k=0}^{n-1} exp(j*k*mu) for each per-element step in `mu`, term by term."""
    return np.exp(1j * np.outer(mu, np.arange(n))).sum(axis=1)


def matrix_pipeline_sample(beta, theta2, slope, geom, phi_ap=0.0) -> complex:
    """The noiseless received sample as the explicit product h^H Theta G f.

    G = a_RIS(theta1) a_AP(phi_ap)^H has unit path gain, f = sqrt(SNR) *
    a_AP / |a_AP| is matched to it, Theta = diag(exp(j*k*slope)) with the
    phases wrapped to [0, 2*pi), and h^H = beta * a_RIS(theta2)^H. The AP's
    steering angle phi_ap cancels.
    """
    kd = TWO_PI * geom.spacing_d / geom.wavelength
    k_ris = np.arange(geom.n_ris)
    a_ris_1 = np.exp(-1j * kd * k_ris * math.sin(geom.theta1))
    a_ris_2 = np.exp(-1j * kd * k_ris * math.sin(theta2))
    a_ap = np.exp(-1j * kd * np.arange(geom.n_tx) * math.sin(phi_ap))
    big_g = np.outer(a_ris_1, a_ap.conj())
    big_theta = np.diag(np.exp(1j * np.mod(k_ris * slope, TWO_PI)))
    f = math.sqrt(geom.snr_linear) * a_ap / np.linalg.norm(a_ap)
    return complex(beta * a_ris_2.conj() @ big_theta @ big_g @ f)


def synthetic_transition(theta_ref, d_theta, d_r, geom, r2_ref=4.0, beta_ref=0.8 + 0.3j):
    """Noiseless samples before and after one status transition, and their slope.

    Both slots have the slope aligned to theta_ref, kd*(sin(theta1) -
    sin(theta_ref)) wrapped to [0, 2*pi); in between the user moves by
    (d_theta, d_r).
    """
    kd = TWO_PI * geom.spacing_d / geom.wavelength
    slope = (kd * (math.sin(geom.theta1) - math.sin(theta_ref))) % TWO_PI
    beta_now = gain_step(beta_ref, r2_ref, r2_ref + d_r, geom)
    y_ref = matrix_pipeline_sample(beta_ref, theta_ref, slope, geom)
    y_now = matrix_pipeline_sample(beta_now, theta_ref + d_theta, slope, geom)
    return y_ref, y_now, slope
