"""Array response and coherent-gain pattern of the reflecting surface.

Walks through the building blocks: the response of a uniform linear array,
the aligned phase configuration, and what happens to the summed gain of 64
elements when the steering drifts away from the user (the classic
Dirichlet-kernel mainlobe/sidelobe pattern, with a phase that is linear in
the mismatch across the mainlobe).

Writes coherent_gain_pattern.csv and, when matplotlib is available,
coherent_gain_pattern.png.
"""

import math

import numpy as np

from ristrack import LinkGeometry, coherent_gain_values, optimal_config

geom = LinkGeometry()
print(f"surface elements : {geom.n_ris}")
print(f"element spacing  : {geom.spacing_d * 1000:.2f} mm (half wavelength)")
print(f"carrier          : {geom.wavelength * 1000:.1f} mm wavelength")

# entry k of the array response is exp(-1j * kd * k * sin(angle))
v = np.exp(-1j * geom.kd * np.arange(geom.n_ris) * np.sin(np.deg2rad(20.0)))
print(f"\nsteering vector at 20 deg: first entries {np.round(v[:3], 4)}")
print(f"all unit magnitude: {np.allclose(np.abs(v), 1.0)}")

slope = optimal_config(geom.theta1, np.deg2rad(20.0), geom)
print(f"\naligned configuration phase slope: {slope:.4f} rad per element")

# sweep the departure-angle mismatch around perfect alignment
theta_ref = np.deg2rad(20.0)
d_theta = np.deg2rad(np.linspace(-2.5, 2.5, 1001))
w = np.sin(theta_ref + d_theta) - np.sin(theta_ref)
gains = coherent_gain_values(w, geom.n_ris, geom.spacing_d, geom.wavelength)

mag = np.abs(gains) / geom.n_ris
pos = d_theta > 0
half_power_deg = np.rad2deg(d_theta[pos][np.argmax(mag[pos] < math.sqrt(0.5))])
print(f"\npeak gain {geom.n_ris} at zero mismatch; "
      f"power halves {half_power_deg:.2f} deg off target")

with open("coherent_gain_pattern.csv", "w", encoding="utf-8") as fh:
    fh.write("d_theta_deg,w,gain_magnitude,gain_phase_rad\n")
    for i in range(d_theta.size):
        fh.write(f"{np.rad2deg(d_theta[i]):.6g},{w[i]:.6g},"
                 f"{np.abs(gains[i]):.6g},{np.angle(gains[i]):.6g}\n")
print("wrote coherent_gain_pattern.csv")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(2, 1, sharex=True, figsize=(7, 6))
    axes[0].plot(np.rad2deg(d_theta), np.abs(gains) ** 2)
    axes[0].set_ylabel("|summed gain|^2")
    axes[0].grid(True, linestyle=":")
    axes[1].plot(np.rad2deg(d_theta), np.angle(gains))
    axes[1].set_ylabel("phase of summed gain [rad]")
    axes[1].set_xlabel("departure-angle mismatch [deg]")
    axes[1].grid(True, linestyle=":")
    fig.suptitle("Coherent gain of a 64-element surface vs steering mismatch")
    fig.savefig("coherent_gain_pattern.png", dpi=120)
    print("wrote coherent_gain_pattern.png")
except ImportError:
    print("matplotlib not installed; skipped the plot")
