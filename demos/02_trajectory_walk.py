"""Ground-truth channel along a straight walk past the surface.

A user starts 4 m from the surface at a 20 deg departure angle and walks
parallel to it (walking-direction angle 110 deg). The demo prints how the
geometry evolves slot by slot and verifies the two structural properties of
the gain model: |gain|*(total distance) is constant and the gain phase
advances with the extra travel distance.

Writes trajectory_walk.csv.
"""

import numpy as np

from ristrack import LinkGeometry, TrajectorySpec, generate_path

geom = LinkGeometry(r1=4.0)
spec = TrajectorySpec(
    theta2_init=np.deg2rad(20.0),
    r2_init=4.0,
    psi_a=np.deg2rad(110.0),
    speed_v=0.6,
    path_length=3.0,
    rng_seed=7,
)

traj = generate_path(spec, (), geom)
print(f"slots: {len(traj)} ({spec.path_length} m at {spec.speed_v} m/s, "
      f"{spec.slot_duration_t0 * 1e6:.1f} us slots)")
print(f"departure angle: {np.rad2deg(traj.theta2[0]):.2f} deg -> "
      f"{np.rad2deg(traj.theta2[-1]):.2f} deg")
print(f"surface-user distance: {traj.r2[0]:.3f} m -> {traj.r2[-1]:.3f} m")

# the gain is evaluated from the walk on each read of traj.beta: read it once
beta = traj.beta
product = np.abs(beta) * (geom.r1 + traj.r2)
print(f"\n|gain|*(r1+r2) spread: {product.max() - product.min():.2e} "
      "(invariant along the walk)")
phase_advance = np.angle(beta[-1] / traj.anchor.beta)
travel = traj.r2[-1] - traj.anchor.r2
print(f"gain phase advance: {phase_advance:+.4f} rad for {travel * 1000:+.1f} mm of "
      f"extra travel ({travel / geom.wavelength:.1f} wavelengths)")

# a two-segment path: same walk, then a 70 deg turn for another meter
path = generate_path(spec, ((np.deg2rad(70.0), 1.0),), geom)
print(f"\nwith a turn appended: {len(path)} slots, final angle "
      f"{np.rad2deg(path.theta2[-1]):.2f} deg, final distance {path.r2[-1]:.3f} m")

stride = max(1, len(traj) // 2000)
with open("trajectory_walk.csv", "w", encoding="utf-8") as fh:
    fh.write("slot_index,theta2_deg,r2_m,beta_magnitude,beta_phase_rad\n")
    for i in range(0, len(traj), stride):
        fh.write(f"{i + 1},{np.rad2deg(traj.theta2[i]):.6g},{traj.r2[i]:.6g},"
                 f"{np.abs(beta[i]):.6g},{np.angle(beta[i]):.6g}\n")
print("wrote trajectory_walk.csv")
