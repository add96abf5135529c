"""Anatomy of one tracking event, observable by observable.

Freezes a single status transition: the surface is aligned at the reference,
the user keeps walking until the received strength drops below the 0.9
threshold, and the tracker must recover the steering mismatch from just two
numbers (the strength ratio and the received phase difference). The demo
shows the candidate search output and how over-the-air probing picks the
right hypothesis, including the sign ambiguity the residuals cannot resolve.
"""

import math

import numpy as np

from ristrack import (
    ChannelState,
    LinkGeometry,
    SearchGrid,
    TrajectorySpec,
    generate_path,
    measure_observables,
    optimal_config,
    received_sample,
    select_by_training,
    two_dim_search,
    update_config,
)

geom = LinkGeometry(r1=4.0)
spec = TrajectorySpec(r2_init=4.0, path_length=0.05, rng_seed=3)
traj = generate_path(spec, (), geom)
# the walk is straight, so the gain has a closed form in r2 from the initial gain
b0, r0 = traj.b0, traj.walk.r0
beta = (b0 * (geom.r1 + r0) / (geom.r1 + traj.r2)
        * np.exp(2j * np.pi * (traj.r2 - r0) / geom.wavelength))


def state(i: int) -> ChannelState:
    """The channel at slot i + 1."""
    return ChannelState(complex(beta[i]), float(traj.theta2[i]), float(traj.r2[i]))


# reference slot: aligned configuration, full coherent gain
ref = state(0)
slope = optimal_config(geom.theta1, ref.theta2, geom)
y_ref = received_sample(ref, slope, geom)
rss_ref = abs(y_ref) ** 2
print(f"reference slot: angle {np.rad2deg(ref.theta2):.3f} deg, "
      f"strength {rss_ref:.1f}")

# walk forward until the normalised strength crosses the threshold
gamma = 0.9
t2 = None
for i in range(1, len(traj)):
    y = received_sample(state(i), slope, geom)
    if abs(y) ** 2 / rss_ref < gamma:
        t2 = i
        y_now = y
        break
assert t2 is not None
state_now = state(t2)
print(f"threshold crossed at slot {t2 + 1}: angle drifted to "
      f"{np.rad2deg(state_now.theta2):.3f} deg "
      f"({np.rad2deg(state_now.theta2 - ref.theta2):+.3f} deg)")

obs = measure_observables(y_ref, y_now, geom.r1 + ref.r2, ref.theta2)
print(f"\nobservables fed back: strength ratio {obs.eta:.4f}, "
      f"phase difference {obs.xi:+.4f} rad")

candidates = two_dim_search(obs, SearchGrid(), geom)
w_true = math.sin(state_now.theta2) - math.sin(ref.theta2)
print(f"\ntrue mismatch w = {w_true:+.6f}; candidate set:")
for rank, c in enumerate(candidates, 1):
    marker = " <-- true" if abs(c.w_cand - w_true) <= 8.6e-4 else ""
    print(f"  {rank}. w = {c.w_cand:+.6f}  (residual {c.error_total:.3e}){marker}")

# one training slot per candidate, each under its updated slope
candidate_slopes = update_config(slope, [c.w_cand for c in candidates], geom)
probes = [abs(received_sample(state_now, s, geom)) ** 2 for s in candidate_slopes]
best = select_by_training(candidates, probes)
chosen, chosen_slope = candidates[best], candidate_slopes[best]
print(f"\n{len(probes)} training probes; strongest candidate: w = {chosen.w_cand:+.6f}")

y_after = received_sample(state_now, chosen_slope, geom)
print(f"strength recovered: {abs(y_after) ** 2 / rss_ref:.4f} of the reference "
      f"(was {obs.eta:.4f} at the crossing)")
