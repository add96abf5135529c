"""Cumulative average rate: tracker vs exhaustive sweeps vs the genie.

Runs the full slot timeline for a 0.5 m walk (about 53,000 slots) under four
configurators and plots the running-mean rate over the user position. The
tracker pays 10 slots per event; the 1-degree sweep pays 363, which is why
the coarser 5-degree sweep beats it despite its cruder alignment.

Writes rate_comparison.csv and, when matplotlib is available,
rate_comparison.png.
"""

import numpy as np

from ristrack import (
    ExhaustivePolicy,
    LinkGeometry,
    OraclePolicy,
    ProposedPolicy,
    TrajectorySpec,
    generate_path,
    overhead_report,
    run_timeline,
)

geom = LinkGeometry(r1=4.0)
spec = TrajectorySpec(r2_init=4.0, speed_v=0.6, path_length=0.5, rng_seed=21)
traj = generate_path(spec, (), geom)
print(f"walk of {spec.path_length} m -> {len(traj)} slots\n")

policies = [
    OraclePolicy(gamma=0.9),
    ProposedPolicy(gamma=0.9),
    ExhaustivePolicy(gamma=0.5, resolution_deg=1.0),
    ExhaustivePolicy(gamma=0.5, resolution_deg=5.0),
    ExhaustivePolicy(gamma=0.5, resolution_deg=10.0),
]

timelines = {}
for policy in policies:
    tl = run_timeline(traj, policy, geom, noise_seed=22)
    m = overhead_report(tl, policy.gamma)
    timelines[tl.policy_name] = tl
    print(f"{tl.policy_name:18s} events={m.tracking_calls:3d} "
          f"below-threshold={m.pct_below_threshold:6.3f}%  "
          f"final rate={m.final_cum_rate:.4f} bit/s/Hz")

stride = max(1, len(traj) // 4000)
names = list(timelines)
# each running mean derived once
cum_rates = {name: timelines[name].cum_rate for name in names}
with open("rate_comparison.csv", "w", encoding="utf-8") as fh:
    fh.write("slot_index,theta2_true_deg," + ",".join(names) + "\n")
    theta_deg = np.rad2deg(traj.theta2)
    for i in range(0, len(traj), stride):
        row = ",".join(f"{cum_rates[n][i]:.6g}" for n in names)
        fh.write(f"{i + 1},{theta_deg[i]:.5g},{row}\n")
print("\nwrote rate_comparison.csv")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(8, 5))
    theta_deg = np.rad2deg(traj.theta2)
    for name in names:
        ax.plot(theta_deg[::stride], cum_rates[name][::stride], label=name)
    ax.set_xlabel("user position as departure angle [deg]")
    ax.set_ylabel("cumulative average rate [bit/s/Hz]")
    ax.grid(True, linestyle=":")
    ax.legend()
    fig.savefig("rate_comparison.png", dpi=120)
    print("wrote rate_comparison.png")
except ImportError:
    print("matplotlib not installed; skipped the plot")
