"""How many training probes per event does the tracker actually need?

Replays the same walk with candidate-set sizes 1..10 and measures the mean
absolute instantaneous-rate gap to the zero-cost genie. The gap collapses
once the set is large enough to cover the sign ambiguity of the phase
observable plus grid quantisation; beyond that, extra probes only burn
slots.

Writes candidate_set_size.csv.
"""

from ristrack import (
    LinkGeometry,
    OraclePolicy,
    ProposedPolicy,
    SearchGrid,
    TrajectorySpec,
    generate_path,
    overhead_report,
    run_timeline,
)

geom = LinkGeometry(r1=4.0)
spec = TrajectorySpec(r2_init=4.0, speed_v=0.6, path_length=0.4, rng_seed=13)
traj = generate_path(spec, (), geom)
oracle = run_timeline(traj, OraclePolicy(gamma=0.9), geom, noise_seed=14)
genie = overhead_report(oracle, 0.9)
print(f"{len(traj)} slots; genie final rate {genie.final_cum_rate:.4f} bit/s/Hz\n")

rows = []
for n_sol in range(1, 11):
    policy = ProposedPolicy(gamma=0.9, grid=SearchGrid(n_sol=n_sol))
    tl = run_timeline(traj, policy, geom, noise_seed=14)
    m = overhead_report(tl, 0.9, oracle_records=oracle)
    rows.append((n_sol, m.avg_error_vs_oracle, m.final_cum_rate, m.tracking_calls))
    print(f"set size {n_sol:2d}: avg rate gap {m.avg_error_vs_oracle:.4f} bit/s/Hz, "
          f"final rate {m.final_cum_rate:.4f}, {m.tracking_calls} events")

with open("candidate_set_size.csv", "w", encoding="utf-8") as fh:
    fh.write("n_sol,avg_error_vs_oracle,final_cum_rate,tracking_calls\n")
    for n_sol, err, rate, calls in rows:
        fh.write(f"{n_sol},{err:.6g},{rate:.6g},{calls}\n")
print("\nwrote candidate_set_size.csv")
