"""The benchmark's workloads: scenario files and how many seeds one run covers.

Every workload is a closed loop in one process and one thread. The workload
seed picks the trajectory seeds of the library-path workloads; the reference
run always simulates seeds 1, 2, ..., so its workload seed only repeats it.
``--seconds`` picks how many seeds one run simulates, from each workload's
nominal cost per seed, so the amount of work depends only on the arguments
and never on how fast the host happens to be.
"""

from __future__ import annotations

from dataclasses import dataclass

TRACKING_STRESS_INI = """\
[trajectory]
speed_mps = 1.8
segments = 70:1.0, 150:1.0
[tracker]
algorithms = proposed, oracle
gamma = 0.95
"""


@dataclass(frozen=True)
class Workload:
    name: str
    scenario_name: str  # key of the stored statistics digests
    scenario: str       # scenario file body without the [run] section
    via_cli: bool       # True: `ristrack run` writing artifacts; False: library path
    seed_cost_s: float  # rough seconds one trajectory seed takes; sets the seed count
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("reference_run", "default", "", True, 21.0,
                 "ristrack run on the default scenario, all five trackers, writing "
                 "artifacts: the headline user path, dominated by CSV writing"),
        Workload("sim_all_trackers", "default", "", False, 4.0,
                 "default scenario through the library path with no artifacts: "
                 "the 1 deg sweep's single-slot probes dominate, the runner is idle"),
        Workload("tracking_stress", "tracking_stress", TRACKING_STRESS_INI, False, 1.4,
                 "fast turning walk, proposed and oracle only: the candidate search "
                 "and its training probes dominate, no sweep runs"),
    )
}


def trajectory_seeds(workload: Workload, seed: int, seconds: float) -> list[int]:
    n = max(1, round(seconds / workload.seed_cost_s))
    first = 1 if workload.via_cli else seed * n
    return [first + i for i in range(n)]


def scenario_text(workload: Workload, seeds: list[int]) -> str:
    return workload.scenario + "[run]\nseeds = " + ", ".join(map(str, seeds)) + "\n"
