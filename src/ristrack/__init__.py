"""Link-level simulator of RIS-assisted mmWave downlink beam tracking.

A deterministic slot-level simulator of a blocked-LOS downlink where an
access point reaches a walking single-antenna user through a passive
reconfigurable surface. It implements a fast tracker that updates the
surface phases from two feedback observables (strength ratio and received
phase difference), alongside an exhaustive-sweep configurator and a
zero-cost genie used as baselines.
"""

from .baselines import SweepSpec
from .config import ConfigError, ScenarioConfig, load_config
from .mobility import (
    ChannelState,
    Trajectory,
    TrajectorySpec,
    follow_on_spec,
    generate_path,
    generate_trajectory,
    slot_count,
)
from .ris import (
    RisConfiguration,
    coherent_gain_values,
    optimal_config,
    received_sample,
    update_config,
)
from .runner import RunResult, run_scenario, run_sweep
from .simengine import (
    ExhaustivePolicy,
    OraclePolicy,
    ProposedPolicy,
    RunMetrics,
    SlotKind,
    StatusTimeline,
    Timeline,
    cumulative_rate,
    instantaneous_rate,
    overhead_report,
    run_timeline,
)
from .tracking import (
    CandidatePair,
    SearchGrid,
    TrackingObservables,
    measure_observables,
    r_from_eta,
    select_by_training,
    two_dim_search,
)
from .wavefield import (
    LinkGeometry,
    steering_vector,
    wrap_principal,
    wrap_two_pi,
)

__version__ = "0.1.0"

__all__ = [
    "CandidatePair",
    "ChannelState",
    "ConfigError",
    "ExhaustivePolicy",
    "LinkGeometry",
    "OraclePolicy",
    "ProposedPolicy",
    "RisConfiguration",
    "RunMetrics",
    "RunResult",
    "ScenarioConfig",
    "SearchGrid",
    "SlotKind",
    "StatusTimeline",
    "SweepSpec",
    "Timeline",
    "TrackingObservables",
    "Trajectory",
    "TrajectorySpec",
    "coherent_gain_values",
    "cumulative_rate",
    "follow_on_spec",
    "generate_path",
    "generate_trajectory",
    "instantaneous_rate",
    "load_config",
    "measure_observables",
    "optimal_config",
    "overhead_report",
    "r_from_eta",
    "received_sample",
    "run_scenario",
    "run_sweep",
    "run_timeline",
    "select_by_training",
    "slot_count",
    "steering_vector",
    "two_dim_search",
    "update_config",
    "wrap_principal",
    "wrap_two_pi",
]
