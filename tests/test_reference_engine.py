"""The timeline engine against the slot-by-slot reference of `reference_engine.py`.

Each case runs both on a prefix of a walk, so the whole matrix stays within a
few seconds; `python tests/reference_engine.py` runs a wider one.
"""

from dataclasses import dataclass, replace

import numpy as np
import pytest

from reference_engine import disagreements, reference_timeline
from ristrack import (
    ExhaustivePolicy,
    LinkGeometry,
    OraclePolicy,
    ProposedPolicy,
    SlotKind,
    TrajectorySpec,
    generate_path,
    run_timeline,
)

DEFAULT = LinkGeometry()
EVERY = (ProposedPolicy(), ExhaustivePolicy(resolution_deg=1.0),
         ExhaustivePolicy(resolution_deg=5.0), ExhaustivePolicy(resolution_deg=10.0),
         OraclePolicy())
# the fast walk of the tracking_stress scenario: two turns, gamma 0.95
STRESS = (TrajectorySpec(speed_v=1.8), ((np.deg2rad(70.0), 1.0), (np.deg2rad(150.0), 1.0)))


def assert_agrees(traj, policy, geom, noise_seed, threshold_mode="normalized"):
    ref = reference_timeline(traj, policy, geom, noise_seed, threshold_mode)
    tl = run_timeline(traj, policy, geom, noise_seed=noise_seed, threshold_mode=threshold_mode)
    problems, _ = disagreements(tl, ref)
    assert not problems, (policy.name, problems, ref.close_calls)
    # a trigger test this close to gamma agrees by luck of the last bit
    assert not ref.close_calls, (policy.name, ref.close_calls)
    return tl


@pytest.fixture(scope="module")
def default_walk():
    return generate_path(replace(TrajectorySpec(), rng_seed=1), (), DEFAULT)


@pytest.mark.parametrize("policy", EVERY, ids=lambda p: p.name)
def test_default_scene(default_walk, policy):
    tl = assert_agrees(default_walk[:8000], policy, DEFAULT, 2)
    assert tl.tracking_calls > 0


@pytest.mark.parametrize("policy", [ProposedPolicy(gamma=0.95), OraclePolicy(gamma=0.95)],
                         ids=lambda p: p.name)
def test_tracking_stress_seed_53(policy):
    spec, turns = STRESS
    walk = generate_path(replace(spec, rng_seed=53), turns, DEFAULT)
    # the seed's event storm: about one event per 100 slots
    assert assert_agrees(walk[:10000], policy, DEFAULT, 54).tracking_calls > 70


@pytest.mark.parametrize("n_ris", [2, 7])
@pytest.mark.parametrize("policy", [ProposedPolicy(), ExhaustivePolicy(resolution_deg=10.0),
                                    OraclePolicy()], ids=lambda p: p.name)
def test_low_snr(n_ris, policy):
    # snr_db = -10: noise crossings trigger most events; at noise seed 3 the
    # 7-element 10 deg sweep fires two in these slots
    geom = LinkGeometry(snr_linear=0.1, n_ris=n_ris)
    walk = generate_path(replace(TrajectorySpec(), rng_seed=1), (), geom)
    assert assert_agrees(walk[:4000], policy, geom, 3).tracking_calls > 0


def test_absolute_thresholds():
    geom = LinkGeometry(r1=2.0)
    walk = generate_path(TrajectorySpec(r2_init=2.0, path_length=0.05, rng_seed=11), (), geom)
    peak = (geom.beamformer_gain * abs(walk.anchor.beta) * geom.n_ris) ** 2
    for policy in (ProposedPolicy(0.9 * peak), ExhaustivePolicy(0.5 * peak, 10.0),
                   OraclePolicy(0.9 * peak)):
        tl = assert_agrees(walk, policy, geom, 5, "absolute")
        assert tl.tracking_calls > 0, policy.name


@pytest.mark.parametrize("policy, into", [(ProposedPolicy(), 3),
                                          (ExhaustivePolicy(resolution_deg=1.0), 100)],
                         ids=["proposed", "exhaustive_1deg"])
def test_a_walk_cut_inside_a_training_slice(default_walk, policy, into):
    # a cut draws the whole walk's noise, so the cut run is a prefix of the whole one
    walk = default_walk[:8000]
    table = run_timeline(walk, policy, DEFAULT, noise_seed=2).statuses
    end = int(table.first[np.flatnonzero(table.kind == SlotKind.DL_TRAINING)[0]]) + into
    tl = assert_agrees(walk[:end], policy, DEFAULT, 2)
    assert tl.statuses.kind[-1] == SlotKind.DL_TRAINING
    assert tl.statuses.first[-1] - tl.statuses.first[-2] == into


def test_a_turn():
    spec, _ = STRESS
    walk = generate_path(replace(spec, path_length=0.05, rng_seed=53),
                         ((np.deg2rad(70.0), 0.05), (np.deg2rad(150.0), 0.05)), DEFAULT)
    assert len(walk.starts) == 3
    for policy in (ProposedPolicy(gamma=0.95), OraclePolicy(gamma=0.95)):
        table = assert_agrees(walk, policy, DEFAULT, 54).statuses
        # events on both sides of each turn
        for turn in walk.starts[1:]:
            triggers = table.first[:-1][table.kind == SlotKind.DATA_BELOW_THRESHOLD]
            assert triggers.min() < turn < triggers.max(), policy.name


@dataclass(frozen=True)
class ThreeSlopes:
    """A policy the package does not know: each event trains three fixed slopes."""

    gamma: float = 0.9
    name: str = "three_slopes"

    def start(self, theta2, r_total, geom):
        return self

    def event(self, y_ref, y_trigger, slope):
        return np.array([0.0, 2.0, 4.0])

    def choose(self, power):
        return int(np.argmax(power))


def test_a_policy_defined_outside_the_package(default_walk):
    # both engines know a policy only by gamma, name and its tracker's event and choose
    tl = assert_agrees(default_walk[:8000], ThreeSlopes(), DEFAULT, 2)
    table = tl.statuses
    training = table.kind == SlotKind.DL_TRAINING
    assert tl.tracking_calls > 0
    assert np.all(np.diff(table.first)[training] == 3)
    assert set(np.unique(tl.config_id)) <= set(range(3 * tl.tracking_calls + 1))
