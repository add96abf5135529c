from typing import NamedTuple

import numpy as np
import pytest

import ristrack.simengine as simengine


class EngineCall(NamedTuple):
    """One `simengine._received_samples` call: slots lo, lo + step, ... below hi."""

    lo: int
    hi: int
    step: int
    scan: bool           # one slope for every slot: a scan window, probe or span
    slopes: np.ndarray   # the slope of each evaluated slot
    samples: np.ndarray

    @property
    def slots(self) -> range:
        return range(self.lo, self.hi, self.step)


@pytest.fixture
def engine_calls(monkeypatch):
    """Every evaluation the engine makes while the test runs, in call order."""
    calls: list[EngineCall] = []
    original = simengine._received_samples

    def record(cols, lo, hi, slope, step=1):
        y = original(cols, lo, hi, slope, step)
        calls.append(EngineCall(lo, hi, step, np.ndim(slope) == 0,
                                np.broadcast_to(slope, y.shape), y))
        return y

    monkeypatch.setattr(simengine, "_received_samples", record)
    return calls


@pytest.fixture
def engine_gain():
    """The engine's gain: b0 times the walk's channel, c*alpha and exp(-j*(N-1)*kdu/2) out."""
    def gain(traj, geom):
        kdu, channel = traj.walk.channel(geom)
        turn = np.exp(-0.5j * (geom.n_ris - 1) * kdu)
        return traj.b0 * channel / (geom.beamformer_gain * geom.alpha * turn)
    return gain
