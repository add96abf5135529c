import importlib

import pytest

import ristrack

REMOVED = (
    "CoherentGain",
    "SlotRecord",
    "ap_ris_channel",
    "coherent_gain",
    "evolve_channel",
    "path_loss_linear",
    "r2_at",
    "received_samples",
    "theta2_at",
)


def test_all_is_sorted_unique_and_resolves():
    names = list(ristrack.__all__)
    assert names == sorted(set(names))
    for name in names:
        assert getattr(ristrack, name) is not None, name


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_not_importable(name):
    assert name not in ristrack.__all__
    with pytest.raises(ImportError):
        exec(f"from ristrack import {name}", {})


def test_removed_record_views_and_selftest_module():
    assert not hasattr(ristrack.Timeline, "__getitem__")
    assert not hasattr(ristrack.Timeline, "__iter__")
    assert "__iter__" not in vars(ristrack.Trajectory)
    with pytest.raises(ImportError):
        importlib.import_module("ristrack.selftest")
