"""The ledger's numpy cell formatter against Python's own ``%.12g`` and ``%d``.

Each property case is formatted as one block of all its values, and again in
blocks of neighbours in magnitude, so that the blocks drop different integer
and fraction words.
"""

from dataclasses import replace

import numpy as np
import pytest

from ristrack import (ExhaustivePolicy, LinkGeometry, OraclePolicy, ProposedPolicy,
                      TrajectorySpec, generate_path, run_timeline)
from ristrack.ledger import (LEDGER_HEADER, _block_text, _float_cell, _int_cell, _kind_cell,
                             write_ledgers)
from ristrack.simengine import SlotKind

NEIGHBOURS = 64  # values per block of neighbours in magnitude


def block_cells(cell):
    """The text of a one-column block, split into its cells."""
    cells = _block_text([cell]).split(b",")
    assert cells[0] == b""  # every cell starts with its comma
    return cells[1:]


def kernel_text(values):
    return block_cells(_float_cell(np.asarray(values, dtype=float)))


def python_text(values):
    return [b"%.12g" % x for x in np.asarray(values, dtype=float).tolist()]


def assert_same_text(values):
    values = np.asarray(values, dtype=float)
    blocks = [values] + np.array_split(values[np.argsort(np.abs(values), kind="stable")],
                                       -(-values.size // NEIGHBOURS))
    for block in blocks:
        got, want = kernel_text(block), python_text(block)
        assert len(got) == len(want)
        wrong = [(v, g, w) for v, g, w in zip(block.tolist(), got, want) if g != w]
        assert not wrong, wrong[:10]


def test_named_values():
    # stripping integer zeros, or carrying an 11-digit mantissa to 12 digits,
    # prints b"1" and b"0.0001" for the first two
    assert kernel_text([100.0, 9.999999999995e-05, 999999999999.5, 203369596980.0]) == [
        b"100", b"9.99999999999e-05", b"1e+12", b"203369596980"]


def test_half_unit_ties():
    rng = np.random.default_rng(11)
    k = rng.integers(0, 10**12, 20000)
    ties = (k + 0.5) * 10.0 ** rng.integers(-18, 2, k.size)
    assert_same_text(np.concatenate((ties, -ties)))


def test_powers_of_ten_and_their_neighbours():
    p = 10.0 ** np.arange(-30, 31)
    values = np.concatenate((p, np.nextafter(p, 0), np.nextafter(p, np.inf), p * (1 - 5e-13)))
    assert_same_text(np.concatenate((values, -values)))


def test_integers_ending_in_zeros():
    rng = np.random.default_rng(12)
    mantissa = rng.integers(1, 10**6, 5000)
    values = mantissa * 10.0 ** rng.integers(0, 12, mantissa.size)
    assert_same_text(np.concatenate(([100.0, 1e11, 1.2e11, 203369596980.0], values)))


def test_rounded_decimals():
    rng = np.random.default_rng(13)
    digits = rng.integers(0, 12, 20000)
    assert_same_text(np.rint(rng.uniform(0, 1000, digits.size) * 10.0**digits) / 10.0**digits)


def test_special_values():
    tiny = np.finfo(float).tiny
    values = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, tiny / 3, tiny,
              np.finfo(float).max, -np.finfo(float).max, 1e-4, 1e-5, 1e12, 1e13]
    assert_same_text(values)
    assert kernel_text([0.0, -0.0])[:2] == [b"0", b"-0"]


@pytest.mark.parametrize("decades", [30, 300])
def test_log_uniform_magnitudes(decades):
    rng = np.random.default_rng(decades)
    values = 10.0 ** rng.uniform(-decades, decades, 100000) * rng.choice([-1, 1], 100000)
    assert_same_text(values)


@pytest.mark.parametrize("values, rows", [
    ([0.0, 0.0], 1),                       # a comma and "0" in one word
    ([0.0, -0.0], 2),                      # a separate separator carries the minus
    ([1.5, 999.25], 4),                    # comma-and-integer word, three fraction words
    ([9999.5, 10000.25], 6),               # separator, two integer words, three fraction words
    ([99999999.5, 100000000.25], 6),       # separator, three integer words, two fraction words
    ([123456789012.0, 5e11], 4),           # separator, three integer words, no fraction
    ([1e-5, 0.0], 8),                      # Python text widens the block to every word
    ([1e-5, 0.0, 0.5, 2.25], 5),           # ... unless it fits the words the block has
    ([-2.5e-5, 1e-5, 123456.5, 0.0], 5),
])
def test_block_width_follows_its_values(values, rows):
    cell = _float_cell(np.array(values))
    assert len(cell.rows) == rows
    assert kernel_text(values) == python_text(values)


def test_mixed_widths():
    rng = np.random.default_rng(14)
    small = rng.uniform(0, 1, 500)
    blocks = [
        np.zeros(300),
        np.concatenate((small, [1e-5, -1e-5, 2.5e-6, 0.0])),
        np.concatenate((small, 9999 + small, 10000 + small)),
        np.concatenate((small, 99999999 + small, 100000000 + small)),
        rng.integers(0, 10**12, 300).astype(float),
        -np.arange(0.0, 20000.0, 7.25),
    ]
    for block in blocks:
        assert_same_text(rng.permutation(block))


def test_integers():
    values = np.array([0, 1, 9, 10, 9999, 10000, 10**4 + 1, 10**8 - 1, 10**8, 10**8 + 1,
                       123456789012, 10**12 - 1, -1, -10**4, -(10**12 - 1)])
    blocks = [values] + [values[np.abs(values) < top] for top in (1000, 10**4, 10**8)]
    blocks += [np.array([999, 1000]), np.array([9999, 10000]), np.array([10**8 - 1, 10**8]),
               np.array([0, 0]), np.array([-5, 5])]
    for block in blocks:
        assert block_cells(_int_cell(block)) == [b"%d" % x for x in block.tolist()]
    assert [len(_int_cell(np.array(b)).rows) for b in ([0, 999], [0, 1000], [-1, 0])] == [1, 2, 2]


def test_kind_names():
    kinds = np.array([0, 1, 2, 3, 0, 2], dtype=np.int8)
    want = b"".join(b"," + SlotKind(k).name.encode() for k in kinds.tolist())
    assert _block_text([_kind_cell(kinds)]) == want
    assert _block_text([_kind_cell(np.zeros(3, np.int8))]) == b",DATA" * 3


def runs():
    """Three trackers' runs of one 30-slot cut: one trajectory's timelines.

    Each run draws its own noise, so no two of them write the same ledger.
    """
    geom = LinkGeometry()
    traj = generate_path(TrajectorySpec(path_length=0.01, rng_seed=1), (), geom)[:30]
    policies = (ProposedPolicy(), ExhaustivePolicy(resolution_deg=10.0), OraclePolicy())
    return [run_timeline(traj, policy, geom, noise_seed=2 + k)
            for k, policy in enumerate(policies)]


def written(tmp_path, timelines, name="lockstep"):
    """The ledgers that one write_ledgers call writes for the timelines, as bytes."""
    paths = [tmp_path / f"{name}{k}.csv" for k in range(len(timelines))]
    write_ledgers([str(p) for p in paths], timelines)
    return [p.read_bytes() for p in paths]


def test_lockstep_files_equal_each_timeline_written_alone(tmp_path, monkeypatch):
    timelines = runs()
    # the 30 slots in one block
    alone = [written(tmp_path, [tl], f"alone{k}_")[0] for k, tl in enumerate(timelines)]
    monkeypatch.setattr("ristrack.ledger.LEDGER_BLOCK_ROWS", 7)
    # five blocks, the last a partial one, and each file fed one block at a time
    assert written(tmp_path, timelines) == alone
    for text in alone:
        assert text.startswith(LEDGER_HEADER.encode() + b"\n1,")
        assert text.endswith(b"\n") and len(text.splitlines()) == 31
    assert len(set(alone)) == 3
    write_ledgers([], [])
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"alone{k}_0.csv" for k in range(3)] + [f"lockstep{k}.csv" for k in range(3)])


def test_lockstep_rejects_timelines_that_share_no_cells_before_opening_a_file(tmp_path):
    a, b, _ = runs()
    paths = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
    with pytest.raises(ValueError, match="exhaustive_10deg: 29 slots, proposed has 30"):
        write_ledgers(paths, [a, replace(b, rss=b.rss[:-1])])
    theta = a.theta2_true.copy()
    theta[4] += 1e-12
    with pytest.raises(ValueError, match="theta2_true differs"):
        write_ledgers(paths, [a, replace(b, theta2_true=theta)])
    zeros = np.zeros(30)
    # -0.0 == 0.0, but the two print differently
    with pytest.raises(ValueError, match="theta2_true differs"):
        write_ledgers(paths, [replace(a, theta2_true=zeros), replace(b, theta2_true=-zeros)])
    with pytest.raises(ValueError, match="2 paths for 1 timelines"):
        write_ledgers(paths, [a])
    with pytest.raises(ValueError, match="1 paths for 2 timelines"):
        write_ledgers(paths[:1], [a, b])
    assert list(tmp_path.iterdir()) == []
    write_ledgers(paths, [a, replace(b, theta2_true=a.theta2_true.copy())])
    assert len(list(tmp_path.iterdir())) == 2
