"""Golden artifacts: the sha256 of every file `ristrack run` writes.

Three scenarios are pinned: the default scenario on a 0.3 m walk (seeds 1
and 2, all five trackers); three trackers in another order on a 0.2 m walk
(seeds 3 and 4), so a writer that hands one tracker's ledger to another's
file fails; and the fast two-turn walk of the benchmark's tracking_stress
workload (seeds 1 and 53; seed 53 fades into an event storm of about 1550
proposed and 2337 oracle events). Any change that moves a byte
of a ledger or a summary fails here with the name of the file. A change that
means to move outputs regenerates the table with ``PYTHONPATH=src python
tests/test_golden.py`` and says why in CHANGES.md.
"""

import hashlib

import pytest

from ristrack.cli import main

SCENARIOS = {
    "default_0p3m": "[trajectory]\npath_length_m = 0.3\n[run]\nseeds = 1, 2\n",
    "reordered_0p2m": (
        "[trajectory]\npath_length_m = 0.2\n[tracker]\n"
        "algorithms = oracle, exhaustive:10, proposed\n[run]\nseeds = 3, 4\n"
    ),
    "tracking_stress": (
        "[trajectory]\nspeed_mps = 1.8\nsegments = 70:1.0, 150:1.0\n"
        "[tracker]\nalgorithms = proposed, oracle\ngamma = 0.95\n[run]\nseeds = 1, 53\n"
    ),
}

DIGESTS = {
    "default_0p3m": {
        "exhaustive_10deg_seed1_slots.csv":
            "6314e96fdcfecb4cd4450f9857f53a7e1025c93631ae707447835c4e1ee8cf6b",
        "exhaustive_10deg_seed1_summary.txt":
            "22a6f83c90c3aeec471f53e326742ef8dc7208c10168e2ea9cb7f0aa6aa085e3",
        "exhaustive_10deg_seed2_slots.csv":
            "bfa27a1e71c6d8c52190101daacbada888594471602dd98342095e977c28ac38",
        "exhaustive_10deg_seed2_summary.txt":
            "1840753ca7d2e4b765d8ef1a5dd3e11a8910635e66986ff36bb5bbcbdbbd83de",
        "exhaustive_1deg_seed1_slots.csv":
            "0b133e5f23267aad29b575e27cdc8cab5f3040c36ed70f817856eb54448c0830",
        "exhaustive_1deg_seed1_summary.txt":
            "66df8697371119f897b34f7e6db16f845c9df421c18511e973af41d3ac42f8c9",
        "exhaustive_1deg_seed2_slots.csv":
            "1a6f49d6a30f8de28bbc8f4e0c39c96131798dd25b2604b9dbd216115a11d124",
        "exhaustive_1deg_seed2_summary.txt":
            "7d0dafca00c34f91aa29a26ed02c787b04f2e180bd89e51d3fe4584ef25a1396",
        "exhaustive_5deg_seed1_slots.csv":
            "85b063a106aea551dc15f1c2545aa94feb4b4d337961b46298c44952fe387b00",
        "exhaustive_5deg_seed1_summary.txt":
            "6082447ee329ab7e345c7bb6e1e397f0069fb17bcc7922516387669525eb9020",
        "exhaustive_5deg_seed2_slots.csv":
            "016a51caf3aefb9374d3b0b6ad570f8bdaf43c505191573a412a297167e63676",
        "exhaustive_5deg_seed2_summary.txt":
            "0fe47b73d1d3b93159b3b52d495c6623fdeef008e219cb42ec08654c3e626576",
        "oracle_seed1_slots.csv":
            "b735328781bc429c2aff83f34f92071f82a0337b4d004be367113970f3e11b49",
        "oracle_seed1_summary.txt":
            "97b9d09f0ef98576c5b304050ff6b62df7f49411746d48584617cf30ef468352",
        "oracle_seed2_slots.csv":
            "1912b2eeb452508bae4e884f95c61b7d72a5040f32168a24453760c5358024ef",
        "oracle_seed2_summary.txt":
            "e198f13a528c3541f5802f5d62badadae2feb4d2cbe929d960eba8b8df1d4994",
        "proposed_seed1_slots.csv":
            "868bc6d830e8b1dbe2e0d6aceb59355d663d2929c43f60a0779d35d095e11551",
        "proposed_seed1_summary.txt":
            "c95d16a4d1609fe7a4530d43f5928e1a03efd9b2bab4fb54d049f1e3117668db",
        "proposed_seed2_slots.csv":
            "d79e16b8aed2e6079903ed82abbac666f0cb3406bceb4e48fc0acc5343f18b16",
        "proposed_seed2_summary.txt":
            "8997000c7876932d96021f624dee6858b0b925abe893db95f925ef672b568dfc",
        "summary.txt":
            "1879c990186050b6ee3236d2b251b9f67b8ba894b91a8bb3dcf7dd7b089e406f",
    },
    "reordered_0p2m": {
        "exhaustive_10deg_seed3_slots.csv":
            "9f6a90ead7ba8d92e73b544338e81b6211127c85fe2532fd951b7f2c7b762c76",
        "exhaustive_10deg_seed3_summary.txt":
            "bdd18c489ffaac377a7ec474e399198613ff518dffc171ac55ea9d0a2de668ca",
        "exhaustive_10deg_seed4_slots.csv":
            "6ac8bcabfd7b0d0c64e72d0295fb893f756365b874f4f6b30748658cb323faba",
        "exhaustive_10deg_seed4_summary.txt":
            "80b9df3d2248440103441c44368813969e0376efa3b18989c3716c83c2f88e1f",
        "oracle_seed3_slots.csv":
            "f7ce538169bda43cc6e883c5bcf736f4b5f7f1f5d035214be3427ac6386c44eb",
        "oracle_seed3_summary.txt":
            "b0e4ea140c3506bf26bc2fbc0c325efbc648cfb380fb7670af8d6ec1f16d738f",
        "oracle_seed4_slots.csv":
            "e497c1031462250f6af03bf18291c1b6a86889af8a1ea094b8213cce8d5aeb5b",
        "oracle_seed4_summary.txt":
            "40ce74830789bf3726885079acb4159ffa48c1fd1b328566c32f6aa453a30ff4",
        "proposed_seed3_slots.csv":
            "67897d425f2499c437d3c2a30a888f12da60e62496137949f9bcf12f5569b1aa",
        "proposed_seed3_summary.txt":
            "1a05d580e6e35a84ab53967e523e4aefb737a9a229c1385ed997314c8ea3dfd1",
        "proposed_seed4_slots.csv":
            "7adf141bcfbc60bdddeb010719c3eea46201feb3f5e519cb90a2d0d6dc3dcc15",
        "proposed_seed4_summary.txt":
            "56229b85d5fe24632f12ab7e2fcc0b34400ad1be8568a08694cae3cb3eadf2a6",
        "summary.txt":
            "cee1d0ed06d68e60c0ffd56a33b4fceee3b224dffe68d835e9f318c9c98fcd6c",
    },
    "tracking_stress": {
        "oracle_seed1_slots.csv":
            "ffc10e7768d9c5fbeabb7e3b332f020bc59c2c9c195f9c7709a037948117b5b1",
        "oracle_seed1_summary.txt":
            "efd74ab6942f3363a01bfa4b2fa2e2c27a1d80725e347093a96528c5d39d8aeb",
        "oracle_seed53_slots.csv":
            "f734c20e940359c5df6e0d8b3adc91ef701036bc086cb17049cbc7b0b5f17d33",
        "oracle_seed53_summary.txt":
            "230ca01ae838a3f0762dc4740e35c329615ebb2c0a669646c60b1bc0f6880008",
        "proposed_seed1_slots.csv":
            "4f0cd131bc5f616edfc9b35a962ded193b3b96f12334002f08d36bf4a334cf31",
        "proposed_seed1_summary.txt":
            "4200075a31526389852396ea2be567b3f5b3f07822618f82cf7a285965996b28",
        "proposed_seed53_slots.csv":
            "5b38ca0b23baf42dbf3e56f8e359aa0e721731adf93295538eb4e8c357767d81",
        "proposed_seed53_summary.txt":
            "b6ce280655b63c04140c18249227115cd16266a2c340d78071bf5fec87899675",
        "summary.txt":
            "a4f15dd45e563683897d2fb91c3dca9bb8be29727a4ef0d053f6507eec632127",
    },
}


def artifact_digests(scenario: str, work_dir) -> dict[str, str]:
    """Run `ristrack run` on one scenario and hash every file it writes."""
    ini = work_dir / "scenario.ini"
    ini.write_text(SCENARIOS[scenario], encoding="utf-8")
    out = work_dir / "out"
    assert main(["run", str(ini), "--out", str(out)]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_artifacts_match_golden_digests(scenario, tmp_path, capsys):
    got = artifact_digests(scenario, tmp_path)
    capsys.readouterr()  # the run's per-tracker lines
    want = DIGESTS[scenario]
    assert sorted(got) == sorted(want), "the set of artifact files changed"
    for name in sorted(want):
        assert got[name] == want[name], f"{scenario}: {name} differs from its golden digest"


if __name__ == "__main__":
    # print a fresh DIGESTS table from the current sources
    import contextlib
    import io
    import pathlib
    import tempfile

    lines = ["DIGESTS = {"]
    for scenario in sorted(SCENARIOS):
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            digests = artifact_digests(scenario, pathlib.Path(tmp))
        lines.append(f'    "{scenario}": {{')
        lines += [f'        "{name}":\n            "{digest}",' for name, digest in digests.items()]
        lines.append("    },")
    print("\n".join(lines + ["}"]))
