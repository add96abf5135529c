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

import numpy as np
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

# the numpy version and SIMD extensions (as np.show_runtime lists them) the
# table was recorded under: the ledger bytes follow the last ulp of numpy's exp
# and sin, which another build or CPU can move without moving a decision
RECORDED_UNDER = "numpy 2.4.6, SIMD baseline X86_V2, found X86_V3 X86_V4 AVX512_ICL"


def runtime_stamp() -> str:
    """This host's numpy version and SIMD extensions, in the form of RECORDED_UNDER."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    found = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__[name]]
    return (f"numpy {np.__version__}, SIMD baseline {' '.join(umath.__cpu_baseline__)}, "
            f"found {' '.join(found)}")


DIGESTS = {
    "default_0p3m": {
        "exhaustive_10deg_seed1_slots.csv":
            "5ffe6cfead8eeb9fefa201f4163c92b43f0762c3505d95cf0c6c312346c51547",
        "exhaustive_10deg_seed1_summary.txt":
            "22a6f83c90c3aeec471f53e326742ef8dc7208c10168e2ea9cb7f0aa6aa085e3",
        "exhaustive_10deg_seed2_slots.csv":
            "79b92d8bdbfc9db5bdd97f959b7754596a3844ba3ea1559183d98cf8e7b54d23",
        "exhaustive_10deg_seed2_summary.txt":
            "1840753ca7d2e4b765d8ef1a5dd3e11a8910635e66986ff36bb5bbcbdbbd83de",
        "exhaustive_1deg_seed1_slots.csv":
            "595985172d3c70e7c1a1a01ec910bf015234f6e7026f7efdf0bd5ccaad696479",
        "exhaustive_1deg_seed1_summary.txt":
            "66df8697371119f897b34f7e6db16f845c9df421c18511e973af41d3ac42f8c9",
        "exhaustive_1deg_seed2_slots.csv":
            "890e88090762596c2ef15eeb134b61d84dace39e5f5ee29642b9ac6e5ce4eee9",
        "exhaustive_1deg_seed2_summary.txt":
            "7d0dafca00c34f91aa29a26ed02c787b04f2e180bd89e51d3fe4584ef25a1396",
        "exhaustive_5deg_seed1_slots.csv":
            "622df922086d61b6e956e6de21cfc63b60fff71de22a7ff0a43f702e5810973d",
        "exhaustive_5deg_seed1_summary.txt":
            "6082447ee329ab7e345c7bb6e1e397f0069fb17bcc7922516387669525eb9020",
        "exhaustive_5deg_seed2_slots.csv":
            "a34c6e282d146294e8dbc77a9c083ba76ddb0db15b239c95b2855891d96ee9f5",
        "exhaustive_5deg_seed2_summary.txt":
            "0fe47b73d1d3b93159b3b52d495c6623fdeef008e219cb42ec08654c3e626576",
        "oracle_seed1_slots.csv":
            "1cd031d1663de91a5cacf2ad466f00d3728efd8893b0a8c4e4fe5959123cd99e",
        "oracle_seed1_summary.txt":
            "97b9d09f0ef98576c5b304050ff6b62df7f49411746d48584617cf30ef468352",
        "oracle_seed2_slots.csv":
            "badd4feb06ae1f3f1a659eb6188d405855b66a907c6a30dc9f1d8986ed7a1da8",
        "oracle_seed2_summary.txt":
            "e198f13a528c3541f5802f5d62badadae2feb4d2cbe929d960eba8b8df1d4994",
        "proposed_seed1_slots.csv":
            "bf273d38e0271889436634eed5f23cd83d38f748d60bf676427fc3bde991a283",
        "proposed_seed1_summary.txt":
            "c95d16a4d1609fe7a4530d43f5928e1a03efd9b2bab4fb54d049f1e3117668db",
        "proposed_seed2_slots.csv":
            "c63db2e4f1ec3e828cc1461884aba33b2f5077922376e33cac95efa027a87cf7",
        "proposed_seed2_summary.txt":
            "8997000c7876932d96021f624dee6858b0b925abe893db95f925ef672b568dfc",
        "summary.txt":
            "1879c990186050b6ee3236d2b251b9f67b8ba894b91a8bb3dcf7dd7b089e406f",
    },
    "reordered_0p2m": {
        "exhaustive_10deg_seed3_slots.csv":
            "a1a08c5c34d687e0b77849944ec8c287c46834e251581947c6b816650f7df0b3",
        "exhaustive_10deg_seed3_summary.txt":
            "bdd18c489ffaac377a7ec474e399198613ff518dffc171ac55ea9d0a2de668ca",
        "exhaustive_10deg_seed4_slots.csv":
            "5ed99119e4742ae7367a8cfac5b40f07657ab542725e662462c56f4aba1163b0",
        "exhaustive_10deg_seed4_summary.txt":
            "80b9df3d2248440103441c44368813969e0376efa3b18989c3716c83c2f88e1f",
        "oracle_seed3_slots.csv":
            "323b58bff6faf79b7d534b794509e724b97a34e0b7e4f6055011cdf80a0f769e",
        "oracle_seed3_summary.txt":
            "b0e4ea140c3506bf26bc2fbc0c325efbc648cfb380fb7670af8d6ec1f16d738f",
        "oracle_seed4_slots.csv":
            "6cb44e93c3fcd016b3ae4ee6f9fc161be449b6b2b5a1b20f656d669c4c13060e",
        "oracle_seed4_summary.txt":
            "40ce74830789bf3726885079acb4159ffa48c1fd1b328566c32f6aa453a30ff4",
        "proposed_seed3_slots.csv":
            "ec9bb0636e4c4f38ca6f9c68c3f870ab2269035b5e016c6aa41209964337be70",
        "proposed_seed3_summary.txt":
            "1a05d580e6e35a84ab53967e523e4aefb737a9a229c1385ed997314c8ea3dfd1",
        "proposed_seed4_slots.csv":
            "3e01f8d826fa600bc9302eec1b1222e16f460c25742dfc8d3e028beccdccac82",
        "proposed_seed4_summary.txt":
            "56229b85d5fe24632f12ab7e2fcc0b34400ad1be8568a08694cae3cb3eadf2a6",
        "summary.txt":
            "cee1d0ed06d68e60c0ffd56a33b4fceee3b224dffe68d835e9f318c9c98fcd6c",
    },
    "tracking_stress": {
        "oracle_seed1_slots.csv":
            "ff26ae569466e9b33a773c4f9e4d9335bddc15a4c93a9be1d111e2ad841b0975",
        "oracle_seed1_summary.txt":
            "efd74ab6942f3363a01bfa4b2fa2e2c27a1d80725e347093a96528c5d39d8aeb",
        "oracle_seed53_slots.csv":
            "1aa9e5236d809565b986ef6cdd8edbf667cab259ef08a20759cfe59ef82f800d",
        "oracle_seed53_summary.txt":
            "230ca01ae838a3f0762dc4740e35c329615ebb2c0a669646c60b1bc0f6880008",
        "proposed_seed1_slots.csv":
            "89d8a5f317dbab3556e06ba3005a5795757df261850a7f413c47d38d563b2e6a",
        "proposed_seed1_summary.txt":
            "4200075a31526389852396ea2be567b3f5b3f07822618f82cf7a285965996b28",
        "proposed_seed53_slots.csv":
            "785d5c4b4731aeee886b6e94b8f6ad30df099334f70c48cb0f9cd04bedae5524",
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
    stamp = runtime_stamp()
    note = "" if stamp == RECORDED_UNDER else (
        f" (recorded under {RECORDED_UNDER}, run under {stamp}: ledger bytes are "
        "host-local, and tests/test_fingerprint.py is the portable check)")
    for name in sorted(want):
        assert got[name] == want[name], (
            f"{scenario}: {name} differs from its golden digest{note}")


if __name__ == "__main__":
    # print a fresh DIGESTS table from the current sources
    import contextlib
    import io
    import pathlib
    import tempfile

    print(f'RECORDED_UNDER = "{runtime_stamp()}"')
    lines = ["DIGESTS = {"]
    for scenario in sorted(SCENARIOS):
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            digests = artifact_digests(scenario, pathlib.Path(tmp))
        lines.append(f'    "{scenario}": {{')
        lines += [f'        "{name}":\n            "{digest}",' for name, digest in digests.items()]
        lines.append("    },")
    print("\n".join(lines + ["}"]))
