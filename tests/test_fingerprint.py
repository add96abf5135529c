"""Behaviour fingerprint: what each timeline decided, apart from how it rounded.

The golden digests of `tests/test_golden.py` move with the last bit of any
ledger cell, so they cannot tell a rounding move from a changed decision.
This table can. For every timeline it stores the sha256 of the status
table's `first`, `kind`, `status_id` and `config_id` columns, the event
count, and the run's `RunMetrics` (final rate, share of non-data slots and
rate gap to the oracle, NaN for the oracle itself), which must agree within
1e-12 relative. The timelines:

- the default scenario, seeds 1-9, all five trackers;
- the tracking_stress walk (speed 1.8 m/s, turns of 70 and 150 deg, gamma
  0.95), seeds 14-27, proposed and oracle;
- a low-SNR scene (7 elements, snr_linear 0.1) on a 0.3 m walk, seeds 1 and
  2, all five trackers: noise crossings trigger most of its events;
- an absolute-threshold scene at r1 = r2 = 2 m on a 0.05 m walk, seed 11,
  whose thresholds sit near 0.9 (proposed, oracle) and 0.5 (sweeps) of the
  seed's peak strength.

Each runs as `ristrack run` simulates it, with receiver noise seed = seed +
1 and the oracle as every other tracker's rate-gap reference. A change that
means to change a decision regenerates the table with ``PYTHONPATH=src
python tests/test_fingerprint.py`` and names in CHANGES.md every timeline
whose entry moved.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from ristrack import LinkGeometry, TrajectorySpec, generate_path, overhead_report, run_timeline
from ristrack.config import ScenarioConfig

SCENES = {
    "default": ScenarioConfig(seeds=tuple(range(1, 10))),
    "tracking_stress": ScenarioConfig(
        trajectory=TrajectorySpec(speed_v=1.8),
        continuations=((np.deg2rad(70.0), 1.0), (np.deg2rad(150.0), 1.0)),
        algorithms=("proposed", "oracle"), gamma=0.95, seeds=tuple(range(14, 28))),
    "low_snr": ScenarioConfig(geometry=LinkGeometry(n_ris=7, snr_linear=0.1),
                              trajectory=TrajectorySpec(path_length=0.3), seeds=(1, 2)),
    "absolute": ScenarioConfig(geometry=LinkGeometry(r1=2.0),
                               trajectory=TrajectorySpec(r2_init=2.0, path_length=0.05),
                               threshold_mode="absolute", gamma=135000.0, gamma_exh=75000.0,
                               seeds=(11,)),
}

# timeline: (status-table sha256, events, (final_cum_rate, pct_below_threshold,
# avg_error_vs_oracle))
FINGERPRINT = {
    "default seed 1 proposed": (
        "25e9a9f0260799601bca3e7e07823002170beba035d6eed729cd909c808e01b7",
        78, (19.067339255729024, 0.24335986371847632, 0.09588847889577154)),
    "default seed 1 exhaustive_1deg": (
        "1233cfdff02a6f65deb4627e72dc4a4516ed292690445b94db3f6e54278a6f34",
        27, (18.281850107906234, 3.057910287570239, 0.8580433331107843)),
    "default seed 1 exhaustive_5deg": (
        "b22710b49e176b62c5b2ae2557cfb817c41234e6c4949d57b272c704fea0d96b",
        16, (18.706048428246852, 0.3743997903361174, 0.4295835857043103)),
    "default seed 1 exhaustive_10deg": (
        "4281668e22c12b19f002892762b7f31ef054ac08e8212b27cc6b0d16de180f9b",
        12, (17.576296489560722, 0.14601591823108578, 1.55003157123)),
    "default seed 1 oracle": (
        "82d9574ec8520faae28ebbad4627100a5841eb780514f20dbdf99f0d884f3880",
        77, (19.109936237041975, 0.024023986546567535, math.nan)),
    "default seed 2 proposed": (
        "5e2c8658e0fd116587464781a5d94368d338dfed34486f78397291f10f3200e0",
        77, (16.0354257982703, 0.24023986546567533, 0.08163015122804768)),
    "default seed 2 exhaustive_1deg": (
        "687448b501026da4d4846b96a88382bc6e8c00c3a85204a38fcfb0f6b011aae1",
        28, (15.304589111896611, 3.1711662241469143, 0.7881079181643568)),
    "default seed 2 exhaustive_5deg": (
        "fea40bc4c4a9585a9d3ee89c5c097afccb145df6067c9a2e36f62aae95e8b5bf",
        16, (15.672646596629376, 0.3743997903361174, 0.4176573461459479)),
    "default seed 2 exhaustive_10deg": (
        "bf7a397315cefeb4895b400bf389e4d03807026389a929d5bfe4b504c1742292",
        12, (14.53533594188417, 0.14601591823108578, 1.5462191911987726)),
    "default seed 2 oracle": (
        "ccba40437c87e8721152d57ee692e7157e647a47e8b7dfcedeacad88d20d63be",
        81, (16.068082601801716, 0.025271985847687927, math.nan)),
    "default seed 3 proposed": (
        "06136f8b856579bd9051a98963aba54383c0c6e04f34641e3643b40ef29d7da9",
        76, (15.798157470952722, 0.23711986721287434, 0.07592061344226188)),
    "default seed 3 exhaustive_1deg": (
        "24a389168f93c586696722d9c3506c4b111b226614cee55e49f41f705040d8d7",
        29, (15.034419446701358, 3.28442216072359, 0.8153095149473302)),
    "default seed 3 exhaustive_5deg": (
        "8a86525e6a0c6e895029194509723322695760ba1bbd79ec65ccfbf661f55ae1",
        16, (15.434523413304348, 0.3743997903361174, 0.4168384117900065)),
    "default seed 3 exhaustive_10deg": (
        "e49e392832baa90c4f6b2d91c5db79c81bec687818249cefff455dc08fdf5c39",
        12, (14.296526605611371, 0.14601591823108578, 1.547666268539818)),
    "default seed 3 oracle": (
        "c5ea6c70bd163a47c2f38a045cd1839e26beb878d5d8aabce3552f650bac9cdc",
        81, (15.828994043244313, 0.025271985847687927, math.nan)),
    "default seed 4 proposed": (
        "a7301d5c17e66212ce91e1d031ab101f58378fe08187be8dc3bb6365937bf684",
        76, (20.888002134060866, 0.23711986721287434, 0.10056476906769031)),
    "default seed 4 exhaustive_1deg": (
        "ecac8e34c8c14872bdfd5f0eb4adf91d5f635026cd05ad61e28a2921dc5b837c",
        26, (20.072702225537018, 2.9446543509935634, 0.8911246925899736)),
    "default seed 4 exhaustive_5deg": (
        "24057d68fa7ceee0df8a0da53bad74527152c81fa6feb9537f65f3e7d0b36506",
        16, (20.522823823836855, 0.3743997903361174, 0.43642829305922864)),
    "default seed 4 exhaustive_10deg": (
        "f5b73f5aa056105af88a1bbecd4397f6b07e23e1c57a269035b37d72263ffae9",
        12, (19.397251985926903, 0.14601591823108578, 1.5527763108347719)),
    "default seed 4 oracle": (
        "34fadf039fb2ee77a377ea3af752b4f2544af89702cb23bea877eb95971a33fd",
        77, (20.932495439128047, 0.024023986546567535, math.nan)),
    "default seed 5 proposed": (
        "70539305fef39facf1e8ab874328c0c7ddab78a9be0c903896eea1c9bfae8f5e",
        77, (19.95439805487703, 0.24023986546567533, 0.10944865714211743)),
    "default seed 5 exhaustive_1deg": (
        "91c821aa9cd0904953ddebb3548df5e233df3783cbe24db8960aa3de37af92ab",
        26, (19.163770770964383, 2.9446543509935634, 0.8647769739095449)),
    "default seed 5 exhaustive_5deg": (
        "c4f3de2008d29383cf9c08e8efa8f6005fc134a46b5181e221a05779c9501256",
        16, (19.59126202233409, 0.3743997903361174, 0.4323766956719039)),
    "default seed 5 exhaustive_10deg": (
        "f6c234f9e0153ca5223ffbdb52489eee9adcc5466ea85faa3b2cc8dc3b6f3a23",
        12, (18.463485921962906, 0.14601591823108578, 1.551398857430323)),
    "default seed 5 oracle": (
        "7ffee6ada0110a0cd38958fe4b12470521df7fa80f3df6b47bb5bb743607a3c2",
        77, (19.998050881933423, 0.024023986546567535, math.nan)),
    "default seed 6 proposed": (
        "bee03d5df7ad3e95db8752f213f90dc888f80be9c59df415324b3d90209e79be",
        77, (18.43602445454296, 0.24023986546567533, 0.09094735459589375)),
    "default seed 6 exhaustive_1deg": (
        "4bc02f17ac00716c22dded644834698311abde1f714e8e3f8a3a9c773f7269ae",
        27, (17.663597096539117, 3.057910287570239, 0.8415321320125935)),
    "default seed 6 exhaustive_5deg": (
        "42fc9af2b9b12cb1a94fd62ef3091bdf245c8ad67adbb79b83a3fa44ee0be80e",
        16, (18.074362874002603, 0.3743997903361174, 0.42718622641111503)),
    "default seed 6 exhaustive_10deg": (
        "4e030ceab65da263068f6449bfa2f5d05c217b1b581d3f2725db9e9a94cc12e2",
        12, (16.942968007278118, 0.14601591823108578, 1.5495144408866768)),
    "default seed 6 oracle": (
        "45fe201da4aba748201cd0ec1a550299ac8aba29a23f9d5694a1b12decf40215",
        78, (18.47676095016677, 0.02433598637184763, math.nan)),
    "default seed 7 proposed": (
        "e9c229ec3e765ef200512d8d61eba8e7cb1791761ba97e361b658f9197948c3c",
        77, (18.469572111299385, 0.24023986546567533, 0.09239101446704984)),
    "default seed 7 exhaustive_1deg": (
        "55484b7c391c0fba919cdc29ab82c17ab83a8678eda401464e3bab5c03b36f17",
        27, (17.696405949575887, 3.057910287570239, 0.841973635530184)),
    "default seed 7 exhaustive_5deg": (
        "f31f5e9943b231ad021098e89cad73e5a3b8dc1258051f2132088b06edcddfee",
        16, (18.107975447759895, 0.3743997903361174, 0.42654309968255844)),
    "default seed 7 exhaustive_10deg": (
        "9e622004adc9a79af605a8ba7fad0c9ac4aa74c3773e67b5f74fb8a5cf1fe64c",
        12, (16.97644322080917, 0.14601591823108578, 1.5498475597710664)),
    "default seed 7 oracle": (
        "875734b454ba531ed86307007bae1b9345e880ad4bdbbca976671c8cff6e6d84",
        78, (18.50991808579772, 0.02433598637184763, math.nan)),
    "default seed 8 proposed": (
        "ae2f09d7f1b112381ed7d515ba204570db1b8e985755c1750b0d12c16d9f2596",
        76, (18.076688743152992, 0.23711986721287434, 0.09100240984573477)),
    "default seed 8 exhaustive_1deg": (
        "1a83259c90b14fcfe7b5f6e8937f9c51e43f5b68199908d20e7e8bf5575d4a61",
        27, (17.318357080830893, 3.057910287570239, 0.8257203914084447)),
    "default seed 8 exhaustive_5deg": (
        "4c5afa74f1cb099ef6af7caa4cf51f8e5c000c10c156cfce9123924f904dfbe9",
        16, (17.714147727026, 0.3743997903361174, 0.4258194382558935)),
    "default seed 8 exhaustive_10deg": (
        "bc4358c2db153094d89dba0e52246c4e14ebfd219b2fa453ca971c14714e50d5",
        12, (16.58215652279514, 0.14601591823108578, 1.5489061277481888)),
    "default seed 8 oracle": (
        "c5164a4294d2a736d1ab759464b83a9fec14a3c8978b4937e188f92e5331c91d",
        78, (18.115283628312373, 0.02433598637184763, math.nan)),
    "default seed 9 proposed": (
        "99d19e2ee723eadd69a74dcea38f779228837040957ed34e45a694e859193671",
        76, (20.68081784956591, 0.23711986721287434, 0.08820562982769321)),
    "default seed 9 exhaustive_1deg": (
        "899ee68a6ec0e926ebd098237dbc184185982fc3a6b4aa7009f76c31a7239e87",
        27, (19.83644662036476, 3.057910287570239, 0.9175456089995053)),
    "default seed 9 exhaustive_5deg": (
        "6b5508b5429584f15a6a25f8ebac5f84572222be28cf49f6f044de8e2eee728b",
        16, (20.315631791142508, 0.3743997903361174, 0.43550784067876724)),
    "default seed 9 exhaustive_10deg": (
        "082442dba99151fe2500128d23a022be3c07917309e72ff0d177e619da82af03",
        12, (19.18964549609727, 0.14601591823108578, 1.55233695559603)),
    "default seed 9 oracle": (
        "3e187dc013fe19d8fa65c8c862dfa3a1db8ffb6976907c32a3d024d54c67d420",
        77, (20.724607882461594, 0.024023986546567535, math.nan)),
    "tracking_stress seed 14 proposed": (
        "5da778149b5c302ce52e6d3b168cd07d8c7ebd2c508f1efa1b577ba92cdb9ded",
        149, (19.98433141297071, 0.8367777877617036, 0.2047557521740321)),
    "tracking_stress seed 14 oracle": (
        "5b1a70b643822d96ae9f11ad43997f1c3cacba6cc172b69cbac0efa4d1322dc9",
        150, (20.136818667562924, 0.08423937460688292, math.nan)),
    "tracking_stress seed 15 proposed": (
        "6e0d54e995f16f1c3490375adfa2ad78c813ee74548f5d501aad5e4dfc35e973",
        145, (20.068217604338564, 0.8143139545332017, 0.20262015747340772)),
    "tracking_stress seed 15 oracle": (
        "51552a8773ca449bcde4b11f14561e1840fc361c34e3bedcf6fee8fae96431c5",
        149, (20.215997062347146, 0.08367777877617037, math.nan)),
    "tracking_stress seed 16 proposed": (
        "f497554d6fcbb98ab1c96de0b5c5188f42a2287b519e2bea19262c0c357b5789",
        148, (17.408904439463935, 0.8311618294545782, 0.18195584529703293)),
    "tracking_stress seed 16 oracle": (
        "0ae3769965dd6ec09e2e761eac525cca087b0986e01139840acec04f6a533d3c",
        156, (17.539506101173508, 0.08760894959115824, math.nan)),
    "tracking_stress seed 17 proposed": (
        "8eb14e9828c28873c449c40ed65f123f9392b01b6832f0a2a6fba5b803001dc9",
        145, (19.39857637768065, 0.8143139545332017, 0.19668666281818534)),
    "tracking_stress seed 17 oracle": (
        "0e4ce04fee87a3ba4069fa5884a1da991a40125a4256c61e84ec0e973755160e",
        150, (19.541562877029378, 0.08423937460688292, math.nan)),
    "tracking_stress seed 18 proposed": (
        "b9e2dc1cdc435e448bffee07ea9d20b15047523ea0482addaea2310795701c47",
        149, (18.109608050863002, 0.8367777877617036, 0.18878179675158369)),
    "tracking_stress seed 18 oracle": (
        "5b83b468ee35c7ebc4b30fd0188b7e2777874828431bc2d8b71694e08440dbdc",
        154, (18.24704422027087, 0.08648575792973312, math.nan)),
    "tracking_stress seed 19 proposed": (
        "5b802ab5b6ede4b0e95d0e51fe67043bb68e2815ea2e4c75304564a2485087c4",
        148, (18.646836867373942, 0.8311618294545782, 0.19064484202233917)),
    "tracking_stress seed 19 oracle": (
        "334f315709b1f48808a4ca0cc132c42b73faacc8f8b256c594149bf647154ed0",
        153, (18.787745615112925, 0.08592416209902057, math.nan)),
    "tracking_stress seed 20 proposed": (
        "698d341be67eb96d5affe01f8db2b382d1d51f3c62a955a8ebba11146d10dac5",
        150, (16.55325623454267, 0.8423937460688292, 0.1720900671762454)),
    "tracking_stress seed 20 oracle": (
        "17728abc0f46328ab1b958177fa533bfe1b284ccaea32dc3f4427540d5c1e9f2",
        161, (16.67885208187165, 0.09041692874472099, math.nan)),
    "tracking_stress seed 21 proposed": (
        "6be37f013763d3a8bb836c10429ab083cc7cad14910341a2cc4474586b8bc739",
        153, (16.92167771952397, 0.8592416209902057, 0.17919954691604337)),
    "tracking_stress seed 21 oracle": (
        "f037dcb895cdfe3da662e505f388b97d257ccb4bba577c6bb9a9a933f594bf83",
        158, (17.053567039520235, 0.08873214125258334, math.nan)),
    "tracking_stress seed 22 proposed": (
        "950490aa6aadc9733b4a5d3293a0455f8052e187789a04092b180a830033b25b",
        151, (16.93567714863066, 0.8480097043759547, 0.17763486980225657)),
    "tracking_stress seed 22 oracle": (
        "3bfd90ee0db3e4cb7475488c767fe319544338a8643479c79c4352ce8caf270b",
        158, (17.065521314780405, 0.08873214125258334, math.nan)),
    "tracking_stress seed 23 proposed": (
        "46d0543d4cc17a7d66e0e69747555a32bba6d7a09310e348fd9a8d4cb12452f8",
        151, (16.017882686904645, 0.8480097043759547, 0.17003390215086)),
    "tracking_stress seed 23 oracle": (
        "5b69d88efc5f43f9b29402d3b70af28e310ac0b2694787733aead27a8d77450d",
        165, (16.13969393477464, 0.09266331206757121, math.nan)),
    "tracking_stress seed 24 proposed": (
        "dfe7b3f58d5b010b13f25fb2df746439efaef89ae4f7bfbc6d754896e769ca4b",
        148, (17.453736237707325, 0.8311618294545782, 0.17981866167057828)),
    "tracking_stress seed 24 oracle": (
        "4df2f55eb4ed7da03307737d2e97f2d85d2d53631ce11a390ff90d9f943f7c95",
        156, (17.584538114581694, 0.08760894959115824, math.nan)),
    "tracking_stress seed 25 proposed": (
        "ed863847474858f72c5f078daae0d57daeafa26352a33aa39ee8df5d96e27004",
        151, (14.375820286396378, 0.8480097043759547, 0.15059899312174488)),
    "tracking_stress seed 25 oracle": (
        "b87b62e6f0dcaa89c36231472336a1d435194f11959b9786588bd7d6dd7ef5c3",
        199, (14.482631799016302, 0.111757570311798, math.nan)),
    "tracking_stress seed 26 proposed": (
        "b72123a6441599a549f4943222e1dc1d7c2c55cedf271bfb841202ab978f2322",
        148, (17.531011318772247, 0.8311618294545782, 0.18075128177508754)),
    "tracking_stress seed 26 oracle": (
        "5f7d996ce2f57b5941452297ec63cfca86a536d3086dc9085af88266a8b2e985",
        156, (17.662496803566533, 0.08760894959115824, math.nan)),
    "tracking_stress seed 27 proposed": (
        "a2844cd0f6adffac612affba0dbd86e18c78cbade7e85beb9da069e9dc9c2013",
        148, (18.522231856641906, 0.8311618294545782, 0.19113457846055207)),
    "tracking_stress seed 27 oracle": (
        "c4a9515f5d25b28acca8d63ad9b517a551d6a85c16b951f8a38156a7db5d8f54",
        153, (18.661967606393027, 0.08592416209902057, math.nan)),
    "low_snr seed 1 proposed": (
        "d0fbd451763a6c968ee536ffd4eefa644b476facc5213fced6ae96d7e676f9e2",
        322, (5.7351952495691005, 10.046174965680768, 0.8164125153388658)),
    "low_snr seed 1 exhaustive_1deg": (
        "fbc0f5ce8b9a6a323d2c70295989d9a1a5996e30776e78fed9796329d3f02e5b",
        2, (6.187620604768276, 2.265069262448521, 0.4132554752516351)),
    "low_snr seed 1 exhaustive_5deg": (
        "7e526eb3afae0050ac666455255a30b19924e14f5068c396af4584a210ad2ecb",
        1, (6.218674323051128, 0.23399475851740922, 0.39088028821760157)),
    "low_snr seed 1 exhaustive_10deg": (
        "c18bac7a0a94c169dcfacc17e7652d8b278f06d52659baa5bce3d8f2376a429d",
        2, (6.267112025444381, 0.2433545488581056, 0.34269562840274503)),
    "low_snr seed 1 oracle": (
        "b934468c60ddd7d79f4ad26b86eda0d6997efe61bbd027be27bca27bb2322f2b",
        1137, (6.177462630766606, 3.5473605391239236, math.nan)),
    "low_snr seed 2 proposed": (
        "03a8d9616e0dcc9da2577336faa02ec801e38408090cd4f6cf1ef816ca467cbf",
        1547, (1.7716427099504197, 48.24347934606264, 1.7244882216295585)),
    "low_snr seed 2 exhaustive_1deg": (
        "426ba6444d2d7f2a2fec0eeef7f8c283594c2750cb12c9d1cd757a11b9540734",
        36, (2.0165142490373897, 40.77124672407338, 1.5413104498378138)),
    "low_snr seed 2 exhaustive_5deg": (
        "fbc62b21035a6a6976018f9799aaf3e0c8f97d4d356214fb40a6d2a1e0971b86",
        289, (1.0881177964437678, 67.62448521153127, 2.3071208316476284)),
    "low_snr seed 2 exhaustive_10deg": (
        "eff427b12e4fc0074c352a71bd16fe2af202b0e47472403ac76f171dae66e113",
        386, (1.791219830558009, 46.92686883813803, 1.7231326450519746)),
    "low_snr seed 2 oracle": (
        "bd7ad6eab1e3eb6b49ef61e78756ea90588098e67ff82611f9a926c472fb2205",
        2565, (3.254425835834558, 8.002620741295395, math.nan)),
    "absolute seed 11 proposed": (
        "4ec3d0fc0d326b7209ec7b4bfb35572621d07a15001ea5b2c22f3c986d44af7f",
        4, (17.018897705899466, 0.7487832272557094, 0.14980150160497996)),
    "absolute seed 11 exhaustive_1deg": (
        "6030d5bfc23219b47bd3a2534aacce67dbffe8d2169ddd7266d1291fd8a5edba",
        1, (15.79836697374176, 6.795207787345564, 1.3696372469002025)),
    "absolute seed 11 exhaustive_5deg": (
        "39de9978f4b423b55a1127d93dcfde54fd214006ad607f5a79cc568895422e14",
        3, (16.02931299700648, 4.211905653313366, 1.1298584852483389)),
    "absolute seed 11 exhaustive_10deg": (
        "3d4008198cc33381b46a6092631ac6a09dce24ee3012fe3c2e6041876add5cd2",
        26, (13.593012730657263, 18.981654810932234, 3.5659550459079505)),
    "absolute seed 11 oracle": (
        "2b02d28aff055e2d16a2b922b9c3d1b3d598d56f43a0c646dc16fdd93088e51a",
        4, (17.1341990244595, 0.07487832272557095, math.nan)),
}


def fingerprint(scene: str) -> dict[str, tuple]:
    """The fingerprint entries of every timeline of one scene, keyed 'scene seed k tracker'."""
    cfg = SCENES[scene]
    out = {}
    for seed in cfg.seeds:
        traj = generate_path(replace(cfg.trajectory, rng_seed=seed), cfg.continuations,
                             cfg.geometry)
        timelines = [run_timeline(traj, policy, cfg.geometry, noise_seed=seed + 1,
                                  threshold_mode=cfg.threshold_mode)
                     for policy in cfg.policies()]
        oracle = next((tl for tl in timelines if tl.policy_name == "oracle"), None)
        for tl in timelines:
            table = tl.statuses
            digest = hashlib.sha256()
            for column, dtype in (("first", "<i8"), ("kind", "<i1"), ("status_id", "<i4"),
                                  ("config_id", "<i4")):
                digest.update(getattr(table, column).astype(dtype).tobytes())
            m = overhead_report(tl, tl.gamma, oracle if tl is not oracle else None)
            out[f"{scene} seed {seed} {tl.policy_name}"] = (
                digest.hexdigest(), tl.tracking_calls,
                (m.final_cum_rate, m.pct_below_threshold, m.avg_error_vs_oracle))
    return out


@pytest.mark.parametrize("scene", list(SCENES))
def test_fingerprint(scene):
    got = fingerprint(scene)
    want = {key: entry for key, entry in FINGERPRINT.items() if key.startswith(scene + " ")}
    assert sorted(got) == sorted(want), "the set of timelines changed"
    moved = [key for key in want if got[key][:2] != want[key][:2]]
    assert not moved, f"status tables or event counts moved: {moved}"
    for key in want:
        np.testing.assert_allclose(got[key][2], want[key][2], rtol=1e-12, atol=0.0,
                                   err_msg=key)


if __name__ == "__main__":
    # print a fresh FINGERPRINT table from the current sources
    lines = ["FINGERPRINT = {"]
    for scene in SCENES:
        for key, (digest, events, metrics) in fingerprint(scene).items():
            floats = ", ".join("math.nan" if math.isnan(x) else repr(x) for x in metrics)
            lines.append(f'    "{key}": (\n        "{digest}",\n        {events}, ({floats})),')
    print("\n".join(lines + ["}"]))
