"""Byte-identity guard: the full battery at a tiny scale writes the
recorded bytes.

Runs ``run("all", ...)`` at ``test_cli.tiny_config`` (master seed 7)
on the normal family and on the Pareto family with tail index 1.5, and
compares the SHA-256 of every file written (``report.json``, each CSV
and ``ladder_tables.txt``) with the digests below. They were recorded
with numpy 2.4.6 and scipy 1.17.1; other versions may draw different
streams. A change that reorders draws, renames a stream or alters a
record fails here. Re-record the digests only in a change that means to
alter report bytes, and say so in CHANGES.md.
"""

import hashlib
import os

import pytest

from bpire_lab.config import RunConfig
from bpire_lab.runner import run
from test_cli import tiny_config

GOLDEN = {
    "normal": {
        "arcsine_ecdf.csv": "7fbfff8dbae9f6b47dc0f9b37de981b0fd57fe712bac7f64341c94a7444b1d72",
        "band_fractions.csv": "3723d17e733a351737a9b5a7c50d0a83d2c3124a102f4637cd6d8f1336f947a5",
        "gamma_ecdf.csv": "41201e82f1d5951071d19ce31e771ee921a17401f333adc51983f42d4bce39ab",
        "ladder_tables.txt": "cdfba7ae5f226590b91c1659b3e697dc53c2196b472f09d92c4fccbc46e113ad",
        "lemma1_offset+1.csv": "59479f1993a1886b76da0b669c22be62243f5c34be87a7e5c5cad575cdf112a5",
        "lemma1_offset+2.csv": "55823b5a124cbed28f40c03ef36786d6fa64fcac862e03723d7cf4086ca8d027",
        "lemma1_offset-1.csv": "f3d8721e889fd70d34d7129add2be6076bd3b160f39fecd2d69cef38c1e967df",
        "lemma1_offset-2.csv": "bd4ee3ba1bb26efe0c2d503325a20719f7bcda934031c3a638f375c0d836b1bc",
        "lemma5_negative.csv": "4371c75ae54184adc2e052508451132ffaa5dd20ab3e18723c2d61cc50223a92",
        "lemma5_positive.csv": "b3fa8cfec88bf5fddb4677edaf3f4d43916ef81ef1e9fd313ba53d1cef500c55",
        "lemma7_a_after.csv": "f626270d30de6f1e6e18639a249aa09ac6122a6ceb8d2590ec0aa15c678cb228",
        "lemma7_a_before.csv": "a3e6d4030bd985e7b0e56810266311b7ffeae3c85a8a4d23e834e9430b3b05e3",
        "lemma7_head_before.csv": "a6c04205d19031c6aab2dbe45123df5e9356e852e0119be8186f87581eba0678",
        "lemma7_tail_after.csv": "593e781e275ee0ec6ac02886f8c718627a016f68deac756623df9069dfabef01",
        "martingale_means.csv": "7a31e30d58d5556924463cdd745cee74afa13c2bd44a6b1ea563fe3d38eac386",
        "measure_change_negative.csv": "5a3753c0b6111d66fb37ece3a0357e26e5fff754d1ac0f35353754f74dfe6656",
        "measure_change_positive.csv": "99e035b0a179c93da290efe71d0968df70491e0db11b0971cbc2f012aa68df3b",
        "report.json": "020c7ac50e66dbca894ff31ed07f1275e2792f3e51586a2553ddad573792247d",
        "theorem1_onedim_ecdf.csv": "f631c4d7430ae2023ce1a68fa9f86829c2d7fd68e2000770e552e9a13597beee",
        "theorem1_twodim_probes.csv": "aeec851fe503e2b2f5d0ea74703a0c762da8d2f83ce12f03403236c77af96f11",
    },
    "pareto": {
        "arcsine_ecdf.csv": "640aed9260f78d41a0557df3419094d0b4e4375cee3b4f981d2389c5717281d0",
        "band_fractions.csv": "bd4756da292375484b2532d090467d966ed77becd28162091587ddd3eb85594e",
        "gamma_ecdf.csv": "365dfde23826adbdc3b89d5f5fa8bfeb369a2613854254b53b463fa7a54f9cce",
        "ladder_tables.txt": "da02142b37d35ddc08f86916d3b35e63a812b72f78fd6d851ba3aff8497f3ea9",
        "lemma1_offset+1.csv": "d428397b40910712f27282ace85949ad932f6ec2a9b333ede7be6e2c762b7151",
        "lemma1_offset+2.csv": "5b8cdf6b0d21480de6d871ced69373b606d47a18ae5a092e68e34d01d58b5714",
        "lemma1_offset-1.csv": "4330a1114dd619cc19957add86f067e9c6fda0343933954ffc6aafbe17854de6",
        "lemma1_offset-2.csv": "f967fdead0fd4a34c5b55385ad699ccf79134bbcc8e2e310825bb7771b4530d1",
        "lemma5_negative.csv": "668e03746ff0e16a0f3a11ee7cffa1cfc03342c7679363634f683f29a4eabbaa",
        "lemma5_positive.csv": "b65b78c9495913a6c9e5fe5fc5a1ea476181594f376972e120cf3b8289fa42fe",
        "lemma7_a_after.csv": "f0aaa2e93fd825e280b322666e8f8415981d60a1070417de31c8cc04b1bfbc5d",
        "lemma7_a_before.csv": "cc06fe405b9e9911c7ab4791f1e65f61cbe52e47374b0609134b4d7fcdf97f10",
        "lemma7_head_before.csv": "f25be8f873ff305c448383c495baa0d1575670672da426ea57a26b97c684d79b",
        "lemma7_tail_after.csv": "db57dc3d4bf4e41962f61edc595e9ece8a681c64f6f6c10b1c1849b87f325467",
        "martingale_means.csv": "3855e98ff7d2b6664f83e6381bc624846b8ca4bf8dbdf46fb1300cc8ea8ea9dd",
        "measure_change_negative.csv": "185dee321d9ab23884f33516d965a1bdb4c8337c7564baa0689cf8f6961eb6d4",
        "measure_change_positive.csv": "2f0e8df67ec37d5f9bf49d9445336652c7bcb136078f84be3ee97b858ac2cbcb",
        "report.json": "70a7ac19157a9ff99ce327f829facb4c1cf213d03852aea727aaf7d3f0dfcd54",
        "theorem1_onedim_ecdf.csv": "a56e19713b94bb2c9a41260bcd4d1058e756fbc95e0be529b38e42c71bdd53cb",
        "theorem1_twodim_probes.csv": "eb47bf34aff24edfb0c6188c93f4b641aa6b0f63b65e0ac80151a2cb1648c5c6",
    },
}

FAMILIES = {
    "normal": {},
    "pareto": {"x_family": "pareto", "x_param": 1.5, "alpha": 1.5},
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_battery_bytes_match_recorded_digests(tmp_path, family):
    cfg = RunConfig.from_dict(tiny_config(tmp_path, **FAMILIES[family]))
    run("all", cfg)
    written = {
        name: hashlib.sha256(open(os.path.join(cfg.out_dir, name), "rb").read()).hexdigest()
        for name in sorted(os.listdir(cfg.out_dir))
    }
    assert written == GOLDEN[family]
