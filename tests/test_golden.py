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
        "gamma_ecdf.csv": "4b1301747a8ad675853ad6bb6e3283e15d3da83c4fa31e95fc2c34ed99543ffe",
        "ladder_tables.txt": "56a4d2706d5dd73d97e11e954f1d4e085dd868125514bbee967e17f7de65c1dc",
        "lemma1_offset+1.csv": "b21b08aa29bdba62885a0c326b9c4797ec2ce3a36594a2e62e3dba06130b7ce0",
        "lemma1_offset+2.csv": "f7905ff7087fe3a084a889eea6aeb5c91874a051a3343366a50f055223613d77",
        "lemma1_offset-1.csv": "c3cf90852e5c7021dd57f59c83521f85820ed63589b7e913251a3cc900a43059",
        "lemma1_offset-2.csv": "484ebad9f84a973a0fbd5c9cb6425cfbff92380814779b63f4875616f2818c6c",
        "lemma5_negative.csv": "f9ead8cde458afb70500b371876bc6f22e60435242820b22a59e72033b4a9226",
        "lemma5_positive.csv": "69e6b8c814e46a3a8c0faa48ec66427b1a1db1ea1162b8333cc6635ce6d8d909",
        "lemma7_a_after.csv": "040b28ce8c51e19ff2918fbfd81007d0b059af523fbc4b0f4d9e4bb618e5fae6",
        "lemma7_a_before.csv": "891cee383ab756dc7e649f1aee1315a60668a7732b4115150824c36acd9abe0d",
        "lemma7_head_before.csv": "ad36cd4479e3b5f23f925977e16832cb29aaa9023c4fab5a6d44a3bcf7cb1480",
        "lemma7_tail_after.csv": "1293f2ba0d6905be6fd4db8dda14c97acb538be077ff95258944f78898824467",
        "martingale_means.csv": "7a31e30d58d5556924463cdd745cee74afa13c2bd44a6b1ea563fe3d38eac386",
        "measure_change_negative.csv": "f3b347c412e13b8e18d302c0bcf6500ef7cadb489a2d551b181f7648e8f1f85e",
        "measure_change_positive.csv": "02fe87206289af7261d1630930a14e0955b1e8cd2fa42b0f6b368b892b4b8904",
        "report.json": "b697b5be82969a3e30c14f0be1526770703a6a5d8a3bb9b95b7b01d41a251525",
        "theorem1_onedim_ecdf.csv": "8c683e0d62f639c4fd44ebcc62885a21f2c721439c8230920545a93e9d8bab62",
        "theorem1_twodim_probes.csv": "d80338c547d83a28ed2e6e034c2fdc3e14bf83ade49e7c487ca930f365dd2d3c",
    },
    "pareto": {
        "arcsine_ecdf.csv": "640aed9260f78d41a0557df3419094d0b4e4375cee3b4f981d2389c5717281d0",
        "band_fractions.csv": "bd4756da292375484b2532d090467d966ed77becd28162091587ddd3eb85594e",
        "gamma_ecdf.csv": "c1d84943d46df675aa332619761a41aa7d2c556615322ee82b39f9da018cf504",
        "ladder_tables.txt": "15a9973c0cd4259dcd4b618a91ef8211b43da4e3a99fa426d07b2355bbaeb7e3",
        "lemma1_offset+1.csv": "85a6cb8c3fb36ecd356e3d704428e25731e682f34f410e7aac54bd0f155e0feb",
        "lemma1_offset+2.csv": "ec3ffdc2003622a663a6929366dfe63f2df0a3d6869a39144cac1ca92a8fe04a",
        "lemma1_offset-1.csv": "fc79177aa6e737eefa8d7f352d061bcca083b80cd0d73d94a37c7f9266ba6a3e",
        "lemma1_offset-2.csv": "87b870347820b39683daab4ca93637f738d67b7891b06b29fa47b72f070848b6",
        "lemma5_negative.csv": "23aba32b0c5322d9e88cad2a903a568d3f9af25cd852e1a801273c672d982cf3",
        "lemma5_positive.csv": "4a41e776e11e8359926406c07093b0c5658c71345cc416613ff833a6f055f0f0",
        "lemma7_a_after.csv": "c33fabd3d27b45b240e31f203f6f7c68e75154d6e9b6d312a5f4367016d8b258",
        "lemma7_a_before.csv": "9d381c6bcde56fdcff01225cd45d5060a9a426bbad428fbcbbcf2535b4541a08",
        "lemma7_head_before.csv": "d3d345dfe9741689f19f704e4e3e41b53c67f9afad45d868b5318938273ef815",
        "lemma7_tail_after.csv": "374a432bbbaac7c7992c901c9e7f40587d2f52e6f3e1fb1cabd1c1092969e35d",
        "martingale_means.csv": "3855e98ff7d2b6664f83e6381bc624846b8ca4bf8dbdf46fb1300cc8ea8ea9dd",
        "measure_change_negative.csv": "ac5efeff04ddc25a18929a257a0772ebbae5cf138fe43069f04b41604ad71ddf",
        "measure_change_positive.csv": "8c33cfaa753c625c283031c715d9587c27d25d2cc5e4148feb7d29298c92a424",
        "report.json": "6f1b1955eb33fa7da5098f10db39a2de416207ebf00e822001cbecaca3818548",
        "theorem1_onedim_ecdf.csv": "eb29a20b22dd22ca4685925996dc7a3cf4f6e8ac8ed727d255143c8ebb9595fb",
        "theorem1_twodim_probes.csv": "2a51d04bce20033e1453ba4e6c7cfa153667f816c26c96bd44478f0b4285ffd8",
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
