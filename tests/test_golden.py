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
        "arcsine_ecdf.csv": "43ca3f145f24aa47e802b22f07150b74b7e55790c5d63fd5e0e9bd91e5ded925",
        "band_fractions.csv": "6cdc1f059aad7e67aad53e258047393f4aad1bfc9b855a711ca1aafcddd94873",
        "gamma_ecdf.csv": "37d409e5ca52bcd152fec7bc45b247399f08e4d3c27ee5b0e116011113762969",
        "ladder_tables.txt": "532d89b96598565a2d4195df72e8c735193d9303af03fe3a07d014b880407f83",
        "lemma1_offset+1.csv": "73f192195b056b237f3e5933be33e81a198b9d23d3f848cdfd09e6402d8cb2f9",
        "lemma1_offset+2.csv": "85027d0c0ffe64a19c240b1ebca58167ed52aecf805ed0803b5c6b0ed8883ab6",
        "lemma1_offset-1.csv": "908819e2c19a89fff653c07eee787631986c0e89fc22ddfa5fad95ca49c83026",
        "lemma1_offset-2.csv": "f79932c6cc9fdfe86188cd27f71faf1970738a4cd99ba3b840d1d2d4375586bd",
        "lemma5_negative.csv": "de581f7cd6b86577a89547592e0c5cfa8180c478b46507dfadd46b1114e25e8e",
        "lemma5_positive.csv": "f849603d2b917e04e20cfa3ae2c66990a41671bc84dac9a8fc9d59ca2e90b8a1",
        "lemma7_a_after.csv": "956bb2cd2eea85ce49659d77acc21b2ad4ab970120d5caf21567d88bb0054657",
        "lemma7_a_before.csv": "44d67a24356d91fbca00bec450fe19e86b5ed8fcf63b59ab8d683b86ccf8e5a7",
        "lemma7_head_before.csv": "62933a43ea87359fb3ade0cdfd95cc5c61b876157ade3b8b5fe78cfcbb7b2baa",
        "lemma7_tail_after.csv": "caf74a3e1ae31891d0da02070113808eda6c861a0d45378a3e3e11173be0cdf3",
        "martingale_means.csv": "f0211220d7968f2409aa7cd220409ee716bcf7391940c56949349373e85dbbc3",
        "measure_change_negative.csv": "66114585cf002047f37d13b1fa6f0288e6a02489101ffab284f97af4fa3eb85d",
        "measure_change_positive.csv": "515acd89bcfdd365ba562cfe9e8c10c8aa5248ccac9f84e1f5972c2f230a9b2d",
        "report.json": "ef9e63372db96fcfdf459cc54c9bf7c884bf4ea630e7101b38b5dcfb01a5c2a1",
        "theorem1_onedim_ecdf.csv": "4349f347e6589482dece5e6483ae294bc62026d181bc8296fe7c509e0351a574",
        "theorem1_twodim_probes.csv": "47f48f28d6c1c9c1643978494da309cfc2688ce49aac0ba5d7d30f3bcc3d444f",
    },
    "pareto": {
        "arcsine_ecdf.csv": "d987916480cee007bf85af6b4d58263d5d3b037a51243b66aa901ee547513ec7",
        "band_fractions.csv": "b276f179e87ac714f673926ffefa1cd137b8bd77f7ce712bee491eb259255b89",
        "gamma_ecdf.csv": "13bfead41ac012f2aa2b6d5d3d60ded1b7af65d490ad2414b32200400eb4b143",
        "ladder_tables.txt": "18da00913593e3a605f105dc67efb8f2cd8b882947d30dbcc652ce345d787f5b",
        "lemma1_offset+1.csv": "f62562229771b0e6740e37929a02eb32ffb78f9287d284c5e03291a1390d3bca",
        "lemma1_offset+2.csv": "59cda2d255a4c45c21c03212099181111b0157e9061828f200963744f7c1c602",
        "lemma1_offset-1.csv": "c9b313bf0c0c4e44d2011b5575f62c802fd9db6368d9af5f1017075eef430ffe",
        "lemma1_offset-2.csv": "f8a48433f3586e9f82844a88fcd9687ca4a5623684580a24cf98e2837b6b2437",
        "lemma5_negative.csv": "c33afef6357e5862724729f3c43737410c68b698860fcf0f5fceca1d24ea432a",
        "lemma5_positive.csv": "4c993e1f4ab9cd38a617f0d8f3f691c561f5ad2d1d3e11db6f47444fa59f83f8",
        "lemma7_a_after.csv": "3ee029a29426b5a1dcbd182eacd74cfd5062198916a2c45251d2a51c75a8c2af",
        "lemma7_a_before.csv": "03d1c8c9bf15616cd995f9c5bb5b812850f6c1b8105ab2dd0b875b9bcc3abbfc",
        "lemma7_head_before.csv": "7634be10890bcb2b1c44924322c5cabc4a18ac03c57e3704b4120117cd15a481",
        "lemma7_tail_after.csv": "877c6fbdaca5d3f5f76ad037bbb1ef3f3bb4596bc2648c3fc2b8667992cc1cac",
        "martingale_means.csv": "00d9c6534f0bf6447053ae3d7a9a08198845b5e11909698fa041f7da4fa8012f",
        "measure_change_negative.csv": "53788bcb0258e7fb3d37eba40b1386f2b21f216fcffc967bef3739dba18afc9d",
        "measure_change_positive.csv": "eefaa00cfce8d87b7db8e57da145881add3ba1c8f83de21a8f5a079229d53a94",
        "report.json": "f69de3e3c3aa8218504aa7b065356b69cce3849668fe4822bc5b95b95be4902b",
        "theorem1_onedim_ecdf.csv": "a60cf1f95bb09f6bcf900e0a07af6217d2cb7996a58f614b2bf773298ecb4e48",
        "theorem1_twodim_probes.csv": "17b13597cbc84fc25aa044aef8d79b025081f3083c314a5494cb803119a4a5e8",
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
