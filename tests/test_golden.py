"""Byte-identity guard: the full battery at a tiny scale writes the
recorded bytes.

Runs ``run("all", ...)`` at ``test_cli.tiny_config`` (master seed 7)
on the normal family, on normal steps with lognormal rates
(m, s) = (0.5, 0.5) and on the Pareto family with tail index 1.5, and
compares the SHA-256 of every file written (``report.json``, each CSV
and ``ladder_tables.txt``) with the digests below. They were recorded
with numpy 2.4.6 and scipy 1.17.1; other versions may draw different
streams. A change that reorders draws, renames a stream or alters a
record fails here. Re-record the digests only in a change that means to
alter report bytes, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py

prints the current digests of every family in the layout of ``GOLDEN``,
ready to paste over it.
"""

import hashlib
import os
import pathlib
import tempfile

import pytest

from bpire_lab.config import RunConfig
from bpire_lab.runner import run
from test_cli import tiny_config

GOLDEN = {
    "normal": {
        "arcsine_ecdf.csv": "b8e7b6e479dd7c33a7a9f6cf2a16bf70880d127569fb60da3eeb20337ade2c81",
        "band_fractions.csv": "6cdc1f059aad7e67aad53e258047393f4aad1bfc9b855a711ca1aafcddd94873",
        "gamma_ecdf.csv": "37d409e5ca52bcd152fec7bc45b247399f08e4d3c27ee5b0e116011113762969",
        "ladder_tables.txt": "532d89b96598565a2d4195df72e8c735193d9303af03fe3a07d014b880407f83",
        "lemma1_offset+1.csv": "c86cb67c8ee232a37c244b6461c2c44e674aed310ba8c77eea3c857a38e91b91",
        "lemma1_offset+2.csv": "a0c9366c50a9d32b92e369c5bf30e3ab8c4f31ca4ee20962ca65fe20ea375721",
        "lemma1_offset-1.csv": "f7b3bee4244d73824580d4ccc2e94538ae1f7329ed99c4b3494934a281587121",
        "lemma1_offset-2.csv": "23e4d4bec2111adcafd2b5443bf8fe204d7c8df63c3d912aed58d2900f012c97",
        "lemma5_negative.csv": "de581f7cd6b86577a89547592e0c5cfa8180c478b46507dfadd46b1114e25e8e",
        "lemma5_positive.csv": "f849603d2b917e04e20cfa3ae2c66990a41671bc84dac9a8fc9d59ca2e90b8a1",
        "lemma7_a_after.csv": "5b7b2da5e7446f5f7ee1634c167555a2b2b1a66ef6f1de84d1e5b68f23554967",
        "lemma7_a_before.csv": "12de03eb615f292bc44396a56d7a39e0a7a2b00c491b661e9fb697e64dc15ae4",
        "lemma7_head_before.csv": "26d48d9951daa9f2513032f8882a00307fa5ffc3099de31e953764977aa82e3b",
        "lemma7_tail_after.csv": "dca333fef239a3fc42e1c3063dc23c225d2bac36917c8394f333fe035374f5f9",
        "martingale_means.csv": "f0211220d7968f2409aa7cd220409ee716bcf7391940c56949349373e85dbbc3",
        "measure_change_negative.csv": "66114585cf002047f37d13b1fa6f0288e6a02489101ffab284f97af4fa3eb85d",
        "measure_change_positive.csv": "515acd89bcfdd365ba562cfe9e8c10c8aa5248ccac9f84e1f5972c2f230a9b2d",
        "report.json": "bf4680569c9346f22e98c687d5227ed7b74b9921e248165734a65ba9504083c9",
        "theorem1_onedim_ecdf.csv": "0806cc5dd809577c0ffe39b8ecae7eecd1249bcba165447419da732e74851cc3",
        "theorem1_twodim_probes.csv": "47802458440a4677c9f3e8583d56d23cfc72f8b39ac99c9d388ce52741535aca",
    },
    "lognormal": {
        "arcsine_ecdf.csv": "b8e7b6e479dd7c33a7a9f6cf2a16bf70880d127569fb60da3eeb20337ade2c81",
        "band_fractions.csv": "6cdc1f059aad7e67aad53e258047393f4aad1bfc9b855a711ca1aafcddd94873",
        "gamma_ecdf.csv": "6ab6e8525f5d0ed0fcc25831fecd4e7a238489e3b182fa28bcb89b9064feabf7",
        "ladder_tables.txt": "532d89b96598565a2d4195df72e8c735193d9303af03fe3a07d014b880407f83",
        "lemma1_offset+1.csv": "c86cb67c8ee232a37c244b6461c2c44e674aed310ba8c77eea3c857a38e91b91",
        "lemma1_offset+2.csv": "a0c9366c50a9d32b92e369c5bf30e3ab8c4f31ca4ee20962ca65fe20ea375721",
        "lemma1_offset-1.csv": "b1041e42ebf0a9630fde955bc70e7010e5443922529be405b034dbeb1aeb57f6",
        "lemma1_offset-2.csv": "47501330e82ec7a4fb330417e8504f69fe50a8a9386ce84a71d9cba497997eb9",
        "lemma5_negative.csv": "19d4577e6ed8420ac1bebd1a68fc866624fdceded5da90939c03b8a8dffdc563",
        "lemma5_positive.csv": "21d01def24b26380288e648064e6455c2ae3414e27f0f684a85d8107e818155d",
        "lemma7_a_after.csv": "ed675062a2e8034899362584758ce9c9288cbfbe00deaf1822a6adccd2f381ec",
        "lemma7_a_before.csv": "948d26d53524b4adbeff6862729cfeed148e58af690a1065a5f7aaf9eb658809",
        "lemma7_head_before.csv": "d6c04c636c2d6cf57f1011983458dd6da216f79d652467eef372daaea64b3186",
        "lemma7_tail_after.csv": "fde1d424a27501aee324da50a0cc493310ef9c7ea585dd6fd8150851f236ebf2",
        "martingale_means.csv": "6224a6bda498feeee59e85b15d1537f7834f9c92b0a1c1727f80595cff12a624",
        "measure_change_negative.csv": "66114585cf002047f37d13b1fa6f0288e6a02489101ffab284f97af4fa3eb85d",
        "measure_change_positive.csv": "515acd89bcfdd365ba562cfe9e8c10c8aa5248ccac9f84e1f5972c2f230a9b2d",
        "report.json": "ea6476764f8222c07bddde02bd2bb4ce55994f867052075e7ec59c1d13591d6f",
        "theorem1_onedim_ecdf.csv": "0b63f06791036c0a7bf7c7155368cb5146a542463534786722275b0b606dd5a6",
        "theorem1_twodim_probes.csv": "4750255e39e1d4bfff6c09840e18041fe08521f076893c782ec894a010cb9c4d",
    },
    "pareto": {
        "arcsine_ecdf.csv": "ab510803a84ab841a87af19080ee5540e2bfaed78af0dcd462de72ad00b271d5",
        "band_fractions.csv": "b276f179e87ac714f673926ffefa1cd137b8bd77f7ce712bee491eb259255b89",
        "gamma_ecdf.csv": "13bfead41ac012f2aa2b6d5d3d60ded1b7af65d490ad2414b32200400eb4b143",
        "ladder_tables.txt": "18da00913593e3a605f105dc67efb8f2cd8b882947d30dbcc652ce345d787f5b",
        "lemma1_offset+1.csv": "03985027e04ecd58edfb1a5988c2df53c643894120face11b9eb5b85b77b840a",
        "lemma1_offset+2.csv": "c14b4a6eb0b19b3788fa8b4360b55b56039d8e99075602c5eb3e54bdca607ad3",
        "lemma1_offset-1.csv": "ba3acb8b9cfaa9d07021e5a767770f8ccd112edba20fa1420e6534b06fd38d85",
        "lemma1_offset-2.csv": "5145f718a8a0101d8d1ce83238af0ca4ac428fe579fb96f1564959e608eb89dc",
        "lemma5_negative.csv": "c33afef6357e5862724729f3c43737410c68b698860fcf0f5fceca1d24ea432a",
        "lemma5_positive.csv": "4c993e1f4ab9cd38a617f0d8f3f691c561f5ad2d1d3e11db6f47444fa59f83f8",
        "lemma7_a_after.csv": "fcaf54a522992d55392d23af31ad04bb9725e7fade13bf8fcb9b3f7c8b3a2629",
        "lemma7_a_before.csv": "1f0ebe7857b4f1ceda10cf0ca0121b18fe1014cb18674f84777a68b02ec8cf2d",
        "lemma7_head_before.csv": "4073d62908f9d9227ec0be3e9896cf01157fde7db22ced5526ffb7beea52cc21",
        "lemma7_tail_after.csv": "ea1cac62ca670d1dc5d662fb44f956adcbac728909470ec5f77f8f1529cdea6d",
        "martingale_means.csv": "00d9c6534f0bf6447053ae3d7a9a08198845b5e11909698fa041f7da4fa8012f",
        "measure_change_negative.csv": "53788bcb0258e7fb3d37eba40b1386f2b21f216fcffc967bef3739dba18afc9d",
        "measure_change_positive.csv": "eefaa00cfce8d87b7db8e57da145881add3ba1c8f83de21a8f5a079229d53a94",
        "report.json": "24b00b35a9b6a81d892983eb449a9bb1559c4f24f75091049538c08689650f5d",
        "theorem1_onedim_ecdf.csv": "089fd296c5149f5be1ca73b7eb17dc0f140e6433039eb03b4d06c3e4243c5b95",
        "theorem1_twodim_probes.csv": "d16a2da819900a13b35e09d30ac638c03d494107660ad82909b8a83c8b60b934",
    },
}

FAMILIES = {
    "normal": {},
    "lognormal": {"rate_family": "lognormal", "rate_params": [0.5, 0.5]},
    "pareto": {"x_family": "pareto", "x_param": 1.5, "alpha": 1.5},
}


def battery_digests(tmp_path, family) -> dict:
    """SHA-256 of every file the tiny battery writes for one family."""
    cfg = RunConfig.from_dict(tiny_config(tmp_path, **FAMILIES[family]))
    run("all", cfg)
    return {
        name: hashlib.sha256(open(os.path.join(cfg.out_dir, name), "rb").read()).hexdigest()
        for name in sorted(os.listdir(cfg.out_dir))
    }


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_battery_bytes_match_recorded_digests(tmp_path, family):
    assert battery_digests(tmp_path, family) == GOLDEN[family]


if __name__ == "__main__":
    print("GOLDEN = {")
    for family in sorted(FAMILIES):
        with tempfile.TemporaryDirectory() as tmp:
            digests = battery_digests(pathlib.Path(tmp), family)
        print(f'    "{family}": {{')
        for name, digest in digests.items():
            print(f'        "{name}": "{digest}",')
        print("    },")
    print("}")
