"""Byte-identity guard: the full battery at a tiny scale writes the
recorded bytes.

Runs ``run("all", ...)`` at ``test_cli.tiny_config`` (master seed 7)
on the normal family and on the Pareto family with tail index 1.5, and
compares the SHA-256 of every file written (``report.json``, each CSV
and ``ladder_tables.txt``) with the digests below. They were recorded
with numpy 2.4.6 and scipy 1.17.1; other versions may draw different
streams. A change that reorders draws, renames a stream or alters a
record fails here. Re-record the digests only in a change that means to
alter report bytes, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py

prints the current digests of both families in the layout of ``GOLDEN``,
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
        "lemma1_offset+1.csv": "1f36272fe252964af3db39438032bb89f125838d9ed0959c51a43aa47b69462a",
        "lemma1_offset+2.csv": "f2d3e43de6e527a0a0eecc2f724a4e31afaffc05002453cd214c4731151bcd5f",
        "lemma1_offset-1.csv": "7449015c489c0583febce4557d315ba867048086927241c359243e06903c32a8",
        "lemma1_offset-2.csv": "80f6679b726ed64f5c685c7528714d6646c8feacfbf181c2dd839d994a8afa3c",
        "lemma5_negative.csv": "de581f7cd6b86577a89547592e0c5cfa8180c478b46507dfadd46b1114e25e8e",
        "lemma5_positive.csv": "f849603d2b917e04e20cfa3ae2c66990a41671bc84dac9a8fc9d59ca2e90b8a1",
        "lemma7_a_after.csv": "5b7b2da5e7446f5f7ee1634c167555a2b2b1a66ef6f1de84d1e5b68f23554967",
        "lemma7_a_before.csv": "12de03eb615f292bc44396a56d7a39e0a7a2b00c491b661e9fb697e64dc15ae4",
        "lemma7_head_before.csv": "26d48d9951daa9f2513032f8882a00307fa5ffc3099de31e953764977aa82e3b",
        "lemma7_tail_after.csv": "dca333fef239a3fc42e1c3063dc23c225d2bac36917c8394f333fe035374f5f9",
        "martingale_means.csv": "f0211220d7968f2409aa7cd220409ee716bcf7391940c56949349373e85dbbc3",
        "measure_change_negative.csv": "66114585cf002047f37d13b1fa6f0288e6a02489101ffab284f97af4fa3eb85d",
        "measure_change_positive.csv": "515acd89bcfdd365ba562cfe9e8c10c8aa5248ccac9f84e1f5972c2f230a9b2d",
        "report.json": "a9e567cd68bacdb480f4b0963eccb3a1f1d9c372445a1f80bfde1557acae1f5a",
        "theorem1_onedim_ecdf.csv": "0806cc5dd809577c0ffe39b8ecae7eecd1249bcba165447419da732e74851cc3",
        "theorem1_twodim_probes.csv": "fd1ac2925839e346d42e2c8868a5e3a59b3a5b33bb915f0f833cee199bd5b5aa",
    },
    "pareto": {
        "arcsine_ecdf.csv": "ab510803a84ab841a87af19080ee5540e2bfaed78af0dcd462de72ad00b271d5",
        "band_fractions.csv": "b276f179e87ac714f673926ffefa1cd137b8bd77f7ce712bee491eb259255b89",
        "gamma_ecdf.csv": "13bfead41ac012f2aa2b6d5d3d60ded1b7af65d490ad2414b32200400eb4b143",
        "ladder_tables.txt": "18da00913593e3a605f105dc67efb8f2cd8b882947d30dbcc652ce345d787f5b",
        "lemma1_offset+1.csv": "6c30eeffa81939bd92c5341bf7dd955d7297c3dc9ac4c37db11b93f4a188d5a3",
        "lemma1_offset+2.csv": "9c00ec79263ffd25d744e018d48a7a9110caad38cfdfdf2f5743daee635de427",
        "lemma1_offset-1.csv": "ed6df938514638c9319242503622aee65bc1643fd4b1a94b8e5d76794f8c647f",
        "lemma1_offset-2.csv": "321f09d3a8e806997063d3f7ea56c6f724ee179b2070292089482d70b1a2e67a",
        "lemma5_negative.csv": "c33afef6357e5862724729f3c43737410c68b698860fcf0f5fceca1d24ea432a",
        "lemma5_positive.csv": "4c993e1f4ab9cd38a617f0d8f3f691c561f5ad2d1d3e11db6f47444fa59f83f8",
        "lemma7_a_after.csv": "fcaf54a522992d55392d23af31ad04bb9725e7fade13bf8fcb9b3f7c8b3a2629",
        "lemma7_a_before.csv": "1f0ebe7857b4f1ceda10cf0ca0121b18fe1014cb18674f84777a68b02ec8cf2d",
        "lemma7_head_before.csv": "4073d62908f9d9227ec0be3e9896cf01157fde7db22ced5526ffb7beea52cc21",
        "lemma7_tail_after.csv": "ea1cac62ca670d1dc5d662fb44f956adcbac728909470ec5f77f8f1529cdea6d",
        "martingale_means.csv": "00d9c6534f0bf6447053ae3d7a9a08198845b5e11909698fa041f7da4fa8012f",
        "measure_change_negative.csv": "53788bcb0258e7fb3d37eba40b1386f2b21f216fcffc967bef3739dba18afc9d",
        "measure_change_positive.csv": "eefaa00cfce8d87b7db8e57da145881add3ba1c8f83de21a8f5a079229d53a94",
        "report.json": "face411f6e435beca30fb423cde982db981d906224746db69c79980fbbc9ab08",
        "theorem1_onedim_ecdf.csv": "089fd296c5149f5be1ca73b7eb17dc0f140e6433039eb03b4d06c3e4243c5b95",
        "theorem1_twodim_probes.csv": "d0fd283ffd43a35ec2e155dfd250afcaf7a585ab2b9aa1155bfba0e55d375472",
    },
}

FAMILIES = {
    "normal": {},
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
