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
        "arcsine_ecdf.csv": "97ed1a08b3dfc00e58087a71ce65ded824c1a41f807140e82742ceee7f0be75e",
        "band_fractions.csv": "3723d17e733a351737a9b5a7c50d0a83d2c3124a102f4637cd6d8f1336f947a5",
        "gamma_ecdf.csv": "19f69783311da6cc1e987f7a6b3da26143ef029183979c0d6b717a270e123f4b",
        "ladder_tables.txt": "56a4d2706d5dd73d97e11e954f1d4e085dd868125514bbee967e17f7de65c1dc",
        "lemma1_offset+1.csv": "aad6d2f5ff9e273c5937512fbc44ae7e4079289772bd24300763175fcef31883",
        "lemma1_offset+2.csv": "b2b94bd47136b1b917b9239c67d6b767516856ba3df28064968b2b2fbd740f47",
        "lemma1_offset-1.csv": "b927b2b6b7531ec9802c73a7506276d2bb68c5152655cd532f9e362f8e448407",
        "lemma1_offset-2.csv": "fb566ce079c9d059e3daa76c6c9c584b8898bb860e879b16140754196e83b0b0",
        "lemma5_negative.csv": "29ca0332146d2d07044cb884ad9d46b113275e52a006abb1e4802a926ff6574a",
        "lemma5_positive.csv": "ea4849ee73b464a6d08f6349ec505dc6229f3772cb0eb26c47bca6fb1b48ddf7",
        "lemma7_a_after.csv": "e98203ca324a685a32725a42c46ec3610afa16a99303ac2f1157ee13369c48db",
        "lemma7_a_before.csv": "31818abbdaa6da0a77ca9f91fc3fd0cf34dd5351e5a464b5a7ebda718e437dc9",
        "lemma7_head_before.csv": "209d7929668a3f30156668ffed6abbb18221cd98388bc9e5e7b241fadf690fd8",
        "lemma7_tail_after.csv": "ff4d982824b281ef085a0fa71154b251e504895a4feef66134429d27ebb21316",
        "martingale_means.csv": "e03b9f29f7997ed35f9b9cb04599558c6e8a77b9024b22bfa640c5a2e1fd1234",
        "measure_change_negative.csv": "aeffb646792cf19031a2e2164726c2672ee4584ccc9d0271854c8be6b3372da9",
        "measure_change_positive.csv": "a4c07a4d58c6dd134f7e612f228a5c9d5f8f5391ce0340ac4bf8df2e676af2f4",
        "report.json": "fc99ea56ded0a70c3c74d41f34aec63dcd07bba3e0d6ffb58487e22510a4812d",
        "theorem1_onedim_ecdf.csv": "b81e17899191cff5332c9315029e0db32a775f0066ba72e8685a38d720366c56",
        "theorem1_twodim_probes.csv": "6472403a5338deb8c591747e27dbb4cb50f342577b7f9e38a36bf347252455fa",
    },
    "pareto": {
        "arcsine_ecdf.csv": "f62e6b9da13f5ca1c3d784ea2b14ded3b136517e5963f18e61e8dd1113d68f2a",
        "band_fractions.csv": "bd4756da292375484b2532d090467d966ed77becd28162091587ddd3eb85594e",
        "gamma_ecdf.csv": "3382646931e5a2447c01d2583590029fbdcc7a22681561617691db6b26c0f120",
        "ladder_tables.txt": "15a9973c0cd4259dcd4b618a91ef8211b43da4e3a99fa426d07b2355bbaeb7e3",
        "lemma1_offset+1.csv": "73372ab96fe74fe277be22cec0f4a2dac6ab23ba05cbf75f95f9b556c4422b77",
        "lemma1_offset+2.csv": "98b5f0898b0914eeca1374068b6a4f80c576bc6b6406c256ccc54a66d4eb8cf7",
        "lemma1_offset-1.csv": "9e81c69b3cd8a2cb7f6afe2c723a449b3f7207b3f31e8a26c24550358e6bae97",
        "lemma1_offset-2.csv": "38bd2daedebcc75c8298d4d46d4b215fc8695d5b866881cbcb44253c889e59cc",
        "lemma5_negative.csv": "43484d12a316a5ad0dc49f635b67ed5d096f711fd9706663d2c4880db30d3eb3",
        "lemma5_positive.csv": "1bbbdf02ae234b1d7503011220d52772eeea7f1153cd40a27b169bad5287f5ce",
        "lemma7_a_after.csv": "6fb32d8ab949e6668d065ec0517b56369b75d26811b90afc905c0486ba156440",
        "lemma7_a_before.csv": "a2e6d70d737755a72a94c7fa07f45e3b089764671fba1b00c1880a323ba0752f",
        "lemma7_head_before.csv": "bf3e9e92f43121bd0f29b1037c34c772b9b44b942b0f6785e161028168e8390b",
        "lemma7_tail_after.csv": "2bee4e4a9008b07dc96da04a4956e0a22c18bcb34fd5a978217c8c06fcbafef5",
        "martingale_means.csv": "1ef19832c4990372964dfe1201ee9a668a3408e8dd7cc559769efc95b48afb4a",
        "measure_change_negative.csv": "340710161a6079b604e6d74d35870b328a2b1a3c98e5af37c10bfbaabae0af5a",
        "measure_change_positive.csv": "f2568239ddf154d9a485cea86390e359171adfa9f5bfb80635e46d286842306f",
        "report.json": "4d694bf2fc5aa45068a603da92d3d6a6d2909729846418c3d77a3984bc2bbb82",
        "theorem1_onedim_ecdf.csv": "f54958fa36b74d85b4e9f2be3d040b491e6937d085b94e7364489915c898ac54",
        "theorem1_twodim_probes.csv": "40bef7c495d76e4177eebfd4082ab6561a4a2f030be641d909614bc9cab8f778",
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
