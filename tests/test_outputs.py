"""The bytes of every bundled output, pinned.

Each bundled config is run (``sweep`` for ``sweep_advection``, ``run`` for
the rest) into a temporary output root, and ``verify`` runs at seed 0.  The
SHA-256 of every CSV and manifest, and of the ``verify`` table, must equal
the digests below.  So a change that claims byte-identical outputs is
checked by the suite, and a change of arithmetic shows up here and has to be
re-recorded and named.

The initial conditions and the entropy call libm (``sin``, ``exp``,
``pow``), and the manifests hold the numpy version, so the digests hold for
the numpy version and machine they were recorded with.  Elsewhere the tests
skip and say why.
"""

import contextlib
import hashlib
import io
import platform

import numpy as np
import pytest

from invariant_guard.cli import bundled_config, cmd_run, cmd_sweep, cmd_verify
from invariant_guard.drivers import InfeasibleTargetWarning

RECORDED_NUMPY = "2.4.6"
RECORDED_MACHINE = "x86_64"

OUTPUT_DIGESTS = {
    "fig1_burgers_centered/manifest":
        "63e18cd934b6c015b4086530bdfed2f665e06acbc8e84a8ea5fa1a9cf19ae47b",
    "fig1_burgers_centered/n64/centered/invariants.csv":
        "96a0a3a112a0c3c852099ea8be80530170d80ea15128f3cacc062d3e7f2d7fd1",
    "fig1_burgers_centered/n64/centered/stages.csv":
        "2d2029a57a8add90fff6275a6af387487de6943020662893b841c6ee731cb6e2",
    "fig1_burgers_centered/n64/centered/trajectory.csv":
        "fb22ed49fe25365f44721c028efea642161b085baf76809c21f35554ee7c4bc1",
    "fig1_burgers_centered/n64/l2_tracked/invariants.csv":
        "86b96f0924eab465cedfddf675328b533393490e6d6ab3c28644aa84e7938260",
    "fig1_burgers_centered/n64/l2_tracked/metrics.csv":
        "7b2d66fa35a4508d796cec020d213c211acf3ec1bc41551c79b22cb802b2932b",
    "fig1_burgers_centered/n64/l2_tracked/stages.csv":
        "ec7d614620a47c592559af105b87511336a895530528fe39b63fe2ae0a3eb7cb",
    "fig1_burgers_centered/n64/l2_tracked/trajectory.csv":
        "365724ab5b4170b5555b4732024c5614f8c670b74152c550475b1bcb85a5f024",
    "fig1_burgers_centered/n64/l2_zero/invariants.csv":
        "1b62b032dc35fe38bd029e735a799a3c855b4195a4b277e5dc2f93cbf30db4cd",
    "fig1_burgers_centered/n64/l2_zero/metrics.csv":
        "1b04fb1be6c01e5bbf3e40b88f61b78eff539662d62475fb35b56801c070eb20",
    "fig1_burgers_centered/n64/l2_zero/stages.csv":
        "a3eb3bcb28afd2ac216d271ab8949c0dcb36c2f79e417203afcce26bd84b17ee",
    "fig1_burgers_centered/n64/l2_zero/trajectory.csv":
        "b67ea30180ff1669445250fa596f9ddb84d8a6224670b1c51d83351a819f1ea9",
    "fig1_burgers_centered/reference/invariants.csv":
        "e23698a91b35d5d2ac1d789c31d1b8460150130745bb9ab7453bb8871f018d96",
    "fig1_burgers_centered/reference/rates.csv":
        "ed90409570a6e5b0a8c1d8dda693274242631d556dee6c242c88dc26ef47f625",
    "fig1_burgers_centered/reference/trajectory.csv":
        "9f1eb4d69579706fed4585eead2dca78f04904b79f6ae3021dd9ab893a2d61ac",
    "fig2_nonconservative/manifest":
        "42fa4b3df47736ee326e1b89d73c87b1d926492e19a931011ce3b7cfac174e95",
    "fig2_nonconservative/n64/corrected_clamp/invariants.csv":
        "d39c6ee388df5832b5b2406c6189ee54ea9ac589962a1879e71ac7f40f39b759",
    "fig2_nonconservative/n64/corrected_clamp/stages.csv":
        "8d71d157c07e68c0a008230abb59a512add5d588125868b3f44c3fa784859f93",
    "fig2_nonconservative/n64/corrected_clamp/trajectory.csv":
        "7dc66e51f979105fef17fd6f8196c11579a923e0529742869d96de5584037496",
    "fig2_nonconservative/n64/corrected_zero/invariants.csv":
        "8e8b5bbcb78fc9d8eccf808b3e5f03f87ff68b4459d9e7e34acad690956b6295",
    "fig2_nonconservative/n64/corrected_zero/stages.csv":
        "e217b8c40088dde94d63c7bf51ea68022db929f2af01b00dc7f452c2e8c984b2",
    "fig2_nonconservative/n64/corrected_zero/trajectory.csv":
        "77912c9f0db5e4173183198a579b07b384014c99f7bccfe5cdbcd8099cc20268",
    "fig2_nonconservative/n64/finite_difference/invariants.csv":
        "3236c8dc3f9ba09db2a6914043ff54e290f48bd0abc15a4d3f703a14ee121efd",
    "fig2_nonconservative/n64/finite_difference/stages.csv":
        "2d2029a57a8add90fff6275a6af387487de6943020662893b841c6ee731cb6e2",
    "fig2_nonconservative/n64/finite_difference/trajectory.csv":
        "54ccd58ecb4a142fef4560160fbc894a8082ff888cc34159be38b89e83645f2b",
    "fig3_ftcs/manifest":
        "47bb53be0af619748c84b1019da02d57cc5a4e6f7d515a434baa47443b1f51b0",
    "fig3_ftcs/n64/ftcs/invariants.csv":
        "2d12cfbfcc5b877c778dbf3651a5eb7faae9405d9b05edbfe3c9e675eb5496ff",
    "fig3_ftcs/n64/ftcs/stages.csv":
        "2d2029a57a8add90fff6275a6af387487de6943020662893b841c6ee731cb6e2",
    "fig3_ftcs/n64/ftcs/trajectory.csv":
        "da33999bc500af9e813bf1fb527cda165ff780c69c8259733cc70ae27e612b73",
    "fig3_ftcs/n64/ftcs_l2_zero/invariants.csv":
        "5bbd1322908a6dc376ef21ea385ccf7f3a7551dc296bd3ad24735abb27d958e3",
    "fig3_ftcs/n64/ftcs_l2_zero/stages.csv":
        "7cd4f210d8c870f371a94a60a99d42b92dba78c5e25bfecb993492feb80a609d",
    "fig3_ftcs/n64/ftcs_l2_zero/trajectory.csv":
        "be0436297c1a8b765e129ee9de80a8b3bbfa8bbdccf10613898d401edc91c795",
    "fig4_euler2d_correlation/manifest":
        "1c07e2718d1a32def56333f8d5a68ebb54c340c3a92bc47055ea48e3b7569ab2",
    "fig4_euler2d_correlation/n64/energy_clamp/invariants.csv":
        "72080fce8794908bab57235dd793222bcf3dcb6982a504743ec1481bc3ad88af",
    "fig4_euler2d_correlation/n64/energy_clamp/metrics.csv":
        "49291adeb2d34b6c68a94c2141de28a8f9c4967e09d81a3a67d1df5680b563b1",
    "fig4_euler2d_correlation/n64/energy_clamp/stages.csv":
        "1c8c7c9068324402cdcfde942850a71c6092a6e6d2aab6c38d0bbc00e1ab3198",
    "fig4_euler2d_correlation/n64/energy_clamp/trajectory.csv":
        "d0025d7d31487d2b23a172a02d5aa02897695b87d26b902fbaa2682b9954f426",
    "fig4_euler2d_correlation/n64/muscl/invariants.csv":
        "1d33cdd49437e7618c97f94155c45d44ea09233b77e86875abb62a5f81018bde",
    "fig4_euler2d_correlation/n64/muscl/metrics.csv":
        "c9f76077220715371d6056b81ed469c6b77b6043d19dcd38f517a7704fa0146e",
    "fig4_euler2d_correlation/n64/muscl/stages.csv":
        "2d2029a57a8add90fff6275a6af387487de6943020662893b841c6ee731cb6e2",
    "fig4_euler2d_correlation/n64/muscl/trajectory.csv":
        "ffec6ed4786f4104d870ee53f97e4d8d6f86b3e0a7b348388e88507a3f9048cd",
    "fig4_euler2d_correlation/reference/invariants.csv":
        "46e6d8c863dce9ce34f17d8294ec537a17100b5f901ad5739bd0fa5a71dc80ff",
    "fig4_euler2d_correlation/reference/rates.csv":
        "8dc33005b20371f70dcd0392d1fb3fae6f4c1e647f99f5d0e46cf7df794bfe8c",
    "fig4_euler2d_correlation/reference/trajectory.csv":
        "bfc25b06f3c214d0b1f2e40e274af814f9fda4099fad26fb21114d196d4cba63",
    "fig4_euler2d_invariants/manifest":
        "aaf86f8678de879e939960ef0e176f40dc78a45520058586001bd7837b2523e7",
    "fig4_euler2d_invariants/n64/energy_clamp/invariants.csv":
        "3a514eb33864da76a24250b34eab957aaa95ad29cc37b8dc860165ee17699549",
    "fig4_euler2d_invariants/n64/energy_clamp/stages.csv":
        "36ca2d3859364604d84470c8c0a5f3f32ea5f943ef5693e39dd0e8588499bf62",
    "fig4_euler2d_invariants/n64/energy_clamp/trajectory.csv":
        "874598de4cd934a4706849e0b615fdaaa121982c3a1589ee80556e878d6097f6",
    "fig4_euler2d_invariants/n64/enstrophy_zero/invariants.csv":
        "b6f7114fc2c66481942098340d478b9eca5505bcfa60c4c94351acf86ca7aa74",
    "fig4_euler2d_invariants/n64/enstrophy_zero/stages.csv":
        "42a79d332473b46e6ff440a8c0d9fcfd14dcc68649dc28dc01023714b1cf7e5a",
    "fig4_euler2d_invariants/n64/enstrophy_zero/trajectory.csv":
        "8492432a5c3f1a196969b33bbce98ef65d6ced401cb301a9b9f4fcefcba896d3",
    "fig4_euler2d_invariants/n64/muscl/invariants.csv":
        "7ec15f9b1dd8b8953d3bea534a9a53d0a4e7ed5bbd47c3299b6cf5032c5585e0",
    "fig4_euler2d_invariants/n64/muscl/stages.csv":
        "2d2029a57a8add90fff6275a6af387487de6943020662893b841c6ee731cb6e2",
    "fig4_euler2d_invariants/n64/muscl/trajectory.csv":
        "3b8bdee5f7f4d7fd6050574f1eb872533671ae6851112b1b3bb2a6dbc2726f27",
    "fig5_dg_burgers/manifest":
        "4b74de00195d8a70a7a5b05a8999a4d48fce55203d7c76c7c32b76b91db6e8c4",
    "fig5_dg_burgers/n32/centered_dg/invariants.csv":
        "65a86a22f2e734aefc4d687b2da39222eb0403067b68ef58edd7c2da9a34d8e0",
    "fig5_dg_burgers/n32/centered_dg/stages.csv":
        "2d2029a57a8add90fff6275a6af387487de6943020662893b841c6ee731cb6e2",
    "fig5_dg_burgers/n32/centered_dg/trajectory.csv":
        "7631eae01c3f960f696ae866e993e6f9a15a83bb012603c4b29b272bea16ad5d",
    "fig5_dg_burgers/n32/dg_l2_decay/invariants.csv":
        "0279a5c6771717cbbb861fbac2544b7b441f2b755cacd422b4f7103d8d44e7a0",
    "fig5_dg_burgers/n32/dg_l2_decay/stages.csv":
        "e3ce33828bcdf859f0e44d20a0e1d94b4a1c1c1686bd4f90999f222fe4902409",
    "fig5_dg_burgers/n32/dg_l2_decay/trajectory.csv":
        "9c25a0562121432baadb05af769e855794febd20fd53631cf627067f560c76d8",
    "fig5_dg_burgers/n32/dg_l2_zero/invariants.csv":
        "aed9ae7fd965cd1a337a5e67cdd6d942030de31453016e179cc55e35f145698a",
    "fig5_dg_burgers/n32/dg_l2_zero/stages.csv":
        "5563d1a9aa2adcebdd212ae89c25c4d7b60cf25c02f47f0451874a45cf9a6c41",
    "fig5_dg_burgers/n32/dg_l2_zero/trajectory.csv":
        "746d771f446cfdf54b2f46b4fe9fd83605d1ff70c595738660cf8620b1506aee",
    "fig6_sod/manifest":
        "282d0be9a78d49692bba32117c7c4be4abc6173dd64a83bcba9d8488daaf61d0",
    "fig6_sod/n256/r0/invariants.csv":
        "8214bbfe01130f8ce460d7b4a9f0854c6a21c2d5ecc824683cb1429260ff2811",
    "fig6_sod/n256/r0/stages.csv":
        "1ddfee8b0e1ae3224086290dc3a65ff1c1024a850accfb7522e02e6f7ecd2d88",
    "fig6_sod/n256/r0/trajectory.csv":
        "b67867d33aee74c886039cee5e7ea60aed84b8c4e3f4ce07f792526c8cf69e17",
    "fig6_sod/n256/r1/invariants.csv":
        "c84ce331ef80b95c63fc78e8a473aab02dfdd315921b9073dd9a3d96c51f6fe8",
    "fig6_sod/n256/r1/stages.csv":
        "e8fa9bd081373b7c7a42e1a09b75ebbb82c72565dc127318dc00e5248254fe08",
    "fig6_sod/n256/r1/trajectory.csv":
        "f2dbb0993ecb41cfa2f792d6f86b84086cfc238bb5ab6daffc07b9484af6e7ce",
    "fig6_sod/n256/r2/invariants.csv":
        "3bda637328098d191d4c62ee2e029c4d0046d4d4e9918a92608e5e8cdfd924e5",
    "fig6_sod/n256/r2/stages.csv":
        "abd3b80ee04b1d6a5fa84b3412c8f2fa1aacd8bc713b1550e03ea77c0412ca3f",
    "fig6_sod/n256/r2/trajectory.csv":
        "88f14d3077c929b2ed14aa948255f5018cf752ff5d72a53d3e185fc1418707d2",
    "fig7_surrogate/manifest":
        "542323219d177c59dc5315240987521b36c0b2e2a45e990af701855eb4ebaba0",
    "fig7_surrogate/n32/surrogate/invariants.csv":
        "62ce1333a95b67faa40c3959e88ecb4f2feff8ebcaa07a25bef470944fa6caf6",
    "fig7_surrogate/n32/surrogate/stages.csv":
        "2d2029a57a8add90fff6275a6af387487de6943020662893b841c6ee731cb6e2",
    "fig7_surrogate/n32/surrogate/trajectory.csv":
        "1935080e6dcc5f5e3f4011ecb3d3594a9d0421ca442c8db0b3505b3535cc2ff7",
    "fig7_surrogate/n32/surrogate_clamp/invariants.csv":
        "b8e41e1bd116f605e8b7440e450daefa0b2b6c9f91372a929e281ce635a65943",
    "fig7_surrogate/n32/surrogate_clamp/stages.csv":
        "1febecdda6cfd40306768a3250cbca7dd30f9259f971dc6d682dc6cb5dd70699",
    "fig7_surrogate/n32/surrogate_clamp/trajectory.csv":
        "7a54df7a3d6b674337d57c0a0ee9014a91c9789d2e4066075ad0f0fde54177ac",
    "fig7_surrogate_respecting/manifest":
        "f4146160afb97fd8ba666d74730fbef8536bc687ea2b9c9be17b93505a50be8b",
    "fig7_surrogate_respecting/n32/surrogate/invariants.csv":
        "f7c9b798035b7858711b8c13f701647636c04d22e1c16ebb05328a325bbaeca7",
    "fig7_surrogate_respecting/n32/surrogate/stages.csv":
        "2d2029a57a8add90fff6275a6af387487de6943020662893b841c6ee731cb6e2",
    "fig7_surrogate_respecting/n32/surrogate/trajectory.csv":
        "7a967a7a052eba327ee33dbf09ed077642d5309f5cee89269b2fc8b1ace21593",
    "fig7_surrogate_respecting/n32/surrogate_clamp/invariants.csv":
        "f7c9b798035b7858711b8c13f701647636c04d22e1c16ebb05328a325bbaeca7",
    "fig7_surrogate_respecting/n32/surrogate_clamp/stages.csv":
        "3c478b7c8a6c58619c51513882fce5ed31005c44ea405894192332a5b3fbf66b",
    "fig7_surrogate_respecting/n32/surrogate_clamp/trajectory.csv":
        "7a967a7a052eba327ee33dbf09ed077642d5309f5cee89269b2fc8b1ace21593",
    "sweep_advection/manifest":
        "e3e325b21f6c56f45139e8fe6804cd26001c967b5f36b0ca7d198a0d70a5b3cb",
    "sweep_advection/sweep.csv":
        "ec8efa251d46e08c4df95da987cabe11fe7c85b9bc305ade70e924706a9679ea",
}

VERIFY_DIGEST = (
    "b9c39a3590e8a3dd89e988eed1fe0609db276d0d97fda84f36181fdf3b44f29f")

CONFIGS = sorted({key.split("/")[0] for key in OUTPUT_DIGESTS})


def _require_recorded_platform():
    here = (np.__version__, platform.machine())
    if here != (RECORDED_NUMPY, RECORDED_MACHINE):
        pytest.skip(f"digests recorded with numpy {RECORDED_NUMPY} on "
                    f"{RECORDED_MACHINE}; this is numpy {here[0]} on {here[1]}")


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", CONFIGS)
def test_bundled_outputs_are_pinned(name, tmp_path):
    _require_recorded_platform()
    if name == "sweep_advection":
        # the sweep warns of each clamp it records
        with pytest.warns(InfeasibleTargetWarning):
            assert cmd_sweep(bundled_config(name), output_root=tmp_path) == 0
    else:
        assert cmd_run(bundled_config(name), output_root=tmp_path) == 0
    got = {path.relative_to(tmp_path).as_posix(): _sha256(path.read_bytes())
           for path in tmp_path.rglob("*") if path.is_file()}
    want = {key: digest for key, digest in OUTPUT_DIGESTS.items()
            if key.split("/")[0] == name}
    changed = sorted(key for key in got.keys() | want.keys()
                     if got.get(key) != want.get(key))
    assert not changed


def test_verify_table_is_pinned():
    _require_recorded_platform()
    table = io.StringIO()
    with contextlib.redirect_stdout(table):
        # fig3_ftcs has no [verify] section: seed 0, 200 trials
        assert cmd_verify(bundled_config("fig3_ftcs")) == 0
    assert _sha256(table.getvalue().encode()) == VERIFY_DIGEST
