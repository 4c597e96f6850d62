"""Outputs are byte-stable: SHA-256 digests of their canonical JSON.

The digests were frozen from a run that verified every certificate, on
the forms of the benchmark workloads plus the stretch forms (5,10),
(17,4) and (29,3): their certificates, their whole classify_form reports
(volume, diagram and work counters included), and six root tables of
five families.  The whole reports of the primes 29 to 83 at n = 2, 3
are frozen too, each certificate verified.  One more digest covers every
frozen report with its certificate removed, so a change meant to alter
certificates alone is checked to leave the rest of each report as it
was.  A change meant to leave the output alone must keep them.  A change
to a document's format bumps certificates.SCHEMA_VERSION or
classify.REPORT_SCHEMA_VERSION; one that makes the search decide sooner,
or otherwise alters a certificate or a report on purpose, refreezes the
digests it alters with

    PYTHONPATH=src python -c "from test_golden import digests; digests()"

run from tests/.
"""

import hashlib
import json

import pytest

from vinberg.certificates import verification_failures
from vinberg.classify import classify_form, root_table

CERTIFICATE_SHA256 = {
    (5, 2): "8ff683ad3e9c22cbd7cef01ec3fb1622d14415f9edf37b7487ec1478631235ad",
    (5, 3): "482c70bec16fec02681aac2431e372c91a69aef05333ce8d55978ed59d135238",
    (5, 4): "2d8fd64616edb46c0a0be0c57bbba512c2271ec02eba4c3b088636797db984a8",
    (5, 5): "95e710d05e67fb9be92c429286d4c04a594a6457b48ad98e23188f91f63468e7",
    (5, 6): "f4e92474688d58f8b4c34fb1a69e6f111f7a7bb49dea4939afb194d38e33fa78",
    (5, 7): "9429ff21c6c1dddf0116bc0ea176a33c9e510ccf1316abf35bcce14e8ddbe83c",
    (5, 8): "ddd2482af71cd093a2c442beb969c7c45d61433c5f57c1bbfd500850f20d6775",
    (7, 2): "8a69ab392211311f12aa57247b8dcc344925046d7e78730837d78593bfb26f3a",
    (7, 3): "da7b8cdbfe607f27f9f42142026b66525c5a96588e4fa4a9efbe563a13eae149",
    (11, 2): "4fa1e2b9b80cf2f804316e38013c3c9ebc0ed5741d9d7fbc825e99445189a355",
    (11, 3): "06df2de7fae9c33e8c9634c74b91cf333bf68543aa44d8228ef929a6cac37d02",
    (11, 4): "be9bdff2e39febf12dbeb0c6c5c747012a8326b4163d7ffa4aa305230dceed7a",
    (13, 2): "afbd9e162c0fd594405538f861263d4303a7575ec9e05b258fee0de688c21a6a",
    (17, 2): "793c6502584f833c7c5db16e5083c408eaefcdaffac3c0f355ad654a4e8a49b4",
    (17, 3): "9bbd25d5a3ce8e4a037f7a947a20b9770236dc0688702e12dcdbcdd24fc65feb",
    (19, 2): "41cf9a712cad7f494c3f3ed833ebd458e40e944934e3f5c89dba450388f9cff4",
    (23, 2): "01d25ef64afe6559d82df0251d463d76ac1efcbfbe7963521809924710d31a34",
    (5, 9): "842f46b2cd8bfb6d9d292863eb91accdd27af2103c376c0c720210e4d8b9f4e8",
    (7, 4): "767561c829fcd514ed9ab7b840111466e8cfc2fc19e942d0dd7261abb234a8b1",
    (11, 5): "6be137353daf61af4d1820d713ddd9b7b4b33792be66a94fcc247f1c4c10ed53",
    (13, 3): "f8e03632408c4c3c4e6ef03a70562471721e78d2f37f05670b74db4f6e38db3b",
    (19, 3): "51d2d0c5275c8efadcb9c89ec55c30356e5041c07fdd48c8476af86e706222b7",
    (23, 3): "8f6814c40b05ea566a5111a2118c4e3a65dc2380db17c71e26c6051289bf493d",
    (5, 10): "844eac9bb371e907cf7b063287b30c80a7aeecdcc99bb4613165ef24a38759e3",
    (17, 4): "c6ceebca5c375b12186324a98e881111c4a78ca7a0f4daeec7097eff3b3c9962",
    (29, 3): "8e51a10edb18a8008fba58bbbe5d791e9bd775ef49a52a2ec2b1f16fa2d5f456",
}

REPORT_SHA256 = {
    (5, 2): "c533d49a03e009df393d57ff38bf66a00784cd7579e2df2341b5f9a222c4b41f",
    (5, 3): "c3bd5dd007d321a7af0cc358768014537a19400dd4f53cbfd1ac40f52350da29",
    (5, 4): "1c91ec213a2c403906aac7258b84c02677245c1831b21f777fcccc24b2afa770",
    (5, 5): "69d7e007d5990d5f07157eb203bb0f6653cdcea8ddb63641a550c719ee5d0c33",
    (5, 6): "363fa2fa50db552f4829b916a9302f3771b15d00b4918b88bd9bbb0b2c96261e",
    (5, 7): "200ac22a829e57bf0e96d8170b6e5a35ad8d8e74042f7f134f20dc9b2d5ba282",
    (5, 8): "db6a23f269f38b6f062f9cae7df1fff3b304d8778e8b5700de7ef1998241daef",
    (7, 2): "5d88f1c50620a672293f6214ae092462a29cb72bed9e0a4e3ada8c522fe232e6",
    (7, 3): "bb50b023c532f8d82e0a510d0581533a01fe311ae00af8a3cdd34d6b91f137a0",
    (11, 2): "2df108ca37898f4619dfb73a6bbfac78e09e883aca7b1316cb425ea03003e6e1",
    (11, 3): "5bccbb908c958b7072578f3d64d5f1d6dc8f887c5b462c4041af21909bb0d962",
    (11, 4): "8352c51a4b207f8780cb040af050701dc3b76618c4a10401bac180c1af114dd3",
    (13, 2): "f2f61b398546ac08412af0f4b0c301fae20b08e79414aece672920258cb7c7b9",
    (17, 2): "38588d1a3a8b292d125738bedc6436a94cd55704eae820c17723c0e362a061b6",
    (17, 3): "493ed5686470e38806051c273f7de372462e470049dfa5bbaead618abb4f43ab",
    (19, 2): "0d29ab08d697d41dee9db2cf129b8c0ffffd396ed534e9a5b854fd69e8d10822",
    (23, 2): "93f75add5dc61f7fe4fce0dce00fb686be6618fb43916be94ad01eef136efeb5",
    (5, 9): "382755e8c49897a53ed7cd89ec02e17c8607b079600cf969ac4c2b00af55b233",
    (7, 4): "3a26f85d5a9645697ce5368fadb0e1f7ab54bc78a802c7a0a720dd1b0127f293",
    (11, 5): "d69d567aa4d118a34c651b1b08565da2a69cdc9a2a7e1fa967db286c53389f71",
    (13, 3): "af1bd4c2595e03b8b59da8c4b4579037a133f52fd8b93c7ed8cfe43b6ca015e1",
    (19, 3): "e0661815e2099ca3784b39569f5bb4acbb5edce67dee4272308e93c202a9bb95",
    (23, 3): "951c26c1347001d423d5b7a731cda7af1308391228555041a26c1afc6f7c56f1",
    (5, 10): "5fa4e5ed66f93140c14f9de873525b269ab8455a30a66d8450ab2947d0917ba3",
    (17, 4): "0f01fce1fc010a6336f15fd6f5d5849ea33c4aef71c95f4d30472dda787ed7d9",
    (29, 3): "599602412bc6cefdd06c751372c6d8c854215d552b688a95e0309693ae2387c2",
}

# classify_form(p, n) for the primes 29 <= p <= 83 at n = 2, 3, beyond the
# corpus ((29, 3) is in REPORT_SHA256).  Their rank-3 symmetry
# certificates and skewed quotients reach the lattice layer at sizes the
# corpus does not; (53, 2), (61, 2), (73, 2) and (83, 2) stop undecided at
# the default max_height, so their digests cover the undecided report.
BEYOND_CORPUS_REPORT_SHA256 = {
    (29, 2): "581c77ed27734880208fdead11f38c144cc6897d54354508bb425d84af979999",
    (31, 2): "50d0f8fbc79b4cb601916ef4aa5e08d68b53704a17775a21732a33b73b7627fa",
    (31, 3): "8f004b6c1363e7208f0e7613f711792ab18ef5130da2c5bcd007be7dc5238c4d",
    (37, 2): "834a62acee8c2967b040d4613c4ce9599594d3588bb7647597746ab5c2c17822",
    (37, 3): "7c5622b95411479aeb72270f5430a817b6ad6d4ad0f7de87c0c8f1890d761a97",
    (41, 2): "fd980897d7940fe1f8f2c905d3fe1b0beb8a1ba6d5a4aecab321726a2183a52d",
    (41, 3): "9dbcec080c6a14a353dcbf48574181bcb8357334681dbe7d697c72ae2290021f",
    (43, 2): "1d21a2102f79c9d079c388a23a63e4ca04ea74067dd05adf56ea4b58b2458617",
    (43, 3): "8643846ce33aac715d3a5d46b9aee39ffc3a124d3178cc5f45cb1613059bdeea",
    (47, 2): "35dc3ff35e11fbe544c0088daedc28ed9a07f58ae374af1a6a3c5e83265d2532",
    (47, 3): "4e227a7ee222f32e9f966696d60cdc00918f7e9c6852d20832d9ea583093b55c",
    (53, 2): "284b6347368eafbb11d61b104ab73036455abb049c17dbf6c1e5b719fee4fb0c",
    (53, 3): "ccb646ed474900b89632f4e5a994084706429713c04d89ff01c507fe04d8d01e",
    (59, 2): "b8225014dc3a754bf07568078f8f094d5b86b6b4495df97f31a4a0d13f99cae3",
    (59, 3): "778cc1c7f14562934eddacf6b1125589d04b728f33f75bb90fca6f63dfd88966",
    (61, 2): "96f842639ebe1949cc3c34683c61cf7313c1ec6315b7e9dc347019001ec6b1f6",
    (61, 3): "dd4ccc317cc341b0b2809dcdc845961d933df1483370e909d111b7764aefe501",
    (67, 2): "26a513b9f95ed0cf959112593d8d6956df3e737ded346ea951dbc24183015506",
    (67, 3): "86fb8ccf54e41e85e128fb0b736a83f6c384c7af10a87026403df55848aac91e",
    (71, 2): "f85a710bae2bae4a11f51f9e861835158292b9cd8c3ada1af2c1d3ba7d657db8",
    (71, 3): "0766959a58019e6742eb806df473b05f9dec74ebc405dd1775f367746a483317",
    (73, 2): "be56223656d073951f0e168b0de33ebbfc03b34041d5b11aa82c2117e46dba7d",
    (73, 3): "1ee5185ddd76807b1c422c634173d0c8e23718fc8e68a4d1f246304002b0afa1",
    (79, 2): "50ce96d5fc5c15e97f02f89b0a7debf217112842bb27a4f42dab572e033ac265",
    (79, 3): "e19731982e518652e859fb323c030d9c477c049eec539670c81ff7ac61515d93",
    (83, 2): "1ca7189c84e44fb59713a3f6de4567f1b65b63d67e8f0a488693b6ba19277268",
    (83, 3): "b64a9ae04479b34cc5d5aa57c223f1639dc26aa151d13d4980f3e4b37c1d092e",
}

# one digest over every report above, REPORT_SHA256's and
# BEYOND_CORPUS_REPORT_SHA256's, in key order, each with its certificate
# removed: a change meant to alter certificates alone must keep it
REPORTS_WITHOUT_CERTIFICATE_SHA256 = (
    "40e1d8bb798defe5489618cc3c9e35599def1ed611662e25c302b6dd3f33db80"
)

# root_table(p, max_rank) with the default budget, keyed by (p, max_rank)
ROOT_TABLE_SHA256 = {
    (5, 4): "a129307333b6e0b26cd3ba03d21d11cf96608e460396bc8f9ff5cf8e8e102159",
    (13, 3): "0dfd66a606ebc277e3143765ad152ce497bc243b2ab322c66c9cb342802e35ad",
    (17, 3): "650e9b0de01a55be5ea200f235f5a270921573fbfa1c37cdea52fec8321c0d20",
    (7, 4): "a609e55a4b5b36b72a6669139a57b05bbad25360d9fd10b3e4ad951f12670000",
    (5, 9): "1d3a885277c50865d3ef450b5e595004f72e0fb8e92ccac4121e02570cb3f4be",
    (11, 6): "02c8fb296c462d983163b10432975cd7a7e73aa6b857a259429dc7e3107ba500",
}


def certificate_digest(certificate) -> str:
    canonical = json.dumps(certificate, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def without_certificates(report) -> list:
    """[p, n, report with its certificate removed] for every key of
    REPORT_SHA256 and BEYOND_CORPUS_REPORT_SHA256, sorted; report(p, n)
    gives the report."""
    return [
        [p, n, {key: value for key, value in report(p, n).items() if key != "certificate"}]
        for p, n in sorted(REPORT_SHA256.keys() | BEYOND_CORPUS_REPORT_SHA256.keys())
    ]


def digests() -> None:
    """Print the tables above from a fresh run."""
    reports = {key: classify_form(*key)
               for key in CERTIFICATE_SHA256.keys() | BEYOND_CORPUS_REPORT_SHA256.keys()}
    for label, table, digest in (
        ("CERTIFICATE_SHA256", CERTIFICATE_SHA256, lambda key: reports[key]["certificate"]),
        ("REPORT_SHA256", REPORT_SHA256, reports.__getitem__),
        ("ROOT_TABLE_SHA256", ROOT_TABLE_SHA256, lambda key: root_table(*key)),
        ("BEYOND_CORPUS_REPORT_SHA256", BEYOND_CORPUS_REPORT_SHA256, reports.__getitem__),
    ):
        print(f"{label} = {{")
        for p, n in table:
            print(f'    ({p}, {n}): "{certificate_digest(digest((p, n)))}",')
        print("}")
    digest = certificate_digest(without_certificates(lambda p, n: reports[(p, n)]))
    print(f'REPORTS_WITHOUT_CERTIFICATE_SHA256 = (\n    "{digest}"\n)')


@pytest.mark.parametrize("p,n", sorted(CERTIFICATE_SHA256))
def test_certificate_digest_is_frozen(report, p, n):
    assert certificate_digest(report(p, n)["certificate"]) == CERTIFICATE_SHA256[(p, n)]


@pytest.mark.parametrize("p,n", sorted(REPORT_SHA256))
def test_report_digest_is_frozen(report, p, n):
    assert certificate_digest(report(p, n)) == REPORT_SHA256[(p, n)]


def test_reports_without_their_certificates_are_frozen(report):
    digest = certificate_digest(without_certificates(report))
    assert digest == REPORTS_WITHOUT_CERTIFICATE_SHA256


@pytest.mark.parametrize("p,max_rank", sorted(ROOT_TABLE_SHA256))
def test_root_table_digest_is_frozen(p, max_rank):
    assert certificate_digest(root_table(p, max_rank)) == ROOT_TABLE_SHA256[(p, max_rank)]


@pytest.mark.parametrize("p,n", sorted(BEYOND_CORPUS_REPORT_SHA256))
def test_report_beyond_the_corpus_is_frozen_and_verifies(report, p, n):
    rep = report(p, n)
    assert certificate_digest(rep) == BEYOND_CORPUS_REPORT_SHA256[(p, n)]
    if rep["verdict"] == "undecided":
        assert rep["certificate"] is None and "state" not in rep
    else:
        assert verification_failures(rep["certificate"]) == []
