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
    (5, 2): "476d74aa750a9b47cc01322a45e041f8a141240c817863dcc3438b4bd97e733c",
    (5, 3): "748727b6825bbf13c31ebc1f745d71563a13102e5c4439ff406ff04c796f23ff",
    (5, 4): "2579eef53b8a0f53e091e014efa1034ff4526b2a4856db960416be84828df67c",
    (5, 5): "86ba29199f99f74d0533dc3ad127f268ee2a11510fa376ab03a83450df3cb004",
    (5, 6): "d57649c9d709dfe957ca0b85f5a6f873e1d326149b350eabd2a3a931e891a95f",
    (5, 7): "7033c27f0acd44217294f5a0e9be6b51b0f18ed79b51937eb71331888114bfbc",
    (5, 8): "6a51de52210f29a8432890b060265a507e17fc4deb085def5085ae3af3666a25",
    (7, 2): "b78ee0e9cf40611a4f4f4182123482afe27759fc01682e4999e46d29e7183967",
    (7, 3): "0ca66b4e4368fb5efd6a3a60c4b7f45d41df579887d4d039ae4498bc53ff5e22",
    (11, 2): "2d6c1ff1b6aeb04e52aba99bf44d38dc74484f2941c922ce6dc6f0818b37b8a5",
    (11, 3): "f4cc3c797a081ff524533cd01d24891cc79aa4d8d861151a8a49692bffedffad",
    (11, 4): "2dcee8b2dab6544cbf73b63095d74c4149f45c2c221b9529d6bf2578a4487dd2",
    (13, 2): "3d98c7fe2ce0bdabc9e8fbec6b6f21b85aba76109d668ccd0ab9bf4c2a0c1a12",
    (17, 2): "a90b4e498162938f795961639948fe6e67d433f254950a8d0efbdaa4d7183e2e",
    (17, 3): "a7d5aec72ee54416469653ce86a47a84868a8560e50bcbf140a88a529be8c09a",
    (19, 2): "2be560e5741934016ff7e2835d5a65bb096170cfb302b0adb87c69b644ee1238",
    (23, 2): "9924b8db56ff95413d216765affa8fa1b189e55cbcedfde2a08fe31b3facd716",
    (5, 9): "c5a13baaab723a5f709eabccf22994e1f3df0333ab96aa779695226e0c49fd2a",
    (7, 4): "b5d1b607bda7b202b64dc736be68b20253ff14644d11596ed8c542fb5a0d4479",
    (11, 5): "2931231ba723d9ac4b846cc41f249f46e03b54a219b2b36dd6fbd9f668edb706",
    (13, 3): "74327df0199cc176817a9e64e88bf94151c5f7c8844e209ec6331195b884cca9",
    (19, 3): "650dff2c0b52cc5ab9dbd5523c490dbb2847b5c31e218f34f2aebc72151f2019",
    (23, 3): "df770a7debfeeb9508f1c1fc486ea2db15697732e1ffd4644f761001a8dd2121",
    (5, 10): "333d88fa282023802024df48020798af0cd36f40d97a250cb6accd21102f6c81",
    (17, 4): "67e87129cfd72efdae446a22bf9d066397d07ed30a1ec2429c36cb17a01e2239",
    (29, 3): "cffa019610d86cc745d6fe6c97e113fe800ec622d86bdc9c495eada8eef9142a",
}

REPORT_SHA256 = {
    (5, 2): "a164ef5d13475243eb181795f24265ce8c71eccf63306e63e95d33e593827a4d",
    (5, 3): "a3ced248f073e93c60c2e587f2a4edc180a4f02766d4f0f8288b5fe488e2c1fd",
    (5, 4): "58c329e6641364569ad4ed95a5391dfd31b8070eb0010c9b7df459671623f46f",
    (5, 5): "32d1944eb4c297f24efd9ad303bbdb06f522e38125f0958226dbfb7f3f73b59a",
    (5, 6): "6276d78080b12118bf3f4a5331871b2ae32d42d08908897f0c442bb0792fa690",
    (5, 7): "d5365cc7cba712858327558c4c5cdf6f1a306c84785af250a5af02990416b4ef",
    (5, 8): "e232b38470b28c8bf59600285669ebe53f3a6016c186641dd3afd2a11544e8af",
    (7, 2): "9de9d0874013ec5df426631b7a5b0b3f18f6d134ae70b289f374e08ded41e4eb",
    (7, 3): "ba015be1f5a88368524c8d1158e65f3a8eedb96b8cda56b8769644b7f0ab8217",
    (11, 2): "827c890621655e27e30882b2ff94cfa7d7c665487fdf34327a9da522ac2a3378",
    (11, 3): "75ba3ba3e33a73be294192420a73ea484a95c7d3f89ddfcbfb15e572a52ad194",
    (11, 4): "75e07a15eb9baacd789ae82b04bb8b332c1bf74746ab9d2079bde48036e1cbff",
    (13, 2): "57a1154f34e7c837d78db56d11cd4701762e5cb262b74d35162773d0842a8e4e",
    (17, 2): "a82904306a9419cc652b452567f62babb6c1d2f190c702adcba8d7103422f3a5",
    (17, 3): "a1fa6c2e7ab0ebc9225d89813135eaaa6738e9e7ba0471a6023e28a427c230b6",
    (19, 2): "f40231eda7da82cc29e1d3c720758b215b6d9605c68a7aff619461dbaa8dec48",
    (23, 2): "d0c5898be2ff0fd2cb65330cdb15724bc1d703286e363e4c066258db91bf1d52",
    (5, 9): "ea9174dda4cfc7aa3feb23cd39b12fe35ed6ac242a71d2f45cff719bd5726a14",
    (7, 4): "441eff033eabcc3344e791b44a76e8a1100aae87cd8a7f6c4c481fb8e47f5e33",
    (11, 5): "30fba51976103dd5bf1e77c6c0d2f5671ec399a52f3b0bda2aa0ac1a0993a0c1",
    (13, 3): "6e18648e45af3477c362067e0d1833cc08f0cb7ad5f8cffe2e94228593f54d76",
    (19, 3): "c1d6a84233f791eb80d1347bab85e9a76e560e4c9d9463f704004fa019096a10",
    (23, 3): "695b0c0e84d9efe80f9addab3abffd7ce2ea67a51ecfa028eb3f25d983973c64",
    (5, 10): "4a2914960f716b5fa529e1e343f0e8477d2cb1b6530741943834569ffcaefb9a",
    (17, 4): "31aa1c524e221fd7454c37281118eb8dce87bd9a38b052a793c540cad6698037",
    (29, 3): "9fe8a9f791b7753860bd52047d362cb5e02fb307ed5a6760373bcafcfb3a3d1a",
}

# classify_form(p, n) for the primes 29 <= p <= 83 at n = 2, 3, beyond the
# corpus ((29, 3) is in REPORT_SHA256).  Their rank-3 symmetry
# certificates and skewed quotients reach the lattice layer at sizes the
# corpus does not; (53, 2), (61, 2), (73, 2) and (83, 2) stop undecided at
# the default max_height, so their digests cover the undecided report.
BEYOND_CORPUS_REPORT_SHA256 = {
    (29, 2): "1ea63025e8d1d9bea0556caed33c5692fdcc5b0b79fd59caa7e68fe7a55064f3",
    (31, 2): "91c054d384b4e6adf7929995df580b2c09e6eb3eace4f3b5c159e22dfc6fdeca",
    (31, 3): "440a577b58f9ded87ba65185d3308b957a9629be3aaf436025409d7dd7610344",
    (37, 2): "ddaae6b8531c3c948742da06184a19c65472bdb6f1d6aaff8fbacb346ed1e177",
    (37, 3): "91c08de8c717a7be8a03e0558535fb08ad8897995c43ed4472af86c273b8913c",
    (41, 2): "3a5ffc8bd69062fe4cf4a195225ace848c008df64c510528f9fc9e624388498f",
    (41, 3): "49747d96ec22e78934d0d68b927a1a5a67b5b015ac351680de66af5b0495edcd",
    (43, 2): "f704529e1d65a5285f7278e0b42936a177b1e4b76d6c64c99658937110c60f8d",
    (43, 3): "f2bc6d2b8482b28ffaf3ddc581faa131aa238e110a09cc4239b92e1858f7d7b2",
    (47, 2): "226047aec366592c571ac38cdee6a921d6cecd7c658660730bf65cc20da89bc1",
    (47, 3): "21f8368c124b911b76d76449f95cf08a421b24337105637ea0c08a19a1a31c3a",
    (53, 2): "284b6347368eafbb11d61b104ab73036455abb049c17dbf6c1e5b719fee4fb0c",
    (53, 3): "bed614c34f85d9e0b48a883f2f6014563bea5866618c51dbbb1c42d50ca0e275",
    (59, 2): "021da07468e490725b9e6bbdc46c069b6734dbe3ea507581306e056faa48e0fc",
    (59, 3): "9bb84e6ebf9d8d9f21fc98b3b82610e62e5e331784224d96d461c371d01578b5",
    (61, 2): "96f842639ebe1949cc3c34683c61cf7313c1ec6315b7e9dc347019001ec6b1f6",
    (61, 3): "202af1c13d3dd4ba595227d11c5ff2dd2557b6c1f47ad7a23c5cbc3fe2e239f7",
    (67, 2): "0c5c8476718d31cd1f526698ddb84faaa24b215e870048595c41c3c2580fcfec",
    (67, 3): "6e4c49e8050854797d72c1b64a36c3d1fdc1881e3aee5bd5421d4809a56646c1",
    (71, 2): "9a40ce6086194cf01872062ec9e49d4f1bfce93515ae534e63a54ec62b537c34",
    (71, 3): "2b4cfe32f27b16179c18d2f8e1e23e4629dbf3e8a40df596f3365f1dadcbe85f",
    (73, 2): "be56223656d073951f0e168b0de33ebbfc03b34041d5b11aa82c2117e46dba7d",
    (73, 3): "37c4dcc7875e3077bb406ae1d3160293d938ed741fcdc8bfeedc930214b829cb",
    (79, 2): "b048f5dc3c909e3d78749d7f3523835204c1320343f065aba0245d7646de4c29",
    (79, 3): "df8a61c9a0cacd746a59fd6756eebe47752776ee07801616ad97e34c678a25cc",
    (83, 2): "1ca7189c84e44fb59713a3f6de4567f1b65b63d67e8f0a488693b6ba19277268",
    (83, 3): "1a6b81507662fecb9d2438e6fb16b36b491f1a58bfe7057f5c5450907221652c",
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
