"""Outputs are byte-stable: SHA-256 digests of their canonical JSON.

The digests were frozen from a run that verified every certificate, on
the forms of the benchmark workloads plus the stretch forms (5,10),
(17,4) and (29,3): their certificates, their whole classify_form reports
(volume, diagram and work counters included), and six root tables of
five families.  The whole reports of the primes 29 to 83 at n = 2, 3
are frozen too, each certificate verified.  A change meant to
leave the output alone must keep them.  A change to a document's
format bumps certificates.SCHEMA_VERSION or classify.REPORT_SCHEMA_VERSION;
one that makes the search decide sooner, or otherwise alters a
certificate or a report on purpose, refreezes the digests it alters with

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
    (13, 3): "e352688f18b4634f1e0a58d511ffc06bbe9473b6a7ebbf35b54a7a8b027a6167",
    (19, 3): "f8671cd71f4024810548560a02cf7720f6836f8933da9976555dad4219902538",
    (23, 3): "e380f5206878329689e5b1ce19efbd7f296e4db97e963de67bc7c9ca7b8be817",
    (5, 10): "333d88fa282023802024df48020798af0cd36f40d97a250cb6accd21102f6c81",
    (17, 4): "83e9c219a9392711e27b199147b1c3c132e9e83828b7477250c486e75e1a83fa",
    (29, 3): "e80c54d481c3858b1bb17979ae81d0b3a4994362abe3b014e424aa1942577d0b",
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
    (13, 3): "6e1da58cc754f7812408dd9bfd175407bb33df7773308ccb562aaa217bf11827",
    (19, 3): "2f498144b6e2fa4a83b6dc46b052bbe4f308aa02e55139ced6039ddd24117a1c",
    (23, 3): "9559c58882cf01a7af2934bdad18327dfaf6a60714c05b7583b4690ab2d40158",
    (5, 10): "4a2914960f716b5fa529e1e343f0e8477d2cb1b6530741943834569ffcaefb9a",
    (17, 4): "49f4306c1c5c824dabe1462a0e88284bc232430f3266c21c050ace5a9a7baa2b",
    (29, 3): "0669110288c4219fde921f14db8316f5ec21aa6cfc28d41106270a5c1f9cb8f3",
}

# classify_form(p, n) for the primes 29 <= p <= 83 at n = 2, 3, beyond the
# corpus ((29, 3) is in REPORT_SHA256).  Their rank-3 symmetry
# certificates and skewed quotients reach the lattice layer at sizes the
# corpus does not; (53, 2), (61, 2), (73, 2) and (83, 2) stop undecided at
# the default max_height, so their digests cover the undecided report.
BEYOND_CORPUS_REPORT_SHA256 = {
    (29, 2): "1ea63025e8d1d9bea0556caed33c5692fdcc5b0b79fd59caa7e68fe7a55064f3",
    (31, 2): "91c054d384b4e6adf7929995df580b2c09e6eb3eace4f3b5c159e22dfc6fdeca",
    (31, 3): "7748a66461a453e86ea24cd8b223a66c82652c3941366e13346d4b500cd6b8a0",
    (37, 2): "ddaae6b8531c3c948742da06184a19c65472bdb6f1d6aaff8fbacb346ed1e177",
    (37, 3): "cec115d50c90fe8921fd372a96dbac623fe3b7f8fd21e4c20a082dfb6dfde8b3",
    (41, 2): "3a5ffc8bd69062fe4cf4a195225ace848c008df64c510528f9fc9e624388498f",
    (41, 3): "35ebfe56cdf928626e12280d963d1cc78a3cc9c32a758ca509e70290f477f1f9",
    (43, 2): "e976a4d98a2156a1a8c26ea5cb96db24097d4a68a945d01615499906d9203036",
    (43, 3): "87bf94f280dbcf948c41a556369ce74ba3f2cdc8d403ce57e2ff7a4fd15f9a5c",
    (47, 2): "226047aec366592c571ac38cdee6a921d6cecd7c658660730bf65cc20da89bc1",
    (47, 3): "1650f2319e6a19b2e27db470a466aeedc4a344a01ae9ee829a3995aa647e8337",
    (53, 2): "284b6347368eafbb11d61b104ab73036455abb049c17dbf6c1e5b719fee4fb0c",
    (53, 3): "89d3b870dfd07279f20270e43c65175defe2482a36d888168ebc01d416b48cc3",
    (59, 2): "87f505cbc12af5efdfbf40fa54f29cadb1f10c912634b6d3eb45f46024af22b9",
    (59, 3): "9bb84e6ebf9d8d9f21fc98b3b82610e62e5e331784224d96d461c371d01578b5",
    (61, 2): "96f842639ebe1949cc3c34683c61cf7313c1ec6315b7e9dc347019001ec6b1f6",
    (61, 3): "7efa7a33b49bfad858fba037ed4f899daee6942cb773db994a6fa0329a2dc374",
    (67, 2): "dffdcc59ce8756aead2a43a8aefc7626241afbf82da3ee6fd41424d1031548d0",
    (67, 3): "3f173ef45727ec720ebac9c62946fa712acb74e4b4f72e3bb1f6e2bc3473356f",
    (71, 2): "9a40ce6086194cf01872062ec9e49d4f1bfce93515ae534e63a54ec62b537c34",
    (71, 3): "3fa2be9f91fdff43364ead7715a6b909e70323478495138458b931689f128051",
    (73, 2): "be56223656d073951f0e168b0de33ebbfc03b34041d5b11aa82c2117e46dba7d",
    (73, 3): "37c4dcc7875e3077bb406ae1d3160293d938ed741fcdc8bfeedc930214b829cb",
    (79, 2): "b048f5dc3c909e3d78749d7f3523835204c1320343f065aba0245d7646de4c29",
    (79, 3): "ed541f7b89be1489f38563758026aa88252edefac1f5107121511fd556179013",
    (83, 2): "1ca7189c84e44fb59713a3f6de4567f1b65b63d67e8f0a488693b6ba19277268",
    (83, 3): "279521bcf4aad38510aa8bbec04dcd7368396b0e1248ec4731ada7df109352e9",
}

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


def digests() -> None:
    """Print the tables above from a fresh run."""
    reports = {key: classify_form(*key) for key in CERTIFICATE_SHA256}
    for label, table, digest in (
        ("CERTIFICATE_SHA256", CERTIFICATE_SHA256, lambda key: reports[key]["certificate"]),
        ("REPORT_SHA256", REPORT_SHA256, reports.__getitem__),
        ("ROOT_TABLE_SHA256", ROOT_TABLE_SHA256, lambda key: root_table(*key)),
        ("BEYOND_CORPUS_REPORT_SHA256", BEYOND_CORPUS_REPORT_SHA256,
         lambda key: classify_form(*key)),
    ):
        print(f"{label} = {{")
        for p, n in table:
            print(f'    ({p}, {n}): "{certificate_digest(digest((p, n)))}",')
        print("}")


@pytest.mark.parametrize("p,n", sorted(CERTIFICATE_SHA256))
def test_certificate_digest_is_frozen(report, p, n):
    assert certificate_digest(report(p, n)["certificate"]) == CERTIFICATE_SHA256[(p, n)]


@pytest.mark.parametrize("p,n", sorted(REPORT_SHA256))
def test_report_digest_is_frozen(report, p, n):
    assert certificate_digest(report(p, n)) == REPORT_SHA256[(p, n)]


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
