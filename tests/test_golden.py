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
    (5, 2): "b95818513d70dffe7156532aa1fc65118fda0f1c97373034c030e0d20d64e1d6",
    (5, 3): "0c32541b72620797b53ca236f7d094e43526801c7faab8fb262cea7f7fc382a9",
    (5, 4): "7373cb35a2b91a7e47f0e252b70508563bf004f5d9eda6bdf8c3f52e6012ef95",
    (5, 5): "d86fe79082c33ab0312953eb462e1824d4d74de79d9a77adbda41edd04f22f89",
    (5, 6): "9367eb15052f843f72b2e5bae1c208524fb141ac8dd8296882aed61ff14a1535",
    (5, 7): "3aadbfcf032fb96bcf8718d6a49286caf16699af022f439d39cb758680bf2811",
    (5, 8): "a781736b879ffba665c201ff7506c200f278b0d8458adc57e0894dd7765d0b65",
    (7, 2): "c0035a864be857cc58a16eb4bb78dd4733169c1a127d237689dc8491806e8bf2",
    (7, 3): "bf80de0b1bd4b3a7498ebb44a2ec78258d3fa2b05697f215fe81b2804adb30da",
    (11, 2): "dfc75a640f2288d3dc96c1b4a3bef7fbc0bbaecaaa43249b3241e34d3220c4e0",
    (11, 3): "75da712618f7a770ded517e2a66ccbc5b693273f755d0f73d6ecf43bf788fe0c",
    (11, 4): "52254f4cd95a0a59bc246b954bc8978349ba4036287bbbd8db6e5788209e1f23",
    (13, 2): "a1bc2d294c8432221b5dadef15a0682a0bcdfeca4002b0145ed72ddb035f80cf",
    (17, 2): "3679d2998de2654fc3ce46b027338318268ed5d787ab11cd06e3d2257b2b0914",
    (17, 3): "a483c3e8eea737f9d0082263a38490f8678f7526753b9a74680ff45f1df58b7a",
    (19, 2): "383dc030c3e4ac723736869df2c8cbfd3edd3e8ad5e5eb6e143e306c51f0a355",
    (23, 2): "d2761151f7dc0706bd49bc99be9e44e5429d34b033e51d71dfebc5cae8eec146",
    (5, 9): "3538e64b247d8889fe094f6f92beaaa8893332c80b6d775b300eb7389fa37104",
    (7, 4): "86ba7449374aca94e85f7fea17fc3a388346fcbd47d4fd10becb7165a1fc5610",
    (11, 5): "331d63c1e97148b89038e897f8732ad91d424fff762038119ce1185bee1b275c",
    (13, 3): "61965d62911133577eef6b4321efb59ce6c5cc173219e3123a4540badd152caf",
    (19, 3): "bb5038a1ded70cd60c0e810293149e551ba38c1d2a8fa92f13e23262636bd473",
    (23, 3): "e00a216f7e06711cbf6236188d8d6c3b94aeacf1c38f5698cce7e61a890d3f4b",
    (5, 10): "6f389207ab4e2c65868239014b98964f9cb0da87a3c240204da3143c17b51e0d",
    (17, 4): "b2d66507107df2ee4bd1dd503f4a5512103a1f90ee9a5edaa6a588dca229b454",
    (29, 3): "3d74d839e675bcfcd252f3be923aecd32b60c37e5ec11fd4590428d802ca57be",
}

# classify_form(p, n) for the primes 29 <= p <= 83 at n = 2, 3, beyond the
# corpus ((29, 3) is in REPORT_SHA256).  Their rank-3 symmetry
# certificates and skewed quotients reach the lattice layer at sizes the
# corpus does not; (53, 2), (61, 2), (73, 2) and (83, 2) stop undecided at
# the default max_height, so their digests cover the resumable state.
BEYOND_CORPUS_REPORT_SHA256 = {
    (29, 2): "191c7f1cd0f2961fcd958763bd861dd7be16b5948cc7b0c047c795bf11cc9d41",
    (31, 2): "6d1053dd084b3532d1a4c48c349c01f3beccd84eb6f7e22004eef183f7173c36",
    (31, 3): "2269fd2b4e87980e43b250ec7fe70e3e50dbeaea5fc497d739ac1e490a1bb2f7",
    (37, 2): "d29d6d4e61bb44109f65519a2bc7c22c6dea307d454a726879d6ba35ef2896dd",
    (37, 3): "16a34cf194fd60d311f9f54442e81553ba0fb161bb7799cd4dfcbac5f09f73e7",
    (41, 2): "2d40b06e3b57f55dd98ecd3f96721a053403e7b4f895d13d8734058c0a72951a",
    (41, 3): "0a97e4a26e8ce6827c14fb55059cc02fba8cfafd0ca809554d492670d8e81839",
    (43, 2): "492fe391caae96cfea88f8498151445ad3fb5084a72ea1144ab54d5e14758f36",
    (43, 3): "16ab54710a7e73c4838b24553ea72f20dd655da298f2ec6ef51fafd8686ad41b",
    (47, 2): "e799d99019b51fa3fa155334609363e9b6e6a5df8076abf652a5935b02c1e8bb",
    (47, 3): "ef5781f5929fac9162165e56c09e1581d4fe82885539bc00465d50c642cdff30",
    (53, 2): "bcc3b9ba5e3bd19262cc146b22eda6c4d9399b2455cfd4abee5c4df77f1c0341",
    (53, 3): "048286dfa1f20e44bc2818e69289e4872daa7e2f99ae5d5c9d384325cfe5bf37",
    (59, 2): "b744a8b33e5a416133351cc67c564021fc5fde4d66dfa02b00ea244d9f36aea2",
    (59, 3): "dc62fc1c5c3089a1840219c6ae6b680fdfb56129aeaa26f45e3ed1d8b123fc23",
    (61, 2): "250796360a9fe6df29180fb010a2b5a571c62986322be15613b6c367c34d23b9",
    (61, 3): "a8d76be4a73aad2eb47a4ba140be0f34871f2398d6b3251a7615d6f404ed9555",
    (67, 2): "b15ee290c9bdfb979169899065515550babf86fc1b82771a015efd33013f302e",
    (67, 3): "6b6881aeb17c0c4c4aac7ab144ccb8272e936e18fba6079c7c6d8e4605c3d366",
    (71, 2): "2deda0abf724cf00774d8fb5f557084657aa0f74982aca67fe1e1b2ec02898eb",
    (71, 3): "4aa42cd9c708dccb53f2324821e6c79b32220a8eb2ccaadb9a35c14b00786218",
    (73, 2): "19984cfeb0ffa2defc1a7fd55cbc77b54278d3594730f475dfce3c1019358c89",
    (73, 3): "6199117d492371227fc8d4789156dc38e2a800d9f79886b0613b29a0856a8338",
    (79, 2): "c6ef0f5d85a03c352c0eba93d19fdbbf38ab43589a23a4e0f022964554e7fb4b",
    (79, 3): "1ae2a46f1524d25250670b83f3812ac3806e6e5c1a099a834adf891ed4a3ed57",
    (83, 2): "c0084e105af72996ebb8650da37a6452c4e056743e1c7ddec9a60be91e9cdc3c",
    (83, 3): "0a83f4c48b79ddfabb53618d843f8b334d72cbc05e8f23c97a6aa643c6013890",
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
        assert rep["certificate"] is None and "state" in rep
    else:
        assert verification_failures(rep["certificate"]) == []
