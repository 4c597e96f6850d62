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
    (13, 3): "d9c10a3e5f527d506165ec89e9319de09117464abca9f62dc58584b8882c766c",
    (19, 3): "efc2ddee54178bc5a353295ea18cbab1480d8d07f60e00cbfeb56babe3d999bd",
    (23, 3): "6f11625a7dfaf75ec4e1e373c03685f8873bab2df4cc027ed8b00b07f48e3178",
    (5, 10): "333d88fa282023802024df48020798af0cd36f40d97a250cb6accd21102f6c81",
    (17, 4): "fb8176b72e9a1f518f1e169176b582df9a220002dd96a1589488e0dc46329282",
    (29, 3): "861b55c8c9c9a1398018aa3450c0270357c22eccd4f0ef85aa0233a62a8f2f73",
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
    (13, 3): "4d32e28d2d908c2e40cceb31d6b5421bbca7d522be20ac64eb1ce6882870a3cb",
    (19, 3): "4462c2dc72858736a625a792dbd13bf93b75c272bd30d7066d8da01b9f793743",
    (23, 3): "8c5a9f1ae9a83ea208cf30a91d8744ea341b351c1f6db2de402398e07a63bc84",
    (5, 10): "6f389207ab4e2c65868239014b98964f9cb0da87a3c240204da3143c17b51e0d",
    (17, 4): "cad3883357016cbf467ec39b39556a6c45e51bec3851d25a1e6eb0e17c725ba7",
    (29, 3): "c23940cb21eef5a2d6d703910f7928424fbca306c641eceb84892861ea16eb0e",
}

# classify_form(p, n) for the primes 29 <= p <= 83 at n = 2, 3, beyond the
# corpus ((29, 3) is in REPORT_SHA256).  Their rank-3 symmetry
# certificates and skewed quotients reach the lattice layer at sizes the
# corpus does not; (53, 2), (61, 2), (73, 2) and (83, 2) stop undecided at
# the default max_height, so their digests cover the resumable state.
BEYOND_CORPUS_REPORT_SHA256 = {
    (29, 2): "1c32ea5a24617c7abf8a1613d5a89368d97537e8608bed2ee12dca27e69ffe70",
    (31, 2): "fb5a99d202fe280b7281540beab388ff30721df8871d8cc38a127a9ab74b565d",
    (31, 3): "9ab22fdf8ee8da0b861b6fb84f464140c955d0b909cfb187eb3afc0418886681",
    (37, 2): "ccd8bee885b1548f5bdd8bd0f8347e84fa3755c47867b0e90c5651d23faa0b01",
    (37, 3): "89a55b00ff35b7708a75197eaefa46788f1924b286a99efaaa95ded081c6309e",
    (41, 2): "53b3c707b40ce5b737e207c0637a7788b91e448633252eb13547c1fea94d8452",
    (41, 3): "cbb4634e94380f23fd27d457cb227960a42faa5e5fb182a0531ecb2465c1d83c",
    (43, 2): "04016418c4fbdab17a6641c4f9f8af2e76dfdf29dc577838b71a4e0578a2a111",
    (43, 3): "8a008cd2faf4254034274de63447282203405d60a33fafefb2a6eb7e9dacecae",
    (47, 2): "c8cfad4f221352fd33254f40fb524e3c72c01a422901644bb2986ab98894d6d6",
    (47, 3): "ef5781f5929fac9162165e56c09e1581d4fe82885539bc00465d50c642cdff30",
    (53, 2): "bcc3b9ba5e3bd19262cc146b22eda6c4d9399b2455cfd4abee5c4df77f1c0341",
    (53, 3): "0dcd5c95775b61a6e6df3a61ce24c67ee9d493b05c16e1c7550cf14ff80ecc3d",
    (59, 2): "2ea040e0179617a45977c9630646d5add9e0f3aac2b963163d5c87d80d1454db",
    (59, 3): "100d14ff7a4d1e9182f1cd2d122a30568113957fdc289559f7750d93021c51c8",
    (61, 2): "250796360a9fe6df29180fb010a2b5a571c62986322be15613b6c367c34d23b9",
    (61, 3): "b3cbf2591cc12b691f22c2dbb2a6848d90b71f4dd52fd3cd151a9fbe198c9253",
    (67, 2): "df88755d89b3c12a55de86acf724d7e2b265c1557f1a0d70244ae0ccf7f2c0ee",
    (67, 3): "29eb6853b41bdcfec219aa5c8f89d735fadda7ae741aca54ca1483b81223f99c",
    (71, 2): "b6b7a9aaaf570a2aeedba912ee751313bd381dac7c16f82d09c660406dfff2e6",
    (71, 3): "79115ad8231e289a5587d856ac7ed074d955c77ceab6b3b79e85f225b3d318c6",
    (73, 2): "19984cfeb0ffa2defc1a7fd55cbc77b54278d3594730f475dfce3c1019358c89",
    (73, 3): "1fce3d066531c397ea136d2ef0210b76348564f0c9a53701a3db43e2b9746b1a",
    (79, 2): "f557ea4406d3baa9fe51411c5cb07234eff21504e68ce59195a8d4cb8fb4ebff",
    (79, 3): "31b96e600dd010c3500840e7a6b850e3f3855237d3a274c2c144263270647ddd",
    (83, 2): "c0084e105af72996ebb8650da37a6452c4e056743e1c7ddec9a60be91e9cdc3c",
    (83, 3): "f119f73b200fb6c11ec0bc7e92bed5a7c669a42af2c8b6f440a6e975132eeb65",
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
