"""Certificates are byte-stable: SHA-256 digests of their canonical JSON.

The digests were frozen from a run that verified every certificate, on
the forms of the benchmark workloads plus (5,10).  A change meant to
leave the output alone must keep them; a change that alters a
certificate on purpose bumps certificates.SCHEMA_VERSION and refreezes
them with

    PYTHONPATH=src python -c "from test_golden import digests; digests()"

run from tests/.
"""

import hashlib
import json

import pytest

from vinberg.classify import classify_form

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
    (23, 3): "70fdbc1a2a66a017f744c8587314d3f89c540457a0a1e774c583f0598ae048ff",
    (5, 10): "d03a423d1d7f1854db0db83e002de4a86ad4fb454cee2b9ba941ea2a111286e5",
}


def certificate_digest(certificate) -> str:
    canonical = json.dumps(certificate, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def digests() -> None:
    """Print the table above from a fresh run."""
    for p, n in CERTIFICATE_SHA256:
        print(f'    ({p}, {n}): "{certificate_digest(classify_form(p, n)["certificate"])}",')


@pytest.mark.parametrize("p,n", sorted(CERTIFICATE_SHA256))
def test_certificate_digest_is_frozen(report, p, n):
    assert certificate_digest(report(p, n)["certificate"]) == CERTIFICATE_SHA256[(p, n)]
