"""Certificate construction, verification, and tamper resistance."""

import ast
import copy
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import corpus
import oracles
from vinberg import certificates, cones, diagram, isometry, linalg, quotient, volume
from vinberg.errors import CertificateError
from vinberg.forms import Form
from vinberg.search import Budget, SearchState, replay, run_search

BLOCKS = corpus.PUBLISHED_NONREFLECTIVITY_BLOCKS
SRC = Path(__file__).resolve().parent.parent / "src"


def verify_certificate(cert):
    """True iff every stored claim re-derives from the primary data."""
    return not certificates.verification_failures(cert)


@pytest.fixture(scope="module")
def cert_5_2(report):
    return report(5, 2)["certificate"]


@pytest.fixture(scope="module")
def cert_7_4(report):
    return report(7, 4)["certificate"]


@pytest.fixture(scope="module")
def cert_13_3(report):
    return report(13, 3)["certificate"]


def test_round_trip_reflective(cert_5_2):
    assert cert_5_2["kind"] == "reflective"
    assert verify_certificate(cert_5_2)


def test_round_trip_ideal_vertex(cert_7_4):
    assert cert_7_4["kind"] == "ideal_vertex_failure"
    assert verify_certificate(cert_7_4)
    blk = BLOCKS[(7, 4)]
    assert tuple(cert_7_4["payload"]["null_vector"]) == blk["null_vector"]


def test_round_trip_infinite_symmetry(cert_13_3):
    assert cert_13_3["kind"] == "infinite_symmetry"
    assert verify_certificate(cert_13_3)


def test_round_trip_inherited_in_one_step(cert_7_4):
    # the lift is transitive, so one step from the first failure reaches
    # every rank above it; an inherited certificate is never a base
    for n in (5, 6, 11):
        lifted = certificates.inherited_certificate(cert_7_4, n)
        assert lifted["kind"] == "inherited_nonreflectivity"
        assert lifted["form"] == {"p": 7, "n": n}
        assert lifted["payload"]["base"] == cert_7_4
        assert verify_certificate(lifted)
    with pytest.raises(CertificateError, match=r"^payload\.base\.kind: "):
        certificates.inherited_certificate(lifted, 12)


def test_inherited_construction_errors(cert_5_2, cert_7_4):
    with pytest.raises(CertificateError):
        certificates.inherited_certificate(cert_5_2, 3)  # not a failure
    with pytest.raises(CertificateError):
        certificates.inherited_certificate(cert_7_4, 4)  # rank not above base


def test_tampered_reflective_roots(cert_5_2):
    # without its last wall the chamber is open, and both finite-volume
    # tests of volume say so
    cert = copy.deepcopy(cert_5_2)
    del cert["payload"]["roots"][-1]
    assert certificates.verification_failures(cert) == [
        "payload.volume: chamber volume is not finite",
        "payload.roots: chamber cone is not in the closed light cone",
        "payload.volume: does not re-derive",
    ]


@pytest.mark.parametrize("p,n", sorted(
    corpus.EXPECTED_REFLECTIVE | {(p, n) for p, (n, _) in corpus.EXPECTED_FIRST_FAILURE.items()}))
def test_roots_meet_at_pi_over_k(search, p, n):
    # a root r of norm m has m | 2 p r_0 and m | 2 r_i, so m divides 2<r, s>
    # for every integral s: two roots r, s have <r,r><s,s> | 4<r,s>^2, 4 cos^2
    # is an integer, and the reflective verifier needs no angle check
    form = Form(p, n)
    result = search(p, n)
    roots = list(result.roots)
    if result.certificate["kind"] == "infinite_symmetry":
        for label in ("frame_from", "frame_to"):
            corner = tuple(result.certificate["payload"][label]["corner"])
            roots += isometry.vertex_walls(form, corner)
    for j, s in enumerate(roots):
        for r in roots[:j]:
            assert 4 * form.inner_product(r, s) ** 2 % (form.norm(r) * form.norm(s)) == 0, (r, s)


def _negate(v):
    return [-x for x in v]


def _swap(roots, i, j):
    roots[i], roots[j] = roots[j], roots[i]


# (name, edit of the (11,3) certificate's payload, field the failure names);
# roots 0-2 are the initial roots, 3-6 the found ones
REFLECTIVE_TAMPERS = [
    ("dropped_wall", lambda pl: pl["roots"].pop(4), "payload.volume"),
    ("negated_root", lambda pl: pl["roots"].__setitem__(6, _negate(pl["roots"][6])),
     "payload.roots[6]"),
    ("appended_negative", lambda pl: pl["roots"].append(_negate(pl["roots"][6])),
     "payload.roots[7]"),
    ("non_root", lambda pl: pl["roots"][6].__setitem__(0, pl["roots"][6][0] + 1),
     "payload.roots[6]"),
    ("swapped_roots", lambda pl: _swap(pl["roots"], 3, 5), "payload.volume"),
    ("edited_volume", lambda pl: pl["volume"]["critical"].pop(), "payload.volume"),
]


@pytest.mark.parametrize(
    "edit,field", [t[1:] for t in REFLECTIVE_TAMPERS], ids=[t[0] for t in REFLECTIVE_TAMPERS]
)
def test_tampered_reflective_certificate_names_the_field(report, edit, field):
    cert = copy.deepcopy(report(11, 3)["certificate"])
    assert len(cert["payload"]["roots"]) == 7
    edit(cert["payload"])
    failures = certificates.verification_failures(cert)
    assert any(f.startswith(field + ":") for f in failures), failures


def test_reflective_certificate_of_an_older_schema_is_malformed(cert_5_2):
    cert = copy.deepcopy(cert_5_2)
    cert["schema_version"] = 2
    cert["payload"]["check_every"] = "root"
    cert["payload"]["volume"]["cross_checked"] = True
    with pytest.raises(CertificateError, match="schema_version"):
        certificates.verification_failures(cert)


@pytest.mark.parametrize("which", ["cert_5_2", "cert_7_4", "cert_13_3"])
def test_malformed_roots_name_the_field(request, which):
    cert = copy.deepcopy(request.getfixturevalue(which))
    del cert["payload"]["roots"]
    with pytest.raises(CertificateError, match=r"payload\.roots: missing"):
        certificates.verification_failures(cert)
    for bad in ([0.5, 1, 0], None, [1, "2", 3], 7):
        cert = copy.deepcopy(request.getfixturevalue(which))
        cert["payload"]["roots"][1] = bad
        with pytest.raises(CertificateError, match=r"payload\.roots\[1\]"):
            certificates.verification_failures(cert)


def test_tampered_volume_report(cert_5_2):
    cert = copy.deepcopy(cert_5_2)
    cert["payload"]["volume"]["finite"] = False
    assert not verify_certificate(cert)


@pytest.mark.parametrize("p,n", sorted(corpus.EXPECTED_REFLECTIVE))
def test_reflective_verification_builds_one_chamber(report, monkeypatch, p, n):
    # the angle check, condition (b) and the cone check read one fresh
    # chamber: one double description, and no separate diagram build
    cert = report(p, n)["certificate"]
    calls = {"cone_generators": 0, "build_diagram": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(cones, "cone_generators")
    counted(diagram, "build_diagram")
    assert verify_certificate(cert)
    assert calls == {"cone_generators": 1, "build_diagram": 0}


def test_rootless_certificates_fail_before_quadratic_work(
        monkeypatch, cert_5_2, cert_7_4, cert_13_3):
    # a document with no roots is far smaller than the n initial roots;
    # each verifier fails it without building them
    original = Form.initial_roots

    def guarded(form):
        assert form.n <= 100, "initial roots built for a rootless document"
        return original(form)

    monkeypatch.setattr(Form, "initial_roots", guarded)
    n = 10**6
    expected = {
        "reflective": "payload.roots: does not start with the initial roots",
        "ideal_vertex_failure": "payload.roots: not a state of the root search",
        "infinite_symmetry": "payload.roots: not the search state after this many batches",
    }
    for cert in (cert_5_2, cert_7_4, cert_13_3):
        cert = copy.deepcopy(cert)
        cert["form"]["n"] = n
        cert["payload"]["roots"] = []
        assert certificates.verification_failures(cert) == [expected[cert["kind"]]]
    base = copy.deepcopy(cert_7_4)
    base["form"]["n"] = n - 1
    base["payload"]["roots"] = []
    lifted = certificates.inherited_certificate(base, n)
    assert certificates.verification_failures(lifted) == [
        "payload.base." + expected["ideal_vertex_failure"]]


@pytest.fixture(scope="module")
def cert_inherited(cert_7_4):
    return certificates.inherited_certificate(cert_7_4, 5)


KIND_FIXTURES = ["cert_5_2", "cert_7_4", "cert_13_3", "cert_inherited"]


def _field_paths(value, path=()):
    """Each field under value: every key of an object, the first entry of
    a list."""
    if isinstance(value, dict):
        keys = list(value)
    elif isinstance(value, list):
        keys = list(range(min(len(value), 1)))
    else:
        keys = []
    for key in keys:
        yield path + (key,)
        yield from _field_paths(value[key], path + (key,))


def _type_broken_edits(doc):
    """(path, copy of doc) with the field at path set to a value of each
    JSON type that breaks it, for every field of doc."""
    for path in _field_paths(doc):
        for bad in (None, "x", [], {}):
            edited = copy.deepcopy(doc)
            parent = edited
            for key in path[:-1]:
                parent = parent[key]
            if parent[path[-1]] != bad:
                parent[path[-1]] = bad
                yield path, edited


def _field_label(path) -> str:
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]


def _assert_names_the_field(exc, path):
    # the message starts with a field path that contains the edited field
    # or lies inside it
    named, edited = str(exc).split(": ")[0], _field_label(path)
    shorter, longer = sorted((named, edited), key=len)
    assert longer == shorter or longer.startswith((shorter + ".", shorter + "[")), (
        path, str(exc))


@pytest.mark.parametrize("which", KIND_FIXTURES)
def test_type_broken_payload_fields_are_invalid_or_malformed(request, which):
    # every field in turn, set to a value of each JSON type that breaks it:
    # the verdict is a failure list or CertificateError naming the field,
    # never another exception, and never valid
    edits = 0
    for path, edited in _type_broken_edits(request.getfixturevalue(which)):
        edits += 1
        try:
            failures = certificates.verification_failures(edited)
        except CertificateError as exc:
            _assert_names_the_field(exc, path)
            continue
        assert isinstance(failures, list), path
        assert failures, path
    assert edits > 20


def test_nested_inherited_chain_is_invalid_at_the_base_kind(cert_7_4, cert_5_2):
    # a hand-nested chain is refused in one step: its base is not a direct
    # obstruction, whatever lies below
    nested = certificates.inherited_certificate(cert_7_4, 5)
    cert = certificates.inherited_certificate(cert_7_4, 6)
    cert["payload"]["base"] = copy.deepcopy(nested)
    assert certificates.verification_failures(cert) == [
        "payload.base.kind: not a direct obstruction"]
    cert["payload"]["base"] = copy.deepcopy(cert_5_2)
    assert certificates.verification_failures(cert) == [
        "payload.base.kind: not a direct obstruction", "payload.base.form: prime mismatch"]
    # a base's own malformed fields and failures keep their prefix
    cert = copy.deepcopy(nested)
    cert["payload"]["base"]["form"]["p"] = "7"
    with pytest.raises(CertificateError, match=r"^payload\.base\.form\.p: "):
        certificates.verification_failures(cert)
    cert = copy.deepcopy(nested)
    cert["payload"]["base"]["payload"]["null_vector"] = None
    with pytest.raises(CertificateError, match=r"^payload\.base\.payload\.null_vector: "):
        certificates.verification_failures(cert)
    cert = copy.deepcopy(nested)
    cert["payload"]["base"]["payload"]["conclusion"] = None
    cert["payload"]["conclusion"] = None
    assert certificates.verification_failures(cert) == [
        "payload.base.payload.conclusion: does not re-derive",
        "payload.conclusion: does not re-derive",
    ]


def _every_field(value, path=()):
    """Each field under value: every key of an object, every list entry."""
    keys = list(value) if isinstance(value, dict) else (
        range(len(value)) if isinstance(value, list) else [])
    for key in keys:
        yield path + (key,)
        yield from _every_field(value[key], path + (key,))


def _field_exists(doc, label) -> bool:
    """Whether a field label such as payload.roots[2] is a field of doc."""
    for name, index in re.findall(r"\.?([A-Za-z_]+)|\[(\d+)\]", label):
        key = int(index) if index else name
        try:
            doc = doc[key]
        except (KeyError, IndexError, TypeError):
            return False
    return True


@st.composite
def _mutations(draw, value):
    """A value that breaks value: an out-of-range integer, a nested list,
    two rows swapped, or a value of the wrong type."""
    kinds = ["out_of_range", "nested_list", "wrong_type"]
    if isinstance(value, list) and len(value) >= 2:
        kinds.append("swap_rows")
    kind = draw(st.sampled_from(kinds))
    if kind == "out_of_range":
        return draw(st.sampled_from([-1, -(10**30), 10**30, 2**64]))
    if kind == "nested_list":
        return [[value]] if not isinstance(value, list) else [value]
    if kind == "swap_rows":
        i = draw(st.integers(0, len(value) - 2))
        j = draw(st.integers(i + 1, len(value) - 1))
        rows = list(value)
        rows[i], rows[j] = rows[j], rows[i]
        return rows
    wrong = [None, "7", 1.5, True, {}, []]
    if type(value) is int:
        wrong.append(float(value))
    return draw(st.sampled_from(wrong))


def _may_stay_valid(which, path, value) -> bool:
    """Edits that leave a document valid: an inherited verdict holds at
    every higher rank."""
    return which == "cert_inherited" and path == ("form", "n") and value == 10**30


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_documents_are_invalid_or_name_a_field(
        data, cert_5_2, cert_7_4, cert_13_3, cert_inherited):
    # certificates of all four kinds, one drawn field mutated: the reader
    # raises CertificateError naming a field of the document, or the
    # document fails its check; nothing else is raised
    docs = {"cert_5_2": cert_5_2, "cert_7_4": cert_7_4, "cert_13_3": cert_13_3,
            "cert_inherited": cert_inherited}
    which = data.draw(st.sampled_from(sorted(docs)))
    doc = docs[which]
    path = data.draw(st.sampled_from(list(_every_field(doc))))
    edited = copy.deepcopy(doc)
    parent = edited
    for key in path[:-1]:
        parent = parent[key]
    value = data.draw(_mutations(parent[path[-1]]))
    assume(json.dumps(value) != json.dumps(parent[path[-1]]))
    parent[path[-1]] = value
    try:
        valid = verify_certificate(edited)
    except CertificateError as exc:
        assert _field_exists(doc, str(exc).split(": ")[0]), (which, path, str(exc))
        return
    assert not valid or _may_stay_valid(which, path, value), (which, path, value)


# top-level payload keys that each kind re-derives from its primary fields
DERIVED_KEYS = {
    "cert_5_2": ["volume", "conclusion"],
    "cert_7_4": ["affine_rank", "quotient", "affine_image", "complement", "glue",
                 "root_classes", "conclusion"],
    "cert_13_3": ["evidence", "conclusion"],
    "cert_inherited": ["conclusion"],
}


@pytest.mark.parametrize(
    "which,key", [(which, key) for which, keys in DERIVED_KEYS.items() for key in keys]
)
def test_edited_derived_key_does_not_re_derive(request, which, key):
    cert = copy.deepcopy(request.getfixturevalue(which))
    cert["payload"][key] = "chamber_has_infinite_volume"
    failures = certificates.verification_failures(cert)
    assert failures == [f"payload.{key}: does not re-derive"], failures
    del cert["payload"][key]
    with pytest.raises(CertificateError, match=rf"payload\.{key}: missing"):
        certificates.verification_failures(cert)


@pytest.mark.parametrize("which", KIND_FIXTURES)
def test_unknown_payload_key_does_not_re_derive(request, which):
    cert = copy.deepcopy(request.getfixturevalue(which))
    cert["payload"]["note"] = None
    assert certificates.verification_failures(cert) == ["payload.note: does not re-derive"]


# edits that a plain == lets through: each stores a value of another JSON
# type, by (certificate, path in the payload, value)
TYPED_EDITS = {
    "glue_index_float": ("cert_7_4", ("glue", "index"), 3.0),
    "glue_vector_bool": ("cert_7_4", ("glue", "vector", 0), True),
    "class_coordinate_bool": ("cert_7_4", ("root_classes", "classes", 0, "coords", 2), True),
    "volume_finite_int": ("cert_5_2", ("volume", "finite"), 1),
}


@pytest.mark.parametrize("which,path,value", list(TYPED_EDITS.values()), ids=list(TYPED_EDITS))
def test_a_value_of_another_type_does_not_re_derive(request, which, path, value):
    cert = copy.deepcopy(request.getfixturevalue(which))
    parent = cert["payload"]
    for key in path[:-1]:
        parent = parent[key]
    assert parent[path[-1]] == value and type(parent[path[-1]]) is not type(value)
    parent[path[-1]] = value
    failures = certificates.verification_failures(cert)
    assert failures == [f"payload.{path[0]}: does not re-derive"], failures


def test_edited_component_type_does_not_re_derive(cert_7_4):
    cert = copy.deepcopy(cert_7_4)
    cert["payload"]["components"][0]["type"] = "A~3"
    failures = certificates.verification_failures(cert)
    assert failures == ["payload.components: does not re-derive"]


def test_tampered_null_vector_orientation(cert_7_4):
    cert = copy.deepcopy(cert_7_4)
    cert["payload"]["null_vector"] = [-x for x in cert["payload"]["null_vector"]]
    assert not verify_certificate(cert)


def test_glue_witness_cannot_be_swapped_for_a_root(cert_7_4):
    # the glue class is a coset representative outside the root span; an
    # actual accepted root orthogonal to e is a plausible-looking but
    # wrong substitute and must be caught by re-derivation
    cert = copy.deepcopy(cert_7_4)
    form = Form(7, 4)
    e = tuple(cert["payload"]["null_vector"])
    swap = next(
        tuple(r) for r in cert["payload"]["roots"]
        if form.inner_product(r, e) == 0
    )
    cert["payload"]["glue"]["vector"] = list(swap)
    failures = certificates.verification_failures(cert)
    assert any("glue" in f for f in failures)


def test_tampered_component_marks(cert_7_4):
    cert = copy.deepcopy(cert_7_4)
    cert["payload"]["components"][0]["marks"][0] += 1
    assert not verify_certificate(cert)


def test_ideal_vertex_certificate_needs_a_component(cert_7_4):
    # the obstruction is argued at a null vector that affine components of
    # the roots span; a payload with none, rebuilt consistently around the
    # same null vector, must not verify
    cert = copy.deepcopy(cert_7_4)
    payload = cert["payload"]
    quot = quotient.null_quotient(Form(7, 4), payload["null_vector"])
    roots = [tuple(r) for r in payload["roots"]]
    cert["payload"] = certificates._ideal_vertex_payload(quot, roots, [], payload["root_classes"])
    assert certificates.verification_failures(cert) == ["payload.components: no affine component"]


@pytest.mark.parametrize(
    "nodes,failure",
    [
        ([0, 1], "not an affine subdiagram"),  # spherical
        ([0, 1, 2, 3, 4, 5], "not an affine subdiagram"),  # indefinite
        ([0, 2], "not a connected subdiagram"),
        ([3, 5], "not a connected subdiagram"),
        ([1, 0], "bad index set"),
        ([0, 99], "bad index set"),
    ],
)
def test_ideal_vertex_component_must_be_a_connected_affine_subdiagram(cert_7_4, nodes, failure):
    cert = copy.deepcopy(cert_7_4)
    cert["payload"]["components"][0]["nodes"] = nodes
    assert certificates.verification_failures(cert) == [f"payload.components[0].nodes: {failure}"]


def test_tampered_root_class_shift(cert_7_4):
    cert = copy.deepcopy(cert_7_4)
    classes = cert["payload"]["root_classes"]["classes"]
    classes[0]["shift"] = 999
    failures = certificates.verification_failures(cert)
    assert any("root_classes" in f for f in failures)


# edits of the (7,4) certificate's roots that keep them pairwise obtuse
IDEAL_VERTEX_ROOT_TAMPERS = {
    "dropped_last_root": lambda roots: roots.pop(),
    "swapped_roots_4_5": lambda roots: _swap(roots, 4, 5),
}


@pytest.mark.parametrize("edit", list(IDEAL_VERTEX_ROOT_TAMPERS.values()),
                         ids=list(IDEAL_VERTEX_ROOT_TAMPERS))
def test_ideal_vertex_roots_must_replay(cert_7_4, edit):
    cert = copy.deepcopy(cert_7_4)
    edit(cert["payload"]["roots"])
    failures = certificates.verification_failures(cert)
    assert failures == ["payload.roots: not a state of the root search"]


def test_forged_ideal_vertex_roots_are_rejected_without_hanging(cert_7_4):
    # seven pairwise-obtuse roots of (5,3), two of them out of batch order;
    # the search's chamber closes at six roots, so a replay bounded only by
    # the root count would never stop.  A subprocess with a timeout turns
    # a hang into a failure.
    cert = copy.deepcopy(cert_7_4)
    cert["form"] = {"p": 5, "n": 3}
    cert["payload"]["roots"] = [
        [0, -1, 1, 0], [0, 0, -1, 1], [0, 0, 0, -1],
        [2, 5, 0, 0], [2, 3, 3, 2], [3, 5, 5, 0], [2, 4, 2, 1],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        "import json, sys; from vinberg import certificates; "
        "print(json.dumps(certificates.verification_failures(json.load(sys.stdin))))"
    )
    proc = subprocess.run([sys.executable, "-c", code], input=json.dumps(cert),
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["payload.roots: not a state of the root search"]


def test_symmetry_roots_must_be_the_state_after_batches_done(cert_13_3):
    # cut the replay before the batch that accepted the last stored root
    cert = copy.deepcopy(cert_13_3)
    count = len(cert["payload"]["roots"])
    state = SearchState.fresh(Form(13, 3))
    for _ in replay(state, Budget()):
        if len(state.accepted) >= count:
            break
    assert len(state.accepted) == count
    cert["payload"]["batches_done"] = state.batches_done - 1
    failures = certificates.verification_failures(cert)
    assert failures == ["payload.roots: not the search state after this many batches"]


def test_forged_symmetry_certificate_is_rejected_without_hanging(cert_13_3, report):
    # a closed chamber accepts nothing after its last root, so the (7,3)
    # roots with a huge batches_done pass every prefix check of the replay;
    # the (13,3) certificate around them must still be rejected, in a
    # subprocess whose timeout turns a hang into a failure.  The genuine
    # (13,3) roots with the same count are rejected at the next root the
    # replay accepts.
    closed = copy.deepcopy(cert_13_3)
    closed["form"] = {"p": 7, "n": 3}
    closed["payload"]["roots"] = report(7, 3)["roots"]
    closed["payload"]["batches_done"] = 10**6
    late = copy.deepcopy(cert_13_3)
    late["payload"]["batches_done"] = 10**6
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        "import json, sys; from vinberg import certificates; "
        "print(json.dumps([certificates.verification_failures(c) for c in json.load(sys.stdin)]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], input=json.dumps([closed, late]),
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    closed_failures, late_failures = json.loads(proc.stdout)
    assert closed_failures
    assert late_failures == ["payload.roots: not the search state after this many batches"]


@pytest.mark.parametrize("batches", [2**63, 2**64, 10**30])
def test_symmetry_batch_count_past_any_index_is_rejected(cert_13_3, batches):
    # islice takes no count past sys.maxsize; the capped replay still ends
    # short of the count, and the roots are rejected, not raised on
    cert = copy.deepcopy(cert_13_3)
    cert["payload"]["batches_done"] = batches
    assert certificates.verification_failures(cert) == [
        "payload.roots: not the search state after this many batches"]


def test_symmetry_replay_is_capped_below_an_unreached_wall(cert_13_3, monkeypatch):
    # the stored isometry maps chamber walls to chamber walls, so an image
    # of a stored root that is not stored is a wall the search has not yet
    # reached; the lowest one, (5,18,1,1) at height 25, the image of the
    # initial root (0,0,0,-1), caps the replay.  It lies in the first batch
    # past the stored 29, so the cap equals the frontier 25 of the replay
    # and stops it no earlier than the count
    caps = []
    reproduces = certificates.reproduces

    def spy(form, roots, batches, max_height):
        caps.append(max_height)
        return reproduces(form, roots, batches, max_height)

    monkeypatch.setattr(certificates, "reproduces", spy)
    assert verify_certificate(cert_13_3)
    assert caps == [Fraction(25)]
    assert cert_13_3["payload"]["batches_done"] == 29
    roots = [tuple(r) for r in cert_13_3["payload"]["roots"]]
    assert (5, 18, 1, 1) not in roots
    assert tuple(linalg.mat_vec(cert_13_3["payload"]["matrix"], roots[2])) == (5, 18, 1, 1)
    replayed = reproduces(Form(13, 3), roots, 29, caps[0])
    assert replayed.open_height() == Fraction(25) == caps[0]
    assert oracles.open_height(Form(13, 3), 28) < caps[0]


# the symmetry certificates of the corpus and of the primes 29..83 at
# n = 2, 3, where only (53,2), (61,2), (73,2) and (83,2) stay undecided
SYMMETRY_FORMS = sorted(
    {(p, n) for p, (n, kind) in corpus.EXPECTED_FIRST_FAILURE.items()
     if kind == "infinite_symmetry"}
    | {(p, n) for p in (29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83) for n in (2, 3)}
    - {(53, 2), (61, 2), (73, 2), (83, 2)}
)


@pytest.mark.parametrize("p,n", SYMMETRY_FORMS)
def test_symmetry_certificate_stores_the_shortest_certifying_cut(report, p, n):
    # the stored cut ends at the last batch no higher than both corners'
    # bounds and every frame root: its frontier clears the bounds, and the
    # frontier one batch earlier does not clear them with the frame roots
    form, rep = Form(p, n), report(p, n)
    cert = rep["certificate"]
    assert cert["kind"] == "infinite_symmetry"
    assert verify_certificate(cert)
    pl = cert["payload"]
    roots, batches = pl["roots"], pl["batches_done"]
    assert roots == rep["roots"][: len(roots)]
    assert batches <= rep["timings"]["batches"]
    frames = (pl["frame_from"], pl["frame_to"])
    bounds = [Fraction(fr["height_bound"]) for fr in frames]
    need = max(bounds + [form.height(roots[i]) for fr in frames for i in fr["root_indices"]])
    assert max(bounds) < oracles.open_height(form, batches)
    assert oracles.open_height(form, batches - 1) <= need


def test_the_full_budget_cut_of_13_3_still_verifies(search, cert_13_3):
    # certificates written before the cut was trimmed store every root and
    # batch of the search; they verify as they did
    pl, state = cert_13_3["payload"], search(13, 3).state
    symmetry = {key: pl[key] for key in ("matrix", "frame_from", "frame_to", "evidence")}
    full = certificates.infinite_symmetry_certificate(
        Form(13, 3), state.accepted, symmetry, state.batches_done)
    assert full["payload"]["batches_done"] == 120 > pl["batches_done"]
    assert len(full["payload"]["roots"]) > len(pl["roots"])
    assert verify_certificate(full)


def test_tampered_symmetry_matrix(cert_13_3):
    cert = copy.deepcopy(cert_13_3)
    cert["payload"]["matrix"][0][0] += 1
    failures = certificates.verification_failures(cert)
    assert any("matrix" in f for f in failures)


def test_tampered_height_bound(cert_13_3):
    cert = copy.deepcopy(cert_13_3)
    assert cert["payload"]["frame_to"]["height_bound"] != "0"
    cert["payload"]["frame_to"]["height_bound"] = "0"
    failures = certificates.verification_failures(cert)
    assert any("height_bound" in f for f in failures)


def test_tampered_frame_corner(cert_13_3):
    cert = copy.deepcopy(cert_13_3)
    cert["payload"]["frame_from"]["corner"][1] += 1
    assert not verify_certificate(cert)


def test_finite_order_frame_map_is_no_symmetry(cert_13_3):
    # the (13,3) corners (1,0,0,0) and (12,39,13,13) are certified and
    # their frames match, but the isometry between them has finite order,
    # a map the hunt skips; with the frames' height bounds re-derived, the
    # order check alone rejects the forgery
    form = Form(13, 3)
    cert = copy.deepcopy(cert_13_3)
    payload = cert["payload"]
    roots = [tuple(r) for r in payload["roots"]]
    chamber = volume.ChamberDiagram(form, roots)
    source, target = (1, 0, 0, 0), (12, 39, 13, 13)
    walls = {c["vector"]: c["orthogonal"] for c in isometry.chamber_corners(chamber)}
    assert walls[source] == [0, 1, 2] and walls[target] == [1, 3, 5]
    base = (0, 1, 2)
    [perm] = isometry._matching_frames(chamber.gram, walls[target], chamber.subgram(base))
    assert perm == (5, 1, 3)
    T = isometry.frame_map(
        form, [roots[i] for i in base] + [source], [roots[i] for i in perm] + [target])
    assert isometry.infinite_order_evidence(T) is None
    payload["matrix"] = T
    for label, idx, corner in (("frame_from", base, source), ("frame_to", perm, target)):
        payload[label] = {"root_indices": list(idx), "corner": list(corner),
                          "height_bound": str(isometry.corner_height_bound(form, corner))}
    assert certificates.verification_failures(cert) == ["payload.matrix: matrix has finite order"]


def _reflected_target(pl):
    """Compose the (13,3) matrix with the reflection in frame_to's corner c,
    which is integral: the norm of c, -13, divides 2<x, c> for every x."""
    form = Form(13, 3)
    c = pl["frame_to"]["corner"]
    unit = linalg.identity(form.dim)
    twice = [2 * form.inner_product(e, c) for e in unit]
    assert all(t % form.norm(c) == 0 for t in twice)
    reflection = [[unit[i][j] - twice[j] // form.norm(c) * c[i] for j in range(form.dim)]
                  for i in range(form.dim)]
    pl["matrix"] = linalg.mat_mul(reflection, pl["matrix"])


def _unbounded_hunt(pl):
    """Replace the payload with a symmetry hunted with no height limit on the
    undecided (13,3) search under Budget(400, 8): the hunt's far corner is not
    certified by the heights that search scanned."""
    form = Form(13, 3)
    result = run_search(form, Budget(400, 8))
    assert result.verdict == "undecided"
    symmetry = isometry.find_infinite_symmetry(result.chamber, 10**9)
    pl.clear()
    pl.update(certificates.infinite_symmetry_certificate(
        form, result.chamber.roots, symmetry, result.state.batches_done)["payload"])


def _extra_wall_through_the_corner(pl):
    # the root (1,2,3,1), the wall (1,3,2,1) reflected in the wall
    # (0,-1,1,0), is orthogonal to the corner (2,5,5,1) but no wall there
    assert pl["frame_from"]["corner"] == [2, 5, 5, 1]
    assert [pl["roots"][i] for i in pl["frame_from"]["root_indices"]] == [
        [0, -1, 1, 0], [1, 3, 2, 1], [5, 13, 13, 0]]
    pl["roots"].append([1, 2, 3, 1])
    pl["frame_from"]["root_indices"] = [0, len(pl["roots"]) - 1, 4]


def _swap_target_frame_roots(pl):
    indices = pl["frame_to"]["root_indices"]
    indices[0], indices[1] = indices[1], indices[0]


# well-formed forgeries, each failing verifier rejections that the tamper
# tests above do not reach: (form, payload edit, the exact failures)
WELL_FORMED_FORGERIES = {
    "repeated_root": (
        (11, 3), lambda pl: pl["roots"].append(list(pl["roots"][6])),
        ["payload.roots[7]: acute angle with root 6"]),
    "doubled_null_vector": (
        (7, 4), lambda pl: pl.update(null_vector=[2 * x for x in pl["null_vector"]]),
        ["payload.null_vector: not a primitive null vector"]),
    "duplicated_component": (
        (5, 9), lambda pl: pl["components"].append(copy.deepcopy(pl["components"][0])),
        ["payload.components: overlapping components"]),
    # the null vector of another cusp of the (5,9) chamber
    "another_cusps_null_vector": (
        (5, 9), lambda pl: pl.update(null_vector=[1, 2, 1] + [0] * 7),
        ["payload.components[0].nodes: null vector is not payload.null_vector"]),
    "short_matrix": (
        (13, 3), lambda pl: pl["matrix"].pop(),
        ["payload.matrix: not an integer matrix of the right size"]),
    "repeated_frame_root": (
        (13, 3), lambda pl: pl["frame_from"].update(root_indices=[0, 0, 1]),
        ["payload.frame_from.root_indices: bad index set"]),
    "past_corner": (
        (13, 3), lambda pl: pl["frame_from"].update(corner=[-1, 0, 0, 0]),
        ["payload.frame_from.corner: not a future timelike vector"]),
    "doubled_corner": (
        (13, 3), lambda pl: pl["frame_from"].update(
            corner=[2 * x for x in pl["frame_from"]["corner"]]),
        ["payload.frame_from.corner: not primitive"]),
    # (1,0,0,1) is on the wrong side of the initial root (0,0,-1,1)
    "corner_outside_the_chamber": (
        (13, 3), lambda pl: pl["frame_to"].update(corner=[1, 0, 0, 1]),
        ["payload.frame_to.corner: outside the chamber"]),
    "frame_root_off_the_corner": (
        (13, 3), lambda pl: pl["frame_from"].update(root_indices=[0, 1, 3]),
        ["payload.frame_from.root_indices: frame roots must contain the corner"]),
    "extra_wall_through_the_corner": (
        (13, 3), _extra_wall_through_the_corner,
        ["payload.frame_from.root_indices: not the complete wall set through the corner"]),
    "frame_to_is_frame_from": (
        (13, 3), lambda pl: pl.update(frame_to=copy.deepcopy(pl["frame_from"])),
        ["payload.frame_to.corner: corners must be distinct of equal norm"]),
    # the reflection fixes the target frame's roots and negates its corner
    "reflected_target": (
        (13, 3), _reflected_target,
        ["payload.matrix: does not map the source corner to the target"]),
    "swapped_target_frame_roots": (
        (13, 3), _swap_target_frame_roots,
        ["payload.matrix: does not map frame root 0 as stated",
         "payload.matrix: does not map frame root 1 as stated"]),
    "unbounded_hunt": (
        (13, 3), _unbounded_hunt,
        ["payload.frame_to.corner: separating-wall bound not cleared by the scanned height"]),
}


@pytest.mark.parametrize("name", sorted(WELL_FORMED_FORGERIES))
def test_well_formed_forgery_fails_its_own_check(report, name):
    (p, n), edit, failures = WELL_FORMED_FORGERIES[name]
    cert = copy.deepcopy(report(p, n)["certificate"])
    edit(cert["payload"])
    assert certificates.verification_failures(cert) == failures


# (verifier function, failure message with its f-string fields as {expr})
# -> the test that reaches it; a forgery is named as its test's parameter
FORGERY_TEST = "test_well_formed_forgery_fails_its_own_check"
VERIFIER_MESSAGES = {
    ("verification_failures", "kind: not a direct obstruction"):
        "test_nested_inherited_chain_is_invalid_at_the_base_kind",
    ("verification_failures", "form: prime mismatch"): "test_tampered_inherited_prime",
    ("verification_failures", "form: base rank must be lower"):
        "test_inherited_base_rank_must_be_lower",
    ("_roots", "payload.roots[{i}]: not a root of the form"):
        "test_tampered_reflective_certificate_names_the_field",
    ("_rederived", "payload.{key}: does not re-derive"):
        "test_edited_derived_key_does_not_re_derive",
    ("_acute_pair", "payload.roots[{j}]: acute angle with root {i}"):
        f"{FORGERY_TEST}[repeated_root]",
    ("_verify_reflective", "payload.roots: does not start with the initial roots"):
        "test_rootless_certificates_fail_before_quadratic_work",
    ("_verify_reflective", "payload.roots[{i}]: first coordinate is not positive"):
        "test_tampered_reflective_certificate_names_the_field",
    ("_verify_reflective", "payload.volume: chamber volume is not finite"):
        "test_tampered_reflective_roots",
    ("_verify_reflective", "payload.roots: chamber cone is not in the closed light cone"):
        "test_tampered_reflective_roots",
    ("_verify_ideal_vertex", "payload.components: no affine component"):
        "test_ideal_vertex_certificate_needs_a_component",
    ("_verify_ideal_vertex", "payload.roots: not a state of the root search"):
        "test_ideal_vertex_roots_must_replay",
    ("_verify_ideal_vertex", "payload.null_vector: not a primitive null vector"):
        f"{FORGERY_TEST}[doubled_null_vector]",
    ("_verify_ideal_vertex", "payload.null_vector: wrong light-cone orientation"):
        "test_tampered_null_vector_orientation",
    ("_verify_ideal_vertex", "{label}: bad index set"):
        "test_ideal_vertex_component_must_be_a_connected_affine_subdiagram",
    ("_verify_ideal_vertex", "{label}: not a connected subdiagram"):
        "test_ideal_vertex_component_must_be_a_connected_affine_subdiagram",
    ("_verify_ideal_vertex", "{label}: not an affine subdiagram"):
        "test_ideal_vertex_component_must_be_a_connected_affine_subdiagram",
    ("_verify_ideal_vertex", "{label}: null vector is not payload.null_vector"):
        f"{FORGERY_TEST}[another_cusps_null_vector]",
    ("_verify_ideal_vertex", "payload.components: overlapping components"):
        f"{FORGERY_TEST}[duplicated_component]",
    ("_verify_ideal_vertex", "payload.root_classes: root classes span the quotient rationally"):
        "test_full_rank_cusp_is_no_ideal_vertex_failure",
    ("_verify_infinite_symmetry", "payload.roots: not the search state after this many batches"):
        "test_symmetry_roots_must_be_the_state_after_batches_done",
    ("_verify_infinite_symmetry", "payload.matrix: not an integer matrix of the right size"):
        f"{FORGERY_TEST}[short_matrix]",
    ("_verify_infinite_symmetry", "payload.matrix: does not preserve the form"):
        "test_tampered_symmetry_matrix",
    ("_verify_infinite_symmetry", "payload.{label}.root_indices: bad index set"):
        f"{FORGERY_TEST}[repeated_frame_root]",
    ("_verify_infinite_symmetry", "payload.{label}.corner: not a future timelike vector"):
        f"{FORGERY_TEST}[past_corner]",
    ("_verify_infinite_symmetry", "payload.{label}.corner: not primitive"):
        f"{FORGERY_TEST}[doubled_corner]",
    ("_verify_infinite_symmetry", "payload.{label}.corner: outside the chamber"):
        f"{FORGERY_TEST}[corner_outside_the_chamber]",
    ("_verify_infinite_symmetry", "payload.{label}.height_bound: does not re-derive"):
        "test_tampered_height_bound",
    ("_verify_infinite_symmetry",
     "payload.{label}.root_indices: frame roots must contain the corner"):
        f"{FORGERY_TEST}[frame_root_off_the_corner]",
    ("_verify_infinite_symmetry",
     "payload.{label}.root_indices: not the complete wall set through the corner"):
        f"{FORGERY_TEST}[extra_wall_through_the_corner]",
    ("_verify_infinite_symmetry", "payload.frame_to.corner: corners must be distinct of equal norm"):
        f"{FORGERY_TEST}[frame_to_is_frame_from]",
    ("_verify_infinite_symmetry", "payload.matrix: does not map the source corner to the target"):
        f"{FORGERY_TEST}[reflected_target]",
    ("_verify_infinite_symmetry", "payload.matrix: does not map frame root {s} as stated"):
        f"{FORGERY_TEST}[swapped_target_frame_roots]",
    ("_verify_infinite_symmetry", "payload.matrix: matrix has finite order"):
        "test_finite_order_frame_map_is_no_symmetry",
    ("_verify_infinite_symmetry",
     "payload.{label}.corner: separating-wall bound not cleared by the scanned height"):
        f"{FORGERY_TEST}[unbounded_hunt]",
}


def _verifier_messages() -> set:
    """(function, message) for every failure message in certificates.py:
    each string holding ': ' that is neither a docstring nor raised, so a
    CertificateError's text is left out; f-string fields read {expr}."""
    def text(node):
        if isinstance(node, ast.Constant):
            return node.value
        return "".join(v.value if isinstance(v, ast.Constant) else "{" + ast.unparse(v.value) + "}"
                       for v in node.values)

    def visit(node, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
            children = node.body[1:] if ast.get_docstring(node) else node.body
        elif isinstance(node, ast.Raise):
            return
        elif isinstance(node, ast.JoinedStr) or isinstance(node, ast.Constant) and isinstance(
                node.value, str):
            if function and ": " in text(node):
                found.add((function, text(node)))
            return
        else:
            children = ast.iter_child_nodes(node)
        for child in children:
            visit(child, function)

    found: set = set()
    visit(ast.parse(Path(certificates.__file__).read_text()), None)
    return found


def test_every_verifier_message_is_reached_by_a_named_test():
    # a verifier that gains a message fails here until the table names the
    # test reaching it; a forgery's listed failures must show the message
    assert _verifier_messages() == set(VERIFIER_MESSAGES)
    for (_, message), test in VERIFIER_MESSAGES.items():
        name, _, forgery = test.partition("[")
        assert callable(globals().get(name)), test
        if forgery:
            pattern = ".+".join(map(re.escape, re.split(r"\{[^}]*\}", message)))
            failures = WELL_FORMED_FORGERIES[forgery.rstrip("]")][2]
            assert any(re.fullmatch(pattern, f) for f in failures), test


def test_tampered_inherited_prime(cert_7_4):
    lifted = certificates.inherited_certificate(cert_7_4, 5)
    cert = copy.deepcopy(lifted)
    cert["form"]["p"] = 11
    failures = certificates.verification_failures(cert)
    assert any("prime mismatch" in f for f in failures)


def test_inherited_base_rank_must_be_lower(cert_7_4):
    lifted = copy.deepcopy(certificates.inherited_certificate(cert_7_4, 5))
    lifted["form"]["n"] = 4
    assert certificates.verification_failures(lifted) == [
        "payload.base.form: base rank must be lower"]


def test_tampered_inherited_base_propagates(cert_7_4):
    lifted = certificates.inherited_certificate(cert_7_4, 5)
    cert = copy.deepcopy(lifted)
    cert["payload"]["base"]["payload"]["components"][0]["marks"][0] += 1
    failures = certificates.verification_failures(cert)
    assert failures and all(f.startswith("payload.base.") for f in failures)


def test_published_failures_are_the_first_ranks_past_the_published_reflective():
    # the published failures are the non-reflectivity blocks and (23, 3);
    # the headline differs from what this package proves at the two forms
    # whose published argument the disputed-vertex tests below refute
    reflective = corpus.PUBLISHED_REFLECTIVE
    first_failures = {
        (p, min(n for n in range(2, 12) if (p, n) not in reflective))
        for p, _ in reflective
    }
    assert {*BLOCKS, (23, 3)} == first_failures
    assert reflective ^ corpus.EXPECTED_REFLECTIVE == {(11, 4), (17, 3)}


def test_malformed_documents_raise(cert_5_2, cert_7_4, cert_13_3):
    with pytest.raises(CertificateError):
        certificates.verification_failures({})
    cert = copy.deepcopy(cert_5_2)
    cert["schema_version"] = 99
    with pytest.raises(CertificateError):
        certificates.verification_failures(cert)
    cert = copy.deepcopy(cert_5_2)
    cert["kind"] = "bogus"
    with pytest.raises(CertificateError):
        certificates.verification_failures(cert)
    cert = copy.deepcopy(cert_5_2)
    cert["form"] = {"p": 4, "n": 3}
    with pytest.raises(CertificateError):
        certificates.verification_failures(cert)
    cert = copy.deepcopy(cert_5_2)
    del cert["payload"]
    with pytest.raises(CertificateError):
        certificates.verification_failures(cert)
    for bad in (True, -1, "3", 2.0):
        cert = copy.deepcopy(cert_13_3)
        cert["payload"]["batches_done"] = bad
        with pytest.raises(CertificateError, match=r"payload\.batches_done"):
            certificates.verification_failures(cert)
    # the envelope holds schema_version, kind, form and payload, and form
    # holds p and n, with no other key; an inherited base is held to both
    cert = copy.deepcopy(cert_5_2)
    cert["annotations"] = {}
    with pytest.raises(CertificateError, match=r"^annotations: unknown field$"):
        certificates.verification_failures(cert)
    cert = copy.deepcopy(cert_5_2)
    cert["form"]["q"] = 1
    with pytest.raises(CertificateError, match=r"^form\.q: unknown field$"):
        certificates.verification_failures(cert)
    cert = copy.deepcopy(certificates.inherited_certificate(cert_7_4, 5))
    cert["payload"]["base"]["extra"] = {"note": 7}
    with pytest.raises(CertificateError, match=r"^payload\.base\.extra: unknown field$"):
        certificates.verification_failures(cert)


def test_cusp_scan_finds_the_rank_9_obstruction(report):
    rep = report(5, 9)
    form = Form(5, 9)
    roots = [tuple(r) for r in rep["roots"]]
    cert = certificates.scan_for_cusp_obstruction(volume.ChamberDiagram(form, roots))
    assert cert is not None
    blk = BLOCKS[(5, 9)]
    assert tuple(cert["payload"]["null_vector"]) == blk["null_vector"]
    assert verify_certificate(cert)


def test_direct_rank_10_search_agrees_with_inherited_verdict(report):
    rep = report(5, 10)
    assert rep["verdict"] == "non_reflective"
    cert = rep["certificate"]
    assert cert["kind"] == "ideal_vertex_failure"
    assert verify_certificate(cert)
    # the search meets the (5,9) block's D~7, of rank 7 < n - 2, and
    # decides on it after two batches
    blk = BLOCKS[(5, 9)]
    assert cert["payload"]["null_vector"] == [*blk["null_vector"], 0]
    assert [c["type"] for c in cert["payload"]["components"]] == ["D~7"]
    assert rep["timings"]["batches"] == 2
    inherited = certificates.inherited_certificate(report(5, 9)["certificate"], 10)
    assert inherited["form"] == cert["form"]
    assert verify_certificate(inherited)


def test_cusp_scan_silent_at_genuine_ideal_vertex(search):
    # the 7-wall chamber has an honest ideal vertex whose root classes
    # span a sublattice of index 2; the scan must not flag it
    form = Form(11, 3)
    roots = search(11, 3).roots
    cert = certificates.scan_for_cusp_obstruction(volume.ChamberDiagram(form, roots))
    assert cert is None


def test_full_rank_cusp_is_no_ideal_vertex_failure(search):
    # the (5,5) chamber closes, and its A~4 cusp at e = (1, ..., 1) is a
    # genuine ideal vertex whose root classes have full rank; a
    # certificate built there re-derives in every field, so the rank check
    # alone rejects it
    form = Form(5, 5)
    chamber = search(5, 5).chamber
    cusp = [frozenset({0, 1, 2, 3, 5})]
    assert cusp in chamber.cusps()
    _, e = certificates.affine_null_marks(form, chamber.roots, cusp[0])
    assert e == (1,) * 6
    quot = quotient.null_quotient(form, e)
    rc = quotient.root_classes(form, quot)
    cert = certificates.ideal_vertex_certificate(chamber, quot, cusp, rc)
    assert certificates.verification_failures(cert) == [
        "payload.root_classes: root classes span the quotient rationally"
    ]


# The disputed forms: the walls orthogonal to the published null vector,
# by connected component (node indices into the certificate's roots) with
# the norm of their walls, and the norms of the root classes at it.
DISPUTED_VERTICES = {
    (11, 4): {"components": [((1, 5), 2), ((3, 7), 1), ((4, 8), 22)], "class_norms": [1, 2, 22]},
    (17, 3): {"components": [((1, 3), 2), ((6, 7), 34)], "class_norms": [2, 34]},
}


@pytest.mark.parametrize("p,n", sorted(DISPUTED_VERTICES))
def test_published_null_vector_is_a_full_rank_ideal_vertex(report, p, n):
    # the published argument finds an affine set of deficient rank at the
    # block's null vector; on the stored chamber that vertex has an affine
    # set of full rank n - 1, one A~1 more than the block lists, made of
    # walls of norm 2p, and its root classes have full rank and index 2
    form = Form(p, n)
    blk = BLOCKS[(p, n)]
    expected = DISPUTED_VERTICES[(p, n)]
    e = blk["null_vector"]
    roots = [tuple(r) for r in report(p, n)["certificate"]["payload"]["roots"]]
    assert form.norm(e) == 0
    products = [form.inner_product(r, e) for r in roots]
    # e lies in the closed chamber: on the non-positive side of every wall
    assert all(x <= 0 for x in products)
    d = diagram.build_diagram(form, roots)
    comps = diagram.components(d, [i for i, x in enumerate(products) if x == 0])
    assert [(c, {form.norm(roots[i]) for i in c}) for c in comps] == [
        (nodes, {norm}) for nodes, norm in expected["components"]
    ]
    # n - 1 components of rank 1: the affine set has full rank n - 1
    assert [diagram.affine_type(d, c) for c in comps] == ["A~1"] * (n - 1)
    assert blk["component_types"] == ["A~1"] * (n - 2)
    assert 2 * p in {form.norm(roots[i]) for c in comps for i in c}
    rc = quotient.root_classes(form, quotient.null_quotient(form, e))
    assert rc["full_rank"] and rc["rank"] == n - 1
    # root_classes reports no index; the walked classes' span has index 2
    assert rc["index"] is None
    basis = linalg.hnf_basis([c["coords"] for c in rc["classes"]])
    assert prod(row[i] for i, row in enumerate(basis)) == 2
    assert sorted(c["norm"] for c in rc["classes"]) == expected["class_norms"]


def test_affine_null_marks_published_block(cert_7_4):
    form = Form(7, 4)
    roots = [tuple(r) for r in cert_7_4["payload"]["roots"]]
    comp = cert_7_4["payload"]["components"][0]
    marks, e = certificates.affine_null_marks(form, roots, comp["nodes"])
    assert comp["type"] == "A~2"
    assert marks == [1, 1, 1]
    assert e == BLOCKS[(7, 4)]["null_vector"]


def test_affine_null_marks_rejects_elliptic_sets():
    form = Form(7, 4)
    roots = form.initial_roots()
    with pytest.raises(ValueError):
        certificates.affine_null_marks(form, roots, [0, 1])
