"""Command-line interface: subcommands, exit codes, determinism."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import corpus
import vinberg
from vinberg import certificates
from vinberg.cli import main
from vinberg.forms import Form


@pytest.fixture()
def runner():
    return CliRunner()


def test_classify_reflective_report(runner):
    res = runner.invoke(main, ["classify", "5", "2"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["verdict"] == "reflective"
    assert report["form"] == {"p": 5, "n": 2}
    assert len(report["roots"]) == corpus.EXPECTED_P5_COUNTS[2]
    assert report["certificate"]["kind"] == "reflective"


def test_classify_nonreflective_exit_zero(runner):
    res = runner.invoke(main, ["classify", "13", "3"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["verdict"] == "non_reflective"
    assert report["certificate"]["kind"] == "infinite_symmetry"


def test_classify_undecided_exit_code(runner):
    res = runner.invoke(
        main, ["classify", "13", "3", "--max-height", "2", "--max-roots", "6"]
    )
    assert res.exit_code == 3
    report = json.loads(res.output)
    assert report["verdict"] == "undecided"
    assert "state" in report


def test_classify_output_is_byte_deterministic(runner):
    a = runner.invoke(main, ["classify", "5", "3"])
    b = runner.invoke(main, ["classify", "5", "3"])
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output


def test_classify_emit_roots(runner):
    res = runner.invoke(main, ["classify", "5", "2", "--emit", "roots"])
    assert res.exit_code == 0
    roots = [tuple(r) for r in json.loads(res.output)]
    assert len(roots) == len(set(roots))
    assert set(roots) == corpus.expected_root_set(Form(5, 2))


def test_classify_emit_certificate(runner):
    res = runner.invoke(main, ["classify", "7", "4", "--emit", "certificate"])
    assert res.exit_code == 0
    cert = json.loads(res.output)
    assert cert["kind"] == "ideal_vertex_failure"


def test_classify_emit_diagram_formats(runner):
    dot = runner.invoke(main, ["classify", "5", "2", "--emit", "diagram", "--format", "dot"])
    assert dot.exit_code == 0
    assert dot.output.startswith("graph walls {")
    tikz = runner.invoke(main, ["classify", "5", "2", "--emit", "diagram", "--format", "tikz"])
    assert tikz.exit_code == 0
    assert "\\draw" in tikz.output
    bad = runner.invoke(main, ["classify", "5", "2", "--emit", "diagram", "--format", "text"])
    assert bad.exit_code == 2


def test_classify_emit_table_format_validation(runner):
    # the table has its own subcommand; classify no longer emits it
    bad = runner.invoke(main, ["classify", "5", "2", "--emit", "table"])
    assert bad.exit_code == 2
    bad = runner.invoke(main, ["classify", "5", "2", "--emit", "table", "--format", "text"])
    assert bad.exit_code == 2


def test_bad_arguments_exit_two(runner):
    assert runner.invoke(main, ["classify", "4", "2"]).exit_code == 2
    assert runner.invoke(main, ["classify", "7", "1"]).exit_code == 2
    assert runner.invoke(
        main, ["classify", "5", "2", "--max-height", "bogus"]
    ).exit_code == 2
    assert runner.invoke(main, ["family", "7", "--max-rank", "1"]).exit_code == 2
    # the search has one mode; the old option is gone
    assert runner.invoke(
        main, ["classify", "5", "2", "--check-every", "batch"]
    ).exit_code == 2
    # family runs its ranks in order in one process; the option is gone
    assert runner.invoke(main, ["family", "7", "--jobs", "2"]).exit_code == 2


def test_resume_round_trip(runner, tmp_path):
    state_file = str(tmp_path / "state.json")
    first = runner.invoke(
        main, ["classify", "13", "2", "--max-height", "2", "--resume", state_file]
    )
    assert first.exit_code == 3
    saved = json.loads((tmp_path / "state.json").read_text())
    assert saved["form"] == {"p": 13, "n": 2}

    resumed = runner.invoke(main, ["classify", "13", "2", "--resume", state_file])
    assert resumed.exit_code == 0
    direct = runner.invoke(main, ["classify", "13", "2"])
    rep_resumed = json.loads(resumed.output)
    rep_direct = json.loads(direct.output)
    assert rep_resumed["verdict"] == rep_direct["verdict"] == "reflective"
    assert rep_resumed["roots"] == rep_direct["roots"]
    assert rep_resumed["certificate"] == rep_direct["certificate"]


def test_resume_from_final_reflective_state(runner, tmp_path, search):
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps(search(7, 3).state.to_json()))
    resumed = runner.invoke(main, ["classify", "7", "3", "--resume", str(state_file)])
    assert resumed.exit_code == 0
    direct = runner.invoke(main, ["classify", "7", "3"])
    rep_resumed = json.loads(resumed.output)
    rep_direct = json.loads(direct.output)
    assert rep_resumed["verdict"] == rep_direct["verdict"] == "reflective"
    assert rep_resumed["certificate"] == rep_direct["certificate"]


def test_resume_rejects_mismatched_state(runner, tmp_path):
    state_file = str(tmp_path / "state.json")
    first = runner.invoke(
        main, ["classify", "13", "2", "--max-height", "2", "--resume", state_file]
    )
    assert first.exit_code == 3
    other = runner.invoke(main, ["classify", "13", "3", "--resume", state_file])
    assert other.exit_code == 2
    (tmp_path / "state.json").write_text("garbage")
    bad = runner.invoke(main, ["classify", "13", "2", "--resume", state_file])
    assert bad.exit_code == 2


def test_resume_rejects_tampered_state(runner, tmp_path, search):
    state_file = tmp_path / "state.json"
    doc = search(7, 3).state.to_json()
    doc["accepted"][3] = [2, 5, 2, 1]
    state_file.write_text(json.dumps(doc))
    res = runner.invoke(main, ["classify", "7", "3", "--resume", str(state_file)])
    assert res.exit_code == 2
    assert "accepted" in res.output


def test_resume_rejects_forged_undecided_state(runner, tmp_path, forged_13_3_state):
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps(forged_13_3_state))
    before = state_file.read_text()
    res = runner.invoke(
        main, ["classify", "13", "3", "--max-roots", "8", "--resume", str(state_file)]
    )
    assert res.exit_code == 2
    assert "accepted" in res.output
    assert state_file.read_text() == before


def test_resume_rejects_an_edited_candidate_count(runner, tmp_path, state_13_3):
    state_file = tmp_path / "state.json"
    state_13_3["counters"]["candidates"] += 1000
    state_file.write_text(json.dumps(state_13_3))
    res = runner.invoke(main, ["classify", "13", "3", "--resume", str(state_file)])
    assert res.exit_code == 2
    assert "Error: --resume: counters.candidates: " in res.output


@pytest.mark.parametrize(
    "counters", [{}, {"batches": "x"}, {"batches": 999}, {"accepted": 7}]
)
def test_resume_rejects_malformed_counters(runner, tmp_path, search, counters):
    state_file = tmp_path / "state.json"
    doc = search(13, 3).state.to_json()
    doc["counters"] = dict(doc["counters"], **counters) if counters else counters
    state_file.write_text(json.dumps(doc))
    res = runner.invoke(
        main, ["classify", "13", "3", "--max-roots", "12", "--resume", str(state_file)]
    )
    assert res.exit_code == 2
    assert "counters" in res.output


@pytest.mark.parametrize(
    "field,tamper",
    [
        ("accepted[0]", lambda doc: doc.update(accepted=[[float(x) for x in r] for r in doc["accepted"]])),
        ("accepted", lambda doc: doc["accepted"][4].pop()),
        ("form.p", lambda doc: doc["form"].update(p="13")),
        ("form.p", lambda doc: doc["form"].pop("p")),
        ("form", lambda doc: doc.update(form=[13, 3])),
    ],
    ids=["float-rows", "short-row", "string-p", "missing-p", "form-list"],
)
def test_resume_rejects_mistyped_state(runner, tmp_path, search, field, tamper):
    state_file = tmp_path / "state.json"
    doc = search(13, 3).state.to_json()
    tamper(doc)
    state_file.write_text(json.dumps(doc))
    res = runner.invoke(
        main, ["classify", "13", "3", "--max-roots", "12", "--resume", str(state_file)]
    )
    assert res.exit_code == 2
    assert f"Error: --resume: {field}:" in res.output


@pytest.mark.parametrize("command", [["verify"], ["classify", "13", "3", "--resume"]])
def test_a_json_list_is_a_malformed_document(runner, tmp_path, command):
    path = tmp_path / "doc.json"
    path.write_text("[13, 3]")
    res = runner.invoke(main, command + [str(path)])
    assert res.exit_code == 2
    assert "schema_version: missing field" in res.output


def _package_env() -> dict:
    src = str(Path(vinberg.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))


def test_resume_rejects_a_cursor_past_the_budget(tmp_path, search):
    # the final (7,3) state with a forged cursor: a closed chamber accepts
    # nothing more, so only the budget's height bounds the cursor replay.
    # A subprocess with a timeout turns a hang into a failure.
    state_file = tmp_path / "state.json"
    doc = search(7, 3).state.to_json()
    doc["batches_done"] = doc["counters"]["batches"] = 10**7
    state_file.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "vinberg.cli", "classify", "7", "3",
         "--resume", str(state_file)],
        env=_package_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "accepted" in proc.stderr


def test_runtime_imports_leave_sympy_unloaded():
    env = _package_env()
    code = (
        "import sys, vinberg.cli, vinberg.classify, vinberg.certificates; "
        "print('sympy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_library_imports_add_no_code_introspection_modules():
    # dataclasses brings in inspect (and ast, dis, tokenize) at import
    # time; compared with a bare interpreter, so that site hooks do not count
    env = _package_env()
    code = "import sys; print(' '.join(sorted(sys.modules)))"
    lib = "import vinberg.classify, vinberg.certificates; " + code
    bare, loaded = (
        set(subprocess.run(
            [sys.executable, "-c", c], env=env, capture_output=True, text=True, check=True
        ).stdout.split())
        for c in (code, lib)
    )
    assert "vinberg.certificates" in loaded
    assert not {"dataclasses", "inspect"} & (loaded - bare)


def test_family_inherits_past_first_failure(runner):
    res = runner.invoke(main, ["family", "7", "--max-rank", "5"])
    assert res.exit_code == 0
    reports = json.loads(res.output)
    assert [r["verdict"] for r in reports] == [
        "reflective", "reflective", "non_reflective", "non_reflective"
    ]
    assert reports[3]["inherited_from"] == 4
    assert reports[3]["certificate"]["kind"] == "inherited_nonreflectivity"


def test_family_and_table_exit_three_when_a_rank_is_undecided(runner):
    family = runner.invoke(main, ["family", "13", "--max-rank", "3", "--max-roots", "5"])
    assert family.exit_code == 3
    assert [r["verdict"] for r in json.loads(family.output)] == ["undecided", "undecided"]
    table = runner.invoke(main, ["table", "13", "3", "--max-roots", "5"])
    assert table.exit_code == 3
    assert json.loads(table.output)["verdicts"] == {"2": "undecided", "3": "undecided"}


def test_table_prints_the_family_verdicts(runner):
    # the table reads the family's reports, so the symmetry route decides
    # (13,3) for both commands
    family = runner.invoke(main, ["family", "13", "--max-rank", "3"])
    assert family.exit_code == 0
    table = runner.invoke(main, ["table", "13", "3"])
    assert table.exit_code == 0
    verdicts = json.loads(table.output)["verdicts"]
    assert verdicts == {str(r["form"]["n"]): r["verdict"] for r in json.loads(family.output)}
    assert verdicts == {"2": "reflective", "3": "non_reflective"}
    as_text = runner.invoke(main, ["table", "13", "3", "--format", "text"])
    assert as_text.exit_code == 0
    assert "n=3: non_reflective" in as_text.output


def test_table_text_shows_published_row(runner):
    res = runner.invoke(main, ["table", "17", "2", "--format", "text"])
    assert res.exit_code == 0
    assert "p=17 ranks 2..2" in res.output
    assert "n=2: reflective" in res.output
    # one documented row, unreduced batch height k0^2/m
    assert "576/34" in res.output
    assert "24v0+85v1+51v2" in res.output


def test_table_json_matches_text_content(runner):
    as_json = runner.invoke(main, ["table", "5", "3"])
    assert as_json.exit_code == 0
    table = json.loads(as_json.output)
    assert table["verdicts"] == {"2": "reflective", "3": "reflective"}
    as_text = runner.invoke(main, ["table", "5", "3", "--format", "text"])
    for row in table["rows"]:
        assert row["height"] in as_text.output


def test_diagram_command(runner):
    # the diagram command is gone; classify --emit diagram prints the diagram
    res = runner.invoke(main, ["classify", "5", "2", "--emit", "diagram", "--format", "dot"])
    assert res.exit_code == 0
    assert res.output.startswith("graph walls {")
    undecided = runner.invoke(
        main, ["classify", "13", "3", "--emit", "diagram", "--max-height", "2"])
    assert undecided.exit_code == 3
    assert runner.invoke(main, ["diagram", "5", "2"]).exit_code == 2


def test_format_needs_emit_diagram(runner):
    for emit in ("report", "roots", "certificate"):
        for fmt in ("dot", "tikz"):
            res = runner.invoke(main, ["classify", "5", "2", "--emit", emit, "--format", fmt])
            assert res.exit_code == 2, (emit, fmt)
            assert "--format" in res.output
    json_report = runner.invoke(main, ["classify", "5", "2", "--format", "json"])
    assert json_report.exit_code == 0


def test_certify_and_verify_round_trip(runner, tmp_path):
    # the certify command is gone; classify --emit certificate prints the certificate
    cert_file = tmp_path / "cert.json"
    for p, n in ((5, 2), (7, 4), (13, 3)):
        emitted = runner.invoke(main, ["classify", str(p), str(n), "--emit", "certificate"])
        assert emitted.exit_code == 0
        cert_file.write_text(emitted.output)
        verified = runner.invoke(main, ["verify", str(cert_file)])
        assert verified.exit_code == 0
        assert verified.output == "valid\n"
    assert runner.invoke(main, ["certify", "5", "2"]).exit_code == 2


def test_verify_invalid_certificate(runner, tmp_path):
    emitted = runner.invoke(main, ["classify", "5", "2", "--emit", "certificate"])
    cert = json.loads(emitted.output)
    cert["payload"]["roots"] = cert["payload"]["roots"][:-1]
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(cert))
    res = runner.invoke(main, ["verify", str(cert_file)])
    assert res.exit_code == 1
    assert "invalid:" in res.stderr


def _inherited_chain_text(base, links) -> str:
    """base wrapped in links inherited certificates, one rank each, as
    JSON text nested by string, so that no encoder limits its depth."""
    text = json.dumps(base)
    for n in range(base["form"]["n"] + 1, base["form"]["n"] + links + 1):
        link = certificates.inherited_certificate(base, n)
        link["payload"]["base"] = None
        text = json.dumps(link).replace('"base": null', '"base": ' + text)
    return text


def test_verify_malformed_documents(runner, tmp_path, report):
    cert_file = tmp_path / "cert.json"
    # broken JSON, bytes that are not UTF-8, and nesting too deep to parse
    for content in (
        b"{not json",
        b'{"schema_version": 3}\xff',
        '{"note": "caf\u00e9"}'.encode("latin-1"),
        _inherited_chain_text(report(7, 4)["certificate"], 1200).encode(),
    ):
        cert_file.write_bytes(content)
        res = runner.invoke(main, ["verify", str(cert_file)])
        assert res.exit_code == 2
        assert res.stderr.startswith("malformed: not JSON:")
    cert_file.write_text("{}")
    res = runner.invoke(main, ["verify", str(cert_file)])
    assert res.exit_code == 2
    missing = runner.invoke(main, ["verify", str(tmp_path / "absent.json")])
    assert missing.exit_code == 2
    cert = copy.deepcopy(report(7, 4)["certificate"])
    cert["payload"]["null_vector"] = None
    cert_file.write_text(json.dumps(cert))
    res = runner.invoke(main, ["verify", str(cert_file)])
    assert res.exit_code == 2
    assert "malformed: payload.null_vector" in res.stderr
    cert = copy.deepcopy(report(13, 3)["certificate"])
    cert["form"]["p"] = "13"
    cert_file.write_text(json.dumps(cert))
    res = runner.invoke(main, ["verify", str(cert_file)])
    assert res.exit_code == 2
    assert res.stderr == "malformed: form.p: not an integer\n"
