"""Command-line interface: subcommands, exit codes, determinism."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import corpus
import vinberg
from vinberg import certificates, classify
from vinberg.cli import main
from vinberg.forms import Form
from vinberg.search import Budget


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def invoke(args) -> Result:
    """Run the CLI on args in this process; argparse's usage errors and
    --help end in SystemExit, whose code is the exit code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    return Result(code, stdout.getvalue(), stderr.getvalue())


def test_classify_reflective_report():
    res = invoke(["classify", "5", "2"])
    assert res.exit_code == 0
    report = json.loads(res.stdout)
    assert report["verdict"] == "reflective"
    assert report["form"] == {"p": 5, "n": 2}
    assert len(report["roots"]) == corpus.EXPECTED_P5_COUNTS[2]
    assert report["certificate"]["kind"] == "reflective"


def test_classify_nonreflective_exit_zero():
    res = invoke(["classify", "13", "3"])
    assert res.exit_code == 0
    report = json.loads(res.stdout)
    assert report["verdict"] == "non_reflective"
    assert report["certificate"]["kind"] == "infinite_symmetry"


def test_classify_undecided_exit_code():
    res = invoke(["classify", "13", "3", "--max-height", "2", "--max-roots", "6"])
    assert res.exit_code == 3
    report = json.loads(res.stdout)
    assert report["verdict"] == "undecided"
    assert "state" not in report
    assert res.stderr == "undecided: rerun with a larger --max-height or --max-roots\n"


def test_classify_output_is_byte_deterministic():
    a = invoke(["classify", "5", "3"])
    b = invoke(["classify", "5", "3"])
    assert a.exit_code == b.exit_code == 0
    assert a.stdout == b.stdout


def test_classify_emit_roots():
    res = invoke(["classify", "5", "2", "--emit", "roots"])
    assert res.exit_code == 0
    roots = [tuple(r) for r in json.loads(res.stdout)]
    assert len(roots) == len(set(roots))
    assert set(roots) == corpus.expected_root_set(Form(5, 2))


def test_classify_emit_certificate():
    res = invoke(["classify", "7", "4", "--emit", "certificate"])
    assert res.exit_code == 0
    cert = json.loads(res.stdout)
    assert cert["kind"] == "ideal_vertex_failure"


def test_classify_emit_diagram_formats():
    dot = invoke(["classify", "5", "2", "--emit", "diagram", "--format", "dot"])
    assert dot.exit_code == 0
    assert dot.stdout.startswith("graph walls {")
    tikz = invoke(["classify", "5", "2", "--emit", "diagram", "--format", "tikz"])
    assert tikz.exit_code == 0
    assert "\\draw" in tikz.stdout
    bad = invoke(["classify", "5", "2", "--emit", "diagram", "--format", "text"])
    assert bad.exit_code == 2


def test_classify_emit_table_format_validation():
    # the table has its own subcommand; classify no longer emits it
    bad = invoke(["classify", "5", "2", "--emit", "table"])
    assert bad.exit_code == 2
    bad = invoke(["classify", "5", "2", "--emit", "table", "--format", "text"])
    assert bad.exit_code == 2


def test_bad_arguments_exit_two():
    assert invoke(["classify", "4", "2"]).exit_code == 2
    assert invoke(["classify", "7", "1"]).exit_code == 2
    assert invoke(["classify", "5", "2", "--max-height", "bogus"]).exit_code == 2
    assert invoke(["family", "7", "--max-rank", "1"]).exit_code == 2
    # the search has one mode; the old option is gone
    assert invoke(["classify", "5", "2", "--check-every", "batch"]).exit_code == 2
    # family runs its ranks in order in one process; the option is gone
    assert invoke(["family", "7", "--jobs", "2"]).exit_code == 2
    # an option is spelled out: a prefix of one is no option
    assert invoke(["classify", "13", "3", "--max-h", "2", "--max-r", "6"]).exit_code == 2
    assert invoke(["classify", "5", "2", "--em", "roots"]).exit_code == 2
    assert invoke(["family", "7", "--max-ra", "3"]).exit_code == 2


@pytest.mark.parametrize("option,value", [
    ("--max-roots", "0"), ("--max-roots", "-1"), ("--max-height", "-3"), ("--max-height", "0"),
])
@pytest.mark.parametrize("command", [["classify", "5", "2"], ["family", "5"], ["table", "5", "2"]])
def test_a_nonpositive_budget_is_a_bad_argument(command, option, value):
    # such a budget stops the search before its first batch
    res = invoke(command + [option, value])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.startswith(f"Error: {option}: ")


@pytest.mark.parametrize("command,max_roots", [
    (["classify", "5", "3"], "2"), (["classify", "5", "3"], "3"), (["classify", "7", "4"], "4"),
    (["family", "5"], "1"), (["family", "5"], "2"), (["table", "5", "3"], "2"),
])
def test_a_root_budget_within_the_initial_roots_is_a_bad_argument(command, max_roots):
    # the search starts from the n initial roots, so such a budget stops
    # it before its first batch; family and table search from rank 2
    res = invoke(command + ["--max-roots", max_roots])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.startswith("Error: --max-roots: ")


def test_one_root_past_the_initial_roots_runs_a_batch():
    # the least root budget that is not a bad argument: the search runs
    # its first batches and, out of roots, is undecided
    res = invoke(["classify", "5", "3", "--max-roots", "4"])
    assert res.exit_code == 3
    assert json.loads(res.stdout)["timings"]["batches"] > 0


@pytest.mark.parametrize("command", ["classify", "family", "table"])
def test_help_shows_the_budget_defaults(command):
    res = invoke([command, "--help"])
    assert res.exit_code == 0
    # argparse wraps the help to the terminal's width
    text = " ".join(res.stdout.split())
    budget = Budget()
    assert (
        "--max-height A/B Stop before any batch of height exceeding this rational"
        f" (default: {budget.max_height})." in text
    )
    assert f"--max-roots N Stop once this many roots are accepted (default: {budget.max_roots})." in text
    max_rank = "--max-rank N Classify ranks 2 through this value (default: 10)."
    assert (max_rank in text) == (command == "family")


def test_a_json_list_is_a_malformed_document(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("[13, 3]")
    res = invoke(["verify", str(path)])
    assert res.exit_code == 2
    assert "schema_version: missing field" in res.stderr


def test_a_directory_is_no_document(tmp_path):
    res = invoke(["verify", str(tmp_path)])
    assert res.exit_code == 2
    assert res.stderr.startswith("Error: ")


def _package_env() -> dict:
    src = str(Path(vinberg.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))


def test_undecided_output_is_byte_deterministic_across_hash_seeds():
    # (53,2) stops undecided under the default budget
    outputs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "vinberg.cli", "classify", "53", "2"],
            env=dict(_package_env(), PYTHONHASHSEED=seed), capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 3
        assert json.loads(proc.stdout)["verdict"] == "undecided"
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("args", [
    ["classify", "13", "3", "--emit", "certificate"],
    ["classify", "5", "8", "--emit", "report"],
])
def test_decided_output_is_byte_deterministic_across_hash_seeds(args):
    # chamber_corners and the finite-volume report read the cone's masks;
    # their order must not follow set iteration
    outputs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "vinberg.cli", *args],
            env=dict(_package_env(), PYTHONHASHSEED=seed), capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("args", [["classify", "5", "2"], ["family", "5"]])
def test_a_consistency_error_propagates(monkeypatch, args):
    # an internal error is not a bad argument: no "Error:" line, no exit 2
    def broken(*_args, **_kwargs):
        raise vinberg.ConsistencyError("self-check failed")

    monkeypatch.setattr(classify, "run_search", broken)
    with pytest.raises(vinberg.ConsistencyError, match="self-check failed"):
        main(args)


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

    def modules_after(imports):
        return set(subprocess.run(
            [sys.executable, "-c", imports + code], env=env, capture_output=True, text=True,
            check=True,
        ).stdout.split())

    bare = modules_after("")
    for imports in ("vinberg.classify, vinberg.certificates", "vinberg.cli"):
        loaded = modules_after(f"import {imports}; ")
        assert imports.split(", ")[-1] in loaded
        assert not {"dataclasses", "inspect"} & (loaded - bare)
        # nor does any module from outside the standard library
        assert {name.split(".")[0] for name in loaded - bare} <= sys.stdlib_module_names | {"vinberg"}


def test_family_inherits_past_first_failure():
    res = invoke(["family", "7", "--max-rank", "5"])
    assert res.exit_code == 0
    reports = json.loads(res.stdout)
    assert [r["verdict"] for r in reports] == [
        "reflective", "reflective", "non_reflective", "non_reflective"
    ]
    assert reports[3]["inherited_from"] == 4
    assert reports[3]["certificate"]["kind"] == "inherited_nonreflectivity"


def test_family_and_table_exit_three_when_a_rank_is_undecided():
    family = invoke(["family", "13", "--max-rank", "3", "--max-roots", "5"])
    assert family.exit_code == 3
    assert [r["verdict"] for r in json.loads(family.stdout)] == ["undecided", "undecided"]
    table = invoke(["table", "13", "3", "--max-roots", "5"])
    assert table.exit_code == 3
    assert json.loads(table.stdout)["verdicts"] == {"2": "undecided", "3": "undecided"}


def test_table_prints_the_family_verdicts():
    # the table reads the family's reports, so the symmetry route decides
    # (13,3) for both commands
    family = invoke(["family", "13", "--max-rank", "3"])
    assert family.exit_code == 0
    table = invoke(["table", "13", "3"])
    assert table.exit_code == 0
    verdicts = json.loads(table.stdout)["verdicts"]
    assert verdicts == {str(r["form"]["n"]): r["verdict"] for r in json.loads(family.stdout)}
    assert verdicts == {"2": "reflective", "3": "non_reflective"}
    as_text = invoke(["table", "13", "3", "--format", "text"])
    assert as_text.exit_code == 0
    assert "n=3: non_reflective" in as_text.stdout


def test_table_text_shows_published_row():
    res = invoke(["table", "17", "2", "--format", "text"])
    assert res.exit_code == 0
    assert "p=17 ranks 2..2" in res.stdout
    assert "n=2: reflective" in res.stdout
    # one documented row, unreduced batch height k0^2/m
    assert "576/34" in res.stdout
    assert "24v0+85v1+51v2" in res.stdout


def test_table_json_matches_text_content():
    as_json = invoke(["table", "5", "3"])
    assert as_json.exit_code == 0
    table = json.loads(as_json.stdout)
    assert table["verdicts"] == {"2": "reflective", "3": "reflective"}
    as_text = invoke(["table", "5", "3", "--format", "text"])
    for row in table["rows"]:
        assert row["height"] in as_text.stdout


def test_diagram_command():
    # the diagram command is gone; classify --emit diagram prints the diagram
    res = invoke(["classify", "5", "2", "--emit", "diagram", "--format", "dot"])
    assert res.exit_code == 0
    assert res.stdout.startswith("graph walls {")
    undecided = invoke(["classify", "13", "3", "--emit", "diagram", "--max-height", "2"])
    assert undecided.exit_code == 3
    assert invoke(["diagram", "5", "2"]).exit_code == 2


def test_format_needs_emit_diagram():
    for emit in ("report", "roots", "certificate"):
        for fmt in ("dot", "tikz"):
            res = invoke(["classify", "5", "2", "--emit", emit, "--format", fmt])
            assert res.exit_code == 2, (emit, fmt)
            assert "--format" in res.stderr
    json_report = invoke(["classify", "5", "2", "--format", "json"])
    assert json_report.exit_code == 0


def test_certify_and_verify_round_trip(tmp_path):
    # the certify command is gone; classify --emit certificate prints the certificate
    cert_file = tmp_path / "cert.json"
    for p, n in ((5, 2), (7, 4), (13, 3)):
        emitted = invoke(["classify", str(p), str(n), "--emit", "certificate"])
        assert emitted.exit_code == 0
        cert_file.write_text(emitted.stdout)
        verified = invoke(["verify", str(cert_file)])
        assert verified.exit_code == 0
        assert verified.stdout == "valid\n"
    assert invoke(["certify", "5", "2"]).exit_code == 2


def test_verify_invalid_certificate(tmp_path):
    emitted = invoke(["classify", "5", "2", "--emit", "certificate"])
    cert = json.loads(emitted.stdout)
    cert["payload"]["roots"] = cert["payload"]["roots"][:-1]
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(cert))
    res = invoke(["verify", str(cert_file)])
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


def test_verify_malformed_documents(tmp_path, report):
    cert_file = tmp_path / "cert.json"
    # broken JSON, bytes that are not UTF-8, and nesting too deep to parse
    for content in (
        b"{not json",
        b'{"schema_version": 3}\xff',
        '{"note": "caf\u00e9"}'.encode("latin-1"),
        _inherited_chain_text(report(7, 4)["certificate"], 1200).encode(),
    ):
        cert_file.write_bytes(content)
        res = invoke(["verify", str(cert_file)])
        assert res.exit_code == 2
        assert res.stderr.startswith("malformed: not JSON:")
    cert_file.write_text("{}")
    res = invoke(["verify", str(cert_file)])
    assert res.exit_code == 2
    missing = invoke(["verify", str(tmp_path / "absent.json")])
    assert missing.exit_code == 2
    cert = copy.deepcopy(report(7, 4)["certificate"])
    cert["payload"]["null_vector"] = None
    cert_file.write_text(json.dumps(cert))
    res = invoke(["verify", str(cert_file)])
    assert res.exit_code == 2
    assert "malformed: payload.null_vector" in res.stderr
    cert = copy.deepcopy(report(13, 3)["certificate"])
    cert["form"]["p"] = "13"
    cert_file.write_text(json.dumps(cert))
    res = invoke(["verify", str(cert_file)])
    assert res.exit_code == 2
    assert res.stderr == "malformed: form.p: not an integer\n"
