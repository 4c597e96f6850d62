"""Verdict and verification benchmark for the vinberg package.

Closed loop, one client, one process at a time: each request, one form,
starts only after the previous one returns.  Every measured pass runs in a
fresh interpreter started by this script, as a command-line user's run
would, so nothing one pass computes can be reused by the next.

    python3 perfbench/run.py --workload reflective --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics, as medians over the passes that
fit in --seconds:

    verdict_s    seconds of classify_form over the workload's forms
    verify_s     seconds of verification_failures on their certificates
    setup_s      seconds from interpreter start to the first request
    peak_rss_mb  peak resident memory of the process that ran a pass

The three times are wall seconds scaled to the reference machine speed
that probe.py measures while they run, because other tenants of a shared
machine were seen to halve its speed for minutes at a time.  The wall
seconds themselves are printed per form and kept in the run record.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones: calls, inclusive and self seconds per wrapped
function, self seconds per module within each phase (verdict, verify),
work counters, and trace.overhead_s, the traced minus the untraced
verdict_s.  It fails if a wrapper the workload must reach records no
call, or if a count differs between two traced passes.

Every request is checked: its verdict and certificate kind against
tests/corpus.py, its roots against perfbench/expected_roots.json, and its
certificate must verify.  A request that raises counts as failed.  The
last stdout line is the JSON result.  Each run writes its record, and a
traced run the spans of its last traced pass, under .perfbench/ in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from workloads import EXPECTED_CALLED, WORKLOADS, expected_outcomes, form_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 5
# passes a run makes even when one pass outlasts --seconds
MIN_PASSES = 2
# a run must end within 180 s: no pass starts after LAST_START_S, and a
# pass still running at KILL_AFTER_S is stopped and the run fails
LAST_START_S = 120.0
KILL_AFTER_S = 170.0


class PassFailed(Exception):
    """A pass's interpreter crashed or ran out of time."""


def _spawn(mode, forms, kill_at, spans=None) -> dict:
    """Run one_pass.py in a fresh interpreter and return its JSON result.

    The interpreter is killed if it is still running at monotonic time kill_at.
    """
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--mode", mode, "--forms", *forms]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(kill_at - started, 0.1),
        )
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{mode} pass still running {KILL_AFTER_S:.0f} s into the run")
    if proc.returncode != 0:
        raise PassFailed(f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_wall_s"] = result["ready"] - started
    result["setup_s"] = (
        (result["setup_wall_s"] - result["setup_probe_s"]) * result["setup_speed"]
    )
    return result


def _problems(rec, expected) -> list[str]:
    """Why one request's outcome is wrong; empty if it is right."""
    if rec["error"]:
        return [rec["error"]]
    verdict, kind, roots = expected[rec["form"]]
    out = []
    if rec["verdict"] != verdict:
        out.append(f"verdict {rec['verdict']!r}, expected {verdict!r}")
    if rec["kind"] != kind:
        out.append(f"certificate kind {rec['kind']!r}, expected {kind!r}")
    if rec["roots"] != roots:
        out.append("roots differ from expected_roots.json")
    if rec["failures"]:
        out.append("certificate fails verification: " + "; ".join(rec["failures"]))
    return out


def _pass_times(p, suffix="_s") -> tuple[float, float]:
    """(verdict, verify) seconds of one pass: wall with suffix "_wall_s",
    else at reference speed."""
    return (sum(r["verdict" + suffix] for r in p["requests"]),
            sum(r["verify" + suffix] for r in p["requests"]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in (ROOT / "src" / "vinberg" / "__init__.py", ROOT / "tests" / "corpus.py"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} not found; run from a "
                  "checkout of the vinberg repository", file=sys.stderr)
            return 2

    # the seed fixes the order in which a pass sends the workload's forms
    forms = [form_key(p, n) for p, n in WORKLOADS[args.workload]]
    random.Random(args.seed).shuffle(forms)
    expected = expected_outcomes(ROOT, WORKLOADS[args.workload])
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    start = time.monotonic()
    deadline = start + min(args.seconds, LAST_START_S)
    kill_at = start + KILL_AFTER_S

    setups, plain, traced = [], [], []
    try:
        if args.trace == 0:
            setups = [_spawn("setup", [], kill_at) for _ in range(SETUP_SAMPLES)]
            while len(plain) < MIN_PASSES or time.monotonic() < deadline:
                plain.append(_spawn("plain", forms, kill_at))
        else:
            while not traced or time.monotonic() < deadline:
                plain.append(_spawn("plain", forms, kill_at))
                # each traced pass overwrites the spans of the one before
                traced.append(_spawn("traced", forms, kill_at, OUT / f"spans-{tag}.jsonl"))
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    env = plain[0]["env"]
    print("environment: " + json.dumps(env))
    print(f"workload {args.workload}, seed {args.seed}, order {' '.join(forms)}; "
          f"{len(plain)} untraced and {len(traced)} traced passes")

    attempted = failed = 0
    for p in plain + traced:
        for rec in p["requests"]:
            attempted += 1
            problems = _problems(rec, expected)
            if problems:
                failed += 1
                print(f"FAILED ({rec['form']}): " + "; ".join(problems))
    print("per form, median over untraced passes, wall (at reference speed):")
    for i, key in enumerate(forms):
        line = f"  ({key})"
        for phase in ("verdict", "verify"):
            wall = median([p["requests"][i][f"{phase}_wall_s"] for p in plain])
            ref = median([p["requests"][i][f"{phase}_s"] for p in plain])
            line += f"  {phase} {wall:7.3f} s ({ref:7.3f})"
        print(line)
    print(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} requests)")
    correct = failed == 0

    verdicts = [_pass_times(p)[0] for p in plain]
    if args.trace == 0:
        values = {
            "verdict_s": (median(verdicts), "s"),
            "verify_s": (median([_pass_times(p)[1] for p in plain]), "s"),
            "setup_s": (median([s["setup_s"] for s in setups + plain]), "s"),
            "peak_rss_mb": (median([p["peak_rss_mb"] for p in plain]), "MB"),
        }
    else:
        first = traced[0]["layers"]
        for other in traced[1:]:
            for name, value in other["layers"].items():
                if not name.endswith("_s") and value != first[name]:
                    correct = False
                    print(f"FAILED: count {name} differs between traced passes: "
                          f"{first[name]} vs {value}")
        for layer in EXPECTED_CALLED[args.workload]:
            if first[f"{layer}.calls"] == 0:
                correct = False
                print(f"FAILED: wrapper {layer} recorded no call on {args.workload}")
        values = {}
        for name, value in first.items():
            if name.endswith("_s"):
                values[name] = (median([t["layers"][name] for t in traced]), "s")
            elif name.endswith(("_ratio", ".per_null_vector")):
                values[name] = (value, "ratio")
            else:
                values[name] = (value, "count")
        values["trace.overhead_s"] = (
            median([_pass_times(t)[0] for t in traced]) - median(verdicts), "s"
        )

    metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "order": forms, "environment": env,
        "passes": [
            {"kind": kind, "setup_s": p["setup_s"], "setup_wall_s": p["setup_wall_s"],
             "peak_rss_mb": p["peak_rss_mb"],
             "verdict_s": _pass_times(p)[0], "verify_s": _pass_times(p)[1],
             "wall_s": _pass_times(p, "_wall_s"), "probe_s": p["probe_s"],
             "forms": {r["form"]: [r[k] for k in ("verdict_wall_s", "verify_wall_s",
                                                  "verdict_s", "verify_s")]
                       for r in p["requests"]}}
            for kind, group in (("untraced", plain), ("traced", traced)) for p in group
        ],
        "setup_samples_s": [(s["setup_s"], s["setup_wall_s"]) for s in setups],
        "metrics": metrics,
    }
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
