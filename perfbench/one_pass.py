"""One measured pass over a list of forms, in a fresh interpreter.

Each request is what a user and a referee wait for: classify_form(p, n)
with the default budget and verify=True, then verification_failures on
the certificate it returned.  The pass prints one JSON object on its last
stdout line: the monotonic time at which set-up ended, the environment,
each request's outcome, its wall times and its times at reference speed
(see probe.py), peak memory and, when traced, the per-layer summary in
reference seconds.  run.py starts this script; by hand:

    PYTHONPATH=src python3 perfbench/one_pass.py --mode plain --forms 13,3 19,3
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from contextlib import nullcontext
from time import perf_counter

from probe import Sampler, speed

PHASES = ("verdict", "verify")


def _notes():
    """What each wrapper keeps from a call, for the work counters."""
    return {
        "enumeration.enumerate_batch": lambda args, result: len(result),
        "volume.finite_volume": lambda args, result: bool(result["finite"]),
        "certificates.scan_for_cusp_obstruction": lambda args, result: result is not None,
        "quotient.root_classes": lambda args, result: [args[0].p, args[0].n, list(args[1].e)],
        "linalg.short_vectors": lambda args, result: len(result),
    }


def _counters(tracer, requests) -> dict:
    """Work counters and useful-work ratios, from spans and returned roots."""
    from spans import NAME, NOTE, PARENT

    spans = tracer.spans

    def notes(layer):
        return [s[NOTE] for s in spans if s[NAME] == layer]

    # batches of the search that classify_form itself runs, not of the
    # replays inside certificate verification
    batches = [
        s[NOTE] for s in spans
        if s[NAME] == "enumeration.enumerate_batch"
        and spans[s[PARENT]][NAME] == "search.run_search"
        and spans[spans[s[PARENT]][PARENT]][NAME] == "verdict"
    ]
    candidates = sum(batches)
    accepted = sum(
        len(r["roots"]) - int(r["form"].split(",")[1])
        for r in requests if r["roots"] is not None
    )
    volume = notes("volume.finite_volume")
    scans = notes("certificates.scan_for_cusp_obstruction")
    classes = notes("quotient.root_classes")
    null_vectors = {json.dumps(c) for c in classes}
    return {
        "search.batches": len(batches),
        "search.candidates": candidates,
        "search.accept_ratio": accepted / candidates if candidates else 0.0,
        "volume.finite_volume.useful_ratio": sum(volume) / len(volume) if volume else 0.0,
        "certificates.scan_for_cusp_obstruction.hit_ratio": sum(scans) / len(scans) if scans else 0.0,
        "quotient.root_classes.per_null_vector": len(classes) / len(null_vectors) if classes else 0.0,
        "linalg.short_vectors.vectors": sum(notes("linalg.short_vectors")),
    }


def _request(classify, certificates, tracer, sampler, key) -> dict:
    """One request, between two probe samples and with one after its
    verdict.  *_wall_s are wall seconds, *_s seconds at reference speed."""
    p, n = (int(x) for x in key.split(","))
    rec = {"form": key, "verdict": None, "kind": None, "roots": None,
           "failures": None, "error": None}
    if tracer is None:
        span = lambda name: nullcontext()  # noqa: E731
    else:
        tracer.request = key
        span = tracer.span
    marks = [perf_counter()]
    try:
        with span("verdict"):
            report = classify.classify_form(p, n)
        marks.append(perf_counter())
        sampler.sample()
        rec["verdict"] = report["verdict"]
        rec["roots"] = report["roots"]
        rec["kind"] = (report["certificate"] or {}).get("kind")
        marks.append(perf_counter())
        with span("verify"):
            rec["failures"] = certificates.verification_failures(report["certificate"])
    except Exception as exc:  # a failed request is counted, the pass goes on
        rec["error"] = f"{type(exc).__name__}: {exc}"
    # a phase cut short by an exception, and any phase after it, ends now
    marks += [perf_counter()] * (4 - len(marks))
    sampler.sample()
    for phase, start, end in zip(PHASES, marks[0::2], marks[1::2]):
        rec[f"{phase}_wall_s"] = end - start
        rec[f"{phase}_s"] = sampler.scaled(start, end)
    return rec


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--forms", nargs="*", default=[])
    parser.add_argument("--spans", help="file for the traced pass's spans")
    args = parser.parse_args()

    # the sampler runs from before the imports, so that set-up time too
    # can be scaled to reference speed
    sampler = Sampler()
    sampler.sample()
    sampler.start()
    from vinberg import certificates, classify
    from vinberg.enumeration import kernel_backend

    env = {
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "kernel_backend": kernel_backend(),
        "sympy_imported": "sympy" in sys.modules,
    }
    tracer = None
    if args.mode == "traced":
        from spans import Tracer
        from workloads import LAYERS, MODULES

        tracer = Tracer()
        env["patched_bindings"] = tracer.install(LAYERS, _notes())
    sampler.sample()
    out = {
        "ready": time.monotonic(),
        "setup_probe_s": sum(sampler.seconds),
        "setup_speed": speed(sampler.seconds),
        "env": env,
    }
    if args.mode != "setup":
        out["requests"] = [
            _request(classify, certificates, tracer, sampler, key) for key in args.forms
        ]
        out["probe_s"] = sampler.seconds
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sampler.stop()
    if tracer is not None:
        # span durations are scaled by their request's overall speed factor;
        # they include the probe samples taken inside them, under 1%
        factor = {
            r["form"]: (r["verdict_s"] + r["verify_s"])
            / (r["verdict_wall_s"] + r["verify_wall_s"])
            for r in out["requests"]
        }
        out["layers"] = tracer.summary(LAYERS, PHASES, MODULES, factor)
        out["layers"].update(_counters(tracer, out["requests"]))
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
