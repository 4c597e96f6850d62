"""The benchmark's traced contract holds on the package.

perfbench/workloads.py names the functions its traced run wraps as
<module>.<function> under vinberg, and the wrappers each workload must
reach.  A rename, a deletion or a layer that stops being called would
otherwise surface only when the traced benchmark runs; here it fails the
suite.  perfbench is loaded by path or run as a script, and only read.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_layer_is_a_package_function():
    layers = load_workloads().LAYERS
    assert layers
    for layer in layers:
        module_name, fn_name = layer.split(".")
        module = importlib.import_module(f"vinberg.{module_name}")
        assert callable(getattr(module, fn_name, None)), layer


@pytest.mark.parametrize("workload", ["reflective", "cusp", "symmetry"])
def test_traced_pass_reaches_every_expected_layer(workload):
    bench = load_workloads()
    forms = [f"{p},{n}" for p, n in bench.WORKLOADS[workload]]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "one_pass.py"),
         "--mode", "traced", "--forms", *forms],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    for rec in out["requests"]:
        assert rec["error"] is None, rec
        assert rec["failures"] == [], rec
    layers = out["layers"]
    missed = [name for name in bench.EXPECTED_CALLED[workload]
              if layers[f"{name}.calls"] == 0]
    assert not missed
