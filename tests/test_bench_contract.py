"""The benchmark's wrapped layers still exist in the package.

perfbench/workloads.py names the functions its traced run wraps as
<module>.<function> under vinberg.  A rename or deletion would otherwise
surface only when the traced benchmark runs; here it fails the suite.
The file is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


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
