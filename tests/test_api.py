"""Package-wide rules on public signatures."""

import importlib
import inspect
import pkgutil

import vinberg


def public_functions():
    """(name, function) for every public function and method defined in a
    vinberg module, constructors included."""
    for info in pkgutil.iter_modules(vinberg.__path__):
        module = importlib.import_module(f"vinberg.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for attr, fn in vars(obj).items():
                    if inspect.isfunction(fn) and (attr == "__init__" or not attr.startswith("_")):
                        yield f"{info.name}.{name}.{attr}", fn


def test_no_chamber_parameter_has_a_default():
    # a chamber reader takes the caller's grown volume.ChamberDiagram; a
    # default would let it build one behind the caller
    readers = {}
    for name, fn in public_functions():
        param = inspect.signature(fn).parameters.get("chamber")
        if param is not None:
            readers[name] = param.default
    assert "volume.finite_volume" in readers
    assert [name for name, default in readers.items() if default is not inspect.Parameter.empty] == []
