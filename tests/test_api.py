"""Package-wide rules on public signatures."""

import argparse
import ast
import importlib
import inspect
import pkgutil
import re
import sys
import tokenize
from collections import Counter
from pathlib import Path

import vinberg
from vinberg import cli

PACKAGE_DIRS = (Path(vinberg.__file__).parent, Path(__file__).resolve().parent.parent / "perfbench")


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


def package_name_uses(paths=None):
    """How often each identifier occurs in the code of the files paths (by
    default those of src/vinberg and perfbench), not counting the name in
    its own def or class line; names in comments and strings do not
    count."""
    if paths is None:
        paths = [path for folder in PACKAGE_DIRS for path in sorted(folder.glob("*.py"))]
    uses = Counter()
    for path in paths:
        with path.open("rb") as fh:
            previous = None
            for tok in tokenize.tokenize(fh.readline):
                if tok.type == tokenize.NAME and previous not in ("def", "class"):
                    uses[tok.string] += 1
                if tok.type not in (tokenize.NL, tokenize.COMMENT):
                    previous = tok.string
    return uses


def test_every_public_function_has_a_package_caller():
    # a public function that only tests call belongs in the tests
    uses = package_name_uses()
    uncalled = []
    for name, _fn in public_functions():
        parts = name.split(".")
        # a constructor is called through its class name
        called_as = parts[-2] if parts[-1] == "__init__" else parts[-1]
        if not uses[called_as]:
            uncalled.append(name)
    assert uncalled == []


def test_every_corpus_name_is_read_by_a_test_or_perfbench():
    # tests/corpus.py is the only transcription of the paper; a name that no
    # other test module and no perfbench module reads is dead data
    tests = Path(__file__).resolve().parent
    corpus = tests / "corpus.py"
    defined = set()
    for node in ast.parse(corpus.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert {"EXPECTED_REFLECTIVE", "expected_root_set"} <= defined
    readers = [path for path in sorted(tests.glob("*.py")) if path != corpus]
    uses = package_name_uses(readers + sorted(PACKAGE_DIRS[1].glob("*.py")))
    assert sorted(name for name in defined if not uses[name]) == []


def test_cli_docstring_lists_the_registered_commands():
    listed = re.search(r"Subcommands: ([a-z, ]+)\.", cli.__doc__).group(1)
    subcommands = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert sorted(listed.split(", ")) == sorted(subcommands.choices)


def test_the_package_imports_the_standard_library_alone():
    # pyproject.toml declares no runtime dependency
    outside = []
    for path in sorted(PACKAGE_DIRS[0].glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                (path.name, name) for name in names
                if name.split(".")[0] not in sys.stdlib_module_names | {"vinberg"}
            ]
    assert outside == []


def fraction_uses(tree) -> list[int]:
    """Lines in an AST that import the fractions module, name Fraction or
    read a .numerator or .denominator."""
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "fractions"
            or isinstance(node, ast.Name) and node.id == "Fraction"
            or isinstance(node, ast.Attribute)
            and node.attr in ("Fraction", "numerator", "denominator")
        ):
            lines.append(node.lineno)
    return lines


def test_lattice_layer_builds_no_fraction():
    # the lattice layer is integer-only: exact divisions, no rationals;
    # so are the diagram's angle test and the finite-volume walk
    package = PACKAGE_DIRS[0]
    for name in ("linalg", "cones", "quotient", "diagram", "volume"):
        tree = ast.parse((package / f"{name}.py").read_text())
        assert (name, fraction_uses(tree)) == (name, [])
    tree = ast.parse((package / "isometry.py").read_text())
    for name in ("frame_map", "vertex_walls"):
        fn = next(
            node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name
        )
        assert (name, fraction_uses(fn)) == (name, [])
    # the scan sees the Fractions the module does build elsewhere
    assert fraction_uses(tree) != []


def vinberg_imports(tree) -> list[int]:
    """Lines in an AST that import the vinberg package or a module of it,
    relative imports included."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "vinberg" for a in node.names)
        or isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "vinberg")
    ]


def vinberg_modules(tree) -> set[str]:
    """The modules of the vinberg package that an AST imports, by name:
    `from vinberg import a`, `from vinberg.a import x`, `import vinberg.a`
    and their relative forms all name a."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["vinberg" if node.level else None, node.module]))
            if module == "vinberg":
                names.update(a.name for a in node.names)
            elif module.startswith("vinberg."):
                names.add(module.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names if a.name.startswith("vinberg."))
    return names


def test_double_description_stands_alone():
    # cones reads every rank fact off its own face lattice, so it needs no
    # other module of the package
    package = PACKAGE_DIRS[0]
    assert vinberg_imports(ast.parse((package / "cones.py").read_text())) == []
    # the scan sees the package imports the other modules do make
    assert vinberg_imports(ast.parse((package / "volume.py").read_text())) != []


def test_condition_a_reads_the_diagram_alone():
    # volume decides condition (a) by cusp from the diagram's edges, so it
    # never reaches the certificates' kernel code for null vectors
    tree = ast.parse((PACKAGE_DIRS[0] / "volume.py").read_text())
    assert vinberg_modules(tree) == {"cones", "diagram"}


def test_a_certificate_is_the_one_document_read():
    # the package opens a file in cli._load alone, and only verify reads
    # one, so no input from outside but a certificate reaches the search
    file_calls = ("open", "read_text", "read_bytes", "write_text", "write_bytes")
    assert [site for name in file_calls for site in call_sites(name)] == [("cli", "_load")]
    assert call_sites("_load") == [("cli", "verify_cmd")]


def test_both_finite_volume_tests_live_in_volume():
    # the search runs finite_volume alone; the reflective verifier runs both,
    # and certificates keeps no finite-volume code of its own
    tree = ast.parse((PACKAGE_DIRS[0] / "certificates.py").read_text())
    assert "chamber_cone_closes" not in {
        node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "DiagramError" not in {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names}
    assert call_sites("chamber_cone_closes") == [("certificates", "_verify_reflective")]


def test_the_search_alone_decides():
    # run_search closes the chamber, scans the cusps and hunts for a
    # symmetry; classify only writes its verdict and certificate down
    package = PACKAGE_DIRS[0]
    assert "isometry" not in vinberg_modules(ast.parse((package / "classify.py").read_text()))
    deciders = ("find_infinite_symmetry", "reflective_certificate", "infinite_symmetry_certificate")
    callers = {name: set() for name in deciders}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in callers:
                    callers[name].add(path.stem)
    assert callers == {name: {"search"} for name in deciders}


def test_the_root_table_reads_the_family():
    # the table is a view of classify_family: only the search replays the
    # batch stream, and only the search and the verifier test the volume
    assert call_sites("finite_volume") == [
        ("certificates", "_verify_reflective"), ("search", "decide")]
    assert {module for module, _ in call_sites("replay")} == {"search"}
    assert "volume" not in vinberg_modules(ast.parse((PACKAGE_DIRS[0] / "classify.py").read_text()))


def call_sites(name: str) -> list[tuple[str, str | None]]:
    """(module, innermost enclosing function) of every call of name in the
    package, by attribute or by plain name."""
    sites = []

    def visit(node, module, scope):
        if isinstance(node, ast.FunctionDef):
            scope = node.name
        elif isinstance(node, ast.Call):
            func = node.func
            if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == name:
                sites.append((module, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(PACKAGE_DIRS[0].glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return sites


def test_one_unimodular_row_step():
    # row_hnf and snf, columns included, take every exgcd step through
    # linalg._combine_rows
    assert call_sites("exgcd") == [("linalg", "_combine_rows")]
    # the scan sees calls inside methods and nested functions
    assert ("search", "decide") in call_sites("finite_volume")


def test_no_unimodular_transform_is_inverted_by_elimination():
    # row_hnf carries W = U^-T for null_quotient's bases and class
    # coordinates, so linalg.solve, itself a row_hnf pass, serves only the
    # one column of snf's V^-1 that the glue vector reads; frame_map
    # back-substitutes on its source frame's pass, which the hunt makes
    # once per source corner
    assert call_sites("solve") == [("quotient", "orthogonal_complement_data")]
    assert call_sites("solve_hnf") == [("isometry", "frame_map"), ("linalg", "solve")]


def runs_an_elimination(name: str) -> bool:
    """Whether linalg's function name holds a loop nested in a loop."""
    tree = ast.parse((PACKAGE_DIRS[0] / "linalg.py").read_text())
    [fn] = [node for node in tree.body if getattr(node, "name", None) == name]
    loops = [node for node in ast.walk(fn) if isinstance(node, ast.For)]
    return any(isinstance(inner, ast.For) for loop in loops for inner in ast.walk(loop)
               if inner is not loop)


def test_every_integer_system_takes_the_unimodular_row_step():
    # solve reads row_hnf's pass and back-substitutes, with no elimination
    # of its own
    assert ("linalg", "solve") in call_sites("row_hnf")
    assert not runs_an_elimination("solve")


def test_one_symmetric_elimination():
    # psd_classify and integral_ldl read one Bareiss pass, and integral_ldl
    # runs no elimination of its own
    assert sorted(call_sites("_symmetric_bareiss")) == [
        ("linalg", "integral_ldl"), ("linalg", "psd_classify")]
    assert not runs_an_elimination("integral_ldl")
