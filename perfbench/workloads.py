"""Workload definitions and the expectations every request is checked against.

Each workload is a fixed list of corpus forms -p x0^2 + x1^2 + ... + xn^2.
The forms in a workload are chosen for the layer they stress:

- reflective: every form the package proves reflective, the published
  record plus the two disputed verdicts (11,4) and (17,3).  Verification
  of these certificates is almost all finite-volume work.
- cusp: the ideal-vertex first failures.  Both the search and its
  verification are dominated by linalg.short_vectors inside the
  quotient root-class count.
- symmetry: the infinite-symmetry first failures, the only forms that
  reach isometry.find_infinite_symmetry and the post-search cusp rescan.

Left out of every workload:

- (5,10) and (29,3) take about 150 s each; they can join once the
  single-cone finite-volume test and the integer lattice core bring
  them under 20 s.
- (17,4) takes about 17 s, 64% of it in linalg.short_vectors, which
  cusp already isolates; it can join once the integer lattice core
  brings it under 20 s.

Expected verdicts and certificate kinds come from tests/corpus.py.  The
expected root lists are frozen in expected_roots.json: they are the roots
classify_form returned for each form when the benchmark was defined, and
every request must return them again in the same order.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

WORKLOADS = {
    "reflective": [
        (5, 2), (5, 3), (5, 4), (5, 5), (5, 6), (5, 7), (5, 8),
        (7, 2), (7, 3), (11, 2), (11, 3), (11, 4),
        (13, 2), (17, 2), (17, 3), (19, 2), (23, 2),
    ],
    "cusp": [(5, 9), (7, 4), (11, 5)],
    "symmetry": [(13, 3), (19, 3), (23, 3)],
}

# The public functions the traced run wraps, as <module>.<function> under
# the vinberg package.
LAYERS = (
    "search.run_search",
    "enumeration.enumerate_batch",
    "volume.finite_volume",
    "volume.critical_submatrices",
    "volume.cone_fixed_set",
    "cones.cone_generators",
    "diagram.build_diagram",
    "linalg.psd_classify",
    "linalg.short_vectors",
    "quotient.null_quotient",
    "quotient.root_classes",
    "certificates.scan_for_cusp_obstruction",
    "certificates.ideal_vertex_certificate",
    "certificates.infinite_symmetry_certificate",
    "certificates.reflective_certificate",
    "certificates.verification_failures",
    "isometry.find_infinite_symmetry",
    "isometry.chamber_corners",
)

MODULES = tuple(dict.fromkeys(name.split(".")[0] for name in LAYERS))

_EVERY_WORKLOAD = (
    "search.run_search",
    "enumeration.enumerate_batch",
    "volume.finite_volume",
    "volume.critical_submatrices",
    "cones.cone_generators",
    "diagram.build_diagram",
    "linalg.psd_classify",
    "linalg.short_vectors",
    "quotient.null_quotient",
    "quotient.root_classes",
    "certificates.scan_for_cusp_obstruction",
    "certificates.verification_failures",
)

# Wrappers that must record at least one call on each workload.  A patch
# that silently misses its binding would otherwise report 0 s.
EXPECTED_CALLED = {
    "reflective": _EVERY_WORKLOAD + (
        "volume.cone_fixed_set",
        "certificates.reflective_certificate",
    ),
    "cusp": _EVERY_WORKLOAD + ("certificates.ideal_vertex_certificate",),
    "symmetry": _EVERY_WORKLOAD + (
        "volume.cone_fixed_set",
        "certificates.infinite_symmetry_certificate",
        "isometry.find_infinite_symmetry",
        "isometry.chamber_corners",
    ),
}

_HERE = Path(__file__).resolve().parent


def form_key(p: int, n: int) -> str:
    return f"{p},{n}"


def load_corpus(root: Path):
    """Import tests/corpus.py from the checkout without touching sys.path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_corpus", root / "tests" / "corpus.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def expected_outcomes(root: Path, forms) -> dict:
    """{form_key: (verdict, certificate kind, roots)} for the given forms."""
    corpus = load_corpus(root)
    frozen = json.loads((_HERE / "expected_roots.json").read_text())
    out = {}
    for p, n in forms:
        if (p, n) in corpus.EXPECTED_REFLECTIVE:
            verdict, kind = "reflective", "reflective"
        elif corpus.EXPECTED_FIRST_FAILURE.get(p, (None,))[0] == n:
            verdict, kind = "non_reflective", corpus.EXPECTED_FIRST_FAILURE[p][1]
        else:
            raise KeyError(f"tests/corpus.py has no expected verdict for {(p, n)}")
        out[form_key(p, n)] = (verdict, kind, frozen[form_key(p, n)])
    return out
