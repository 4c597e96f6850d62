"""Published reference values for the forms treated in the literature.

Everything in this module is transcribed data, kept separate from computed
results so that certificates can carry the published figures alongside the
values this package derives independently.  Where a printed value fails a
mechanical check (orthogonality, norm, rank count) the original is kept
verbatim and the corrected value is stored next to it with a note.

Vectors are coordinate tuples in the standard basis of the form
-p x0^2 + x1^2 + ... + xn^2.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

Vector = Tuple[int, ...]


# Non-reflectivity data blocks: for each form the published argument names a
# null vector e spanning an affine subdiagram, a vector generating the rank-1
# complement of e-perp inside the root sublattice, and (where the inclusion
# is proper) a glue vector witnessing the index.
NONREFLECTIVITY_BLOCKS: Dict[Tuple[int, int], Dict[str, Any]] = {
    (5, 9): {
        "component_types": ["D~7"],
        "null_vector": (2, 3, 2, 1, 1, 1, 1, 1, 1, 1),
        # printed as v0 - 5 v2, which is not orthogonal to the null vector;
        # the sign is a misprint, v0 + 5 v2 has the stated norm 20 and is
        # orthogonal as claimed
        "complement_vector_printed": (1, 0, -5, 0, 0, 0, 0, 0, 0, 0),
        "complement_vector": (1, 0, 5, 0, 0, 0, 0, 0, 0, 0),
        "complement_norm": 20,
        "glue_vector": (0, 0, 1, -2, 0, 0, 0, 0, 0, 0),
        "glue_order": None,
        "root_sublattice_index": 4,
    },
    (7, 4): {
        "component_types": ["A~2"],
        "null_vector": (1, 2, 1, 1, 1),
        "complement_vector": (2, 7, 0, 0, 0),
        "complement_norm": 21,
        "glue_vector": (0, 1, -2, 0, 0),
        "glue_order": 3,
        "root_sublattice_index": None,
    },
    (11, 4): {
        "component_types": ["A~1", "A~1"],
        "null_vector": (1, 3, 1, 1, 0),
        "complement_vector": (5, 11, 11, 11, 0),
        "complement_norm": 88,
        "glue_vector": (0, 1, -3, 0, 0),
        "glue_order": 4,
        "root_sublattice_index": None,
    },
    (13, 3): {
        "component_types": ["A~1"],
        "null_vector": (1, 3, 2, 0),
        "complement_vector": (3, 13, 0, 0),
        "complement_norm": 52,
        "glue_vector": (0, 2, -3, 0),
        "glue_order": 2,
        "root_sublattice_index": None,
    },
    (17, 3): {
        "component_types": ["A~1"],
        "null_vector": (1, 3, 2, 2),
        "complement_vector": (3, 17, 0, 0),
        "complement_norm": 136,
        "glue_vector": (0, 2, -3, 0),
        "glue_order": 4,
        "root_sublattice_index": None,
    },
    (19, 3): {
        "component_types": ["A~1"],
        "null_vector": (1, 3, 3, 1),
        "complement_vector": (3, 19, 0, 0),
        "complement_norm": 190,
        "glue_vector": None,
        "glue_order": None,
        "root_sublattice_index": None,
    },
}


# Published polygon symbols for the rank-2 forms: sequence of (norm, label)
# around the fundamental polygon, with label m meaning interior angle pi/m
# and None an ideal vertex, plus the stated rotational symmetry order.
# For p=23 the printed symbol ends the half-period on 4_3, a vertex angle
# incompatible with the printed norms there; the computed symbol has 2_3.
POLYGONS: Dict[int, Dict[str, Any]] = {
    13: {"sequence": [(2, 4), (1, 2), (13, None), (13, 2)] * 2,
         "symmetry_order": 2},
    17: {"sequence": [(2, 4), (1, 2), (17, None), (17, 2), (2, 2), (34, 2),
                      (1, 2)],
         "symmetry_order": 1},
    19: {"sequence": [(2, 4), (1, 2), (38, 2)] * 2,
         "symmetry_order": 2},
    23: {"sequence_printed": [(2, 4), (1, 2), (4, 3)] * 2,
         "sequence": [(2, 4), (1, 2), (2, 3)] * 2,
         "symmetry_order": 2},
}


# The published infinite-symmetry witness for p=23, n=3: two chamber corners
# of equal norm -23, matched frames of three walls each, and a printed 4x4
# matrix for the induced isometry.  The frame labels are kept verbatim; they
# do not resolve to corner-orthogonal walls under any numbering of the
# published root table, but the corners determine their wall triples
# uniquely, so the map is recomputable without them.  The recomputed map T
# with T(corner_from) = corner_to explains the printed matrix exactly: the
# print equals T^-1 conjugated by the coordinate rotation listing v0 last,
# with its final entry 783 truncated to 7.
SYMMETRY_WITNESS_23_3: Dict[str, Any] = {
    "corner_from": (45, 138, 138, 92),
    "corner_to": (91, 414, 138, 0),
    "corner_norm": -23,
    "frame_from_labels": ("e6", "e13", "e9"),
    "frame_to_labels": ("e12", "e8", "e5"),
    "matrix_printed": (
        (-495, -152, -12, 2484),
        (-440, -135, -12, 2208),
        (-348, -108, -9, 1748),
        (-156, -48, -4, 7),
    ),
}


# Published reflectivity verdict per form, for annotation purposes: the
# treatment finds the chamber-closing root systems for these forms and
# rules the remaining ranks out, (23,3) by the symmetry witness above.
PUBLISHED_VERDICTS: Dict[Tuple[int, int], str] = {}
for _p, _ranks in ((5, range(2, 9)), (7, (2, 3)), (11, (2, 3)),
                   (13, (2,)), (17, (2,)), (19, (2,)), (23, (2,))):
    for _n in _ranks:
        PUBLISHED_VERDICTS[(_p, _n)] = "reflective"
for _key in (*NONREFLECTIVITY_BLOCKS, (23, 3)):
    PUBLISHED_VERDICTS[_key] = "non_reflective"


def published_values(p: int, n: int) -> Optional[Dict[str, Any]]:
    """Annotation payload for form (p, n), or None if nothing was published.

    Returns a plain-JSON dict: verdict, plus whichever reference blocks
    apply (non-reflectivity data, polygon symbol, symmetry witness).
    """
    verdict = PUBLISHED_VERDICTS.get((p, n))
    if verdict is None:
        return None
    out: Dict[str, Any] = {"verdict": verdict}
    block = NONREFLECTIVITY_BLOCKS.get((p, n))
    if block is not None:
        out["nonreflectivity"] = {
            k: (list(v) if isinstance(v, tuple) else v)
            for k, v in block.items()
        }
    if n == 2 and p in POLYGONS:
        poly = POLYGONS[p]
        key = "sequence_printed" if "sequence_printed" in poly else "sequence"
        out["polygon"] = {
            "sequence": [list(entry) for entry in poly[key]],
            "symmetry_order": poly["symmetry_order"],
        }
    if (p, n) == (23, 3):
        w = SYMMETRY_WITNESS_23_3
        out["symmetry_witness"] = {
            "corner_from": list(w["corner_from"]),
            "corner_to": list(w["corner_to"]),
            "matrix_printed": [list(row) for row in w["matrix_printed"]],
        }
    return out
