"""Frozen expected values for the test suite.

This is the only transcription of the published treatment of these forms:
the package carries none of it, and every name defined here is read by a
test (tests/test_api.py checks this) or by perfbench.  Two kinds of data
live here, kept deliberately separate:

- published_*: values transcribed from the published treatment of these
  forms, verbatim, including its misprints (each misprint is noted where
  it occurs).  Tests that compare against these are regression tests of
  the published record and fail honestly where that record is wrong.
- expected_*: values this package is expected to compute.  These were
  frozen from validated runs and from independent hand checks; tests
  compare live output against them exactly.

Vectors are coordinate tuples for the form -p x0^2 + x1^2 + ... + xn^2,
zero-padded on the right when used at a higher rank than printed.
"""

# ---------------------------------------------------------------------------
# published root tables: (vector, norm, applicability predicate over n).
# A row applies at rank n when its predicate holds; the expected root set at
# rank n is the initial simple roots plus every applicable row, padded.

PUBLISHED_TABLE_ROWS = {
    5: [((1, 2, 1, 1, 1), 2, lambda n: n >= 4),
        ((1, 1, 1, 1, 1, 1, 1, 1), 2, lambda n: n >= 7),
        ((2, 5), 5, lambda n: n >= 2),
        ((1, 2, 1, 1), 1, lambda n: n == 3),
        ((1, 1, 1, 1, 1, 1, 1), 1, lambda n: n == 6),
        ((3, 5, 5), 5, lambda n: n >= 2)],
    7: [((1, 3), 2, lambda n: n >= 2),
        ((1, 2, 2, 1), 2, lambda n: n >= 3),
        ((1, 2, 2), 1, lambda n: n == 2)],
    # the n=3 norm-1 row is printed as v0+2v2+2v3, which has norm -3 and is
    # no root; the intended vector v0+2v1+2v2+2v3 is used here
    11: [((3, 11), 22, lambda n: n >= 2),
         ((1, 3, 2), 2, lambda n: n >= 2),
         ((1, 2, 2, 2, 1), 2, lambda n: n >= 4),
         ((1, 2, 2, 2), 1, lambda n: n == 3),
         ((1, 3, 1, 1, 1), 1, lambda n: n >= 4),
         ((8, 22, 11, 11), 22, lambda n: n >= 3)],
    13: [((5, 13, 13), 13, lambda n: n == 2),
         ((2, 7, 2), 1, lambda n: n == 2),
         ((8, 26, 13), 13, lambda n: n == 2),
         ((18, 65), 13, lambda n: n == 2),
         ((12, 43, 5), 2, lambda n: n == 2),
         ((47, 169, 13), 13, lambda n: n == 2)],
    17: [((4, 17), 17, lambda n: n == 2),
         ((1, 3, 3), 1, lambda n: n == 2),
         ((4, 15, 7), 2, lambda n: n == 2),
         ((13, 51, 17), 17, lambda n: n == 2),
         ((24, 85, 51), 34, lambda n: n == 2)],
    19: [((6, 19, 19), 38, lambda n: n == 2),
         ((1, 4, 2), 1, lambda n: n == 2),
         ((13, 57), 38, lambda n: n == 2),
         ((3, 13, 2), 2, lambda n: n == 2)],
    23: [((1, 4, 3), 2, lambda n: n == 2),
         ((1, 5), 2, lambda n: n == 2),
         ((6, 27, 10), 1, lambda n: n == 2),
         ((12, 55, 17), 2, lambda n: n == 2)],
}

# ranks each published table covers
PUBLISHED_TABLE_RANKS = {
    5: range(2, 9), 7: (2, 3), 11: (2, 3),
    13: (2,), 17: (2,), 19: (2,), 23: (2,),
}


def expected_root_set(form):
    """Initial roots plus applicable published rows, as padded tuples."""
    rows = PUBLISHED_TABLE_ROWS[form.p]
    out = set(form.initial_roots())
    for vec, norm, applies in rows:
        if applies(form.n):
            padded = tuple(vec) + (0,) * (form.n + 1 - len(vec))
            assert form.norm(padded) == norm
            out.add(padded)
    return out


# expected accepted-root counts for p=5, n=2..8
EXPECTED_P5_COUNTS = {2: 4, 3: 6, 4: 7, 5: 8, 6: 10, 7: 11, 8: 12}

# the published p=23, n=3 table stops after the 14th root: these are its
# rows after the three initial roots, in height order
PUBLISHED_P23_N3_ROWS = [
    (1, 4, 3, 0), (1, 5, 0, 0), (1, 4, 2, 2), (2, 7, 6, 3), (2, 9, 3, 2),
    (3, 9, 8, 8), (4, 12, 12, 9), (6, 27, 10, 1), (7, 32, 10, 2),
    (10, 33, 27, 22), (12, 55, 17, 0),
]


# ---------------------------------------------------------------------------
# verdicts

# what this package proves (validated certificates for every entry)
EXPECTED_REFLECTIVE = {
    (5, n) for n in range(2, 9)
} | {(7, 2), (7, 3), (11, 2), (11, 3), (11, 4), (13, 2),
     (17, 2), (17, 3), (19, 2), (23, 2)}

# first non-reflective rank per family and the certificate route that
# decides it
EXPECTED_FIRST_FAILURE = {
    5: (9, "ideal_vertex_failure"),
    7: (4, "ideal_vertex_failure"),
    11: (5, "ideal_vertex_failure"),
    13: (3, "infinite_symmetry"),
    17: (4, "infinite_symmetry"),
    19: (3, "infinite_symmetry"),
    23: (3, "infinite_symmetry"),
}

# the published headline: reflective exactly here.  Differs from
# EXPECTED_REFLECTIVE at (11, 4) and (17, 3), where the published
# non-reflectivity arguments rest on a sublattice index that genuine ideal
# vertices can also exhibit.
PUBLISHED_REFLECTIVE = {
    (5, n) for n in range(2, 9)
} | {(7, 2), (7, 3), (11, 2), (11, 3), (13, 2), (17, 2), (19, 2), (23, 2)}


# ---------------------------------------------------------------------------
# published non-reflectivity arguments

# for each form the published argument names a null vector e spanning an
# affine subdiagram, a vector generating the rank-1 complement of e-perp
# inside the root sublattice, and (where the inclusion is proper) a glue
# vector witnessing the index.  The published failures are these forms
# and (23, 3), which is ruled out by its symmetry instead.
PUBLISHED_NONREFLECTIVITY_BLOCKS = {
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


# ---------------------------------------------------------------------------
# ideal vertex configurations (maximal affine subdiagram type sets), p=5

# as this package computes them
EXPECTED_P5_AFFINE_TYPES = {
    2: {("A~1",)},
    3: {("A~1", "A~1")},
    4: {("A~1", "C~2")},
    5: {("A~1", "B~3"), ("A~4",)},
    6: {("A~1", "A~4"), ("A~1", "B~4")},
    7: {("A~1", "B~5"), ("A~4", "C~2")},
    8: {("A~1", "B~6"), ("A~4", "B~3")},
}

# as published in the figure captions.  The n=8 caption lists A~4 B~6,
# whose affine rank 4 + 6 exceeds n - 1 = 7 and so cannot occur; the
# computed configuration there is A~4 B~3.
PUBLISHED_P5_AFFINE_TYPES = dict(EXPECTED_P5_AFFINE_TYPES)
PUBLISHED_P5_AFFINE_TYPES[8] = {("A~1", "B~6"), ("A~4", "B~6")}


# ---------------------------------------------------------------------------
# rank-2 polygon symbols: cyclic (norm, angle denominator) sequences,
# None meaning an ideal vertex, plus the rotational symmetry exponent

EXPECTED_POLYGONS = {
    13: {"sequence": [(2, 4), (1, 2), (13, None), (13, 2)] * 2, "period": 2},
    17: {"sequence": [(2, 4), (1, 2), (17, None), (17, 2), (2, 2), (34, 2),
                      (1, 2)], "period": 1},
    19: {"sequence": [(2, 4), (1, 2), (38, 2)] * 2, "period": 2},
    # the published symbol prints the half-period's last entry as 4_3; the
    # computed entry is 2_3 (the only norm-2 wall pair meeting at pi/3)
    23: {"sequence": [(2, 4), (1, 2), (2, 3)] * 2, "period": 2},
}


# ---------------------------------------------------------------------------
# p=23, n=3 symmetry data

P23_CORNER_FROM = (45, 138, 138, 92)
P23_CORNER_TO = (91, 414, 138, 0)

# the frame-to-frame map this package recomputes from the corners' wall
# triples (unique: all orderings of either triple give the same map)
EXPECTED_P23_MATRIX = (
    (783, -108, -96, -76),
    (3588, -495, -440, -348),
    (1104, -152, -135, -108),
    (92, -12, -12, -9),
)
EXPECTED_P23_FACTOR = [1, -142, 1]  # non-cyclotomic: x^2 - 142x + 1

# the printed matrix equals EXPECTED_P23_MATRIX inverted, conjugated by the
# coordinate rotation listing v0 last, with the final entry 783 printed as 7
PUBLISHED_P23_MATRIX = (
    (-495, -152, -12, 2484),
    (-440, -135, -12, 2208),
    (-348, -108, -9, 1748),
    (-156, -48, -4, 7),
)
