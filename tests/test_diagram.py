"""Coxeter diagrams: edges, subdiagram types, polygons, emitters."""

import textwrap
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import oracles
from vinberg import diagram, volume
from vinberg.errors import ConsistencyError, DiagramError
from vinberg.forms import Form


# ---------------------------------------------------------------------------
# edges and component types

def test_edge_kinds_on_rank2_chamber(search):
    form = Form(5, 2)
    roots = search(5, 2).roots
    doc = diagram.diagram_json(form, roots)
    kinds = {(e["i"], e["j"]): e["kind"] for e in doc["edges"]}
    assert kinds == {
        (0, 1): "double",       # angle pi/4
        (0, 2): "divergent",
        (1, 3): "divergent",
        (2, 3): "parallel",     # the A~1 ideal-vertex pair
    }


def gram_diagram(gram):
    d = diagram.Diagram()
    d.extend(gram)
    return d


@st.composite
def root_norm_grams(draw):
    """A symmetric Gram on root norms 1, 2, p, 2p and a split point k.

    Each inner product is one at a crystallographic angle for its pair of
    norms (4 ip^2 = j <u,u> <v,v>, j = 0..4) or, in half the Grams, also
    any integer of about that size, so bad angles and divergent pairs
    both occur.
    """
    # p = 3 is not a form's prime, but norms 2 and 6 are the only ones here
    # that meet in a triple bond (ip = 3)
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    size = draw(st.integers(2, 6))
    norms = [draw(st.sampled_from([1, 2, p, 2 * p])) for _ in range(size)]
    wild = draw(st.booleans())
    gram = [[0] * size for _ in range(size)]
    for i in range(size):
        gram[i][i] = norms[i]
        for j in range(i + 1, size):
            q = norms[i] * norms[j]
            good = [ip for ip in range(-2 * p, 2 * p + 1) if 4 * ip * ip in (0, q, 2 * q, 3 * q, 4 * q)]
            any_ip = st.integers(-2 * p - 2, 2 * p + 2)
            ip = draw(st.sampled_from(good) | any_ip if wild else st.sampled_from(good))
            gram[i][j] = gram[j][i] = ip
    return gram, draw(st.integers(0, size))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(drawn=root_norm_grams())
def test_integer_angle_test_matches_fraction_oracle(drawn):
    # extend classifies angles in integers; the oracle builds a Fraction
    # cos^2 per pair.  Grown in two steps, as a search grows its walls
    gram, k = drawn
    d = diagram.Diagram()
    for size, rows in ((k, [row[:k] for row in gram[:k]]), (len(gram), gram[k:])):
        try:
            expected, error = oracles.scratch_edges([row[:size] for row in gram[:size]]), None
        except DiagramError as exc:
            expected, error = None, str(exc)
        before = (len(d), dict(d.edges))
        try:
            d.extend(rows)
        except DiagramError as exc:
            assert str(exc) == error
            # a failed extend stores nothing
            assert (len(d), d.edges) == before
            break
        assert error is None and d.edges == expected
    for i in range(len(gram)):
        for j in range(i + 1, len(gram)):
            if gram[i][j]:
                cos2 = Fraction(gram[i][j] ** 2, gram[i][i] * gram[j][j])
                assert diagram._cos2(gram[i][j], gram[i][i] * gram[j][j]) == (cos2.numerator, cos2.denominator)


def test_elliptic_path_types():
    # spherical diagrams have no affine name
    a3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    d = gram_diagram(a3)
    assert diagram.affine_type(d, (0, 1, 2)) is None
    # B3/C3 realization: chain with one double bond (cos^2 = 1/2)
    b3 = [[2, -1, 0], [-1, 2, -2], [0, -2, 4]]
    d = gram_diagram(b3)
    assert diagram.affine_type(d, (0, 1, 2)) is None


def test_affine_types():
    # A~1: parallel pair
    a1t = [[2, -2], [-2, 2]]
    d = gram_diagram(a1t)
    assert diagram.affine_type(d, (0, 1)) == "A~1"
    # A~2: triangle of simple bonds
    a2t = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    d = gram_diagram(a2t)
    assert diagram.affine_type(d, (0, 1, 2)) == "A~2"


@pytest.mark.parametrize("size", [6, 4], ids=["two-triangles", "triangle-and-node"])
def test_affine_type_refuses_a_disconnected_set(size):
    # two disjoint A~2 triangles have a degenerate Gram and six edges, so
    # a structure read alone would name them A~5; a triangle and an
    # isolated node have no node of degree 1 to start a path from
    gram = [[2 if i == j else -(i // 3 == j // 3) for j in range(size)] for i in range(size)]
    d = gram_diagram(gram)
    with pytest.raises(ValueError, match="not a connected subdiagram"):
        diagram.affine_type(d, range(size))


# 4 cos^2 of each bond kind
_FOUR_COS2 = {"simple": 1, "double": 2, "triple": 3, "parallel": 4}


def coxeter_gram(size, edges):
    """A Gram realisation of walls 0..size-1 joined by (i, j, kind) edges,
    listed so that each edge's i is wall 0 or met in an earlier edge.

    Norms run outward from wall 0 (norm 12): a double bond doubles the
    norm, a triple bond triples it, any other edge keeps it.  Each inner
    product then meets its kind exactly, and a divergent pair gets one
    just past the parallel value.
    """
    norms = {0: 12}
    for i, j, kind in edges:
        norms.setdefault(j, norms[i] * {"double": 2, "triple": 3}.get(kind, 1))
    gram = [[norms[i] if i == j else 0 for j in range(size)] for i in range(size)]
    for i, j, kind in edges:
        q = norms[i] * norms[j]
        if kind == "divergent":
            ip = -(isqrt(q) + 1)
        else:
            ip = -isqrt(_FOUR_COS2[kind] * q // 4)
            assert 4 * ip * ip == _FOUR_COS2[kind] * q
        gram[i][j] = gram[j][i] = ip
    return gram


def path(*kinds):
    return len(kinds) + 1, [(i, i + 1, kind) for i, kind in enumerate(kinds)]


def star(*legs):
    """A node 0 with one leg of simple bonds per length in legs."""
    edges, size = [], 1
    for length in legs:
        edges += [(0 if t == 0 else size + t - 1, size + t, "simple") for t in range(length)]
        size += length
    return size, edges


def with_last(kind, size_edges):
    """The diagram with its last edge's kind replaced."""
    size, edges = size_edges
    return size, edges[:-1] + [edges[-1][:2] + (kind,)]


def cycle(size):
    return size, path(*["simple"] * (size - 1))[1] + [(0, size - 1, "simple")]


def d_tilde(k):
    """k + 1 walls: a simple chain of k - 3 nodes with two leaves at each end."""
    size, edges = path(*["simple"] * (k - 4))
    end = size - 1
    leaves = [(0, size), (0, size + 1), (end, size + 2), (end, size + 3)]
    return size + 4, edges + [(i, j, "simple") for i, j in leaves]


AFFINE_TABLE = {
    "A~1": path("parallel"),
    **{f"A~{k}": cycle(k + 1) for k in range(2, 9)},
    **{f"B~{k}": with_last("double", star(1, 1, k - 2)) for k in range(3, 9)},
    **{f"C~{k}": path("double", *["simple"] * (k - 2), "double") for k in range(2, 9)},
    **{f"D~{k}": d_tilde(k) for k in range(4, 9)},
    "E~6": star(2, 2, 2),
    "E~7": star(1, 3, 3),
    "E~8": star(1, 2, 5),
    "F~4": path("simple", "simple", "double", "simple"),
    "G~2": path("simple", "triple"),
}

SPHERICAL_TABLE = {
    **{f"A{k}": path(*["simple"] * (k - 1)) for k in range(1, 9)},
    **{f"B{k}": path(*["simple"] * (k - 2), "double") for k in range(2, 9)},
    **{f"D{k}": star(1, 1, k - 3) for k in range(4, 9)},
    "E6": star(1, 2, 2),
    "E7": star(1, 2, 3),
    "E8": star(1, 2, 4),
    "F4": path("simple", "double", "simple"),
    "G2": path("triple"),
}


@pytest.mark.parametrize("name", AFFINE_TABLE)
def test_every_affine_type_up_to_rank_8_is_named(name):
    size, edges = AFFINE_TABLE[name]
    d = gram_diagram(coxeter_gram(size, edges))
    assert diagram.affine_type(d, range(size)) == name
    assert d.psd_class(frozenset(range(size))) == "degenerate"


@pytest.mark.parametrize("name", SPHERICAL_TABLE)
def test_spherical_types_have_no_affine_name(name):
    size, edges = SPHERICAL_TABLE[name]
    d = gram_diagram(coxeter_gram(size, edges))
    assert diagram.affine_type(d, range(size)) is None
    assert d.psd_class(frozenset(range(size))) == "definite"


_KINDS_BY_RATIO = {
    1: ["simple", "parallel", "divergent"],
    2: ["double", "divergent"],
    3: ["triple", "divergent"],
}


@st.composite
def acute_trees_and_cycles(draw):
    """A tree of 2 to 10 walls, in half the draws closed by one more edge,
    with every edge at a kind its two norms allow."""
    size = draw(st.integers(2, 10))
    kinds = st.sampled_from(["simple"] * 12 + ["double"] * 3 + ["triple", "parallel", "divergent"])
    edges = [(draw(st.integers(0, j - 1)), j, draw(kinds)) for j in range(1, size)]
    if size > 2 and draw(st.booleans()):
        norms = [row[i] for i, row in enumerate(coxeter_gram(size, edges))]
        i, j = draw(st.sampled_from([
            (i, j) for i in range(size) for j in range(i + 1, size)
            if not any(e[:2] == (i, j) for e in edges)
        ]))
        low, high = sorted((norms[i], norms[j]))
        allowed = _KINDS_BY_RATIO.get(high // low if high % low == 0 else 0, ["divergent"])
        edges.append((i, j, draw(st.sampled_from(allowed))))
    return size, edges


@settings(max_examples=400, deadline=None, derandomize=True)
@given(drawn=acute_trees_and_cycles())
def test_affine_type_agrees_with_the_gram(drawn):
    # affine_type raises if its name disagrees with the Gram's class, so
    # never raising means structure and semidefiniteness agree
    size, edges = drawn
    d = gram_diagram(coxeter_gram(size, edges))
    name = diagram.affine_type(d, range(size))
    if name is not None:
        assert int(name.split("~")[1]) + 1 == size


@pytest.mark.parametrize("n", sorted(corpus.EXPECTED_P5_AFFINE_TYPES))
def test_affine_sets_of_full_rank(search, n):
    # the component types at each cusp whose ranks reach n - 1
    form = Form(5, n)
    chamber = volume.ChamberDiagram(form, search(5, n).roots)
    types = {
        tuple(sorted(chamber.affine[s] for s in cusp))
        for cusp in chamber.cusps()
        if sum(len(s) - 1 for s in cusp) == n - 1
    }
    assert types == corpus.EXPECTED_P5_AFFINE_TYPES[n]


def test_published_affine_types_differ_only_where_the_caption_overflows():
    # the n = 8 caption's A~4 B~6 has affine rank 4 + 6 = 10, past n - 1 = 7
    published, expected = corpus.PUBLISHED_P5_AFFINE_TYPES, corpus.EXPECTED_P5_AFFINE_TYPES
    assert published.keys() == expected.keys()
    assert [n for n in published if published[n] != expected[n]] == [8]
    too_big = {
        types for types in published[8]
        if sum(int(name.split("~")[1]) for name in types) > 8 - 1
    }
    assert too_big == {("A~4", "B~6")}


# ---------------------------------------------------------------------------
# polygons (n = 2)

_ANGLE_LABEL = {
    Fraction(0): 2,
    Fraction(1, 4): 3,
    Fraction(1, 2): 4,
    Fraction(3, 4): 6,
}


def polygon_sequence(form, roots):
    """Norm/angle symbol of a closed planar chamber.

    One entry per side in cyclic order: (norm, label) where label m means
    the angle to the next side is pi/m, and None marks an ideal corner
    between parallel sides.
    """
    cyc = oracles.polygon_cycle(form, roots)
    k = len(cyc["sides"])
    out = []
    for t in range(k):
        i = cyc["sides"][t]
        j = cyc["sides"][(t + 1) % k]
        v = cyc["vertices"][t]
        ni = form.norm(roots[i])
        ip = form.inner_product(roots[i], roots[j])
        cos2 = Fraction(ip * ip, ni * form.norm(roots[j]))
        if form.norm(v) == 0:
            if cos2 != 1:
                raise ConsistencyError("ideal corner between non-parallel sides")
            out.append((ni, None))
        else:
            out.append((ni, _ANGLE_LABEL[cos2]))
    return out


def _cycle_entry_key(entry):
    norm, label = entry
    return (norm, 0 if label is None else label)


def canonical_cycle(seq):
    """Least representative of a norm/angle symbol under rotation and
    reversal, for structural comparison of polygons.

    Reversing a polygon pairs each side's norm with the angle behind it,
    so the reversed symbol shifts the labels by one position.
    """
    k = len(seq)
    fwd = list(seq)
    rev = [(seq[(k - t) % k][0], seq[(k - t - 1) % k][1]) for t in range(k)]
    cands = []
    for base in (fwd, rev):
        for s in range(k):
            cands.append([base[(s + t) % k] for t in range(k)])
    return min(cands, key=lambda c: [_cycle_entry_key(e) for e in c])


def cycle_period(seq):
    """Smallest d dividing the length with seq invariant under rotation by d."""
    k = len(seq)
    for d in range(1, k + 1):
        if k % d == 0 and all(seq[t] == seq[(t + d) % k] for t in range(k)):
            return d
    return k


def test_polygon_cycle_structure(search):
    form = Form(5, 2)
    roots = search(5, 2).roots
    cyc = oracles.polygon_cycle(form, roots)
    k = len(roots)
    assert sorted(cyc["sides"]) == list(range(k))
    assert len(cyc["vertices"]) == k


@pytest.mark.parametrize("p", [13, 17, 19, 23])
def test_polygon_sequences_match_frozen(search, p):
    form = Form(p, 2)
    roots = search(p, 2).roots
    seq = polygon_sequence(form, roots)
    expect = corpus.EXPECTED_POLYGONS[p]
    assert canonical_cycle(seq) == canonical_cycle(expect["sequence"])
    # cycle_period returns the smallest self-rotation shift; the symbol's
    # repetition exponent is length / shift
    exponent = len(seq) // cycle_period(seq)
    assert exponent == expect["period"]


def test_polygon_sequence_rotation_invariant(search):
    form = Form(19, 2)
    roots = search(19, 2).roots
    base = canonical_cycle(polygon_sequence(form, roots))
    for shift in range(1, len(roots)):
        rotated = roots[shift:] + roots[:shift]
        seq = polygon_sequence(form, rotated)
        assert canonical_cycle(seq) == base


def test_cycle_period_basics():
    # smallest rotation shift fixing the cycle
    assert cycle_period([(2, 4), (1, 2)] * 3) == 2
    assert cycle_period([(2, 4), (1, 2), (3, 2)]) == 3


# ---------------------------------------------------------------------------
# emitters

GOLDEN_DOT_5_2 = textwrap.dedent("""\
    graph walls {
      node [shape=circle];
      1;
      2;
      3;
      4;
      1 -- 2 [color="black:invis:black"];
      1 -- 3 [style=dashed];
      2 -- 4 [style=dashed];
      3 -- 4 [penwidth=3];
    }""")

GOLDEN_TIKZ_5_2 = textwrap.dedent(r"""
    \begin{tikzpicture}[
      wall/.style={circle, draw, fill=white, inner sep=2pt},
      simple/.style={},
      double bond/.style={double, double distance=2pt},
      triple bond/.style={double, double distance=4pt},
      heavy/.style={line width=1.6pt},
      divergent/.style={dashed}]
      \node[wall] (w1) at (90.00:2) {\scriptsize $1$};
      \node[wall] (w2) at (0.00:2) {\scriptsize $2$};
      \node[wall] (w3) at (270.00:2) {\scriptsize $3$};
      \node[wall] (w4) at (180.00:2) {\scriptsize $4$};
      \draw[double bond] (w1) -- (w2);
      \draw[divergent] (w1) -- (w3);
      \draw[divergent] (w2) -- (w4);
      \draw[heavy] (w3) -- (w4);
    \end{tikzpicture}
""").lstrip("\n")


def test_dot_golden(search):
    form = Form(5, 2)
    roots = search(5, 2).roots
    assert diagram.diagram_dot(diagram.diagram_json(form, roots)).strip() == GOLDEN_DOT_5_2


def test_tikz_contains_all_walls_and_styles(search):
    form = Form(5, 2)
    roots = search(5, 2).roots
    out = diagram.diagram_tikz(diagram.diagram_json(form, roots))
    assert out == GOLDEN_TIKZ_5_2
    assert out.startswith(r"\begin{tikzpicture}")
    assert out.rstrip().endswith(r"\end{tikzpicture}")
    for i in range(1, 5):
        assert f"(w{i})" in out
    assert r"\draw[double bond] (w1) -- (w2);" in out
    assert r"\draw[heavy] (w3) -- (w4);" in out


def test_diagram_json_is_deterministic(search):
    form = Form(11, 3)
    roots = search(11, 3).roots
    assert diagram.diagram_json(form, roots) == diagram.diagram_json(form, roots)
    doc = diagram.diagram_json(form, roots)
    assert [n["index"] for n in doc["nodes"]] == list(range(len(roots)))
    for e in doc["edges"]:
        assert e["i"] < e["j"]
