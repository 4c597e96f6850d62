"""Coxeter diagrams: edges, subdiagram types, polygons, emitters."""

import textwrap
from fractions import Fraction

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
    # A3: simple chain
    a3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    d = gram_diagram(a3)
    assert diagram.classify_component(d, (0, 1, 2)) == "A3"
    # B3/C3 realization: chain with one double bond (cos^2 = 1/2)
    b3 = [[2, -1, 0], [-1, 2, -2], [0, -2, 4]]
    d = gram_diagram(b3)
    assert diagram.classify_component(d, (0, 1, 2)) in ("B3", "C3")


def test_affine_types():
    # A~1: parallel pair
    a1t = [[2, -2], [-2, 2]]
    d = gram_diagram(a1t)
    assert diagram.classify_component(d, (0, 1)) == "A~1"
    # A~2: triangle of simple bonds
    a2t = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    d = gram_diagram(a2t)
    assert diagram.classify_component(d, (0, 1, 2)) == "A~2"


def test_affinity():
    assert diagram.is_affine_type("A~1")
    assert diagram.is_affine_type("B~3")
    assert not diagram.is_affine_type("A3")
    assert not diagram.is_affine_type("A1")


def test_affine_sets_of_full_rank(search):
    # the component types at each cusp whose ranks reach n - 1
    form = Form(5, 5)
    roots = search(5, 5).roots
    chamber = volume.ChamberDiagram(form, roots)
    types = {
        tuple(sorted(chamber.affine[s] for s in cusp))
        for cusp in chamber.cusps()
        if sum(len(s) - 1 for s in cusp) == form.n - 1
    }
    assert types == corpus.EXPECTED_P5_AFFINE_TYPES[5]


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
