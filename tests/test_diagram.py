"""Coxeter diagrams: edges, subdiagram types, polygons, emitters."""

import textwrap
from fractions import Fraction

import pytest

import corpus
import oracles
from vinberg import diagram, volume
from vinberg.errors import ConsistencyError
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
    form = Form(5, 5)
    roots = search(5, 5).roots
    chamber = volume.ChamberDiagram(form, roots)
    types = {
        item["types"]
        for item in diagram.affine_sets_of_rank(
            chamber, form.n - 1, chamber.affine_components()
        )
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
