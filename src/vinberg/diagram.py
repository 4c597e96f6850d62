"""Coxeter diagrams of wall systems and their affine subdiagrams.

Nodes are wall indices; an edge records the exact value of
cos^2(angle) = <u,v>^2 / (<u,u><v,v>) between two walls.  Only five values
can occur for walls in acute position: 1/4, 1/2, 3/4 (dihedral angles
pi/3, pi/4, pi/6), 1 (parallel walls) and anything > 1 (divergent walls).
Any other value in [0, 1) is rejected as a hard error.

A connected subdiagram is named structurally against the affine catalog
(Vinberg 1985, Hyperbolic reflection groups), the only names the package
reports: the types of the components at a cusp.  The name is
double-checked by exact semidefiniteness of the Gram matrix, since a
connected subdiagram is affine iff its Gram is degenerate; a mismatch
raises ConsistencyError.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from vinberg import linalg
from vinberg.errors import ConsistencyError, DiagramError

SIMPLE, DOUBLE, TRIPLE, PARALLEL, DIVERGENT = (
    "simple",
    "double",
    "triple",
    "parallel",
    "divergent",
)

# 4 cos^2 -> kind
_COS2_KIND = {1: SIMPLE, 2: DOUBLE, 3: TRIPLE, 4: PARALLEL}


def _cos2(ip: int, q: int) -> tuple[int, int]:
    """cos^2 = ip^2 / q in lowest terms, for a product of norms q > 0."""
    g = gcd(ip * ip, q)
    return ip * ip // g, q // g


class Diagram:
    """Walls with their pairwise angle data.

    A diagram only grows: extend appends walls, and the edges between old
    walls never change, so neither does the PSD class of a node set.
    far[i] holds the walls that wall i meets at a PARALLEL or DIVERGENT
    edge: a pair whose Gram is not definite, so no elliptic set holds
    both.
    """

    def __init__(self):
        self.gram: list[list[int]] = []
        self.edges: dict = {}  # (i, j) with i < j -> edge kind
        self.adjacent: list[set] = []  # node -> the nodes it shares an edge with
        self.far: list[set] = []  # node -> the nodes parallel or divergent to it
        self.classes: dict = {}  # frozenset of nodes -> PSD class

    def __len__(self) -> int:
        return len(self.gram)

    def extend(self, rows) -> None:
        """Append one wall per row, each row its inner products with every
        wall, old and new.

        The new pairs are checked in lexicographic order before anything
        is stored, so a bad angle raises the DiagramError that building the
        whole list at once would, and leaves the diagram as it was.  The
        angle test is in integers: with q > 0 the product of the two norms,
        4 ip^2 = k q for k = 1..4 gives the kind, and 4 ip^2 > 4 q a
        divergent pair.
        """
        k = len(self.gram)
        norms = [row[i] for i, row in enumerate([*self.gram, *rows])]
        edges = {}
        for i in range(len(norms)):
            for j in range(max(i + 1, k), len(norms)):
                ip = rows[j - k][i]
                if ip:
                    a, q = 4 * ip * ip, norms[i] * norms[j]
                    kind = DIVERGENT if a > 4 * q > 0 else None if a % q else _COS2_KIND.get(a // q)
                    if kind is None:
                        num, den = _cos2(ip, q)
                        raise DiagramError(
                            f"walls {i} and {j} meet at cos^2 = {num}/{den}, outside the crystallographic set"
                        )
                    edges[(i, j)] = kind
        for i, row in enumerate(self.gram):
            row.extend(new[i] for new in rows)
        self.gram.extend(list(row) for row in rows)
        self.edges.update(edges)
        self.adjacent.extend(set() for _ in rows)
        self.far.extend(set() for _ in rows)
        for (i, j), kind in edges.items():
            self.adjacent[i].add(j)
            self.adjacent[j].add(i)
            if kind in (PARALLEL, DIVERGENT):
                self.far[i].add(j)
                self.far[j].add(i)

    def kind(self, i: int, j: int):
        return self.edges.get((min(i, j), max(i, j)))

    def neighbors(self, i: int, subset):
        adjacent = self.adjacent[i]
        return [j for j in subset if j in adjacent]

    def subgram(self, subset):
        return [[self.gram[i][j] for j in subset] for i in subset]

    def psd_class(self, nodes) -> str:
        """linalg.psd_classify of the Gram of a frozenset of nodes,
        remembered in classes."""
        cls = self.classes.get(nodes)
        if cls is None:
            cls = self.classes[nodes] = linalg.psd_classify(self.subgram(sorted(nodes)))
        return cls


def build_diagram(form, roots) -> Diagram:
    """Diagram of a list of roots under the given form."""
    diagram = Diagram()
    diagram.extend(form.gram(roots))
    return diagram


def components(diagram: Diagram, subset) -> list[tuple[int, ...]]:
    """Connected components of the induced subdiagram, each sorted."""
    subset = sorted(subset)
    remaining = set(subset)
    out = []
    while remaining:
        start = min(remaining)
        seen = {start}
        frontier = [start]
        while frontier:
            i = frontier.pop()
            for j in diagram.neighbors(i, remaining):
                if j not in seen:
                    seen.add(j)
                    frontier.append(j)
        out.append(tuple(sorted(seen)))
        remaining -= seen
    return sorted(out)


def _walk(diagram, comp, prev, cur) -> tuple:
    """Edge kinds along the unbranched walk from prev through cur to a leaf."""
    kinds = [diagram.kind(prev, cur)]
    while nxt := [j for j in diagram.neighbors(cur, comp) if j != prev]:
        prev, cur = cur, nxt[0]
        kinds.append(diagram.kind(prev, cur))
    return tuple(kinds)


def _affine_structure(diagram, comp) -> str | None:
    """Affine type of a connected subdiagram read from its edges alone."""
    kinds = [diagram.kind(i, j) for i, j in combinations(comp, 2) if diagram.kind(i, j)]
    if kinds == [PARALLEL]:
        return "A~1"
    if PARALLEL in kinds or DIVERGENT in kinds:
        return None
    k = len(comp)
    simple = all(e == SIMPLE for e in kinds)
    degrees = {i: len(diagram.neighbors(i, comp)) for i in comp}
    forks = [i for i in comp if degrees[i] > 2]
    if len(kinds) == k:  # one cycle
        return f"A~{k - 1}" if simple and not forks else None
    if len(kinds) != k - 1 or k < 3:  # not a tree, or too small for a path type
        return None
    if not forks:
        end = next(i for i in comp if degrees[i] == 1)
        path = _walk(diagram, comp, end, diagram.neighbors(end, comp)[0])
        canon = min(path, path[::-1])
        if canon == (DOUBLE,) + (SIMPLE,) * (k - 3) + (DOUBLE,):
            return f"C~{k - 1}"
        # F~4 has its double bond next to the middle node of its 5-path
        return {(SIMPLE, TRIPLE): "G~2", (SIMPLE, DOUBLE, SIMPLE, SIMPLE): "F~4"}.get(canon)
    if max(degrees.values()) > 3:
        return "D~4" if k == 5 and simple else None
    if len(forks) == 1:
        legs = sorted(_walk(diagram, comp, forks[0], j) for j in diagram.neighbors(forks[0], comp))
        if simple:
            lengths = tuple(sorted(map(len, legs)))
            return {(2, 2, 2): "E~6", (1, 3, 3): "E~7", (1, 2, 5): "E~8"}.get(lengths)
        # two one-node legs, the third ending in the only double bond
        if legs == sorted([(SIMPLE,), (SIMPLE,), (SIMPLE,) * (k - 4) + (DOUBLE,)]):
            return f"B~{k - 1}"
        return None
    leaves = {i for i in comp if degrees[i] == 1}
    if len(forks) == 2 and simple and all(len(leaves & diagram.adjacent[f]) == 2 for f in forks):
        return f"D~{k - 1}"
    return None


def affine_type(diagram: Diagram, comp) -> str | None:
    """Affine catalog name of a connected subdiagram, None if it is not
    affine.  The name is read from the structure and cross-checked
    against exact semidefiniteness: a connected subdiagram is affine iff
    its Gram is degenerate, and a disagreement raises ConsistencyError.
    A set that is not connected raises ValueError."""
    comp = tuple(sorted(comp))
    if components(diagram, comp) != [comp]:
        raise ValueError(f"{comp} is not a connected subdiagram")
    name = _affine_structure(diagram, comp)
    cls = diagram.psd_class(frozenset(comp))
    if (name is None) == (cls == "degenerate"):
        raise ConsistencyError(
            f"structure says {name or 'not affine'} but Gram is {cls} for {comp}"
        )
    return name


def diagram_json(form, roots) -> dict:
    """Serializable description of the wall diagram.

    Nodes carry the root vector and its norm; edges carry the kind and the
    exact cos^2 as a numerator/denominator pair (divergent edges included).
    """
    diagram = build_diagram(form, roots)
    nodes = [
        {"index": i, "root": list(root), "norm": diagram.gram[i][i]}
        for i, root in enumerate(roots)
    ]
    edges = []
    for (i, j), kind in sorted(diagram.edges.items()):
        num, den = _cos2(diagram.gram[i][j], diagram.gram[i][i] * diagram.gram[j][j])
        edges.append({"i": i, "j": j, "kind": kind, "cos2_num": num, "cos2_den": den})
    return {"nodes": nodes, "edges": edges}


# Multi-stroke bonds drawn with parallel strokes, heavy stroke for parallel
# walls, dashes for divergent ones.
_DOT_EDGE = {
    SIMPLE: "",
    DOUBLE: ' [color="black:invis:black"]',
    TRIPLE: ' [color="black:invis:black:invis:black"]',
    PARALLEL: " [penwidth=3]",
    DIVERGENT: " [style=dashed]",
}

_TIKZ_EDGE = {
    SIMPLE: "simple",
    DOUBLE: "double bond",
    TRIPLE: "triple bond",
    PARALLEL: "heavy",
    DIVERGENT: "divergent",
}


def diagram_dot(doc: dict) -> str:
    """Graphviz source for a diagram_json document (1-based vertex labels)."""
    lines = ["graph walls {", "  node [shape=circle];"]
    for node in doc["nodes"]:
        lines.append(f"  {node['index'] + 1};")
    for e in doc["edges"]:
        lines.append(f"  {e['i'] + 1} -- {e['j'] + 1}{_DOT_EDGE[e['kind']]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def diagram_tikz(doc: dict) -> str:
    """TikZ source for a diagram_json document, vertices on a circle."""
    count = len(doc["nodes"])
    lines = [
        "\\begin{tikzpicture}[",
        "  wall/.style={circle, draw, fill=white, inner sep=2pt},",
        "  simple/.style={},",
        "  double bond/.style={double, double distance=2pt},",
        "  triple bond/.style={double, double distance=4pt},",
        "  heavy/.style={line width=1.6pt},",
        "  divergent/.style={dashed}]",
    ]
    for e in doc["edges"]:
        lines.append(f"  \\draw[{_TIKZ_EDGE[e['kind']]}] (w{e['i'] + 1}) -- (w{e['j'] + 1});")
    placements = []
    for i in range(count):
        angle = (90.0 - 360.0 * i / count) % 360.0
        placements.append(
            f"  \\node[wall] (w{i + 1}) at ({angle:.2f}:2) "
            f"{{\\scriptsize ${i + 1}$}};"
        )
    # nodes first so the edge paths can refer to them
    lines[7:7] = placements
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"
