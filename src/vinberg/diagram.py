"""Coxeter diagrams of wall systems and their classification.

Nodes are wall indices; an edge records the exact value of
cos^2(angle) = <u,v>^2 / (<u,u><v,v>) between two walls.  Only five values
can occur for walls in acute position: 1/4, 1/2, 3/4 (dihedral angles
pi/3, pi/4, pi/6), 1 (parallel walls) and anything > 1 (divergent walls).
Any other value in [0, 1) is rejected as a hard error.

Connected subdiagrams are classified structurally against the spherical
and affine catalogs and the verdict is double-checked by exact
semidefiniteness of the Gram matrix; a mismatch raises ConsistencyError.
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
    """

    def __init__(self):
        self.norms: list[int] = []
        self.gram: list[list[int]] = []
        self.edges: dict = {}  # (i, j) with i < j -> edge kind
        self.adjacent: list[set] = []  # node -> the nodes it shares an edge with
        self.classes: dict = {}  # frozenset of nodes -> PSD class

    def __len__(self) -> int:
        return len(self.norms)

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
        k = len(self.norms)
        norms = self.norms + [row[k + t] for t, row in enumerate(rows)]
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
        self.norms = norms
        self.edges.update(edges)
        self.adjacent.extend(set() for _ in rows)
        for i, j in edges:
            self.adjacent[i].add(j)
            self.adjacent[j].add(i)

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


def _classify_path(kinds: tuple) -> str | None:
    """Type of a path component given its edge kinds in path order."""
    canon = min(kinds, tuple(reversed(kinds)))
    k = len(kinds) + 1  # node count
    if all(e == SIMPLE for e in canon):
        return f"A{k}"
    if canon == (TRIPLE,):
        return "G2"
    if canon == (SIMPLE, TRIPLE):
        return "G~2"
    if any(e not in (SIMPLE, DOUBLE) for e in canon):
        return None
    doubles = [i for i, e in enumerate(canon) if e == DOUBLE]
    if len(doubles) == 1:
        i = doubles[0]
        if i == 0 or i == len(canon) - 1:
            return f"B{k}"
        if k == 4:
            return "F4"
        if k == 5 and i == 1:
            # double bond adjacent to the middle node of a 5-path
            return "F~4"
        return None
    if doubles == [0, len(canon) - 1]:
        return f"C~{k - 1}"
    return None


def _leg_profile(diagram, comp, fork):
    """Walk the legs hanging off a degree-3 or degree-4 node.

    Returns a list of (length, edge_kinds_outward) per leg, or None if the
    component is not a star/tree of simple structure around the fork.
    """
    legs = []
    for first in diagram.neighbors(fork, comp):
        length = 0
        kinds = []
        prev, cur = fork, first
        while True:
            length += 1
            kinds.append(diagram.kind(prev, cur))
            nxt = [j for j in diagram.neighbors(cur, comp) if j != prev]
            if not nxt:
                break
            if len(nxt) > 1:
                return None  # second branch point: not handled here
            prev, cur = cur, nxt[0]
        legs.append((length, tuple(kinds)))
    return sorted(legs)


def _classify_one_fork(diagram, comp, fork) -> str | None:
    legs = _leg_profile(diagram, comp, fork)
    if legs is None:
        return None
    lengths = tuple(l for l, _ in legs)
    all_kinds = [k for _, kinds in legs for k in kinds]
    k = len(comp)
    if all(e == SIMPLE for e in all_kinds):
        if lengths == (1, 1, k - 3):
            return f"D{k}"
        table = {
            (1, 2, 2): "E6",
            (1, 2, 3): "E7",
            (1, 2, 4): "E8",
            (2, 2, 2): "E~6",
            (1, 3, 3): "E~7",
            (1, 2, 5): "E~8",
        }
        return table.get(lengths)
    # single double bond at the far end of one leg: affine B
    specials = [
        (i, kinds)
        for i, (_, kinds) in enumerate(legs)
        if any(e != SIMPLE for e in kinds)
    ]
    if len(specials) != 1:
        return None
    idx, kinds = specials[0]
    if kinds[:-1] != (SIMPLE,) * (len(kinds) - 1) or kinds[-1] != DOUBLE:
        return None
    others = [l for i, (l, _) in enumerate(legs) if i != idx]
    if others == [1, 1]:
        return f"B~{k - 1}"
    return None


def _classify_two_forks(diagram, comp, forks) -> str | None:
    k = len(comp)
    for fork in forks:
        leaf_legs = 0
        for j in diagram.neighbors(fork, comp):
            if len(diagram.neighbors(j, comp)) == 1:
                leaf_legs += 1
        if leaf_legs < 2:
            return None
    kinds = [diagram.kind(i, j) for i, j in combinations(comp, 2) if diagram.kind(i, j)]
    if any(e != SIMPLE for e in kinds):
        return None
    return f"D~{k - 1}"


def classify_component(diagram: Diagram, comp) -> str | None:
    """Catalog name of a connected subdiagram, None if neither spherical
    nor affine.  The structural verdict is cross-checked against exact
    semidefiniteness of the Gram matrix."""
    comp = tuple(sorted(comp))
    name = _classify_component_structurally(diagram, comp)
    cls = diagram.psd_class(frozenset(comp))
    if name is None:
        expected = "indefinite"
    elif "~" in name:
        expected = "degenerate"
    else:
        expected = "definite"
    if cls != expected:
        raise ConsistencyError(
            f"structure says {name or 'indefinite'} but Gram is {cls} for {comp}"
        )
    return name


def _classify_component_structurally(diagram, comp) -> str | None:
    k = len(comp)
    kinds = [diagram.kind(i, j) for i, j in combinations(comp, 2) if diagram.kind(i, j)]
    if k == 1:
        return "A1"
    if any(e == DIVERGENT for e in kinds):
        return None
    if any(e == PARALLEL for e in kinds):
        if k == 2 and kinds == [PARALLEL]:
            return "A~1"
        return None
    edge_count = len(kinds)
    degrees = {i: len(diagram.neighbors(i, comp)) for i in comp}
    maxdeg = max(degrees.values())
    if maxdeg > 4:
        return None
    if maxdeg == 4:
        centers = [i for i in comp if degrees[i] == 4]
        if k == 5 and len(centers) == 1 and all(e == SIMPLE for e in kinds):
            return "D~4"
        return None
    forks = [i for i in comp if degrees[i] == 3]
    if len(forks) > 2:
        return None
    if edge_count == k:  # exactly one cycle
        if forks or not all(e == SIMPLE for e in kinds):
            return None
        if all(degrees[i] == 2 for i in comp):
            return f"A~{k - 1}"
        return None
    if edge_count != k - 1:  # not a tree
        return None
    if len(forks) == 0:
        # a path: read the edge kinds endpoint to endpoint
        ends = [i for i in comp if degrees[i] == 1]
        if len(ends) != 2:
            return None
        order = [ends[0]]
        while len(order) < k:
            nxt = [
                j
                for j in diagram.neighbors(order[-1], comp)
                if len(order) < 2 or j != order[-2]
            ]
            if len(nxt) != 1:
                return None
            order.append(nxt[0])
        path_kinds = tuple(diagram.kind(a, b) for a, b in zip(order, order[1:]))
        return _classify_path(path_kinds)
    if len(forks) == 1:
        return _classify_one_fork(diagram, comp, forks[0])
    return _classify_two_forks(diagram, comp, forks)


def is_affine_type(name: str) -> bool:
    return "~" in name


def diagram_json(form, roots) -> dict:
    """Serializable description of the wall diagram.

    Nodes carry the root vector and its norm; edges carry the kind and the
    exact cos^2 as a numerator/denominator pair (divergent edges included).
    """
    diagram = build_diagram(form, roots)
    nodes = [
        {"index": i, "root": list(root), "norm": diagram.norms[i]}
        for i, root in enumerate(roots)
    ]
    edges = []
    for (i, j), kind in sorted(diagram.edges.items()):
        num, den = _cos2(diagram.gram[i][j], diagram.norms[i] * diagram.norms[j])
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
