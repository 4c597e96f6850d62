"""Both finite-volume tests for the chamber cut out by the accepted roots.

finite_volume is Vinberg's critical-subdiagram criterion (Vinberg 1972).  A
critical subdiagram is a connected, inclusion-minimal non-elliptic set of
walls; by eigenvalue interlacing it is either parabolic (degenerate) or
hyperbolic (indefinite).  The chamber has finite volume iff the walls
span the whole space and
  (a) every parabolic critical subdiagram extends to an affine subdiagram
      of full rank n - 1, and
  (b) for every hyperbolic critical subdiagram S, the set of directions
      orthogonal to S and on the non-positive side of every wall is {0}.
(a) is read by cusp (ChamberDiagram.cusps): S extends iff the ranks
(nodes less one) of the components at its null vector e sum to n - 1,
the rank of the definite e^perp / Z e, which they never exceed.  The set
in (b) is the face of the chamber cone C = {x : <x, r> <= 0 for every
root} tight on S.  The rank is checked first, as the dimension less that
of C's lineality space, so C is pointed, and a face of a pointed cone is
spanned by the extreme rays it holds: (b) fails for S exactly when some
ray of C is tight on every wall of S.

The search runs finite_volume alone, after every batch that accepts a
root, and reads only its verdict until the chamber closes; so the test
proves each critical set once, stops at the first set it cannot prove,
and lists the sets only once every one is proved.  The verifier adds the
cone test, chamber_cone_closes.  tests/oracles.py keeps an edge-counting
decider.

The diagram work lives in a ChamberDiagram.  Whether a wall subset is
elliptic, critical or affine depends only on the Gram of its roots, so
the sets found for roots[:k] stay valid for roots[:k + j], and every new
one holds a new wall.  grow adds the new Gram rows, each new inner
product computed once, and edges; then one walk (critical_submatrices)
from the new walls records the new critical sets and affine components.
The walk classifies each set it meets, an elliptic set plus one wall, by
bordered elimination against that elliptic set's stored pivot rows, and
decides which indefinite sets are critical once it has finished.  It
extends an elliptic set of 2 or more walls only by walls at a finite
angle to each of its own (in none of their Diagram.far): a parallel or
divergent pair is not elliptic, so no set holding one is elliptic, and
none of 3 or more walls is critical.  A hyperbolic critical set of 3 or
more walls is a Lanner diagram, of at most 5 walls, so only indefinite
sets of 4 to 5 walls are tested for minimality: larger ones are dropped
untested, and 2-wall ones, and 3-wall ones, all of whose pairs that
rule leaves at finite angles, are kept untested.  The object also keeps
the PSD class of every wall subset classified, keyed by node set
(Diagram.classes); C as one live cones.Cone, given only the walls it
lacks when (b) or a corner is read; open, the critical sets not yet
proved to meet their condition, in the order the walk met them, since
a set that meets it on a prefix meets it on every longer one; and, for
the cusp scan, the null vector of each cusp's first member and, for
each null vector, None when the walls through it span its quotient, or
else its quotient lattice and that quotient's root classes, which the
certificate reuses.

Every fact it holds was proved on a prefix of its roots, so a list that
does not extend them starts it from nothing: a misused object cannot
change an answer.  Its readers (finite_volume, the cusp scan, the corner
and symmetry hunt in isometry) take it grown and read its form and roots;
none builds or grows one.  search.run_search owns one per run and grows
it after each batch that accepted a root, so finite_volume and the cusp
scan on the same prefix share it, and so does its symmetry hunt once
the budget is spent.  certificates._verify_reflective builds a fresh one
on the stored roots and runs both tests on it, so a stored report is
re-derived from the roots alone, sharing nothing with the search.
"""

from __future__ import annotations

from operator import mul

from vinberg import cones, diagram as dg


class ChamberDiagram(dg.Diagram):
    """The Coxeter diagram of one search's roots, grown as they grow."""

    def __init__(self, form, roots=()):
        super().__init__()
        self.form = form
        self.roots: list = []
        self.critical: dict = {}  # node set -> "parabolic" | "hyperbolic"
        self.affine: dict = {}  # connected affine node set -> catalog type
        # critical sets not yet shown to meet their condition, in walk order
        self.open: list = []
        self.cone = cones.Cone(form.dim)  # the chamber cone, on a prefix of roots
        self.null_marks: dict = {}  # a cusp's first member -> (marks, null vector)
        # null vector -> None when the walls through it span its quotient,
        # else (quotient.null_quotient, quotient.root_classes of it)
        self.root_classes: dict = {}
        self.grow(roots)

    def grow(self, roots) -> None:
        """Make roots the walls, exploring only the ones not seen before.

        A list that does not extend the roots grown so far, or a grow cut
        short by an exception, starts the diagram from nothing.
        """
        k = len(self.roots)
        if len(self) != k or list(roots[:k]) != self.roots:
            self.__init__(self.form)
            k = 0
        # each new pair's inner product once, as dual(s) . r (dual checks
        # each new root's length): the rows' upper triangle, mirrored
        rows = [
            [sum(map(mul, d, r)) for r in roots[: j + 1]]
            for j, d in enumerate(map(self.form.dual, roots[k:]), k)
        ]
        for t, row in enumerate(rows):
            row.extend(later[k + t] for later in rows[t + 1:])
        self.extend(rows)
        critical, affine = critical_submatrices(self, range(k, len(roots)))
        self.critical.update(critical)
        self.open.extend(critical)
        self.affine.update(affine)
        self.roots.extend(roots[k:])

    def chamber_cone(self) -> cones.Cone:
        """The cone {x : <x, r> <= 0 for every root}, given the walls it lacks."""
        new = self.roots[len(self.cone.processed):]
        if new:
            cones.cone_generators([self.form.dual(r) for r in new], self.form.dim, self.cone)
        return self.cone

    def cusps(self) -> list[list[frozenset]]:
        """The connected affine subdiagrams grouped by their null vector.

        For walls at acute angles, two connected affine subdiagrams share
        their null vector exactly when they are disjoint and no edge joins
        them.  If they are, their null vectors are orthogonal, and
        orthogonal null vectors of a Lorentzian form are proportional.  If
        they share e, their union lies in e^perp, where the form is
        positive semidefinite, and a connected positive-semidefinite
        diagram holds no connected affine one properly.  Only search roots
        and roots that passed certificates._acute_pair reach a
        ChamberDiagram, so the premise holds, and a component joins the
        first group whose first member it neither overlaps nor shares an
        edge with.  Groups and their members are in order of sorted nodes.
        """
        groups: list[list[frozenset]] = []
        for s in sorted(self.affine, key=sorted):
            for group in groups:
                if s.isdisjoint(group[0].union(*(self.adjacent[i] for i in group[0]))):
                    group.append(s)
                    break
            else:
                groups.append([s])
        return groups


def bordered_column(columns, row) -> tuple[int, ...]:
    """The Bareiss pivot column that bordering a positive definite integer
    matrix G by one node adds.

    columns are G's fraction-free pivot columns, () for the empty matrix:
    column j holds entry j of pivot rows 0..j, the last being the leading
    principal minor of order j + 1.  row is the new node's inner products
    with G's nodes, in order, then its norm.  Eliminating it against the
    pivot rows takes O(k^2) exact divisions; by symmetry its entries as it
    is eliminated are the pivot rows' entries in the new column.  The last
    entry of the returned column is det G times the Schur complement, so,
    G being definite, its sign is the bordered matrix's class: > 0
    definite, 0 degenerate, < 0 indefinite (inertia adds over a Schur
    complement).
    """
    x = list(row)
    k = len(columns)
    out = []
    prev = 1
    for i, col in enumerate(columns):
        d = col[i]
        f = x[i]
        out.append(f)
        for j in range(i + 1, k):
            x[j] = (d * x[j] - f * columns[j][i]) // prev
        x[k] = (d * x[k] - f * f) // prev
        prev = d
    out.append(x[k])
    return tuple(out)


def critical_submatrices(diagram, start) -> tuple[dict, dict]:
    """The critical and the connected affine wall subsets holding a start node.

    One walk grows connected elliptic sets from the start nodes, one
    adjacent wall at a time.  It reaches every connected t holding a start
    node v whose proper subsets are all elliptic: for a leaf w != v of a
    spanning tree of t, t - {w} is connected, elliptic and holds v.

    A set s of 2 or more walls is extended only by walls far from none of
    its own (diagram.far: a PARALLEL or DIVERGENT edge), which loses no
    such t.  A far pair's Gram is not definite, so an elliptic s holds no
    far pair, and t = s + {v} holds one only if v is far from a wall of s;
    then t is not elliptic, and neither t nor a set holding it is
    critical, since a critical set of 3 or more walls has only elliptic
    proper subsets.  A single wall is extended by every adjacent wall, so
    the 2-wall critical sets, A~1 and divergent pairs, are still found.
    Each frontier entry carries the walls it may be extended by and the
    union of its walls' far sets, so no step rebuilds them.

    Each elliptic set s keeps its nodes in the order the walk added them
    and their Bareiss pivot columns, so t = s + {v} is classified by
    bordered_column: v's Gram row eliminated against s's pivot rows, whose
    last pivot is det G_t.  G_s is definite, so det G_t > 0, = 0, < 0 make
    t definite, degenerate, indefinite; each class goes into
    diagram.classes.  A degenerate t is affine, so it is critical and
    parabolic; dg.affine_type names it and raises ConsistencyError if its
    structure is not in the affine catalog.

    An indefinite t is critical, and hyperbolic, when dropping any one
    wall leaves a definite set.  With 3 or more nodes its pairs are then
    definite, so every angle is finite and t is a Lanner diagram, which
    has at most 5 nodes (Lanner 1950; Vinberg 1985, Hyperbolic reflection
    groups): a larger t is dropped untested.  A 2-node t is kept untested,
    since its proper subsets are single walls, of positive norm, and so is
    a 3-node t: s is elliptic and v at a finite angle to both its walls,
    so each pair is definite.  For 4 to 5 nodes the test runs after the
    walk, when every connected elliptic set holding a start node is known:
    t - {u} is definite iff each of its connected components is a single
    wall or has the memoised class "definite" (diagram.psd_class), which
    the walk recorded for the sets it reached; a component it did not
    reach gets psd_classify, so the answer never rests on the walk's
    reach.  Returns (critical, affine): node sets to "parabolic" or
    "hyperbolic", in the order the walk met them, and node sets to
    catalog types.
    """
    adjacent = diagram.adjacent
    far = diagram.far
    gram = diagram.gram
    classes = diagram.classes
    elliptic = {frozenset([i]) for i in start}
    # each elliptic set still to extend, with its nodes in walk order, their
    # pivot columns, the walls it may be extended by and the walls far from
    # one of its own
    frontier = [(s, (i,), ((gram[i][i],),), adjacent[i], far[i]) for s in elliptic for i in s]
    critical: dict = {}
    affine: dict = {}
    while frontier:
        s, order, columns, reach, far_s = frontier.pop()
        for v in reach:
            t = s | {v}
            if t in elliptic or t in critical:
                continue
            row = gram[v]
            column = bordered_column(columns, [row[i] for i in order] + [row[v]])
            if column[-1] > 0:
                classes[t] = "definite"
                elliptic.add(t)
                far_t = far_s | far[v]
                frontier.append(
                    (t, order + (v,), columns + (column,), (reach | adjacent[v]) - t - far_t, far_t)
                )
            elif column[-1] == 0:
                classes[t] = "degenerate"
                affine[t] = dg.affine_type(diagram, t)
                critical[t] = "parabolic"
            else:
                classes[t] = "indefinite"
                critical[t] = "hyperbolic"  # kept only if the test below holds
    for t, cls in list(critical.items()):
        if cls == "hyperbolic" and (
            len(t) > 5 or len(t) > 3 and not all(_definite(diagram, t - {u}) for u in t)
        ):
            del critical[t]
    return critical, affine


def _definite(diagram, nodes) -> bool:
    """Whether the Gram of a set of walls is positive definite: the Gram
    is block diagonal over the connected components, and a single wall
    has positive norm."""
    cls = diagram.classes.get(nodes)
    if cls is not None:
        return cls == "definite"
    return all(
        len(comp) == 1 or diagram.psd_class(frozenset(comp)) == "definite"
        for comp in dg.components(diagram, nodes)
    )


def cone_fixed_set(chamber, nodes) -> list:
    """Rays of the chamber cone tight on every wall in nodes.

    They span the face {x in C : <x, r_i> = 0 for i in nodes} of the
    chamber cone C; when C is pointed, that face is the fixed cone of the
    walls and is {0} exactly when the list is empty.  The cone's raw rays
    are its extreme rays, each once and nonzero, so none is filtered out.
    A ray is kept iff its mask (cones.Cone.masks) contains that of nodes.
    """
    cone = chamber.chamber_cone()
    want = sum(1 << i for i in set(nodes))
    return [r for r, m in zip(cone.rays, cone.masks) if m & want == want]


def finite_volume(chamber) -> dict:
    """Critical-subdiagram verdict on a grown ChamberDiagram's roots, as a
    serializable report.

    The walls' rank is checked first.  If it is short of form.dim the
    report is {"finite": False, "rank": rk, "rank_deficient": True}.
    Otherwise the test works from the head of chamber.open, the critical
    sets not yet shown to meet their condition: a parabolic set passes
    when it lies in a cusp whose components reach rank n - 1 together, a
    hyperbolic one when its face of the chamber cone is {0}
    (cone_fixed_set).  The cusps are grouped at most once per call, and
    only once a parabolic set is reached.  A set that passes leaves open;
    the first that fails stays at its head, and the report is
    {"finite": False, "rank": rk}, with no condition lists, so that it
    does not depend on the order the walk met the sets in.  Once open is
    empty, every condition holds, and the report lists every critical
    set, sorted, with each condition_a entry extending and each
    condition_b entry's cone trivial.

    A set may leave open for good because both conditions only go from
    failing to passing as roots are added.  A cusp only gains components,
    since an affine set found stays affine and keeps its null vector, and
    the components' rank sum never exceeds n - 1, so a cusp that reaches
    it keeps it.  The rank is full before any set is tested, and a face
    shown to be {0} on some walls stays {0} once more walls cut the cone.
    """
    form = chamber.form
    # the walls' span: the initial roots span the definite hyperplane
    # x0 = 0 and a later root leaves it, so the form is nondegenerate on
    # the span and this is also the rank of the Gram
    rk = form.dim - len(chamber.chamber_cone().lines)
    if rk != form.dim:
        return {"finite": False, "rank": rk, "rank_deficient": True}
    full = None  # the affine sets at the cusps of rank n - 1, once needed
    passed = 0
    for s in chamber.open:
        if chamber.critical[s] == "hyperbolic":
            good = not cone_fixed_set(chamber, s)
        else:
            if full is None:
                full = {
                    t for cusp in chamber.cusps()
                    if sum(len(c) - 1 for c in cusp) == form.n - 1 for t in cusp
                }
            good = s in full
        if not good:
            break
        passed += 1
    del chamber.open[:passed]
    if chamber.open:
        return {"finite": False, "rank": rk}
    # lists, not tuples: the report is embedded in JSON certificates and
    # must compare equal after a serialization round trip
    criticals = sorted(
        ({"nodes": sorted(s), "class": c} for s, c in chamber.critical.items()),
        key=lambda d: d["nodes"],
    )
    return {
        "finite": True, "rank": rk, "critical": criticals,
        "condition_a": [
            {"nodes": d["nodes"], "extends": True} for d in criticals if d["class"] == "parabolic"
        ],
        "condition_b": [
            {"nodes": d["nodes"], "trivial_cone": True} for d in criticals if d["class"] == "hyperbolic"
        ],
    }


def chamber_cone_closes(chamber) -> bool:
    """Whether a grown ChamberDiagram's chamber has finite volume, by its cone.

    The cone {x : <x, r> <= 0 for every root r} is the chamber's own
    (ChamberDiagram.chamber_cone), which condition (b) may already have
    read.  Finite volume holds iff it has no lines and every extreme ray
    points into the future (x0 > 0) with norm <= 0: the chamber is then
    the hull of finitely many points of hyperbolic space and its boundary
    at infinity.  This test reads no Coxeter diagram, so it confirms
    finite_volume's critical-subdiagram verdict independently of the
    diagram walk.
    """
    form = chamber.form
    lines, rays = chamber.chamber_cone().generators()
    return not lines and bool(rays) and all(
        r[0] > 0 and form.norm(r) <= 0 for r in rays
    )
