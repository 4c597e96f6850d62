"""Finite-volume test for the chamber cut out by the accepted roots.

The test is Vinberg's critical-subdiagram criterion (Vinberg 1972).  A
critical subdiagram is a connected, inclusion-minimal non-elliptic set of
walls; by eigenvalue interlacing it is either parabolic (degenerate) or
hyperbolic (indefinite).  The chamber has finite volume iff the walls
span the whole space and
  (a) every parabolic critical subdiagram extends to an affine subdiagram
      of full rank n - 1, and
  (b) for every hyperbolic critical subdiagram S, the set of directions
      orthogonal to S and on the non-positive side of every wall is {0}.

One call builds one Diagram, one list of affine subdiagrams of rank n - 1
and one PSD classifier.  This is the only finite-volume decider the
search runs.  Reflective certificates confirm its verdict independently:
certificates._verify_reflective checks that the chamber cone's extreme
rays all lie in the closed future light cone.  tests/oracles.py keeps a
second, edge-counting decider as a reference.

The search calls finite_volume after every batch that accepted a root, on
a list that only grows, so most of each call was already proved on the
previous prefix.  A PrefixMemo carries those facts from call to call.
Its scope is one search: run_search creates it, passes it to every
finite_volume call and cusp scan on its own root list, and drops it when
it returns.  It keeps

- the PSD class of every wall subset classified so far, keyed by the
  subset's roots in index order.  The class is a function of the Gram of
  those roots, so the key determines it whatever list the roots sit in;
- condition (b) proofs.  The fixed cone of a hyperbolic S is cut out by
  every root of the list, so adding roots can only shrink it: a cone
  proved {0} stays {0} while the roots only grow.  A proof is stored with
  S's roots and the set of roots it used, and reused only when that set
  lies inside the current roots, so a call on a shorter or different list
  recomputes and a misused memo can never change an answer.  Only
  trivial cones are kept; a non-trivial one is recomputed on every call;
- the quotient root classes of each null vector the cusp scan tested,
  which depend on the form alone.

Certificate verification makes its finite_volume call without a memo, so
the stored report is re-derived from the roots alone.
"""

from __future__ import annotations

from vinberg import cones, diagram as dg, linalg


class PrefixMemo:
    """Facts proved on earlier prefixes of one search's root list."""

    def __init__(self):
        self.classes: dict = {}  # roots of a wall subset -> PSD class
        self.trivial_cones: dict = {}  # roots of S -> roots its proof used
        self.root_classes: dict = {}  # null vector -> quotient.root_classes

    def classifier(self, diagram, roots):
        """PSD class of a set of node indices of the diagram of roots."""
        classes = self.classes

        def classify(nodes):
            nodes = sorted(nodes)
            key = tuple(map(roots.__getitem__, nodes))
            cls = classes.get(key)
            if cls is None:
                cls = classes[key] = diagram.psd_class(nodes)
            return cls

        return classify


def critical_submatrices(diagram, classify) -> list[dict]:
    """All critical (connected, minimal non-elliptic) wall subsets.

    Each entry carries the node tuple and its class: "parabolic" for
    degenerate Gram, "hyperbolic" for indefinite.  classify maps a node
    set to its PSD class (Diagram.psd_class or a PrefixMemo classifier).
    """
    n = len(diagram)
    elliptic: set = {frozenset([i]) for i in range(n)}
    frontier = list(elliptic)
    critical: dict = {}
    while frontier:
        s = frontier.pop()
        reachable = set()
        for i in s:
            reachable.update(diagram.neighbors(i))
        for v in sorted(reachable - s):
            t = s | {v}
            if t in elliptic or t in critical:
                continue
            cls = classify(t)
            if cls == "definite":
                elliptic.add(t)
                frontier.append(t)
                continue
            # minimality: removing any one wall must leave an elliptic set
            if all(classify(t - {u}) == "definite" for u in t):
                critical[t] = "parabolic" if cls == "degenerate" else "hyperbolic"
    # lists, not tuples: the report is embedded in JSON certificates and
    # must compare equal after a serialization round trip
    out = [
        {"nodes": sorted(s), "class": c}
        for s, c in critical.items()
    ]
    out.sort(key=lambda d: d["nodes"])
    return out


def cone_fixed_set(form, roots, nodes) -> tuple[list, list]:
    """Generators of {x : x orthogonal to the given walls, x . r <= 0 for all
    accepted roots r}, as (lines, rays) in lattice coordinates."""
    dim = form.dim
    walls = [form.dual(r) for r in roots]
    # x orthogonal to S: restrict to the rational kernel of the S rows
    if nodes:
        ortho = [walls[i] for i in nodes]
        basis = [cones.primitive_vector(b) for b in linalg.kernel(ortho)]
    else:
        basis = linalg.identity(dim)
    constraints = [tuple(linalg.dot(w, b) for b in basis) for w in walls]
    lines, rays = cones.cone_generators(constraints, len(basis))
    to_ambient = lambda y: tuple(
        sum(y[j] * basis[j][k] for j in range(len(basis))) for k in range(dim)
    )
    return (
        [cones.primitive_vector(to_ambient(l)) for l in lines],
        [cones.primitive_vector(to_ambient(r)) for r in rays],
    )


def _trivial_fixed_cone(form, roots, nodes, memo, current) -> bool:
    """Condition (b) for S = nodes, reusing a proof made on fewer roots."""
    key = tuple(roots[i] for i in nodes)
    used = memo.trivial_cones.get(key)
    if used is not None and used <= current:
        return True
    lines, rays = cone_fixed_set(form, roots, nodes)
    if lines or rays:
        return False
    memo.trivial_cones[key] = current
    return True


def _critical_decider(form, roots, diagram, classify, affine_nodes, memo, report) -> bool:
    rk = linalg.rank(diagram.gram)
    report["rank"] = rk
    if rk != form.dim:
        report["rank_deficient"] = True
        return False
    criticals = critical_submatrices(diagram, classify)
    report["critical"] = criticals
    current = frozenset(roots)
    cond_a = []
    cond_b = []
    ok = True
    for item in criticals:
        nodes = item["nodes"]
        if item["class"] == "parabolic":
            # does the parabolic subdiagram extend to an affine one of rank n - 1?
            good = any(set(nodes) <= a for a in affine_nodes)
            cond_a.append({"nodes": nodes, "extends": good})
        else:
            good = _trivial_fixed_cone(form, roots, nodes, memo, current)
            cond_b.append({"nodes": nodes, "trivial_cone": good})
        ok = ok and good
    report["condition_a"] = cond_a
    report["condition_b"] = cond_b
    return ok


def finite_volume(form, roots, memo=None) -> dict:
    """Critical-subdiagram verdict on the chamber, as a serializable report.

    memo is the calling search's PrefixMemo; without one, the call starts
    from nothing.  The report is the same either way.
    """
    if memo is None:
        memo = PrefixMemo()
    diagram = dg.build_diagram(form, roots)
    classify = memo.classifier(diagram, roots)
    affine_nodes = [
        set(item["nodes"])
        for item in dg.affine_sets_of_rank(diagram, form.n - 1, classify)
    ]
    report: dict = {"finite": False}
    report["finite"] = _critical_decider(
        form, roots, diagram, classify, affine_nodes, memo, report
    )
    return report
