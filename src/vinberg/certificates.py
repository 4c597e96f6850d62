"""Certificates of the classification verdicts, and their verification.

Three verdict-carrying documents plus an inheritance wrapper:

- reflective: the accepted roots with a finite-volume report.  It is
  checked from the roots alone, as CoxIter and AlVin check a Coxeter
  polytope, without replaying the search.  Every entry is a root, so its
  reflection lies in O(L).  The first n roots are the initial simple
  roots and every later root has x0 > 0, so points next to the control
  vertex lie strictly inside every wall and the chamber has interior.
  Every pair of walls meets at an angle pi/k or not at all.  The
  critical-subdiagram report re-derives and says finite, and the chamber
  cone has all its extreme rays in the closed future light cone.  The
  chamber is then a Coxeter polytope of finite volume, so the
  reflections in its walls generate a discrete subgroup of O(L) with the
  chamber as fundamental domain; it has finite covolume, hence finite
  index, and the form is reflective.  Which search produced the roots
  does not matter.  The angle, report and cone checks read one
  volume.ChamberDiagram built fresh on the stored roots, and the report's
  condition (b) and the cone check read its one chamber cone, so one
  fault in the double description could pass both; a check that shares
  no cone code is ROADMAP direction 5.
- ideal_vertex_failure: a primitive null vector e arising from affine
  subdiagrams of the accepted set whose quotient lattice e^perp / Z e has
  root classes of deficient rank.  An affine subset of the simple roots
  extends, in any finite-volume chamber, to one of full rank n - 1 with
  the same null direction, and the extension's classes span the quotient
  rationally; a rank deficit therefore rules finite volume out.  (The
  span can be a proper finite-index sublattice at a genuine ideal vertex,
  so index alone decides nothing.)
- infinite_symmetry: an integral form-preserving isometry of infinite
  order carrying one certified chamber vertex, with its complete wall
  set, to another.  Such a map fixes the chamber, so the wall set cannot
  be finite and nonempty interior of finite volume is impossible.
- inherited_nonreflectivity: lifts a failure at rank n to any rank above,
  by restricting to the orthogonal complement of a norm-one basis root.

verify_certificate re-derives every stored quantity from the form and the
primary data; any mismatch rejects the document.  Malformed documents
raise CertificateError naming the offending field.

The ideal-vertex and symmetry checks re-derive the stored roots by
replaying the search's batch stream (search.reproduces reads
search.replay) with no closure test.  The stored data bound each replay:
it stops at the first batch whose accepts are not a prefix of the stored
roots, the ideal-vertex replay also at the stored root count or above
the height of the highest stored root, and the symmetry replay after the
stored batches_done or above the lowest image under the stored isometry
of a stored root that is not stored, whichever comes first.
"""

from __future__ import annotations

from vinberg import diagram as _diagram
from vinberg import cones, linalg, published, quotient
from vinberg import volume as _volume
from vinberg.errors import CertificateError, DiagramError
from vinberg.forms import Form
from vinberg.search import Budget, open_height, reproduces

SCHEMA_VERSION = 3

_KINDS = ("reflective", "ideal_vertex_failure", "infinite_symmetry", "inherited_nonreflectivity")
_NONREFLECTIVE = _KINDS[1:]


# ---------------------------------------------------------------------------
# construction

def affine_null_marks(form: Form, roots, nodes):
    """Positive primitive marks of an affine root subset and the null vector.

    nodes index into roots and must carry a connected affine subdiagram;
    the Gram kernel is then one-dimensional with all marks of one sign.
    """
    nodes = sorted(nodes)
    G = [[form.inner_product(roots[i], roots[j]) for j in nodes] for i in nodes]
    ker = linalg.kernel(G)
    if len(ker) != 1:
        raise ValueError("marks are only defined for affine subdiagrams")
    marks = list(cones.primitive_vector(ker[0]))
    if marks[0] < 0:
        marks = [-m for m in marks]
    if not all(m > 0 for m in marks):
        raise ValueError("marks of an affine diagram must have one sign")
    e = [sum(m * roots[i][k] for m, i in zip(marks, nodes)) for k in range(form.dim)]
    # the marks are coprime but their root combination need not be
    return marks, cones.primitive_vector(e)


def scan_for_cusp_obstruction(chamber, min_rank=None):
    """Look for a null direction whose root classes have deficient rank.

    Groups the affine components of a grown volume.ChamberDiagram by their
    common null vector; groups of total rank at least min_rank (default
    n - 2) have their quotient tested.  The chamber keeps across batches
    the null vector of each affine component, which depends on its roots
    alone, and the root classes of each null vector, which depend on the
    form alone.  A full-rank entry stopped its walk early and only
    full_rank is read from it; a deficient entry is complete and is handed
    to the certificate.  Returns an ideal_vertex_failure certificate, or
    None.
    """
    form, accepted = chamber.form, chamber.roots
    if min_rank is None:
        min_rank = form.n - 2
    groups: dict = {}
    null_marks = chamber.null_marks
    for comp in chamber.affine_components():
        key = frozenset(comp["nodes"])
        if key not in null_marks:
            null_marks[key] = affine_null_marks(form, accepted, comp["nodes"])
        groups.setdefault(null_marks[key][1], []).append(comp)
    cache = chamber.root_classes
    for e in sorted(groups):
        comps = groups[e]
        if sum(c["rank"] for c in comps) < min_rank:
            continue
        if e not in cache:
            quot = quotient.null_quotient(form, e)
            cache[e] = quotient.root_classes(form, quot)
        if not cache[e]["full_rank"]:
            return ideal_vertex_certificate(chamber, e, comps, cache[e])
    return None


def _document(form: Form, kind: str, payload: dict) -> dict:
    annotations = {}
    pub = published.published_values(form.p, form.n)
    if pub is not None:
        annotations["published_values"] = pub
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "form": {"p": form.p, "n": form.n},
        "payload": payload,
        "annotations": annotations,
    }


def ideal_vertex_certificate(chamber, e, components, rc) -> dict:
    """Certificate that the quotient at e has rank-deficient root classes.

    components are affine components of the chamber with null vector e,
    whose marks the cusp scan left in chamber.null_marks; rc is
    quotient.root_classes at e.
    """
    form, accepted = chamber.form, chamber.roots
    quot = quotient.null_quotient(form, e)
    comps_out = []
    all_nodes = []
    for comp in sorted(components, key=lambda c: sorted(c["nodes"])):
        nodes = sorted(comp["nodes"])
        marks = chamber.null_marks[frozenset(nodes)][0]
        comps_out.append({"nodes": nodes, "type": comp["type"], "marks": marks})
        all_nodes.extend(nodes)
    all_nodes = sorted(all_nodes)
    image = [quot.class_coordinates(accepted[i]) for i in all_nodes]
    comp_data = quotient.orthogonal_complement_data(form, quot, image)
    payload = {
        "roots": [list(r) for r in accepted],
        "components": comps_out,
        "null_vector": list(e),
        "affine_rank": len(linalg.hnf_basis(image)),
        "quotient": {
            "class_basis": [list(r) for r in quot.class_basis],
            "gram": [list(r) for r in quot.gram],
        },
        "affine_image": image,
        "complement": {
            "basis": comp_data["c_basis"],
            "generator": comp_data.get("generator"),
            "generator_norm": comp_data.get("generator_norm"),
        },
        "glue": {
            "index": comp_data["index"],
            "invariants": comp_data.get("invariants", []),
            "vector": comp_data.get("glue_vector"),
            "order": comp_data.get("glue_order"),
        },
        "root_classes": rc,
        "conclusion": "root_classes_rank_deficient",
    }
    return _document(form, "ideal_vertex_failure", payload)


def infinite_symmetry_certificate(form: Form, accepted, symmetry, batches_done) -> dict:
    """Certificate from a frame-to-frame symmetry of the partial chamber.

    batches_done pins down the exact search cut that produced the roots,
    so a verifier can replay it and recover the height frontier; each
    frame corner carries its separating-wall bound, which must lie below
    that frontier for the corner to be a certified chamber vertex.
    """
    from vinberg import isometry

    def frame_out(fr):
        corner = tuple(fr["corner"])
        return {
            "root_indices": list(fr["root_indices"]),
            "corner": list(corner),
            "height_bound": str(isometry.corner_height_bound(form, corner)),
        }

    payload = {
        "roots": [list(r) for r in accepted],
        "batches_done": batches_done,
        "matrix": [list(row) for row in symmetry["matrix"]],
        "frame_from": frame_out(symmetry["frame_from"]),
        "frame_to": frame_out(symmetry["frame_to"]),
        "evidence": symmetry["evidence"],
        "conclusion": "chamber_admits_infinite_order_symmetry",
    }
    return _document(form, "infinite_symmetry", payload)


def reflective_certificate(form: Form, roots, volume_report) -> dict:
    payload = {
        "roots": [list(r) for r in roots],
        "volume": volume_report,
        "conclusion": "chamber_has_finite_volume",
    }
    return _document(form, "reflective", payload)


def inherited_certificate(base: dict, n: int) -> dict:
    """Nonreflectivity at rank n inherited from a verified failure below.

    Restricting to the orthogonal complement of the norm-one basis root
    -v_n reduces the rank-n lattice to the rank n-1 one, so every failure
    propagates upward; no new search is needed.
    """
    _require(base, "kind")
    if base["kind"] not in _NONREFLECTIVE:
        raise CertificateError("payload.base.kind: not a nonreflectivity certificate")
    if n <= base["form"]["n"]:
        raise CertificateError("form.n: inherited rank must exceed the base rank")
    form = Form(base["form"]["p"], n)
    payload = {
        "base": base,
        "conclusion": "nonreflectivity_inherited_from_lower_rank",
    }
    return _document(form, "inherited_nonreflectivity", payload)


# ---------------------------------------------------------------------------
# verification

def verify_certificate(cert: dict) -> bool:
    """True iff every stored claim re-derives from the primary data."""
    return not verification_failures(cert)


def verification_failures(cert: dict) -> list[str]:
    """All re-derivation mismatches; empty means the certificate is valid.

    Malformed documents (missing or type-broken fields) raise
    CertificateError naming the field instead.
    """
    _require(cert, "schema_version")
    if cert["schema_version"] != SCHEMA_VERSION:
        raise CertificateError("schema_version: unsupported value")
    _require(cert, "kind")
    if cert["kind"] not in _KINDS:
        raise CertificateError("kind: unknown certificate kind")
    _require(cert, "form")
    _require(cert["form"], "p", "form.p")
    _require(cert["form"], "n", "form.n")
    _require(cert, "payload")
    _require(cert, "annotations")
    if not isinstance(cert["annotations"], dict):
        raise CertificateError("annotations: must be an object")
    try:
        form = Form(cert["form"]["p"], cert["form"]["n"])
    except (ValueError, TypeError) as exc:
        raise CertificateError(f"form: {exc}")
    kind = cert["kind"]
    if kind == "reflective":
        return _verify_reflective(form, cert["payload"])
    if kind == "ideal_vertex_failure":
        return _verify_ideal_vertex(form, cert["payload"])
    if kind == "infinite_symmetry":
        return _verify_infinite_symmetry(form, cert["payload"])
    return _verify_inherited(form, cert["payload"])


def _require(doc, key, label=None):
    if not isinstance(doc, dict) or key not in doc:
        raise CertificateError(f"{label or key}: missing field")


def _roots(form: Form, payload) -> tuple[list, list[str]]:
    """payload.roots as tuples, with a failure for each entry that is not a
    root of the form.  An entry that is not a list of integers is
    malformed and raises CertificateError naming it."""
    _require(payload, "roots", "payload.roots")
    if not isinstance(payload["roots"], list):
        raise CertificateError("payload.roots: not a list")
    roots = []
    issues = []
    for i, r in enumerate(payload["roots"]):
        if not isinstance(r, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in r
        ):
            raise CertificateError(f"payload.roots[{i}]: not a list of integers")
        roots.append(tuple(r))
        if len(r) != form.dim or not form.is_root(roots[-1]):
            issues.append(f"payload.roots[{i}]: not a root of the form")
    return roots, issues


def _acute_pair(form: Form, roots) -> list[str]:
    for j in range(len(roots)):
        for i in range(j):
            if form.inner_product(roots[i], roots[j]) > 0:
                return [f"payload.roots[{j}]: acute angle with root {i}"]
    return []


def chamber_cone_closes(chamber) -> bool:
    """Whether a grown volume.ChamberDiagram's chamber has finite volume,
    by its cone.

    The cone {x : <x, r> <= 0 for every root r} is the chamber's own
    (ChamberDiagram.chamber_cone), which condition (b) may already have
    read.  Finite volume holds iff it has no lines and every extreme ray
    points into the future (x0 > 0) with norm <= 0: the chamber is then
    the hull of finitely many points of hyperbolic space and its boundary
    at infinity.  This test reads no Coxeter diagram, so it confirms
    volume.finite_volume's critical-subdiagram verdict independently of
    the diagram walk.
    """
    form = chamber.form
    lines, rays = chamber.chamber_cone().generators()
    return not lines and bool(rays) and all(
        r[0] > 0 and form.norm(r) <= 0 for r in rays
    )


def _verify_reflective(form: Form, payload) -> list[str]:
    """The reflective checks of the module docstring, in that order."""
    _require(payload, "volume", "payload.volume")
    roots, issues = _roots(form, payload)
    if issues:
        return issues
    if roots[: form.n] != form.initial_roots():
        return ["payload.roots: does not start with the initial roots"]
    for i in range(form.n, len(roots)):
        if roots[i][0] <= 0:
            return [f"payload.roots[{i}]: first coordinate is not positive"]
    issues = _acute_pair(form, roots)
    if issues:
        return issues
    try:
        chamber = _volume.ChamberDiagram(form, roots)
    except DiagramError as exc:
        return [f"payload.roots: {exc}"]
    report = _volume.finite_volume(chamber)
    if not report["finite"]:
        issues.append("payload.volume: chamber volume is not finite")
    if report != payload["volume"]:
        issues.append("payload.volume: report does not re-derive")
    if not chamber_cone_closes(chamber):
        issues.append("payload.roots: chamber cone is not in the closed light cone")
    return issues


def _verify_ideal_vertex(form: Form, payload) -> list[str]:
    for key in ("components", "null_vector", "affine_rank", "quotient",
                "affine_image", "complement", "glue", "root_classes", "conclusion"):
        _require(payload, key, f"payload.{key}")
    roots, issues = _roots(form, payload)
    if issues:
        return issues
    issues = _acute_pair(form, roots)
    if issues:
        return issues
    # the search accepts roots in order of height, so it has reached the
    # stored count by the batch of the highest stored root or never
    top = max(map(form.height, roots), default=0)
    if not reproduces(form, roots, budget=Budget(max_height=top, max_roots=len(roots))):
        return ["payload.roots: not a state of the root search"]
    e = tuple(payload["null_vector"])
    if len(e) != form.dim or form.norm(e) != 0 or not any(e) or not form.is_primitive(e):
        issues.append("payload.null_vector: not a primitive null vector")
        return issues
    if e[0] <= 0:
        issues.append("payload.null_vector: wrong light-cone orientation")
        return issues

    d = _diagram.build_diagram(form, roots)
    all_nodes = []
    for ci, comp in enumerate(payload["components"]):
        _require(comp, "nodes", f"payload.components[{ci}].nodes")
        _require(comp, "type", f"payload.components[{ci}].type")
        _require(comp, "marks", f"payload.components[{ci}].marks")
        nodes = list(comp["nodes"])
        if nodes != sorted(set(nodes)) or not all(0 <= i < len(roots) for i in nodes):
            issues.append(f"payload.components[{ci}].nodes: bad index set")
            return issues
        sub = _diagram.classify_subdiagram(d, nodes)
        if sub["kind"] != "affine" or len(sub["types"]) != 1 or sub["types"][0] != comp["type"]:
            issues.append(f"payload.components[{ci}].type: subdiagram is not affine of this type")
            continue
        try:
            marks, e_comp = affine_null_marks(form, roots, nodes)
        except ValueError:
            issues.append(f"payload.components[{ci}].marks: marks are undefined")
            continue
        if marks != list(comp["marks"]) or e_comp != e:
            issues.append(f"payload.components[{ci}].marks: null vector does not re-derive")
        all_nodes.extend(nodes)
    if issues:
        return issues
    if len(set(all_nodes)) != len(all_nodes):
        issues.append("payload.components: overlapping components")
        return issues
    all_nodes = sorted(all_nodes)

    quot = quotient.null_quotient(form, e)
    if [list(r) for r in quot.class_basis] != payload["quotient"].get("class_basis") or [
        list(r) for r in quot.gram
    ] != payload["quotient"].get("gram"):
        issues.append("payload.quotient: basis or Gram does not re-derive")
        return issues
    image = [quot.class_coordinates(roots[i]) for i in all_nodes]
    if image != payload["affine_image"]:
        issues.append("payload.affine_image: coordinates do not re-derive")
        return issues
    if len(linalg.hnf_basis(image)) != payload["affine_rank"]:
        issues.append("payload.affine_rank: rank does not re-derive")

    comp_data = quotient.orthogonal_complement_data(form, quot, image)
    stored = payload["complement"]
    if (comp_data["c_basis"] != stored.get("basis")
            or comp_data.get("generator") != stored.get("generator")
            or comp_data.get("generator_norm") != stored.get("generator_norm")):
        issues.append("payload.complement: complement does not re-derive")
    glue = payload["glue"]
    if (comp_data["index"] != glue.get("index")
            or comp_data.get("invariants", []) != glue.get("invariants")
            or comp_data.get("glue_vector") != glue.get("vector")
            or comp_data.get("glue_order") != glue.get("order")):
        issues.append("payload.glue: glue data does not re-derive")

    rc = quotient.root_classes(form, quot)
    if rc != payload["root_classes"]:
        issues.append("payload.root_classes: classes do not re-derive")
    if rc["full_rank"]:
        issues.append("payload.root_classes: root classes span the quotient rationally")
    if payload["conclusion"] != "root_classes_rank_deficient":
        issues.append("payload.conclusion: unexpected value")
    return issues


def _verify_infinite_symmetry(form: Form, payload) -> list[str]:
    """Re-derivation chain for the symmetry route.

    Soundness rests on four facts checked here: the stored roots are the
    exact output of the search through the stored batch count; each frame
    corner's separating-wall bound lies below the resulting height
    frontier, so the corner is a vertex of the full chamber; the frame
    roots are its complete wall set, recomputed from the lattice alone;
    and the matrix is a form isometry of infinite order carrying one
    framed corner to the other.  A chamber of finite volume would then
    carry an infinite-order permutation of its finitely many spanning
    walls, which is impossible.

    The replay runs last, capped by the stored data: the isometry maps
    walls to walls and the search accepts every wall below its frontier,
    so a stored root's image that is not stored lies above the replay.
    """
    from vinberg import isometry

    for key in ("matrix", "batches_done", "frame_from", "frame_to",
                "evidence", "conclusion"):
        _require(payload, key, f"payload.{key}")
    roots, issues = _roots(form, payload)
    if issues:
        return issues
    batches = payload["batches_done"]
    if not isinstance(batches, int) or isinstance(batches, bool) or batches < 0:
        raise CertificateError("payload.batches_done: not a non-negative integer")

    T = payload["matrix"]
    if (len(T) != form.dim or any(len(row) != form.dim for row in T)
            or any(not isinstance(x, int) for row in T for x in row)):
        issues.append("payload.matrix: not an integer matrix of the right size")
        return issues
    F = form.form_matrix
    if linalg.mat_mul(linalg.mat_mul(linalg.transpose(T), F), T) != F:
        issues.append("payload.matrix: does not preserve the form")
        return issues

    frames = []
    for label in ("frame_from", "frame_to"):
        fr = payload[label]
        _require(fr, "root_indices", f"payload.{label}.root_indices")
        _require(fr, "corner", f"payload.{label}.corner")
        _require(fr, "height_bound", f"payload.{label}.height_bound")
        idx = list(fr["root_indices"])
        corner = tuple(fr["corner"])
        if (len(idx) != form.n or len(set(idx)) != form.n
                or not all(isinstance(i, int) and 0 <= i < len(roots) for i in idx)):
            issues.append(f"payload.{label}.root_indices: bad index set")
            return issues
        if len(corner) != form.dim or form.norm(corner) >= 0 or corner[0] <= 0:
            issues.append(f"payload.{label}.corner: not a future timelike vector")
            return issues
        if not form.is_primitive(corner):
            issues.append(f"payload.{label}.corner: not primitive")
            return issues
        if any(form.inner_product(r, corner) > 0 for r in roots):
            issues.append(f"payload.{label}.corner: outside the chamber")
            return issues
        bound = isometry.corner_height_bound(form, corner)
        if str(bound) != fr["height_bound"]:
            issues.append(f"payload.{label}.height_bound: does not re-derive")
            return issues
        if any(form.inner_product(roots[i], corner) != 0 for i in idx):
            issues.append(f"payload.{label}.root_indices: frame roots must contain the corner")
            return issues
        if isometry.vertex_walls(form, corner) != sorted(roots[i] for i in idx):
            issues.append(
                f"payload.{label}.root_indices: not the complete wall set "
                "through the corner"
            )
            return issues
        frames.append((label, idx, corner, bound))
    (_, idx_from, c_from, _), (_, idx_to, c_to, _) = frames
    if form.norm(c_from) != form.norm(c_to) or c_from == c_to:
        issues.append("payload.frame_to.corner: corners must be distinct of equal norm")
        return issues

    def apply(v):
        return tuple(sum(T[i][j] * v[j] for j in range(form.dim)) for i in range(form.dim))

    if apply(c_from) != c_to:
        issues.append("payload.matrix: does not map the source corner to the target")
    for s in range(form.n):
        if apply(roots[idx_from[s]]) != roots[idx_to[s]]:
            issues.append(f"payload.matrix: does not map frame root {s} as stated")
    evidence = isometry.infinite_order_evidence([list(row) for row in T])
    if evidence is None:
        issues.append("payload.matrix: matrix has finite order")
    elif evidence != payload["evidence"]:
        issues.append("payload.evidence: does not re-derive")
    if payload["conclusion"] != "chamber_admits_infinite_order_symmetry":
        issues.append("payload.conclusion: unexpected value")
    if issues:
        return issues

    stored = set(roots)
    images = [form.height(v) for v in map(apply, roots) if v not in stored]
    # with no image outside the roots, T permutes them; a cap of 0 stops the replay
    cap = Budget(max_height=min(images, default=0), max_roots=len(roots) + 1)
    if not reproduces(form, roots, batches, cap):
        return ["payload.roots: not the search state after this many batches"]
    frontier = open_height(form, batches)
    for label, _, _, bound in frames:
        if bound >= frontier:
            return [
                f"payload.{label}.corner: separating-wall bound not cleared "
                "by the scanned height"
            ]
    return issues


def _verify_inherited(form: Form, payload) -> list[str]:
    _require(payload, "base", "payload.base")
    base = payload["base"]
    _require(base, "kind", "payload.base.kind")
    _require(base, "form", "payload.base.form")
    issues = []
    if base["kind"] not in _NONREFLECTIVE:
        issues.append("payload.base.kind: not a nonreflectivity certificate")
        return issues
    if base["form"].get("p") != form.p:
        issues.append("payload.base.form: prime mismatch")
    if base["form"].get("n", form.n) >= form.n:
        issues.append("payload.base.form: base rank must be lower")
    if issues:
        return issues
    sub = verification_failures(base)
    if sub:
        issues.extend(f"payload.base.{s}" for s in sub)
    return issues
