"""Certificates of the classification verdicts, and their verification.

Three verdict-carrying documents plus an inheritance wrapper:

- reflective: the accepted roots with a finite-volume report.  It is
  checked from the roots alone, as CoxIter and AlVin check a Coxeter
  polytope, without replaying the search.  Every entry is a root, so its
  reflection lies in O(L).  The first n roots are the initial simple
  roots and every later root has x0 > 0, so points next to the control
  vertex lie strictly inside every wall and the chamber has interior.
  Two walls meet at an angle pi/k or not at all, as both their norms
  divide twice their inner product.  volume's two finite-volume tests
  pass: the critical-subdiagram report re-derives and says finite, and
  the chamber cone has all its extreme rays in the closed future light
  cone.  The chamber is then a Coxeter polytope of finite volume, so the
  reflections in its walls generate a discrete subgroup of O(L) with the
  chamber as fundamental domain; it has finite covolume, hence finite
  index, and the form is reflective.  Which search produced the roots
  does not matter.  Both tests read one volume.ChamberDiagram built
  fresh on the stored roots, and condition (b) and the cone test read its
  one chamber cone, so one fault in the double description could pass
  both; a check that shares no cone code is ROADMAP direction 5.
- ideal_vertex_failure: a primitive null vector e arising from affine
  subdiagrams of the accepted set whose quotient lattice e^perp / Z e has
  root classes of deficient rank.  An affine subset of the simple roots
  extends, in any finite-volume chamber, to one of full rank n - 1 with
  the same null direction, and the extension's classes span the quotient
  rationally; a rank deficit therefore rules finite volume out.  (The
  span can be a proper finite-index sublattice at a genuine ideal vertex,
  so index alone decides nothing.)  The search's scan reads the
  chamber's walls through e before it walks the quotient: each wall is a
  root in e^perp, so its class is a root class, and walls whose classes
  span the quotient prove full rank with no walk.  The verifier walks
  every root class itself, unseeded.
- infinite_symmetry: an integral form-preserving isometry of infinite
  order carrying one certified chamber vertex, with its complete wall
  set, to another.  Such a map fixes the chamber, so the wall set cannot
  be finite and nonempty interior of finite volume is impossible.
- inherited_nonreflectivity: lifts a failure at rank n to any rank above,
  by restricting to the orthogonal complement of a norm-one basis root.
  Its base is a direct obstruction, never another inherited certificate:
  the lift is transitive, so one step from the first failure suffices.

Each kind has one payload builder, which construction and verification
both call.  A verifier checks the primary fields against the form, then
rebuilds the payload from them and compares it with the stored one, key
by key, with the same type at every node (true is not 1, 1.0 is not 1):
a key that differs fails as "payload.<key>: does not re-derive".

- reflective: primary roots; re-derived volume and conclusion.
- ideal_vertex_failure: primary roots, null_vector and each component's
  nodes (a connected affine subdiagram whose null vector is null_vector,
  disjoint from the others); re-derived components (type and marks),
  affine_rank, quotient, affine_image, complement, glue, root_classes
  (checked rank-deficient) and conclusion.
- infinite_symmetry: primary roots, batches_done, matrix and each
  frame's root_indices and corner; re-derived frame_from and frame_to
  (height_bound, also checked per frame), evidence and conclusion.  The
  roots and batches_done are a cut of the search, its first batches_done
  batches and the roots they accept; the search stores the shortest cut
  that certifies both corners, not the cut its budget reached.
- inherited_nonreflectivity: primary base (a direct obstruction of the
  same prime and a lower rank, verified in turn); re-derived conclusion.

A certificate holds schema_version, kind, form (p and n) and payload,
and nothing else.  Malformed documents (a missing or unknown field, or a
primary field of the wrong type) raise CertificateError naming the field.

The ideal-vertex and symmetry checks re-derive the stored roots by
replaying the search's batch stream (search.reproduces reads
search.replay) with no closure test.  The stored data bound each replay:
it stops at the first batch whose accepts are not a prefix of the stored
roots, the ideal-vertex replay also above the height of the highest
stored root, and the symmetry replay after the stored batches_done or
above the lowest image under the stored isometry of a stored root that
is not stored, whichever comes first.  The
symmetry replay's final cursor also gives the height frontier that the
frame corners' bounds must lie below.

A symmetry certificate verifies on any cut of the search whose frontier
clears its corners' bounds and whose roots hold its frames, the budget cut
as well as the shortest one (search.certifying_cut), because the image cap
never stops the replay short of the cut.  The isometry maps walls of the
full chamber P to walls of P, every stored root is a wall of P, and the
replay through the cut stores every wall of P below the cut's frontier;
so a stored root's image that is not stored lies at or above that
frontier, and so does the cap, the lowest such image.  For (13,3) the
shortest cut is 29 of the search's 120 batches, and its frontier 25 is
the cap: the isometry maps the initial root (0,0,0,-1) to the wall
(5,18,1,1) of the first batch past the cut.  The budget cut's frontier is
5329/13, under the cap 3844.
"""

from __future__ import annotations

from operator import mul

from vinberg import diagram as _diagram
from vinberg import cones, isometry, linalg, quotient
from vinberg import volume as _volume
from vinberg.errors import CertificateError
from vinberg.forms import Form
from vinberg.search import reproduces

SCHEMA_VERSION = 4

_KINDS = ("reflective", "ideal_vertex_failure", "infinite_symmetry", "inherited_nonreflectivity")
_OBSTRUCTIONS = _KINDS[1:3]


# ---------------------------------------------------------------------------
# construction

def affine_null_marks(form: Form, roots, nodes):
    """Positive primitive marks of an affine root subset and the null vector.

    nodes index into roots and must carry a connected affine subdiagram;
    the Gram kernel is then one-dimensional with all marks of one sign.
    """
    rows = [roots[i] for i in sorted(nodes)]
    ker = linalg.integer_kernel(form.gram(rows))
    if len(ker) != 1:
        raise ValueError("marks are only defined for affine subdiagrams")
    # a rank-one saturated kernel's generator is primitive
    marks = ker[0]
    if marks[0] < 0:
        marks = [-m for m in marks]
    if not all(m > 0 for m in marks):
        raise ValueError("marks of an affine diagram must have one sign")
    e = linalg.mat_vec(linalg.transpose(rows), marks)
    # the marks are coprime but their root combination need not be
    return marks, cones.primitive_vector(e)


def scan_for_cusp_obstruction(chamber):
    """Look for a null direction whose root classes have deficient rank.

    Tests, in order of null vector e, the quotient at every cusp of a grown
    volume.ChamberDiagram (its affine components grouped by e): whichever
    components meet at e, a deficient quotient depends on e alone.

    The walls through e come first.  Each is a root orthogonal to e, so
    its class in e^perp / Z e holds a root and is a root class; when e and
    the walls have rank n, the walls' classes span the rank n - 1 quotient
    rationally, so the root classes do too and e cannot be deficient.  Such
    an e is stored as None, with no quotient built and no walk.  Otherwise
    the walk of quotient.root_classes is seeded with the walls' classes: a
    full-rank walk stops once its classes complete the walls' span, and a
    deficient one still walks every root class, among them the walls' own,
    so its result is the unseeded one.

    The chamber keeps across batches e for each cusp's first member, which
    depends on its roots alone, and for each e None or its quotient and
    root classes, whose rank depends on the form alone.  A full-rank entry
    stopped its walk early and only full_rank is read from it; a deficient
    entry is complete and is handed, with its quotient and cusp, to the
    certificate.  Returns an ideal_vertex_failure certificate, or None.
    """
    form, accepted = chamber.form, chamber.roots
    groups: dict = {}
    null_marks = chamber.null_marks
    for cusp in chamber.cusps():
        if cusp[0] not in null_marks:
            null_marks[cusp[0]] = affine_null_marks(form, accepted, cusp[0])
        groups[null_marks[cusp[0]][1]] = cusp
    cache = chamber.root_classes
    for e in sorted(groups):
        if e not in cache:
            walls = [r for r in accepted if form.inner_product(r, e) == 0]
            span = linalg.Echelon()
            for v in (e, *walls):
                span.add(v)
            if len(span.rows) == form.n:
                cache[e] = None
            else:
                quot = quotient.null_quotient(form, e)
                known = quot.class_coordinates(walls)
                cache[e] = quot, quotient.root_classes(form, quot, known=known)
        if cache[e] is not None and not cache[e][1]["full_rank"]:
            quot, rc = cache[e]
            return ideal_vertex_certificate(chamber, quot, groups[e], rc)
    return None


def _document(form: Form, kind: str, payload: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "form": {"p": form.p, "n": form.n},
        "payload": payload,
    }


def ideal_vertex_certificate(chamber, quot, node_sets, rc) -> dict:
    """Certificate that the quotient quot, at its null vector e, has
    rank-deficient root classes.

    node_sets are keys of chamber.affine with null vector e, a cusp of
    the chamber; each one's marks are computed here, once, for this one
    certificate.  rc is quotient.root_classes of quot.
    """
    comps = [
        {"nodes": sorted(s), "type": chamber.affine[s],
         "marks": affine_null_marks(chamber.form, chamber.roots, s)[0]}
        for s in node_sets
    ]
    payload = _ideal_vertex_payload(quot, chamber.roots, comps, rc)
    return _document(chamber.form, "ideal_vertex_failure", payload)


def _ideal_vertex_payload(quot, roots, components, rc) -> dict:
    """The ideal-vertex payload at the null vector of quot.

    components are {"nodes", "type", "marks"} of affine components of the
    roots with that null vector, nodes sorted; rc is
    quotient.root_classes of quot.
    """
    form = quot.form
    components = sorted(components, key=lambda c: c["nodes"])
    image = quot.class_coordinates([roots[i] for i in sorted(
        i for c in components for i in c["nodes"])])
    complement, glue = quotient.orthogonal_complement_data(form, quot, image)
    return {
        "roots": [list(r) for r in roots],
        "components": components,
        "null_vector": list(quot.e),
        # the quotient Gram is definite, so the span of the image and its
        # orthogonal complement have complementary ranks
        "affine_rank": quot.rank - len(complement["basis"]),
        "quotient": {
            "class_basis": [list(r) for r in quot.class_basis],
            "gram": [list(r) for r in quot.gram],
        },
        "affine_image": image,
        "complement": complement,
        "glue": glue,
        "root_classes": rc,
        "conclusion": "root_classes_rank_deficient",
    }


def infinite_symmetry_certificate(form: Form, accepted, symmetry, batches_done) -> dict:
    """Certificate from a frame-to-frame symmetry of the partial chamber.

    accepted and batches_done are a cut of the search: the roots that its
    first batches_done batches accept.  search.run_search passes the
    shortest cut that certifies the corners (search.certifying_cut), not
    the budget cut; the cut is stored as given, so one that certifies
    nothing fails verification.  A verifier replays the cut to recover
    the height frontier; each frame corner carries its separating-wall
    bound, which must lie below that frontier for the corner to be a
    certified chamber vertex.
    """
    payload = _symmetry_payload(form, accepted, symmetry, batches_done)
    return _document(form, "infinite_symmetry", payload)


def _symmetry_payload(form: Form, roots, symmetry, batches_done) -> dict:
    """The symmetry payload; symmetry is isometry.find_infinite_symmetry's
    matrix, frames (root_indices and corner) and evidence."""
    def frame_out(fr):
        corner = tuple(fr["corner"])
        return {
            "root_indices": list(fr["root_indices"]),
            "corner": list(corner),
            "height_bound": str(isometry.corner_height_bound(form, corner)),
        }

    return {
        "roots": [list(r) for r in roots],
        "batches_done": batches_done,
        "matrix": [list(row) for row in symmetry["matrix"]],
        "frame_from": frame_out(symmetry["frame_from"]),
        "frame_to": frame_out(symmetry["frame_to"]),
        "evidence": symmetry["evidence"],
        "conclusion": "chamber_admits_infinite_order_symmetry",
    }


def reflective_certificate(form: Form, roots, volume_report) -> dict:
    return _document(form, "reflective", _reflective_payload(roots, volume_report))


def _reflective_payload(roots, volume_report) -> dict:
    return {
        "roots": [list(r) for r in roots],
        "volume": volume_report,
        "conclusion": "chamber_has_finite_volume",
    }


def inherited_certificate(base: dict, n: int) -> dict:
    """Nonreflectivity at rank n inherited from a verified failure below.

    Restricting to the orthogonal complement of the norm-one basis root
    -v_n reduces the rank-n lattice to the rank n-1 one, so every failure
    propagates upward; no new search is needed.  base must be a direct
    obstruction: lift the first failure, not an inherited certificate.
    """
    if _require(base, "kind", "payload.base.kind") not in _OBSTRUCTIONS:
        raise CertificateError("payload.base.kind: not a direct obstruction")
    if n <= base["form"]["n"]:
        raise CertificateError("form.n: inherited rank must exceed the base rank")
    form = Form(base["form"]["p"], n)
    return _document(form, "inherited_nonreflectivity", _inherited_payload(base))


def _inherited_payload(base) -> dict:
    return {"base": base, "conclusion": "nonreflectivity_inherited_from_lower_rank"}


# ---------------------------------------------------------------------------
# verification

def verification_failures(cert: dict) -> list[str]:
    """All re-derivation mismatches; empty means the certificate is valid.

    Malformed documents (missing, unknown or type-broken fields) raise
    CertificateError naming the field instead.  An inherited certificate
    is checked together with its base, whose kind must be a direct
    obstruction; the base's failures and malformed fields are named under
    payload.base.
    """
    form, kind, payload = _envelope(cert)
    if kind != "inherited_nonreflectivity":
        return _VERIFIERS[kind](form, payload)
    base = _require(payload, "base", "payload.base")
    try:
        base_form, base_kind, base_payload = _envelope(base)
        issues = [issue for bad, issue in (
            (base_kind not in _OBSTRUCTIONS, "kind: not a direct obstruction"),
            (base_form.p != form.p, "form: prime mismatch"),
            (base_form.n >= form.n, "form: base rank must be lower"),
        ) if bad] or _VERIFIERS[base_kind](base_form, base_payload)
    except CertificateError as exc:
        raise CertificateError(f"payload.base.{exc}")
    return [f"payload.base.{s}" for s in issues] + _rederived(
        payload, _inherited_payload(base))


def _envelope(cert) -> tuple[Form, str, dict]:
    """The form, kind and payload of a certificate, after the checks that
    every kind shares."""
    if _count(cert, "schema_version") != SCHEMA_VERSION:
        raise CertificateError("schema_version: unsupported value")
    _only(cert, ("schema_version", "kind", "form", "payload"))
    kind = _require(cert, "kind")
    if kind not in _KINDS:
        raise CertificateError("kind: unknown certificate kind")
    return _form(cert), kind, _require(cert, "payload")


def _only(doc: dict, fields, prefix="") -> None:
    """CertificateError naming the first key of doc outside fields."""
    for key in doc:
        if key not in fields:
            raise CertificateError(f"{prefix}{key}: unknown field")


def _require(doc, key, label=None):
    """doc[key]; CertificateError naming the field if doc has no such key."""
    if not isinstance(doc, dict) or key not in doc:
        raise CertificateError(f"{label or key}: missing field")
    return doc[key]


def _count(doc, key, label=None) -> int:
    """doc[key], which must be a non-negative integer."""
    value = _require(doc, key, label)
    if type(value) is not int or value < 0:
        raise CertificateError(f"{label or key}: not a non-negative integer")
    return value


def _form(doc) -> Form:
    """The Form of a document's form field."""
    form = _require(doc, "form")
    if not isinstance(form, dict):
        raise CertificateError("form: not an object")
    _only(form, ("p", "n"), "form.")
    for key in ("p", "n"):
        if type(_require(form, key, f"form.{key}")) is not int:
            raise CertificateError(f"form.{key}: not an integer")
    try:
        return Form(form["p"], form["n"])
    except ValueError as exc:
        raise CertificateError(f"form: {exc}")


def _ints(doc, key, label: str) -> list[int]:
    """doc[key], which must be a list of integers; CertificateError naming
    label otherwise.  Every list-of-integers field is read here."""
    try:
        value = doc[key]
    except (KeyError, IndexError, TypeError):
        raise CertificateError(f"{label}: missing field")
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        raise CertificateError(f"{label}: not a list of integers")
    return value


def _rows(doc, key, label: str) -> list[list[int]]:
    """doc[key], which must be a list of lists of integers; label names it."""
    rows = _require(doc, key, label)
    if not isinstance(rows, list):
        raise CertificateError(f"{label}: not a list")
    return [_ints(rows, i, f"{label}[{i}]") for i in range(len(rows))]


def _roots(form: Form, payload) -> tuple[list, list[str]]:
    """payload.roots as tuples, with a failure for each entry that is not a
    root of the form."""
    roots = [tuple(r) for r in _rows(payload, "roots", "payload.roots")]
    return roots, [
        f"payload.roots[{i}]: not a root of the form"
        for i, r in enumerate(roots) if len(r) != form.dim or not form.is_root(r)
    ]


def _same(a, b) -> bool:
    """Whether two JSON values are equal with the same type at every node,
    so true is not 1 and 1.0 is not 1: objects by key set and then value,
    lists by length and then element."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _rederived(payload, rebuilt: dict) -> list[str]:
    """The top-level keys on which payload and the rebuilt payload differ
    (_same), a stored key that the builder does not make included.  A key
    missing from payload raises CertificateError naming it."""
    for key in rebuilt:
        _require(payload, key, f"payload.{key}")
    return [
        f"payload.{key}: does not re-derive"
        for key in payload
        if key not in rebuilt or not _same(payload[key], rebuilt[key])
    ]


def _acute_pair(form: Form, roots) -> list[str]:
    # <r_i, r_j> is dual(r_i) . r_j; _roots has checked every length
    duals = [form.dual(r) for r in roots]
    for j, r in enumerate(roots):
        for i in range(j):
            if sum(map(mul, duals[i], r)) > 0:
                return [f"payload.roots[{j}]: acute angle with root {i}"]
    return []


def _verify_reflective(form: Form, payload) -> list[str]:
    """The reflective checks of the module docstring, in that order."""
    roots, issues = _roots(form, payload)
    if issues:
        return issues
    if len(roots) < form.n or roots[: form.n] != form.initial_roots():
        return ["payload.roots: does not start with the initial roots"]
    for i in range(form.n, len(roots)):
        if roots[i][0] <= 0:
            return [f"payload.roots[{i}]: first coordinate is not positive"]
    issues = _acute_pair(form, roots)
    if issues:
        return issues
    # no DiagramError here: <r,r> and <s,s> divide 2<r,s>, so 4 cos^2 is an integer
    chamber = _volume.ChamberDiagram(form, roots)
    report = _volume.finite_volume(chamber)
    if not report["finite"]:
        issues.append("payload.volume: chamber volume is not finite")
    if not _volume.chamber_cone_closes(chamber):
        issues.append("payload.roots: chamber cone is not in the closed light cone")
    return issues + _rederived(payload, _reflective_payload(roots, report))


def _verify_ideal_vertex(form: Form, payload) -> list[str]:
    roots, issues = _roots(form, payload)
    e = tuple(_ints(payload, "null_vector", "payload.null_vector"))
    comps = _require(payload, "components", "payload.components")
    if not isinstance(comps, list):
        raise CertificateError("payload.components: not a list")
    node_sets = []
    for ci in range(len(comps)):
        node_sets.append(_ints(comps[ci], "nodes", f"payload.components[{ci}].nodes"))
        _ints(comps[ci], "marks", f"payload.components[{ci}].marks")
    if issues:
        return issues
    if not node_sets:
        return ["payload.components: no affine component"]
    if len(roots) < form.n:  # every search state holds the n initial roots
        return ["payload.roots: not a state of the root search"]
    issues = _acute_pair(form, roots)
    if issues:
        return issues
    # the search accepts roots in order of height, so it has reached the
    # stored count by the batch of the highest stored root or never
    top = max(map(form.height, roots), default=0)
    if reproduces(form, roots, None, top) is None:
        return ["payload.roots: not a state of the root search"]
    if len(e) != form.dim or form.norm(e) != 0 or not any(e) or not form.is_primitive(e):
        return ["payload.null_vector: not a primitive null vector"]
    if e[0] <= 0:
        return ["payload.null_vector: wrong light-cone orientation"]

    d = _diagram.build_diagram(form, roots)
    components = []
    for ci, nodes in enumerate(node_sets):
        label = f"payload.components[{ci}].nodes"
        if nodes != sorted(set(nodes)) or not all(0 <= i < len(roots) for i in nodes):
            return [f"{label}: bad index set"]
        if _diagram.components(d, nodes) != [tuple(nodes)]:
            return [f"{label}: not a connected subdiagram"]
        name = _diagram.affine_type(d, nodes)
        if name is None:
            return [f"{label}: not an affine subdiagram"]
        marks, e_comp = affine_null_marks(form, roots, nodes)
        if e_comp != e:
            return [f"{label}: null vector is not payload.null_vector"]
        components.append({"nodes": nodes, "type": name, "marks": marks})
    if len({i for nodes in node_sets for i in nodes}) != sum(map(len, node_sets)):
        return ["payload.components: overlapping components"]

    quot = quotient.null_quotient(form, e)
    rc = quotient.root_classes(form, quot)
    if rc["full_rank"]:
        issues.append("payload.root_classes: root classes span the quotient rationally")
    return issues + _rederived(payload, _ideal_vertex_payload(quot, roots, components, rc))


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

    The replay runs after the matrix and frame checks, capped by the
    stored data: the isometry maps walls to walls and the search accepts
    every wall below its frontier, so a stored root's image that is not
    stored lies above the replay.
    """
    roots, issues = _roots(form, payload)
    batches = _count(payload, "batches_done", "payload.batches_done")
    T = _rows(payload, "matrix", "payload.matrix")
    labels = ("frame_from", "frame_to")
    frames = {}
    for label in labels:
        fr = _require(payload, label, f"payload.{label}")
        frames[label] = {
            key: _ints(fr, key, f"payload.{label}.{key}") for key in ("root_indices", "corner")
        }
    if issues:
        return issues
    if len(roots) < form.n:  # as in _verify_ideal_vertex
        return ["payload.roots: not the search state after this many batches"]

    if len(T) != form.dim or any(len(row) != form.dim for row in T):
        return ["payload.matrix: not an integer matrix of the right size"]
    F = form.form_matrix
    if linalg.mat_mul(linalg.mat_mul(linalg.transpose(T), F), T) != F:
        return ["payload.matrix: does not preserve the form"]

    bounds = {}
    for label in labels:
        idx = frames[label]["root_indices"]
        corner = tuple(frames[label]["corner"])
        if len(idx) != form.n or len(set(idx)) != form.n or not all(
                0 <= i < len(roots) for i in idx):
            return [f"payload.{label}.root_indices: bad index set"]
        if len(corner) != form.dim or form.norm(corner) >= 0 or corner[0] <= 0:
            return [f"payload.{label}.corner: not a future timelike vector"]
        if not form.is_primitive(corner):
            return [f"payload.{label}.corner: not primitive"]
        if any(form.inner_product(r, corner) > 0 for r in roots):
            return [f"payload.{label}.corner: outside the chamber"]
        bounds[label] = isometry.corner_height_bound(form, corner)
        if str(bounds[label]) != _require(payload[label], "height_bound",
                                          f"payload.{label}.height_bound"):
            return [f"payload.{label}.height_bound: does not re-derive"]
        if any(form.inner_product(roots[i], corner) != 0 for i in idx):
            return [f"payload.{label}.root_indices: frame roots must contain the corner"]
        if isometry.vertex_walls(form, corner) != sorted(roots[i] for i in idx):
            return [
                f"payload.{label}.root_indices: not the complete wall set "
                "through the corner"
            ]
    source, target = (frames[label] for label in labels)
    c_from, c_to = tuple(source["corner"]), tuple(target["corner"])
    if form.norm(c_from) != form.norm(c_to) or c_from == c_to:
        return ["payload.frame_to.corner: corners must be distinct of equal norm"]

    def apply(v):
        return tuple(linalg.mat_vec(T, v))

    if apply(c_from) != c_to:
        issues.append("payload.matrix: does not map the source corner to the target")
    for s in range(form.n):
        if apply(roots[source["root_indices"][s]]) != roots[target["root_indices"][s]]:
            issues.append(f"payload.matrix: does not map frame root {s} as stated")
    evidence = isometry.infinite_order_evidence(T)
    if evidence is None:
        issues.append("payload.matrix: matrix has finite order")
    if issues:
        return issues

    in_roots = set(roots)
    images = [form.height(v) for v in map(apply, roots) if v not in in_roots]
    # with no image outside the roots, T permutes them; a cap of 0 stops the replay
    replayed = reproduces(form, roots, batches, min(images, default=0))
    if replayed is None:
        return ["payload.roots: not the search state after this many batches"]
    frontier = replayed.open_height()
    for label in labels:
        if bounds[label] >= frontier:
            return [
                f"payload.{label}.corner: separating-wall bound not cleared "
                "by the scanned height"
            ]
    symmetry = {"matrix": T, **frames, "evidence": evidence}
    return _rederived(payload, _symmetry_payload(form, roots, symmetry, batches))


_VERIFIERS = {
    "reflective": _verify_reflective,
    "ideal_vertex_failure": _verify_ideal_vertex,
    "infinite_symmetry": _verify_infinite_symmetry,
}
