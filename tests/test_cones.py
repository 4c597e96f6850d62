"""Polyhedral cone generators: {y : a . y <= 0 for all constraints a}."""

import random
from itertools import combinations, product

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from vinberg.cones import Cone, cone_generators, primitive_vector


def test_primitive_vector():
    assert primitive_vector([2, 4, 6]) == (1, 2, 3)
    assert primitive_vector([4, 6]) == (2, 3)
    assert primitive_vector([-3, 3]) == (-1, 1)


def test_negative_orthant():
    # x <= 0 and y <= 0: rays are the negative axes
    lines, rays = cone_generators([(1, 0), (0, 1)], 2)
    assert lines == []
    assert sorted(rays) == [(-1, 0), (0, -1)]


def test_half_space_keeps_lineality():
    lines, rays = cone_generators([(1, 0, 0)], 3)
    # the hyperplane x=0 stays as two free directions plus one inward ray
    assert len(lines) == 2
    assert rays == [(-1, 0, 0)]
    for l in lines:
        assert l[0] == 0


def test_no_constraints_whole_space():
    lines, rays = cone_generators([], 2)
    assert len(lines) == 2 and rays == []


def test_redundant_constraint_changes_nothing():
    base = [(1, 0), (0, 1)]
    with_red = base + [(2, 3)]  # implied by the first two
    assert cone_generators(base, 2) == cone_generators(with_red, 2)


def test_trivial_cone_detection():
    # x <= 0, -x <= 0, y <= 0, -y <= 0 pins the origin
    cons = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    assert cone_generators(cons, 2) == ([], [])
    assert cone_generators([(1, 0)], 2) != ([], [])


def test_generators_satisfy_constraints_randomly():
    rng = random.Random(99)
    for _ in range(60):
        dim = rng.randint(2, 4)
        cons = [tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(1, 6))]
        cons = [c for c in cons if any(c)]
        lines, rays = cone_generators(cons, dim)
        for l in lines:
            assert all(sum(a * x for a, x in zip(c, l)) == 0 for c in cons)
        for r in rays:
            assert all(sum(a * x for a, x in zip(c, r)) <= 0 for c in cons)
        # membership completeness on a small integer grid: every grid point
        # of the cone must be a nonnegative ray + line combination, which
        # for these small cases we certify by linear programming duality:
        # a point outside cone(generators) admits a separating constraint.
        # Here we just check the generators are nonzero and distinct.
        assert len(set(rays)) == len(rays)
        assert all(any(r) for r in rays)


def test_simplicial_cone_ray_count():
    # three independent constraints in dim 3: simplicial, three rays
    cons = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    lines, rays = cone_generators(cons, 3)
    assert lines == []
    assert len(rays) == 3
    # each ray is tight on exactly two constraints
    for r in rays:
        tight = sum(1 for c in cons if sum(a * x for a, x in zip(c, r)) == 0)
        assert tight == 2


def test_square_cone_in_dim3():
    # four constraints forming a 4-sided cone over a square
    cons = [(1, 0, -1), (-1, 0, -1), (0, 1, -1), (0, -1, -1)]
    lines, rays = cone_generators(cons, 3)
    assert lines == []
    got = sorted(rays)
    assert got == sorted([(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)])


def test_grid_membership_small_cases():
    # exhaustive: points of the cone on a grid lie in the generator span
    # with nonnegative coefficients; verified via brute-force search over
    # rational combinations on a few fixed cones
    cons = [(1, 1), (1, -2)]
    lines, rays = cone_generators(cons, 2)
    assert lines == []
    assert len(rays) == 2
    from fractions import Fraction
    r1, r2 = rays
    for pt in product(range(-4, 5), repeat=2):
        inside = all(sum(a * x for a, x in zip(c, pt)) <= 0 for c in cons)
        det = r1[0] * r2[1] - r1[1] * r2[0]
        s = Fraction(pt[0] * r2[1] - pt[1] * r2[0], det)
        t = Fraction(r1[0] * pt[1] - r1[1] * pt[0], det)
        assert inside == (s >= 0 and t >= 0)


def _dot(a, v):
    return sum(x * y for x, y in zip(a, v))


def _brute_force_faces(cons, dim):
    """Tight-constraint sets of the one-step-above-lineality faces of
    {a . y <= 0}, and a primitive direction for each, by scanning every
    constraint subset of rank one below the full rank."""
    r = oracles.rank(cons)
    faces = {}
    for size in range(r):
        for subset in combinations(range(len(cons)), size):
            if oracles.rank([cons[i] for i in subset]) != r - 1:
                continue
            rows = [cons[i] for i in subset] or [[0] * dim]
            for k in oracles.fraction_kernel(rows):
                values = [_dot(a, k) for a in cons]
                if not any(values):
                    continue  # in the lineality space
                if all(v <= 0 for v in values):
                    d = primitive_vector(oracles.clear_denominators(k))
                elif all(v >= 0 for v in values):
                    d = primitive_vector(oracles.clear_denominators([-x for x in k]))
                else:
                    continue
                tight = frozenset(i for i, v in enumerate(values) if v == 0)
                faces.setdefault(tight, d)
    return faces


constraint_sets = st.integers(1, 5).flatmap(
    lambda dim: st.tuples(
        st.just(dim),
        st.lists(st.tuples(*[st.integers(-2, 2)] * dim), max_size=8),
    )
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(constraint_sets)
def test_generators_match_brute_force_extreme_rays(case):
    dim, cons = case
    lines, rays = cone_generators(cons, dim)
    assert len(lines) == dim - oracles.rank(cons)
    for l in lines:
        assert all(_dot(a, l) == 0 for a in cons)
    if cons:
        assert oracles.rank(lines + [list(a) for a in cons]) == dim
    faces = _brute_force_faces(cons, dim)
    tight = [frozenset(i for i, a in enumerate(cons) if _dot(a, r) == 0) for r in rays]
    for r in rays:
        assert all(_dot(a, r) <= 0 for a in cons)
    # one ray per face, and no ray off a face
    assert sorted(tight, key=sorted) == sorted(faces, key=sorted)
    if not lines:
        # a pointed cone's extreme rays are determined exactly
        assert rays == sorted(faces.values())


chunked_constraint_sets = constraint_sets.flatmap(
    lambda case: st.tuples(
        st.just(case),
        st.lists(st.integers(0, len(case[1])), max_size=4).map(sorted),
    )
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(chunked_constraint_sets)
def test_live_cone_fed_in_chunks_matches_one_shot_on_every_prefix(case):
    # the chamber cone of a search is fed each batch's new walls; after
    # every chunk it must be the cone of the whole prefix, and every ray
    # must know exactly the constraints it is tight on (the face test
    # of condition (b) reads nothing else); the raw rays are the extreme
    # rays modulo the lineality space, each once, which the adjacency test
    # and every reader of the rays rely on
    (dim, cons), cuts = case
    cone = Cone(dim)
    for start, stop in zip([0] + cuts, cuts + [len(cons)]):
        prefix = cons[:stop]
        assert cone_generators(cons[start:stop], dim, cone) == cone_generators(prefix, dim)
        assert cone.processed == [tuple(a) for a in prefix]
        assert len(cone.tight) == len(cone.rays)
        assert len(set(cone.rays)) == len(cone.rays)
        for r, tight in zip(cone.rays, cone.tight):
            assert any(r)
            assert tight == {i for i, a in enumerate(prefix) if _dot(a, r) == 0}
        # the stored masks themselves: bit i set iff processed[i] . ray == 0
        assert len(cone.masks) == len(cone.rays)
        for r, mask in zip(cone.rays, cone.masks):
            assert mask == sum(1 << i for i, a in enumerate(cone.processed) if _dot(a, r) == 0)
        # one ray per face one step above the lineality space
        faces = _brute_force_faces(prefix, dim)
        assert sorted(cone.tight, key=sorted) == sorted(faces, key=sorted)
        if not cone.lines:
            # a pointed cone's extreme rays are determined exactly
            assert dict(zip(cone.tight, cone.rays)) == faces
