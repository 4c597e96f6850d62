"""Form arithmetic: inner products, root tests, admissible norms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from vinberg.forms import PRIME_LIMIT, Form, _is_prime


def legendre(a, p):
    # Euler's criterion, independent of the package's supplementary laws
    r = pow(a % p, (p - 1) // 2, p)
    return 0 if r == 0 else (1 if r == 1 else -1)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31, 999999999989])
def test_admissible_norms_match_residue_conditions(p):
    form = Form(p, 3)
    expected = [1, 2]
    if legendre(-1, p) == 1:
        expected.append(p)
    if legendre(-2, p) == 1:
        expected.append(2 * p)
    assert form.admissible_root_norms == tuple(sorted(expected))


def test_admissible_norms_known_families():
    assert Form(5, 2).admissible_root_norms == (1, 2, 5)
    assert Form(7, 2).admissible_root_norms == (1, 2)
    assert Form(11, 2).admissible_root_norms == (1, 2, 22)
    assert Form(13, 2).admissible_root_norms == (1, 2, 13)
    assert Form(17, 2).admissible_root_norms == (1, 2, 17, 34)
    assert Form(19, 2).admissible_root_norms == (1, 2, 38)
    assert Form(23, 2).admissible_root_norms == (1, 2)


def test_inner_product_signature():
    form = Form(7, 3)
    assert form.norm((1, 0, 0, 0)) == -7
    assert form.norm((0, 1, 0, 0)) == 1
    assert form.inner_product((1, 2, 3, 4), (1, 0, 0, 0)) == -7
    u, v = (1, 2, 3, 4), (4, 3, 2, 1)
    assert form.inner_product(u, v) == form.inner_product(v, u)


def test_initial_roots_shape():
    for p, n in ((5, 2), (11, 4), (23, 3)):
        form = Form(p, n)
        roots = form.initial_roots()
        assert len(roots) == n
        for r in roots:
            assert form.is_root(r)
            assert r[0] == 0
            assert form.norm(r) in (1, 2)
        # pairwise obtuse or orthogonal: a valid simple-root system
        for i, a in enumerate(roots):
            for b in roots[:i]:
                assert form.inner_product(a, b) <= 0


def test_is_root_matches_reflection_integrality():
    rng = random.Random(20230)
    for _ in range(600):
        p = rng.choice([5, 7, 11, 13, 17, 19, 23])
        n = rng.randint(2, 4)
        form = Form(p, n)
        v = tuple(rng.randint(-6, 6) for _ in range(n + 1))
        if form.norm(v) <= 0 or not form.is_primitive(v):
            continue
        assert form.satisfies_crystallographic_condition(v) == \
            oracles.reflection_is_integral(form, v)


def reflect(form, x, r):
    """Reflection of x in the hyperplane orthogonal to the root r."""
    t = Fraction(2 * form.inner_product(x, r), form.norm(r))
    if t.denominator != 1:
        raise ValueError("reflection is not integral")
    return tuple(a - int(t) * b for a, b in zip(x, r))


def test_reflection_involution_and_isometry():
    rng = random.Random(4711)
    form = Form(5, 3)
    roots = [r for r in form.initial_roots()] + [(2, 5, 0, 0), (1, 2, 1, 1)]
    for r in roots:
        assert form.is_root(r)
        for _ in range(20):
            x = tuple(rng.randint(-9, 9) for _ in range(form.dim))
            y = reflect(form, x, r)
            assert reflect(form, y, r) == x
            assert form.norm(y) == form.norm(x)
        assert reflect(form, r, r) == tuple(-c for c in r)


def test_height_values():
    form = Form(5, 2)
    assert form.height((2, 5, 0)) == Fraction(4, 5)
    assert form.height((3, 5, 5)) == Fraction(9, 5)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Form(4, 3)
    with pytest.raises(ValueError):
        Form(3, 3)
    with pytest.raises(ValueError):
        Form(7, 1)
    with pytest.raises(ValueError):
        Form(5, 2).norm((1, 2))


@pytest.mark.parametrize("p,n", [(5.0, 2), (5, 3.0), (True, 2)])
def test_rejects_parameters_that_are_not_ints(p, n):
    # a float or bool would construct and then compute in floats
    with pytest.raises(ValueError, match="integers"):
        Form(p, n)


def test_form_is_an_immutable_value():
    form = Form(5, 3)
    assert form == Form(p=5, n=3) and form != Form(5, 4) and form != (5, 3)
    assert len({form, Form(5, 3), Form(7, 3)}) == 2
    assert {form: 1}[Form(5, 3)] == 1
    with pytest.raises(AttributeError):
        form.p = 7
    with pytest.raises(AttributeError):
        del form.n
    assert (form.p, form.n) == (5, 3)
    assert repr(form) == "Form(p=5, n=3)"
    assert form.admissible_root_norms is form.admissible_root_norms


def test_primality_agrees_with_trial_division():
    limit = 10**5
    composite = [False] * limit
    for f in range(2, limit):
        for m in range(2 * f, limit, f):
            composite[m] = True
    assert [m for m in range(limit) if _is_prime(m)] == [
        m for m in range(2, limit) if not composite[m]]
    # strong pseudoprimes to every base up to 23, and to every one up to 37
    for m in (3825123056546413051, 318665857834031151167461):
        assert not _is_prime(m)


def test_large_primes_construct_below_the_limit():
    assert Form(99999999999973, 2).p == 99999999999973
    assert Form(10**18 + 3, 2).p == 10**18 + 3
    with pytest.raises(ValueError):
        Form(1000003 * 1000033, 2)
    # the limit itself is a strong pseudoprime to all the bases
    with pytest.raises(ValueError, match="below"):
        Form(PRIME_LIMIT, 2)


def _vectors(dim):
    return st.lists(st.tuples(*[st.integers(-50, 50)] * dim), max_size=6)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([(5, 2), (13, 3), (23, 5)]).flatmap(
    lambda pn: st.tuples(st.just(Form(*pn)), _vectors(pn[1] + 1), st.data())
))
def test_gram_is_the_pairwise_inner_product_matrix(case):
    form, vectors, data = case
    ip = form.inner_product
    assert form.gram(vectors) == [[ip(u, v) for v in vectors] for u in vectors]
    if vectors:
        # one vector of the wrong length fails as inner_product does
        at = data.draw(st.integers(0, len(vectors) - 1))
        bad = list(vectors)
        bad[at] = (bad[at] + (1,)) if data.draw(st.booleans()) else bad[at][:-1]
        with pytest.raises(ValueError, match="dimension mismatch") as expected:
            [[ip(u, v) for v in bad] for u in bad]
        with pytest.raises(ValueError, match="dimension mismatch") as got:
            form.gram(bad)
        assert got.value.args == expected.value.args
