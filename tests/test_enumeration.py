"""Candidate enumeration: kernel contract and batch-stream properties."""

import random
from fractions import Fraction
from itertools import product
from math import isqrt

from vinberg import enumeration
from vinberg.forms import Form
from vinberg.search import batch_sequence


def random_case(rng):
    n = rng.randint(2, 7)
    target = rng.randint(0, 3000)
    step = rng.choice([1, 1, 1, 5, 7, 11])
    nprior = rng.randint(0, 6)
    consts = [rng.randint(-200, 40) for _ in range(nprior)]
    coeffs = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(nprior)]
    return n, target, step, consts, coeffs


def test_pure_kernel_contract():
    rng = random.Random(5150)
    for _ in range(80):
        n, target, step, consts, coeffs = random_case(rng)
        out = enumeration.enumerate_batch_vectors(n, target, step, consts, coeffs)
        seen = set()
        for v in out:
            assert len(v) == n
            assert sum(x * x for x in v) == target
            assert all(a >= b >= 0 for a, b in zip(v, v[1:]))
            assert all(x % step == 0 for x in v)
            for base, row in zip(consts, coeffs):
                assert base + sum(a * b for a, b in zip(row, v)) <= 0
            seen.add(v)
        assert len(seen) == len(out)
        assert out == sorted(out, reverse=True)


def test_pure_kernel_completeness_small():
    # against a full box scan, with and without the divisibility step
    rng = random.Random(808)
    for step in (1, 5, 7):
        for _ in range(30):
            n = rng.randint(2, 4 if step == 1 else 3)
            target = rng.randint(0, 120)
            if step > 1 and rng.random() < 0.7:
                target = step * step * rng.randint(0, 30)
            consts = [rng.randint(-20 * step, 5) for _ in range(rng.randint(0, 3))]
            coeffs = [[rng.randint(-4, 4) for _ in range(n)] for _ in consts]
            out = enumeration.enumerate_batch_vectors(n, target, step, consts, coeffs)
            brute = set()
            for v in product(range(isqrt(target) + 1), repeat=n):
                if sum(x * x for x in v) != target:
                    continue
                if any(x % step for x in v):
                    continue
                if any(a < b for a, b in zip(v, v[1:])):
                    continue
                if any(c + sum(a * b for a, b in zip(row, v)) > 0
                       for c, row in zip(consts, coeffs)):
                    continue
                brute.add(v)
            assert set(out) == brute, (n, target, step, consts, coeffs)


def test_enumerate_batch_prefixes_first_coordinate():
    form = Form(11, 3)
    prior = form.initial_roots()
    out = enumeration.enumerate_batch(form, 1, 2, prior)
    for v in out:
        assert v[0] == 1
        assert form.norm(v) == 2
        assert all(form.inner_product(v, r) <= 0 for r in prior)
        assert form.is_root(v)


def test_norm_p_batches_scale_by_p():
    # norm p and 2p force every spatial coordinate divisible by p
    form = Form(5, 2)
    out = enumeration.enumerate_batch(form, 2, 5, [])
    assert (2, 5, 0) in out
    for v in out:
        assert all(x % 5 == 0 for x in v[1:])


def test_batch_sequence_strictly_increasing_and_complete():
    for p, n in ((5, 3), (13, 2), (23, 3)):
        form = Form(p, n)
        gen = batch_sequence(form)
        batches = [next(gen) for _ in range(40)]
        heights = [Fraction(k0 * k0, m) for k0, m in batches]
        assert all(a < b for a, b in zip(heights, heights[1:]))
        for k0, m in batches:
            assert m in form.admissible_root_norms
            assert k0 >= 1
        # completeness below the cut: every admissible (k0, m) with height
        # at most the last emitted height appears
        cut = heights[-1]
        expect = {
            (k0, m)
            for m in form.admissible_root_norms
            for k0 in range(1, int((cut * m) ** 0.5) + 2)
            if Fraction(k0 * k0, m) <= cut
        }
        assert set(batches) == expect
