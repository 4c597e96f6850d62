"""Candidate enumeration: kernel contract and batch-stream properties."""

import functools
import gc
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate, product
from math import isqrt
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vinberg import enumeration, isometry, linalg, search
from vinberg.forms import Form
from vinberg.search import Budget, SearchState, batch_sequence, replay, run_search

SRC = Path(__file__).resolve().parent.parent / "src"


def test_recursive_walks_leave_no_cyclic_garbage():
    # the batch, quotient and frame walks recurse through closures; a cycle
    # left per batch, quotient walk or corner pair would run the collector
    # inside whichever phase of a request fills its first generation
    priors = [enumeration.prior_row(r) for r in Form(5, 4).initial_roots()]
    gc.collect()
    gc.disable()
    try:
        assert enumeration.enumerate_batch_vectors(4, 54, 1, priors)
        assert linalg.short_vectors([[2, 1, 0], [1, 2, 1], [0, 1, 2]], [2, 4])
        a2 = [[2, -1], [-1, 2]]
        assert isometry._matching_frames(a2, [0, 1], a2) == [(0, 1), (1, 0)]
        assert gc.collect() == 0
    finally:
        gc.enable()


def random_case(rng):
    n = rng.randint(2, 7)
    target = rng.randint(0, 3000)
    step = rng.choice([1, 1, 1, 5, 7, 11])
    nprior = rng.randint(0, 6)
    consts = [rng.randint(-200, 40) for _ in range(nprior)]
    coeffs = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(nprior)]
    return n, target, step, consts, coeffs


def kernel(n, target, step, consts, coeffs):
    """The kernel on rows given as constants and coefficients, with each
    row's peak max(0, C_1, ..., C_n) over its prefix sums worked out here."""
    priors = [(c, row, max(0, *accumulate(row))) for c, row in zip(consts, coeffs)]
    return enumeration.enumerate_batch_vectors(n, target, step, priors)


def test_pure_kernel_contract():
    rng = random.Random(5150)
    for _ in range(80):
        n, target, step, consts, coeffs = random_case(rng)
        out = kernel(n, target, step, consts, coeffs)
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


def box_scan(n, target, step, consts, coeffs):
    """The kernel's contract by a scan of the box of multiples of step,
    with the last coordinate solved, in lexicographically decreasing
    order."""
    top = isqrt(target)
    out = []
    for head in product(range(top - top % step, -1, -step), repeat=n - 1):
        rest = target - sum(x * x for x in head)
        last = isqrt(rest) if rest >= 0 else -1
        if last * last != rest or last % step:
            continue
        v = head + (last,)
        if any(a < b for a, b in zip(v, v[1:])):
            continue
        if any(c + sum(a * b for a, b in zip(row, v)) > 0
               for c, row in zip(consts, coeffs)):
            continue
        out.append(v)
    return out


def test_pure_kernel_completeness_small():
    # against a box scan, in value and order, with and without the
    # divisibility step
    rng = random.Random(808)
    for step in (1, 5, 7):
        for _ in range(30):
            n = rng.randint(2, 4 if step == 1 else 3)
            target = rng.randint(0, 120)
            if step > 1 and rng.random() < 0.7:
                target = step * step * rng.randint(0, 30)
            consts = [rng.randint(-20 * step, 5) for _ in range(rng.randint(0, 3))]
            coeffs = [[rng.randint(-4, 4) for _ in range(n)] for _ in consts]
            out = kernel(n, target, step, consts, coeffs)
            assert out == box_scan(n, target, step, consts, coeffs), (
                n, target, step, consts, coeffs)


@pytest.mark.parametrize("p", [13, 23])
def test_kernel_on_search_states(p):
    # the prior rows of real batches: the initial roots and the roots
    # accepted before each batch, on every batch of the stream up to
    # height 400
    form = Form(p, 3)
    state = SearchState.fresh(form)
    for _ in replay(state, Budget(max_height=Fraction(400), max_roots=10**6)):
        pass
    roots = state.accepted
    state = SearchState.fresh(form)
    stream = replay(state, Budget(max_height=Fraction(400), max_roots=10**6))
    heads = batch_sequence(form)
    while True:
        k0, m = next(heads)
        target = m + p * k0 * k0
        step = p if m % p == 0 else 1
        for prior in (state.accepted, roots):
            consts = [-p * k0 * r[0] for r in prior]
            coeffs = [list(r[1:]) for r in prior]
            out = kernel(3, target, step, consts, coeffs)
            assert out == box_scan(3, target, step, consts, coeffs), (k0, m)
        if next(stream, None) is None:
            break
    assert state.accepted == roots
    assert len(roots) > len(form.initial_roots()) + 10


@pytest.mark.parametrize("p", [13, 23])
def test_replay_rows_give_the_raw_rows_lists(p, monkeypatch):
    # every batch of the stream up to height 400 gets, from the replay,
    # the rows of the roots accepted before it, and enumerate_batch on
    # them returns what the kernel returns on the raw rows
    form = Form(p, 3)
    state = SearchState.fresh(form)
    batches = []

    def checked(form_, k0, m, rows):
        prior = state.accepted
        assert rows == [enumeration.prior_row(r) for r in prior]
        out = enumeration.enumerate_batch(form_, k0, m, rows)
        step = p if m % p == 0 else 1
        consts = [-p * k0 * r[0] for r in prior]
        coeffs = [list(r[1:]) for r in prior]
        raw = kernel(3, m + p * k0 * k0, step, consts, coeffs)
        assert out == [(k0, *v) for v in raw], (k0, m)
        batches.append(out)
        return out

    monkeypatch.setattr(search, "enumerate_batch", checked)
    for _ in replay(state, Budget(max_height=Fraction(400), max_roots=10**6)):
        pass
    assert len(batches) == state.batches_done
    assert sum(map(len, batches)) > 10


def test_kernel_at_the_dropped_row_bound():
    # rows whose prefix sums are all <= 0 hold on every sorted nonnegative
    # vector when their constant is <= 0, and are dropped; a constant of 1
    # keeps them.  A row with a positive prefix sum C is dropped at a
    # constant of -k C, with k the largest k_1 the batch allows, and kept
    # just past it.
    rng = random.Random(1207)
    for _ in range(200):
        n = rng.randint(2, 4)
        step = rng.choice((1, 1, 2, 3))
        target = rng.randint(0, 150)
        k = step * isqrt(target)
        target *= step * step
        consts, coeffs = [], []
        for _ in range(rng.randint(1, 4)):
            sums = [rng.randint(-6, 0) for _ in range(n)]
            if rng.random() < 0.5:
                sums[rng.randrange(n)] = rng.randint(1, 4)
            coeffs.append([b - a for a, b in zip([0] + sums, sums)])
            if max(sums) < 0 and rng.random() < 0.5:
                # the bound k max C is not an upper bound where k_1 < k
                consts.append(rng.randint(1, -k * max(sums) + 1))
            else:
                consts.append(-k * max(0, *sums) + rng.choice((-1, 0, 0, 1, 1)))
        out = kernel(n, target, step, consts, coeffs)
        assert out == box_scan(n, target, step, consts, coeffs), (
            n, target, step, consts, coeffs)


def test_kernel_on_two_coordinates():
    # n = 2: the pair loop is the whole walk
    rng = random.Random(2)
    for target in range(0, 700):
        consts = [rng.randint(-60, 10) for _ in range(rng.randint(0, 2))]
        coeffs = [[rng.randint(-5, 5) for _ in range(2)] for _ in consts]
        out = kernel(2, target, 1, consts, coeffs)
        assert out == box_scan(2, target, 1, consts, coeffs), (target, consts, coeffs)
    for step in (5, 13):
        for k in range(0, 60):
            target = step * step * k
            assert kernel(2, target, step, [], []) == box_scan(
                2, target, step, [], [])


def test_enumerate_batch_prefixes_first_coordinate():
    form = Form(11, 3)
    prior = form.initial_roots()
    out = enumeration.enumerate_batch(
        form, 1, 2, [enumeration.prior_row(r) for r in prior])
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


@functools.cache
def has_two_squares(r):
    """Whether r = a^2 + b^2 for some a >= b >= 0, by trying every a."""
    return any(isqrt(r - a * a) ** 2 == r - a * a
               for a in range(isqrt(r) + 1) if 2 * a * a >= r)


# the doubling boundaries: powers of two, the table's sizes from 1024 on
EDGES = [1 << k for k in range(10, 17)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.one_of(st.integers(0, 70000), st.sampled_from(EDGES),
                       st.sampled_from([e - 1 for e in EDGES])),
             min_size=1, max_size=4),
    st.lists(st.integers(0, 70000), max_size=30),
)
def test_two_squares_table_matches_brute_force(bounds, probes):
    # grown from empty through the drawn bounds; checked at drawn values
    # and on both sides of every doubling boundary it crossed, down to
    # below the square of its largest first term
    t = bytearray()
    with mock.patch.object(enumeration, "_TWO_SQUARES", t):
        for bound in bounds:
            assert enumeration.two_squares_table(bound) is t
            assert len(t) > bound
            checked = set(probes) | {bound}
            for edge in EDGES:
                checked.update(range(edge - 2 * isqrt(edge) - 2, edge + 8))
            for r in sorted(checked):
                if r < len(t):
                    assert t[r] == has_two_squares(r), r


GROWTH_SCRIPT = """
import json, sys
from vinberg import enumeration
out = []
for n, target, step in json.loads(sys.argv[1]):
    out.append(enumeration.enumerate_batch_vectors(n, target, step, [(-40, [1] * n, n)]))
print(json.dumps([len(enumeration._TWO_SQUARES), out]))
"""


def test_kernel_output_does_not_depend_on_table_growth_order():
    # a large target first, so the table starts large, then small ones;
    # and the reverse, so it grows on the way; each in a fresh process
    cases = [[3, 40001, 1], [4, 25 * 1290, 5], [3, 901, 1], [3, 250, 1]]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    runs = []
    for order in (cases, cases[::-1]):
        proc = subprocess.run(
            [sys.executable, "-c", GROWTH_SCRIPT, json.dumps(order)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        size, out = json.loads(proc.stdout)
        assert size == 65536
        runs.append({tuple(case): [tuple(v) for v in vecs] for case, vecs in zip(order, out)})
    assert runs[0] == runs[1]
    for (n, target, step), vecs in runs[0].items():
        if n == 3:
            assert vecs == box_scan(n, target, step, [-40], [[1] * n]), target
        assert vecs == kernel(n, target, step, [-40], [[1] * n])


def test_two_coordinate_batches_leave_the_table_alone():
    t = bytearray()
    with mock.patch.object(enumeration, "_TWO_SQUARES", t):
        assert kernel(2, 10**6 + 1, 1, [], []) == box_scan(
            2, 10**6 + 1, 1, [], [])
        run_search(Form(83, 2), Budget(max_height=Fraction(1600)))
    assert len(t) == 0


class Unread:
    """Rows that fail the test if anything reads them."""

    def __iter__(self):
        raise AssertionError("rows read")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from([5, 7, 11, 13, 17, 19, 23, 29]),
    st.integers(2, 6),
    st.integers(1, 300),
    st.booleans(),
    st.lists(st.lists(st.integers(-30, 30), min_size=7, max_size=7), max_size=5),
)
def test_norm_p_batch_off_the_lattice_is_empty_before_its_rows(p, n, k0, double, roots):
    # p | k_i for i >= 1 puts p^2 | m + p k0^2; where it does not divide,
    # the batch is empty for any rows, and returns before reading them
    m = 2 * p if double else p
    assume((m + p * k0 * k0) % (p * p))
    form = Form(p, n)
    rows = [enumeration.prior_row(tuple(r[: n + 1])) for r in roots]
    assert enumeration.enumerate_batch(form, k0, m, rows) == []
    assert enumeration.enumerate_batch(form, k0, m, Unread()) == []
