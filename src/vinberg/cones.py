"""Exact polyhedral cone computations via the double description method.

A cone {y : a . y <= 0 for all a} in Q^d is carried as generators split
into lines (the lineality space) and rays, all scaled to primitive integer
vectors.  The rays are exactly the extreme rays modulo the lineality
space, each once, and each carries the set of constraints it is tight on
as one integer bitmask, bit i for the i-th constraint; the masks are the
cone's face lattice.  So adjacency of two rays is decided combinatorially
(Fukuda and Prodon 1996) by bit operations: they span a 2-face iff no
third ray's mask contains the AND of theirs.

A Cone holds the double-description state: lines, rays, their masks
and the constraints processed so far.  Passing one to cone_generators
adds constraints to it one at a time, so a cone cut out by a growing
list is never recomputed; without one, the call starts from the whole
space.  The module imports nothing else from vinberg.
"""

from __future__ import annotations

from math import gcd
from operator import mul


def primitive_vector(v) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries."""
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def _dot(a, v):
    return sum(map(mul, a, v))


def bits(mask: int) -> list[int]:
    """The indices of the set bits of a nonnegative integer, ascending."""
    return [i for i, b in enumerate(reversed(bin(mask))) if b == "1"]


class Cone:
    """Double-description state of {y : a . y <= 0 for every processed a}.

    rays[k] is tight on processed[i] exactly when bit i of masks[k] is
    set; tight is a read-only view of the masks as index sets.  The rays
    are exactly the extreme rays modulo the lineality space spanned by
    lines, each once and nonzero: a constraint that cuts a line projects
    the rays along it and adds it as one new ray, and one that cuts no
    line keeps the rays on its side and adds one per adjacent pair it
    separates, so no step repeats a ray or keeps a redundant one.
    """

    def __init__(self, dim):
        self.lines = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
        self.rays: list[tuple] = []
        self.masks: list[int] = []
        self.processed: list[tuple] = []

    @property
    def tight(self) -> list[frozenset]:
        """Each ray's tight set, the indices of the bits of its mask."""
        return [frozenset(bits(m)) for m in self.masks]

    def generators(self) -> tuple[list, list]:
        """(lines, rays), sorted."""
        return sorted(self.lines), sorted(self.rays)


def cone_generators(constraints, dim, cone=None) -> tuple[list, list]:
    """Generators (lines, rays) of {y in Q^dim : a . y <= 0 for all a}.

    The constraints are added to cone, a Cone of dimension dim holding
    earlier constraints, or to a fresh one; the generators are those of
    every constraint it then holds.  Each ray carries the mask of the
    processed constraints it is tight on, updated as constraints are
    added, so adjacency never re-evaluates old constraints.  The cone
    is updated only once every constraint is in.
    """
    if cone is None:
        cone = Cone(dim)
    lines, rays, masks, processed = map(list, (cone.lines, cone.rays, cone.masks, cone.processed))

    for a in constraints:
        a = tuple(a)
        here = 1 << len(processed)
        pivot_idx = next((i for i, l in enumerate(lines) if _dot(a, l) != 0), None)
        if pivot_idx is not None:
            pivot = lines.pop(pivot_idx)
            pv = _dot(a, pivot)
            s = 1 if pv > 0 else -1

            def project(v):
                # onto the hyperplane a . y = 0, along the pivot; the
                # scaling factor s*pv is positive, so ray directions survive
                d = _dot(a, v)
                return v if d == 0 else primitive_vector(
                    [s * pv * x - s * d * y for x, y in zip(v, pivot)]
                )

            lines = [project(l) for l in lines]
            rays = [project(r) for r in rays]
            # the pivot line lies in every processed hyperplane, and so do
            # the projections' pivot components: old tight sets carry over
            masks = [m | here for m in masks]
            # the pivot line itself survives as the ray pointing inside
            rays.append(pivot if pv < 0 else tuple(-x for x in pivot))
            masks.append(here - 1)
        else:
            values = [_dot(a, r) for r in rays]
            neg = [k for k, v in enumerate(values) if v < 0]
            zero = [k for k, v in enumerate(values) if v == 0]
            pos = [k for k, v in enumerate(values) if v > 0]
            new_rays = [rays[k] for k in neg + zero]
            new_masks = [masks[k] for k in neg] + [masks[k] | here for k in zero]
            # a 2-face is cut out by constraints of rank need, so by at
            # least need of them
            need = dim - len(lines) - 2
            for kp in pos:
                m_p = masks[kp]
                for kn in neg:
                    common = m_p & masks[kn]
                    if common.bit_count() < need:
                        continue
                    # the smallest face holding both rays is spanned by the
                    # rays tight on common; it is a 2-face iff they are the
                    # two, so the scan stops at a third mask containing common
                    hits = 0
                    for m in masks:
                        if m & common == common:
                            hits += 1
                            if hits == 3:
                                break
                    if hits == 3:
                        continue
                    vp, vn = values[kp], values[kn]
                    new_rays.append(primitive_vector(
                        [vp * x - vn * y for x, y in zip(rays[kn], rays[kp])]
                    ))
                    new_masks.append(common | here)
            rays, masks = new_rays, new_masks
        processed.append(a)

    cone.lines, cone.rays, cone.masks, cone.processed = lines, rays, masks, processed
    return cone.generators()
