"""Real-field oracles on integer grids over Q.

The points of an a x b grid, (i, j, 1), or of an a x b x c grid,
(i, j, l, 1), are mapped by a random invertible integer matrix, which
keeps their matroid, and a random spanning sub-configuration is taken.
What the package finds is checked against counts made here without its
kernel, from the maximal minors of sets of points (their Grassmann
coordinates, equal up to a rational factor exactly when the spans are
equal), and against theorems of real geometry:
  - the a x a grid has 6, 20, 62 and 140 lines for a = 2..5 (OEIS
    A018808);
  - n points of the real plane, not all on a line, have at least 3n/7
    two-point lines (Kelly and Moser 1958), so at least one (Sylvester
    and Gallai);
  - points spanning real projective space have an ordinary hyperplane
    (Hansen 1965).
"""

import random
from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flatkit.matroid import Matroid, representation_from_rows
from flatkit.search import find_ordinary_flat_brute, find_two_point_line


def grid(*sizes):
    """The points of the grid as homogeneous integer vectors."""
    points = [()]
    for size in sizes:
        points = [p + (i,) for p in points for i in range(size)]
    return [p + (1,) for p in points]


@lru_cache(maxsize=None)
def signed_permutations(n):
    return [(perm, (-1) ** sum(perm[i] > perm[j]
                               for i, j in combinations(range(n), 2)))
            for perm in permutations(range(n))]


def det(rows):
    """Leibniz's determinant of a small square integer matrix."""
    return sum(sign * prod(row[c] for row, c in zip(rows, perm))
               for perm, sign in signed_permutations(len(rows)))


def span_key(vectors):
    """The maximal minors of the matrix with rows `vectors`, divided by
    their gcd and signed so the first nonzero one is positive: one key
    per span of that dimension, None if the vectors are dependent."""
    d = len(vectors[0])
    minors = [det([[v[c] for c in cols] for v in vectors])
              for cols in combinations(range(d), len(vectors))]
    g = gcd(*minors)
    if not g:
        return None
    sign = 1 if next(m for m in minors if m) > 0 else -1
    return tuple(sign * m // g for m in minors)


def mapped(points, rng):
    """The points times a random invertible integer matrix."""
    d = len(points[0])
    while True:
        A = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        if det(A):
            return [tuple(sum(a * x for a, x in zip(row, p)) for row in A)
                    for p in points]


@st.composite
def configuration(draw, sizes):
    """A mapped spanning sub-configuration of a grid of one of `sizes`."""
    points = grid(*draw(st.sampled_from(sizes)))
    rank = len(points[0])
    chosen = draw(st.sets(st.sampled_from(range(len(points))),
                          min_size=rank))
    sub = [points[i] for i in sorted(chosen)]
    assume(any(span_key(list(basis)) for basis in combinations(sub, rank)))
    return mapped(sub, random.Random(draw(st.integers(0, 2**32))))


def check_lines(points):
    """The walk's lines, two-point lines and lines through the first
    point against the ones counted from pairs of points."""
    M = Matroid(representation_from_rows(zip(*points), 1))
    # a line through m of the points is counted m(m-1)/2 times
    pairs = Counter(span_key([p, q]) for p, q in combinations(points, 2))
    assert M.is_simple() and M.rank() == len(points[0])
    assert sum(1 for _ in M.flats_of_rank(2)) == len(pairs)
    ordinary = sum(1 for count in pairs.values() if count == 1)
    assert sum(1 for _ in M.flats_of_rank(2, free=True)) == ordinary
    through = {span_key([points[0], q]) for q in points[1:]}
    first = M.closure(M.ground[:1])
    assert len(M.contract(first).parallel_classes()) == len(through)
    return M, pairs, ordinary


@pytest.mark.parametrize("a, lines", [(2, 6), (3, 20), (4, 62), (5, 140)])
def test_square_grid_line_counts(a, lines):
    points = mapped(grid(a, a), random.Random(a))
    _, pairs, _ = check_lines(points)
    assert len(pairs) == lines


def plane_checks(points):
    """Sylvester-Gallai and Kelly-Moser in the real plane, and Hansen's
    ordinary hyperplane, a line there."""
    M, pairs, ordinary = check_lines(points)
    assert 7 * ordinary >= 3 * len(points)
    line = find_two_point_line(M)
    columns = dict(zip(M.ground, points))
    assert pairs[span_key([columns[e] for e in line.elements])] == 1
    assert find_ordinary_flat_brute(M, 2) is not None


@pytest.mark.parametrize("sizes", [(2, 3), (3, 3), (3, 4)])
def test_full_planar_grids(sizes):
    plane_checks(mapped(grid(*sizes), random.Random(str(sizes))))


@settings(max_examples=30, deadline=None)
@given(configuration([(2, 3), (3, 3), (3, 4), (4, 4)]))
def test_planar_grid_configurations(points):
    plane_checks(points)


def space_checks(points):
    """Lines and two-point lines in real 3-space, its planes with exactly
    three points (the free walk at rank 3) counted from triples, and
    Hansen's ordinary plane."""
    M, _, _ = check_lines(points)
    planes = {}  # each plane through three of the points: those three
    for triple in combinations(points, 3):
        key = span_key(list(triple))
        if key is not None:
            planes.setdefault(key, list(triple))
    on = [sum(span_key(triple + [p]) is None for p in points)
          for triple in planes.values()]
    assert sum(1 for _ in M.flats_of_rank(3, free=True)) == on.count(3)
    assert find_ordinary_flat_brute(M, 3) is not None


@settings(max_examples=20, deadline=None)
@given(configuration([(2, 2, 2), (2, 2, 3), (2, 3, 3)]))
def test_spatial_grid_configurations(points):
    space_checks(points)


def test_full_spatial_grid():
    space_checks(mapped(grid(3, 3, 3), random.Random(3)))
