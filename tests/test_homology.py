from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import boundary_columns, composite_boundary_columns, random_acyclic, random_complex
from pathbetti import (
    DEFAULT_PRIME,
    SizeCapError,
    faces_by_dim,
    make_complex,
    omega_complex,
    reduced_homology_dims,
    validate_prime,
)
from pathbetti.homology import _reduce_columns
from reference import (
    boundary_complex,
    cone,
    intersection,
    is_cone,
    reduced_euler_characteristic,
    union,
)

facet_families = st.lists(
    st.lists(st.integers(min_value=0, max_value=6), max_size=4),
    max_size=5,
)

PRIMES = (2, DEFAULT_PRIME)


@pytest.mark.parametrize("p", PRIMES)
def test_frozen_profiles(p):
    assert reduced_homology_dims(make_complex([]), p) == {}
    assert reduced_homology_dims(make_complex([[]]), p) == {-1: 1}
    assert reduced_homology_dims(make_complex([[1]]), p) == {}
    assert reduced_homology_dims(make_complex([[1], [2]]), p) == {0: 1}
    assert reduced_homology_dims(boundary_complex(3), p) == {1: 1}
    assert reduced_homology_dims(make_complex([[1, 2, 3]]), p) == {}


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", range(1, 7))
def test_sphere_profile(n, p):
    # the boundary of a simplex on n vertices is an (n-2)-sphere
    assert reduced_homology_dims(boundary_complex(n), p) == {n - 2: 1}


def test_profile_api():
    # a dict {degree: dim} holding nonzero dims only
    assert reduced_homology_dims(boundary_complex(4)) == {2: 1}
    assert reduced_homology_dims(make_complex([])) == {}


@given(facet_families)
@settings(max_examples=50, deadline=None)
def test_boundary_of_boundary_is_zero(fam):
    K = make_complex(fam)
    if K.is_void:
        return
    for prime in PRIMES:
        for p, col in composite_boundary_columns(K, prime):
            assert not col, (p, prime)


@given(facet_families)
@settings(max_examples=50, deadline=None)
def test_euler_characteristic_consistency(fam):
    K = make_complex(fam)
    for prime in PRIMES:
        prof = reduced_homology_dims(K, prime)
        chi = sum(d if p % 2 == 0 else -d for p, d in prof.items())
        assert chi == reduced_euler_characteristic(K)


@given(facet_families)
@settings(max_examples=50, deadline=None)
def test_cone_is_acyclic(fam):
    K = cone(make_complex(fam), 99)
    for prime in PRIMES:
        assert reduced_homology_dims(K, prime) == {}


def test_detected_cones_are_acyclic():
    rng = random.Random(11)
    for _ in range(150):
        K = random_complex(rng)
        if not K.is_void and is_cone(K) is not None:
            assert reduced_homology_dims(K) == {}


def test_acyclic_union_shifts_intersection():
    rng = random.Random(13)
    checked = 0
    for _ in range(60):
        K1, K2 = random_acyclic(rng), random_acyclic(rng)
        U, I = union(K1, K2), intersection(K1, K2)
        du = reduced_homology_dims(U)
        di = reduced_homology_dims(I)
        assert du == {p + 1: d for p, d in di.items()}
        checked += 1
    assert checked == 60


@pytest.mark.parametrize("t", [1, 2, 3])
def test_omega_recursion(t):
    # dim H~_p of the window complex on n vertices matches the complex on
    # n-t-1 vertices shifted up by two
    for n in range(2 * t + 1, 11):
        big = reduced_homology_dims(omega_complex(n, t))
        small = reduced_homology_dims(omega_complex(n - t - 1, t))
        assert big == {p + 2: d for p, d in small.items()}


def test_field_independence_on_window_complexes():
    for t in (1, 2, 3):
        for n in range(t, 10):
            a = reduced_homology_dims(omega_complex(n, t), 2)
            b = reduced_homology_dims(omega_complex(n, t), DEFAULT_PRIME)
            assert a == b


def gf_rank(columns, prime: int) -> int:
    """Rank over GF(prime) of the matrix with these sparse columns (row -> integer).

    Entries are reduced mod prime and zeros dropped first, as _reduce_columns
    requires of its input.
    """
    cleaned = ({r: v % prime for r, v in col.items() if v % prime} for col in columns)
    return len(_reduce_columns(cleaned, prime))


def columns_of(rows: list[list[int]]) -> list[dict[int, int]]:
    """The sparse columns of the matrix with these dense rows."""
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(len(rows[0]) if rows else 0)]


def test_gf_rank_reduces_entries_mod_p():
    # multiples of p vanish; other entries are taken mod p
    assert gf_rank([{0: 10}], 5) == 0
    assert gf_rank([{0: -4}], 5) == 1


def test_rank_basics():
    assert gf_rank([{0: 1}, {1: 1}, {2: 1}], 5) == 3
    assert gf_rank([{}, {}], 7) == 0
    assert gf_rank(columns_of([[1, 2], [2, 4]]), 5) == 1
    assert gf_rank(columns_of([[1, 1], [1, 1]]), 2) == 1
    # 2x2 with determinant divisible by 5 only
    assert gf_rank(columns_of([[1, 2], [3, 1]]), 5) == 1
    assert gf_rank(columns_of([[1, 2], [3, 1]]), 7) == 2


def dense_rank(rows: list[list[int]], prime: int) -> int:
    """Reference rank over GF(prime) by textbook row reduction."""
    A = [[v % prime for v in row] for row in rows]
    rank = 0
    for col in range(len(A[0]) if A else 0):
        piv = next((i for i in range(rank, len(A)) if A[i][col]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = pow(A[rank][col], prime - 2, prime)
        A[rank] = [v * inv % prime for v in A[rank]]
        for i in range(len(A)):
            if i != rank and A[i][col]:
                f = A[i][col]
                A[i] = [(a - f * b) % prime for a, b in zip(A[i], A[rank])]
        rank += 1
    return rank


def test_rank_matches_dense_reference():
    rng = random.Random(17)
    for prime in (2, 3, DEFAULT_PRIME):
        for _ in range(40):
            r, c = rng.randint(1, 12), rng.randint(1, 12)
            density = rng.choice((0.2, 0.4, 0.7))
            rows = [
                [rng.randrange(-3 * prime, 3 * prime) if rng.random() < density else 0 for _ in range(c)]
                for _ in range(r)
            ]
            if rng.random() < 0.5 and r > 2:
                # a row combination keeps the rank below full
                k = rng.randrange(1, prime)
                rows[-1] = [a + k * b for a, b in zip(rows[0], rows[1])]
            assert gf_rank(columns_of(rows), prime) == dense_rank(rows, prime)


def test_rank_equals_transpose_rank():
    rng = random.Random(19)
    for prime in PRIMES:
        for _ in range(25):
            r, c = rng.randint(1, 10), rng.randint(1, 10)
            rows = [[rng.randrange(prime) if rng.random() < 0.5 else 0 for _ in range(c)] for _ in range(r)]
            assert gf_rank(columns_of(rows), prime) == gf_rank(columns_of(list(zip(*rows))), prime)


def test_boundary_column_triangle():
    faces = faces_by_dim(make_complex([[1, 2, 3]]))
    # the facet without vertex k enters with sign (-1)^k, and -1 is 4 over GF(5)
    # rows: vertices (1),(2),(3); columns: edges (1,2),(1,3),(2,3)
    assert boundary_columns(faces, 1, 5) == [{0: 4, 1: 1}, {0: 4, 2: 1}, {1: 4, 2: 1}]
    # every vertex maps to the empty face
    assert boundary_columns(faces, 0, 5) == [{0: 1}, {0: 1}, {0: 1}]
    # (1,2,3) -> (2,3) - (1,3) + (1,2)
    assert boundary_columns(faces, 2, 5) == [{2: 1, 1: 4, 0: 1}]


def test_validate_prime():
    assert validate_prime(2) == 2
    assert validate_prime(32003) == 32003
    assert validate_prime((1 << 31) - 1) == (1 << 31) - 1
    for bad in (0, 1, -7, 9, 10, 32004, 1 << 31):
        with pytest.raises(ValueError):
            validate_prime(bad)


def test_face_count_cap():
    K = make_complex([range(1, 18)])
    with pytest.raises(SizeCapError):
        reduced_homology_dims(K)
    with pytest.raises(SizeCapError):
        reduced_euler_characteristic(K)
    # a tighter explicit cap trips on small complexes too
    with pytest.raises(SizeCapError):
        reduced_homology_dims(boundary_complex(4), cap=3)


def test_rank_of_tall_sparse_column():
    # the reduction keeps only the entries, never rows x cols cells
    assert len(_reduce_columns([{5999: 1}], DEFAULT_PRIME)) == 1


def test_face_cap_alone_bounds_rank_work():
    # the largest boundary complex under the face cap (2^16 - 1 faces);
    # the sparse reduction never allocates the 147 million cells of its
    # 12870x11440 middle matrix
    assert reduced_homology_dims(boundary_complex(16)) == {14: 1}


@pytest.mark.parametrize("prime", PRIMES)
def test_clearing_matches_full_ranks(prime):
    # reduced_homology_dims skips cleared columns; the reference reduces
    # every boundary column of each d_p on its own
    rng = random.Random(23)
    for _ in range(60):
        K = random_complex(rng, max_vertices=8, max_facets=6)
        if K.is_void:
            continue
        top = max(len(f) for f in K.facets) - 1
        faces = faces_by_dim(K)
        ranks = {p: len(_reduce_columns(boundary_columns(faces, p, prime), prime)) for p in range(0, top + 2)}
        want = {}
        for p in range(-1, top + 1):
            d = len(faces.get(p, [])) - ranks.get(p, 0) - ranks[p + 1]
            if d:
                want[p] = d
        assert reduced_homology_dims(K, prime) == want


def test_zero_row_zero_col_matrices():
    assert gf_rank([{} for _ in range(5)], 5) == 0  # 0 x 5
    assert gf_rank(columns_of([[] for _ in range(5)]), 5) == 0  # 5 x 0
    assert gf_rank([], 2) == 0  # 0 x 0
