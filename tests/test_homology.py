from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_acyclic, random_complex
from pathbetti import (
    DEFAULT_PRIME,
    HomologyProfile,
    PrimeFieldMatrix,
    SizeCapError,
    boundary_complex,
    boundary_matrix,
    cone,
    enumerate_faces,
    intersection,
    is_cone,
    make_complex,
    omega_complex,
    reduced_euler_characteristic,
    reduced_homology_dims,
    union,
    validate_prime,
)

facet_families = st.lists(
    st.lists(st.integers(min_value=0, max_value=6), max_size=4),
    max_size=5,
)

PRIMES = (2, DEFAULT_PRIME)


@pytest.mark.parametrize("p", PRIMES)
def test_frozen_profiles(p):
    assert reduced_homology_dims(make_complex([]), p).as_dict() == {}
    assert reduced_homology_dims(make_complex([[]]), p).as_dict() == {-1: 1}
    assert reduced_homology_dims(make_complex([[1]]), p).as_dict() == {}
    assert reduced_homology_dims(make_complex([[1], [2]]), p).as_dict() == {0: 1}
    assert reduced_homology_dims(boundary_complex(3), p).as_dict() == {1: 1}
    assert reduced_homology_dims(make_complex([[1, 2, 3]]), p).is_trivial


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", range(1, 7))
def test_sphere_profile(n, p):
    # the boundary of a simplex on n vertices is an (n-2)-sphere
    assert reduced_homology_dims(boundary_complex(n), p).as_dict() == {n - 2: 1}


def test_profile_api():
    prof = reduced_homology_dims(boundary_complex(4))
    assert isinstance(prof, HomologyProfile)
    assert prof.prime == DEFAULT_PRIME
    assert prof.dim(2) == 1
    assert prof.dim(0) == 0
    assert not prof.is_trivial
    assert reduced_homology_dims(make_complex([])).is_trivial


@given(facet_families)
@settings(max_examples=50, deadline=None)
def test_boundary_of_boundary_is_zero(fam):
    K = make_complex(fam)
    if K.is_void:
        return
    top = max(len(f) for f in K.facets) - 1
    for prime in PRIMES:
        for p in range(0, top + 1):
            D_p = boundary_matrix(K, p, prime).to_dense()
            D_q = boundary_matrix(K, p + 1, prime).to_dense()
            assert not ((D_p @ D_q) % prime).any()


@given(facet_families)
@settings(max_examples=50, deadline=None)
def test_euler_characteristic_consistency(fam):
    K = make_complex(fam)
    for prime in PRIMES:
        prof = reduced_homology_dims(K, prime)
        chi = sum(d if p % 2 == 0 else -d for p, d in prof.as_dict().items())
        assert chi == reduced_euler_characteristic(K)


@given(facet_families)
@settings(max_examples=50, deadline=None)
def test_cone_is_acyclic(fam):
    K = cone(make_complex(fam), 99)
    for prime in PRIMES:
        assert reduced_homology_dims(K, prime).is_trivial


def test_detected_cones_are_acyclic():
    rng = random.Random(11)
    for _ in range(150):
        K = random_complex(rng)
        if not K.is_void and is_cone(K) is not None:
            assert reduced_homology_dims(K).is_trivial


def test_acyclic_union_shifts_intersection():
    rng = random.Random(13)
    checked = 0
    for _ in range(60):
        K1, K2 = random_acyclic(rng), random_acyclic(rng)
        U, I = union(K1, K2), intersection(K1, K2)
        du = reduced_homology_dims(U).as_dict()
        di = reduced_homology_dims(I).as_dict()
        assert du == {p + 1: d for p, d in di.items()}
        checked += 1
    assert checked == 60


@pytest.mark.parametrize("t", [1, 2, 3])
def test_omega_recursion(t):
    # dim H~_p of the window complex on n vertices matches the complex on
    # n-t-1 vertices shifted up by two
    for n in range(2 * t + 1, 11):
        big = reduced_homology_dims(omega_complex(n, t)).as_dict()
        small = reduced_homology_dims(omega_complex(n - t - 1, t)).as_dict()
        assert big == {p + 2: d for p, d in small.items()}


def test_field_independence_on_window_complexes():
    for t in (1, 2, 3):
        for n in range(t, 10):
            a = reduced_homology_dims(omega_complex(n, t), 2).as_dict()
            b = reduced_homology_dims(omega_complex(n, t), DEFAULT_PRIME).as_dict()
            assert a == b


def test_rank_basics():
    assert PrimeFieldMatrix(3, 3, 5, {(i, i): 1 for i in range(3)}).rank() == 3
    assert PrimeFieldMatrix(4, 2, 7, {}).rank() == 0
    assert PrimeFieldMatrix(2, 2, 5, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4}).rank() == 1
    assert PrimeFieldMatrix(2, 2, 2, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}).rank() == 1
    # 2x2 with determinant divisible by 5 only
    assert PrimeFieldMatrix(2, 2, 5, {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 1}).rank() == 1
    assert PrimeFieldMatrix(2, 2, 7, {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 1}).rank() == 2


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
            entries = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}
            assert PrimeFieldMatrix(r, c, prime, entries).rank() == dense_rank(rows, prime)


def test_rank_equals_transpose_rank():
    rng = random.Random(19)
    for prime in PRIMES:
        for _ in range(25):
            r, c = rng.randint(1, 10), rng.randint(1, 10)
            entries = {
                (i, j): rng.randrange(prime)
                for i in range(r)
                for j in range(c)
                if rng.random() < 0.5
            }
            M = PrimeFieldMatrix(r, c, prime, entries)
            Mt = PrimeFieldMatrix(c, r, prime, {(j, i): v for (i, j), v in entries.items()})
            assert M.rank() == Mt.rank()


def test_matrix_validation():
    with pytest.raises(ValueError):
        PrimeFieldMatrix(2, 2, 5, {(2, 0): 1})
    with pytest.raises(ValueError):
        PrimeFieldMatrix(2, 2, 5, {(0, 2): 1})
    # entries are reduced mod p; multiples of p vanish
    assert PrimeFieldMatrix(1, 1, 5, {(0, 0): 10}).rank() == 0


def test_boundary_matrix_triangle():
    K = make_complex([[1, 2, 3]])
    D1 = boundary_matrix(K, 1, 5)
    # rows: vertices (1),(2),(3); cols: edges (1,2),(1,3),(2,3)
    assert (D1.nrows, D1.ncols) == (3, 3)
    assert D1.entries == {
        (0, 0): 4, (1, 0): 1,
        (0, 1): 4, (2, 1): 1,
        (1, 2): 4, (2, 2): 1,
    }
    D0 = boundary_matrix(K, 0, 5)
    assert (D0.nrows, D0.ncols) == (1, 3)
    assert D0.entries == {(0, 0): 1, (0, 1): 1, (0, 2): 1}
    faces = {p: enumerate_faces(K, p) for p in (1, 2)}
    D2 = boundary_matrix(K, 2, 5, faces=faces)
    assert (D2.nrows, D2.ncols) == (3, 1)


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


def test_matrix_entry_cap():
    # only the dense copy allocates rows x cols cells; the sparse rank does not
    M = PrimeFieldMatrix(6000, 6000, 32003, {(0, 0): 1})
    with pytest.raises(SizeCapError):
        M.to_dense()
    assert M.rank() == 1


def test_face_cap_alone_bounds_rank_work():
    # the largest boundary complex under the face cap (2^16 - 1 faces);
    # its 12870x11440 middle matrix is past the dense entry cap
    assert reduced_homology_dims(boundary_complex(16)).as_dict() == {14: 1}


@pytest.mark.parametrize("prime", PRIMES)
def test_clearing_matches_full_ranks(prime):
    # reduced_homology_dims skips cleared columns; boundary_matrix().rank()
    # reduces every column of each d_p on its own
    rng = random.Random(23)
    for _ in range(60):
        K = random_complex(rng, max_vertices=8, max_facets=6)
        if K.is_void:
            continue
        top = max(len(f) for f in K.facets) - 1
        ranks = {p: boundary_matrix(K, p, prime).rank() for p in range(0, top + 2)}
        want = {}
        for p in range(-1, top + 1):
            d = len(enumerate_faces(K, p)) - ranks.get(p, 0) - ranks[p + 1]
            if d:
                want[p] = d
        assert reduced_homology_dims(K, prime).as_dict() == want


def test_zero_row_zero_col_matrices():
    assert PrimeFieldMatrix(0, 5, 5, {}).rank() == 0
    assert PrimeFieldMatrix(5, 0, 5, {}).rank() == 0
    assert PrimeFieldMatrix(0, 0, 2, {}).rank() == 0
