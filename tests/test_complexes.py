from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_complex
from pathbetti import SimplicialComplex, SizeCapError, faces_by_dim, make_complex, omega_complex
from pathbetti.complexes import grow_faces
from reference import boundary_complex, cone, facet_vertex_matching, intersection, is_cone, union

facet_families = st.lists(
    st.lists(st.integers(min_value=0, max_value=7), max_size=5),
    max_size=6,
)


def test_void_and_irrelevant_are_distinct():
    void = make_complex([])
    irr = make_complex([[]])
    assert void.is_void and void.facets != (frozenset(),)
    assert irr.facets == (frozenset(),) and not irr.is_void
    assert void != irr
    assert void.facets == ()
    assert irr.facets == (frozenset(),)
    assert irr.vertices == frozenset()


def test_make_complex_absorbs_non_maximal():
    K = make_complex([[1, 2], [2], [3], [], [2, 1]])
    assert K.facets == (frozenset({1, 2}), frozenset({3}))


def test_make_complex_canonical_order():
    K = make_complex([[5], [1, 9], [2, 3]])
    assert K.facets == (frozenset({1, 9}), frozenset({2, 3}), frozenset({5}))


@pytest.mark.parametrize("bad", [[[-1]], [["a"]], [[1.5]], [[True]]])
def test_make_complex_rejects_bad_labels(bad):
    with pytest.raises((TypeError, ValueError)):
        make_complex(bad)


@given(facet_families)
def test_make_complex_idempotent(fam):
    K = make_complex(fam)
    assert make_complex(K.facets) == K


@given(facet_families)
def test_facets_form_antichain(fam):
    K = make_complex(fam)
    for a, b in combinations(K.facets, 2):
        assert not a <= b and not b <= a


@given(facet_families)
def test_every_input_face_is_covered(fam):
    K = make_complex(fam)
    for f in fam:
        assert any(set(f) <= g for g in K.facets)


def test_faces_by_dim_simplex():
    K = make_complex([[1, 2, 3]])
    assert faces_by_dim(K) == {
        -1: [()],
        0: [(1,), (2,), (3,)],
        1: [(1, 2), (1, 3), (2, 3)],
        2: [(1, 2, 3)],
    }


def test_faces_by_dim_void_and_irrelevant():
    assert faces_by_dim(make_complex([])) == {}
    assert faces_by_dim(make_complex([[]])) == {-1: [()]}


def test_faces_by_dim_omega_5_2():
    # independently derived from the facet list; the 2-faces are exactly
    # the four facets themselves
    K = omega_complex(5, 2)
    facets = [{3, 4, 5}, {1, 4, 5}, {1, 2, 5}, {1, 2, 3}]
    assert set(K.facets) == {frozenset(f) for f in facets}
    faces = faces_by_dim(K)
    for p in range(-1, 4):
        expected = sorted(
            {c for f in facets for c in combinations(sorted(f), p + 1)}
        )
        assert faces.get(p, []) == expected
    two_faces = faces[2]
    assert two_faces == [(1, 2, 3), (1, 2, 5), (1, 4, 5), (3, 4, 5)]
    assert (2, 3, 4) not in two_faces
    assert (1, 2, 4) not in two_faces
    assert len(faces[1]) == 9
    assert 3 not in faces


def _expand(K):
    """Every subset of every facet, deduplicated and sorted per dimension."""
    out = {}
    for face in {c for f in K.facets for size in range(len(f) + 1) for c in combinations(sorted(f), size)}:
        out.setdefault(len(face) - 1, []).append(face)
    return {p: sorted(fs) for p, fs in out.items()}


def test_faces_by_dim_matches_enumerate():
    rng = random.Random(2718)
    complexes = [make_complex([]), make_complex([[]]), make_complex([[0, 3], [0, 1, 2]])]
    complexes += [random_complex(rng) for _ in range(300)]
    for K in complexes:
        table = faces_by_dim(K)
        assert table == _expand(K), K
    # the cap counts every face, the empty one included: the simplex on
    # four vertices has 16, one more vertex beside it makes 17
    simplex = make_complex([[1, 2, 3, 4]])
    assert sum(map(len, faces_by_dim(simplex, cap=16).values())) == 16
    with pytest.raises(SizeCapError, match="complex exceeds the 16 face cap"):
        faces_by_dim(make_complex([[1, 2, 3, 4], [5]]), cap=16)


def test_grow_faces_is_lexicographic():
    # both forms, against brute force over all subsets of the elements
    rng = random.Random(1414)
    for _ in range(200):
        n = rng.randint(0, 8)
        subsets = [c for size in range(n + 1) for c in combinations(range(n), size)]
        masks = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 6))] if n else []
        facets = [[k for k in range(n) if m >> k & 1] for m in masks]
        miss = [sum(1 << i for i, f in enumerate(facets) if k not in f) for k in range(n)]
        by_facets = grow_faces(range(n), facets=(1 << len(facets)) - 1, miss=miss)
        nonfaces = [[m for m in masks if m >> k & 1] for k in range(n)]
        by_nonfaces = grow_faces(range(n), nonfaces=nonfaces)
        want_facets = [c for c in subsets if any(set(c) <= set(f) for f in facets)]
        want_nonfaces = [c for c in subsets if not any(set(f) <= set(c) for f in facets)]
        for got, want in ((by_facets, want_facets), (by_nonfaces, want_nonfaces)):
            for p, fs in got.items():
                assert fs == sorted(fs), (masks, p)
            assert got == {p: sorted(c for c in want if len(c) == p + 1) for p in {len(c) - 1 for c in want}}
    # labels stand in for the positions, in the same order
    assert grow_faces([3, 5], facets=1, miss=[0, 0]) == {-1: [()], 0: [(3,), (5,)], 1: [(3, 5)]}
    assert grow_faces([3, 5], facets=0, miss=[0, 0]) == {}


def test_omega_complex_small_cases():
    K = omega_complex(3, 3)
    assert K == make_complex([[]])
    assert omega_complex(4, 1) == boundary_complex(4)
    K62 = omega_complex(6, 2)
    assert set(K62.facets) == {
        frozenset({1, 2, 3, 4, 5, 6}) - frozenset({i, i + 1}) for i in range(1, 6)
    }
    with pytest.raises(ValueError):
        omega_complex(2, 3)
    with pytest.raises(ValueError):
        omega_complex(3, 0)


def test_boundary_complex():
    assert boundary_complex(1) == make_complex([[]])
    assert set(boundary_complex(3).facets) == {
        frozenset({1, 2}),
        frozenset({1, 3}),
        frozenset({2, 3}),
    }
    with pytest.raises(ValueError):
        boundary_complex(0)


def test_is_cone():
    assert is_cone(make_complex([[1, 2], [1, 3]])) == 1
    assert is_cone(boundary_complex(3)) is None
    assert is_cone(make_complex([[]])) is None
    assert is_cone(make_complex([[1, 2, 3]])) == 1
    with pytest.raises(ValueError):
        is_cone(make_complex([]))


def test_cone_construction():
    K = cone(make_complex([[1], [2]]), 9)
    assert set(K.facets) == {frozenset({1, 9}), frozenset({2, 9})}
    assert is_cone(K) == 9
    assert cone(make_complex([]), 5).is_void
    assert cone(make_complex([[]]), 5) == make_complex([[5]])
    with pytest.raises(ValueError):
        cone(make_complex([[1, 2]]), 2)


def test_union_and_intersection():
    K1 = make_complex([[1, 2]])
    K2 = make_complex([[2, 3]])
    assert union(K1, K2) == make_complex([[1, 2], [2, 3]])
    assert intersection(K1, K2) == make_complex([[2]])
    assert intersection(make_complex([[1]]), make_complex([[2]])) == make_complex([[]])
    void = make_complex([])
    assert union(void, K1) == K1
    assert intersection(void, K1).is_void


@given(facet_families, facet_families)
@settings(max_examples=60)
def test_union_intersection_face_sets(f1, f2):
    K1, K2 = make_complex(f1), make_complex(f2)
    U, I = union(K1, K2), intersection(K1, K2)
    for p in range(-1, 8):
        s1 = set(faces_by_dim(K1).get(p, []))
        s2 = set(faces_by_dim(K2).get(p, []))
        assert set(faces_by_dim(U).get(p, [])) == s1 | s2
        assert set(faces_by_dim(I).get(p, [])) == s1 & s2


def test_facet_vertex_matching_frozen():
    assert facet_vertex_matching(make_complex([[1], [2]])) == [2, 1]
    # a cone never admits a matching: the apex lies in every facet
    assert facet_vertex_matching(make_complex([[1, 2], [2, 3]])) is None
    bd4 = boundary_complex(4)
    assert facet_vertex_matching(bd4) == [4, 3, 2, 1]
    assert facet_vertex_matching(make_complex([[1, 2], [1, 3]])) is None
    assert facet_vertex_matching(make_complex([[1, 2, 3]])) is None
    assert facet_vertex_matching(make_complex([[]])) is None


def test_facet_vertex_matching_property():
    rng = random.Random(7)
    found = 0
    for _ in range(300):
        K = random_complex(rng)
        got = facet_vertex_matching(K)
        if got is None:
            continue
        found += 1
        assert len(got) == len(K.facets)
        for i, v in enumerate(got):
            for j, F in enumerate(K.facets):
                assert (v in F) == (i != j)
    assert found >= 10

