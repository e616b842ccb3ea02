from __future__ import annotations

import random
from itertools import combinations

import pytest

from pathbetti import (
    MonomialIdeal,
    graph_from_edges,
    ideal_lcm,
    is_lcm_closed,
    make_complex,
    path_ideal,
    standard_graph,
    taylor_strict_sub,
)
from reference import induced_subgraph


def ex_graph():
    return graph_from_edges(4, [[1, 2], [1, 3], [1, 4], [3, 4]])


def test_monomial_ideal_validation():
    MonomialIdeal(2, (frozenset({1, 2}), frozenset({2, 3})))
    with pytest.raises(ValueError, match="duplicate"):
        MonomialIdeal(2, (frozenset({1, 2}), frozenset({1, 2})))
    with pytest.raises(ValueError, match="degree"):
        MonomialIdeal(2, (frozenset({1, 2, 3}),))


def test_path_ideal_generators():
    I = path_ideal(standard_graph("line", 5), 3)
    assert I.t == 3
    assert I.generators == (
        frozenset({1, 2, 3}),
        frozenset({2, 3, 4}),
        frozenset({3, 4, 5}),
    )
    Z = path_ideal(standard_graph("line", 2), 4)
    assert Z.generators == ()
    assert ideal_lcm(Z) == frozenset()


def test_ideal_lcm():
    I = path_ideal(ex_graph(), 3)
    assert ideal_lcm(I) == frozenset({1, 2, 3, 4})
    J = path_ideal(standard_graph("line", 6), 2)
    assert ideal_lcm(J) == frozenset(range(1, 7))


def test_is_lcm_closed():
    I = path_ideal(standard_graph("line", 4), 2)
    assert is_lcm_closed(I, set())
    assert is_lcm_closed(I, {1, 2})
    assert is_lcm_closed(I, {1, 2, 3})
    assert not is_lcm_closed(I, {1})
    assert not is_lcm_closed(I, {1, 3})
    assert not is_lcm_closed(I, {2, 4})
    assert is_lcm_closed(I, {1, 2, 3, 4})


def test_taylor_degenerate_cases():
    I = path_ideal(standard_graph("line", 3), 2)
    assert taylor_strict_sub(I, set()).is_void
    # a multidegree containing no generator leaves only the empty face
    assert taylor_strict_sub(I, {1}) == make_complex([[]])
    with pytest.raises(ValueError, match="does not divide"):
        taylor_strict_sub(I, {9})
    Z = path_ideal(standard_graph("line", 1), 2)
    assert taylor_strict_sub(Z, set()).is_void


def test_taylor_frozen_small():
    # L_3, t=2: generators x1x2, x2x3; at full support each generator
    # misses one vertex, so the complex is two isolated points
    I = path_ideal(standard_graph("line", 3), 2)
    K = taylor_strict_sub(I, {1, 2, 3})
    assert set(K.facets) == {frozenset({0}), frozenset({1})}
    # at m = {1,2} only the first generator divides
    assert taylor_strict_sub(I, {1, 2}).facets == (frozenset(),)


def test_taylor_frozen_square_graph():
    # every pair of generators already covers the support, so the complex
    # is three isolated points
    I = path_ideal(ex_graph(), 3)
    K = taylor_strict_sub(I, {1, 2, 3, 4})
    assert set(K.facets) == {frozenset({0}), frozenset({1}), frozenset({2})}


def test_taylor_face_characterization_exhaustive():
    # tau is a face iff lcm(tau) is a proper subset of m, checked over
    # every subset of the inside generators
    cases = [
        (path_ideal(standard_graph("line", 6), 2), frozenset(range(1, 7))),
        (path_ideal(standard_graph("line", 6), 2), frozenset({1, 2, 3, 4})),
        (path_ideal(standard_graph("line", 7), 3), frozenset(range(1, 8))),
        (path_ideal(standard_graph("cycle", 6), 2), frozenset(range(1, 7))),
        (path_ideal(standard_graph("cycle", 7), 3), frozenset(range(1, 8))),
        (path_ideal(standard_graph("star", 4), 2), frozenset(range(1, 6))),
        (path_ideal(standard_graph("star", 4), 3), frozenset(range(1, 6))),
        (path_ideal(ex_graph(), 2), frozenset({1, 2, 3, 4})),
        (path_ideal(ex_graph(), 3), frozenset({1, 3, 4})),
    ]
    for I, m in cases:
        K = taylor_strict_sub(I, m)
        inside = [idx for idx, g in enumerate(I.generators) if g <= m]
        assert len(inside) <= 12
        faces = {
            frozenset(sub)
            for f in K.facets
            for r in range(len(f) + 1)
            for sub in combinations(sorted(f), r)
        }
        if K.is_void:
            faces = set()
        for r in range(len(inside) + 1):
            for sub in combinations(inside, r):
                lcm = frozenset().union(*(I.generators[i] for i in sub)) if sub else frozenset()
                assert (frozenset(sub) in faces) == (lcm < m)


def test_isolated_vertex_gives_full_simplex():
    # vertex 4 of m lies in no generator inside m, so every inside
    # generator avoids it and the complex is the full simplex on them
    H = graph_from_edges(5, [[1, 2], [2, 3], [4, 5]])
    J = path_ideal(H, 2)
    m = frozenset({1, 2, 3, 4})
    inside = [idx for idx, g in enumerate(J.generators) if g <= m]
    assert inside == [0, 1]
    K = taylor_strict_sub(J, m)
    assert K.facets == (frozenset(inside),)


def _expected_line_facets(n: int, t: int):
    # closed form for the full-support strict Taylor complex of a line:
    # drop the first generator, drop the last, and for n >= 2t+1 drop each
    # window of t consecutive generators starting at positions 2..n-2t+1
    # (1-based), everything written in 0-based generator indices
    q = n - t + 1
    allg = frozenset(range(q))
    cands = [allg - {0}, allg - {q - 1}]
    if n >= 2 * t + 1:
        for i in range(2, n - 2 * t + 2):
            cands.append(allg - frozenset(range(i - 1, i + t - 1)))
    return set(make_complex(cands).facets)


@pytest.mark.parametrize("t", [2, 3, 4])
def test_line_full_support_facet_structure(t):
    for n in range(t, 13):
        I = path_ideal(standard_graph("line", n), t)
        K = taylor_strict_sub(I, frozenset(range(1, n + 1)))
        assert set(K.facets) == _expected_line_facets(n, t)


def test_line_facets_hand_case():
    I = path_ideal(standard_graph("line", 5), 2)
    K = taylor_strict_sub(I, frozenset({1, 2, 3, 4, 5}))
    assert set(K.facets) == {
        frozenset({1, 2, 3}),
        frozenset({0, 3}),
        frozenset({0, 1, 2}),
    }


def test_path_ideal_respects_induced_subgraph():
    # generators inside a vertex subset are exactly the generators of the
    # induced subgraph's ideal
    rng = random.Random(37)
    G = standard_graph("cycle", 7)
    for t in (2, 3):
        I = path_ideal(G, t)
        for _ in range(25):
            W = {v for v in G.vertices if rng.random() < 0.6}
            J = path_ideal(induced_subgraph(G, W), t)
            assert set(J.generators) == {g for g in I.generators if g <= W}
