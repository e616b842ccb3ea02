from __future__ import annotations

import random
import time
from itertools import combinations, permutations

import pytest

from pathbetti import Graph, enumerate_t_paths, graph_from_edges, graph_from_json, standard_graph
from pathbetti.graphs import MAX_VERTICES
from reference import connected_components, induced_subgraph, line_decomposition


def ex_graph() -> Graph:
    return graph_from_edges(4, [[1, 2], [1, 3], [1, 4], [3, 4]])


def random_graph(rng: random.Random, n: int) -> Graph:
    pairs = list(combinations(range(1, n + 1), 2))
    chosen = [p for p in pairs if rng.random() < 0.5]
    return graph_from_edges(n, chosen)


def test_standard_families():
    L4 = standard_graph("line", 4)
    assert L4.vertices == (1, 2, 3, 4)
    assert L4.edges == ((1, 2), (2, 3), (3, 4))
    C5 = standard_graph("cycle", 5)
    assert C5.edges == ((1, 2), (1, 5), (2, 3), (3, 4), (4, 5))
    S3 = standard_graph("star", 3)
    assert S3.vertices == (1, 2, 3, 4)
    assert S3.edges == ((1, 2), (1, 3), (1, 4))
    assert standard_graph("line", 1) == graph_from_edges(1, [])
    with pytest.raises(ValueError, match="cycle needs n >= 3"):
        standard_graph("cycle", 2)
    with pytest.raises(ValueError, match="unknown family"):
        standard_graph("tree", 3)
    with pytest.raises(ValueError):
        standard_graph("star", 0)
    assert standard_graph("line", MAX_VERTICES).n == MAX_VERTICES
    for kind in ("line", "cycle", "star"):
        with pytest.raises(ValueError, match=rf"n={MAX_VERTICES + 1} exceeds the limit of {MAX_VERTICES}"):
            standard_graph(kind, MAX_VERTICES + 1)


def test_graph_accessors():
    G = ex_graph()
    assert G.n == 4
    assert G.vertices == (1, 2, 3, 4)
    adj = G.adjacency()
    assert adj[1] == {2, 3, 4}
    assert adj[2] == {1}


def test_graph_from_edges_validation():
    with pytest.raises(ValueError, match=r"loop edge \(2,2\)"):
        graph_from_edges(3, [[2, 2]])
    with pytest.raises(ValueError, match=r"edge \(1,5\) has an endpoint outside 1..3"):
        graph_from_edges(3, [[1, 5]])
    with pytest.raises(ValueError, match="not a pair"):
        graph_from_edges(3, [[1, 2, 3]])
    with pytest.raises(ValueError):
        graph_from_edges(-1, [])
    # duplicate and reversed edges collapse
    G = graph_from_edges(3, [[2, 1], [1, 2], [2, 3]])
    assert G.edges == ((1, 2), (2, 3))


def test_graph_from_edges_bounds_vertex_count():
    assert graph_from_edges(MAX_VERTICES, []).n == MAX_VERTICES
    with pytest.raises(ValueError, match=rf"n={MAX_VERTICES + 1} exceeds the limit of {MAX_VERTICES}"):
        graph_from_edges(MAX_VERTICES + 1, [])
    # checked before the edge list is read
    with pytest.raises(ValueError, match="n=1000000000 exceeds"):
        graph_from_json({"n": 10**9, "edges": None})


def test_graph_from_json():
    G = graph_from_json({"n": 4, "edges": [[1, 2], [1, 3], [1, 4], [3, 4]]})
    assert G == ex_graph()
    with pytest.raises(ValueError, match="needs keys"):
        graph_from_json({"n": 3})
    with pytest.raises(ValueError, match="must be an integer"):
        graph_from_json({"n": "3", "edges": []})


def test_induced_subgraph_keeps_labels():
    G = ex_graph()
    H = induced_subgraph(G, {1, 3, 4})
    assert H.vertices == (1, 3, 4)
    assert H.edges == ((1, 3), (1, 4), (3, 4))
    assert induced_subgraph(G, set()).vertices == ()
    with pytest.raises(ValueError, match="not contained"):
        induced_subgraph(G, {1, 9})


def test_enumerate_t_paths_lines():
    for n in range(1, 9):
        L = standard_graph("line", n)
        for t in range(1, n + 3):
            got = enumerate_t_paths(L, t)
            assert len(got) == max(0, n - t + 1)
            assert got == sorted(got, key=sorted)
    L5 = standard_graph("line", 5)
    assert enumerate_t_paths(L5, 3) == [
        frozenset({1, 2, 3}),
        frozenset({2, 3, 4}),
        frozenset({3, 4, 5}),
    ]


def test_enumerate_t_paths_small_cases():
    G = ex_graph()
    assert enumerate_t_paths(G, 1) == [
        frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4})
    ]
    assert enumerate_t_paths(G, 3) == [
        frozenset({1, 2, 3}),
        frozenset({1, 2, 4}),
        frozenset({1, 3, 4}),
    ]
    assert enumerate_t_paths(G, 4) == [frozenset({1, 2, 3, 4})]
    assert enumerate_t_paths(G, 5) == []
    S3 = standard_graph("star", 3)
    assert enumerate_t_paths(S3, 3) == [
        frozenset({1, 2, 3}),
        frozenset({1, 2, 4}),
        frozenset({1, 3, 4}),
    ]
    with pytest.raises(ValueError):
        enumerate_t_paths(G, 0)


def test_paths_longer_than_the_graph_are_not_searched():
    # K_10 has 10! / 2 simple paths on 10 vertices, and none on 11
    K10 = graph_from_edges(10, list(combinations(range(1, 11), 2)))
    start = time.perf_counter()
    assert enumerate_t_paths(K10, 11) == []
    assert time.perf_counter() - start < 1.0


def test_two_paths_are_edges():
    rng = random.Random(23)
    for _ in range(30):
        G = random_graph(rng, rng.randint(1, 7))
        assert enumerate_t_paths(G, 2) == [frozenset(e) for e in sorted(G.edges)]


def _has_spanning_path(G: Graph, support: frozenset[int]) -> bool:
    adj = G.adjacency()
    return any(
        all(b in adj[a] for a, b in zip(order, order[1:]))
        for order in permutations(sorted(support))
    )


def test_path_supports_are_exactly_traversable_subsets():
    rng = random.Random(29)
    for _ in range(20):
        G = random_graph(rng, rng.randint(1, 6))
        for t in (2, 3, 4):
            got = set(enumerate_t_paths(G, t))
            expected = {
                frozenset(sub)
                for sub in combinations(G.vertices, t)
                if _has_spanning_path(G, frozenset(sub))
            }
            assert got == expected


def test_connected_components():
    G = graph_from_edges(6, [[1, 2], [4, 5]])
    assert connected_components(G) == [
        frozenset({1, 2}), frozenset({3}), frozenset({4, 5}), frozenset({6})
    ]
    assert connected_components(graph_from_edges(0, [])) == []
    assert connected_components(standard_graph("cycle", 4)) == [frozenset({1, 2, 3, 4})]


def _union_find_components(G: Graph) -> list[frozenset[int]]:
    parent = {v: v for v in G.vertices}

    def root(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in G.edges:
        parent[root(u)] = root(v)
    groups: dict[int, set[int]] = {}
    for v in G.vertices:
        groups.setdefault(root(v), set()).add(v)
    return sorted((frozenset(g) for g in groups.values()), key=min)


def test_components_within_is_components_of_induced_subgraph():
    rng = random.Random(11)
    for _ in range(60):
        G = random_graph(rng, rng.randint(0, 8))
        W = frozenset(v for v in G.vertices if rng.random() < 0.6)
        G_W = induced_subgraph(G, W)
        assert connected_components(G_W) == _union_find_components(G_W)


def test_line_decomposition_basics():
    assert line_decomposition(graph_from_edges(0, [])) == []
    assert line_decomposition(standard_graph("line", 6)) == [6]
    assert line_decomposition(graph_from_edges(5, [[1, 2], [4, 5]])) == [2, 2, 1]
    # a two-leaf star is itself a line
    assert line_decomposition(standard_graph("star", 2)) == [3]
    assert line_decomposition(standard_graph("cycle", 4)) is None
    assert line_decomposition(standard_graph("star", 3)) is None
    assert line_decomposition(ex_graph()) is None


def test_line_decomposition_on_line_subsets():
    # every induced subgraph of a line decomposes; orders are the runs of
    # consecutive labels, largest first
    rng = random.Random(31)
    for n in range(1, 9):
        L = standard_graph("line", n)
        for _ in range(40):
            W = {v for v in L.vertices if rng.random() < 0.5}
            got = line_decomposition(induced_subgraph(L, W))
            prev = None
            runs: list[int] = []
            for v in sorted(W):
                if prev is not None and v == prev + 1:
                    runs[-1] += 1
                else:
                    runs.append(1)
                prev = v
            assert got == sorted(runs, reverse=True)
