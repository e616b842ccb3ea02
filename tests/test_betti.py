from __future__ import annotations

import random
from itertools import combinations

import pytest

from pathbetti import (
    BettiTable,
    IsoMemo,
    connected_components,
    graded_betti_table,
    graph_from_edges,
    induced_subgraph,
    multigraded_betti,
    multigraded_record,
    path_ideal,
    standard_graph,
    top_betti_product,
)


def ex_graph():
    return graph_from_edges(4, [[1, 2], [1, 3], [1, 4], [3, 4]])


def test_betti_table_api():
    T = BettiTable.from_dict(4, {(0, 0): 1, (1, 2): 3, (2, 3): 2, (3, 5): 0})
    assert T.as_dict() == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    assert T.max_i == 2 and T.max_j == 3
    empty = BettiTable.from_dict(0, {})
    assert empty.as_dict() == {}


def test_multigraded_off_lattice_is_zero():
    I = path_ideal(standard_graph("line", 4), 2)
    assert multigraded_betti(I, {1}) == {}
    assert multigraded_betti(I, {1, 3}) == {}
    assert multigraded_betti(I, {2, 4}) == {}


def test_multigraded_frozen_lines():
    I = path_ideal(standard_graph("line", 4), 2)
    assert multigraded_betti(I, set()) == {}
    assert multigraded_betti(I, {1, 2}) == {1: 1}
    assert multigraded_betti(I, {1, 2, 3}) == {2: 1}
    # a run of 4 is neither 0 nor 2 mod 3, so the top degree vanishes
    assert multigraded_betti(I, {1, 2, 3, 4}) == {}
    I5 = path_ideal(standard_graph("line", 5), 2)
    assert multigraded_betti(I5, {1, 2, 4, 5}) == {2: 1}
    assert multigraded_betti(I5, {1, 2, 3, 4, 5}) == {3: 1}


def test_multigraded_frozen_square_graph():
    I = path_ideal(ex_graph(), 3)
    assert multigraded_betti(I, {1, 2, 3}) == {1: 1}
    assert multigraded_betti(I, {1, 2, 3, 4}) == {2: 2}


def test_graded_tables_frozen():
    T = graded_betti_table(standard_graph("line", 4), 2)
    assert T.as_dict() == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    T5 = graded_betti_table(standard_graph("line", 5), 2)
    assert T5.as_dict() == {(0, 0): 1, (1, 2): 4, (2, 3): 3, (2, 4): 1, (3, 5): 1}
    Tsq = graded_betti_table(ex_graph(), 3)
    assert Tsq.as_dict() == {(0, 0): 1, (1, 3): 3, (2, 4): 2}
    Tc = graded_betti_table(standard_graph("cycle", 5), 2)
    assert Tc.as_dict() == {(0, 0): 1, (1, 2): 5, (2, 3): 5, (3, 5): 1}
    Ts = graded_betti_table(standard_graph("star", 3), 2)
    assert Ts.as_dict() == {(0, 0): 1, (1, 2): 3, (2, 3): 3, (3, 4): 1}


def test_zero_ideal_table():
    T = graded_betti_table(standard_graph("line", 2), 3)
    assert T.as_dict() == {(0, 0): 1}


def test_first_column_counts_generators():
    for kind, sizes, ts in (
        ("line", range(1, 8), (2, 3, 4)),
        ("cycle", range(3, 8), (2, 3)),
        ("star", range(1, 5), (2, 3)),
    ):
        for n in sizes:
            for t in ts:
                G = standard_graph(kind, n)
                I = path_ideal(G, t)
                T = graded_betti_table(G, t).as_dict()
                got = sum(b for (i, j), b in T.items() if i == 1)
                assert got == len(I.generators)
                if I.generators:
                    assert T.get((1, t)) == len(I.generators)


def test_prime_independence():
    for G, t in (
        (standard_graph("line", 6), 2),
        (standard_graph("cycle", 5), 2),
        (standard_graph("star", 3), 3),
        (ex_graph(), 2),
        (ex_graph(), 3),
    ):
        assert (
            graded_betti_table(G, t, p_field=2).as_dict()
            == graded_betti_table(G, t, p_field=32003).as_dict()
        )


def test_restriction_to_induced_subgraph():
    # the multigraded number at W only sees the induced subgraph on W
    rng = random.Random(41)
    for _ in range(30):
        G = standard_graph("cycle", 7) if rng.random() < 0.5 else ex_graph()
        t = rng.choice([2, 3])
        W = frozenset(v for v in G.vertices if rng.random() < 0.6)
        I = path_ideal(G, t)
        J = path_ideal(induced_subgraph(G, W), t)
        assert multigraded_betti(I, W) == multigraded_betti(J, W)


def test_multigraded_record_matches_pointwise():
    I = path_ideal(standard_graph("line", 5), 2)
    rec = multigraded_record(I)
    for size in range(6):
        for sub in combinations(range(1, 6), size):
            w = frozenset(sub)
            vec = multigraded_betti(I, w)
            for i, b in vec.items():
                assert rec[(i, w)] == b
    assert all(b for b in rec.values())
    assert rec[(1, frozenset({1, 2}))] == 1


def test_graded_is_sum_of_multigraded():
    for G, t in ((standard_graph("line", 6), 2), (standard_graph("cycle", 6), 2), (ex_graph(), 3)):
        I = path_ideal(G, t)
        rec = multigraded_record(I)
        acc: dict[tuple[int, int], int] = {(0, 0): 1}
        for (i, w), b in rec.items():
            key = (i, len(w))
            acc[key] = acc.get(key, 0) + b
        assert acc == graded_betti_table(G, t).as_dict()


def test_top_betti_product():
    assert top_betti_product([]) == {0: 1}
    assert top_betti_product([{1: 2}]) == {1: 2}
    assert top_betti_product([{1: 2}, {2: 3}]) == {3: 6}
    assert top_betti_product([{1: 1, 2: 1}, {1: 1}]) == {2: 1, 3: 1}
    assert top_betti_product([{1: 2}, {}]) == {}


def _full_support_vecs(G, t, parts):
    I = path_ideal(G, t)
    full = frozenset(G.vertices)
    vecs = [
        multigraded_betti(path_ideal(induced_subgraph(G, P), t), P) for P in parts
    ]
    return multigraded_betti(I, full), top_betti_product(vecs)


def test_product_rule_for_disjoint_union():
    # Betti vector at full support of a disjoint union is the convolution
    # of the components' vectors
    got, expected = _full_support_vecs(
        graph_from_edges(5, [[1, 2], [2, 3], [4, 5]]),
        2,
        [frozenset({1, 2, 3}), frozenset({4, 5})],
    )
    assert got == expected == {3: 1}
    # one vanishing factor annihilates the product
    got, expected = _full_support_vecs(
        graph_from_edges(7, [[1, 2], [2, 3], [4, 5], [5, 6], [6, 7]]),
        2,
        [frozenset({1, 2, 3}), frozenset({4, 5, 6, 7})],
    )
    assert got == expected == {}


def test_iso_memo():
    memo = IsoMemo()
    L = standard_graph("line", 5)
    A = induced_subgraph(L, {1, 2, 3})
    B = induced_subgraph(L, {3, 4, 5})
    assert memo.lookup(A) is None
    memo.store(A, {2: 1})
    assert memo.lookup(B) == {2: 1}
    assert memo.hits == 1
    # same invariants, different graph: a path and a triangle differ
    assert memo.lookup(standard_graph("star", 3)) is None
    tri = standard_graph("cycle", 3)
    path3 = induced_subgraph(L, {2, 3, 4})
    memo.store(tri, {9: 9})
    assert memo.lookup(path3) == {2: 1}
    # spiders with legs (2,2,2) and (4,1,1): same order, size and degree
    # multiset (3,2,2,2,1,1,1), not isomorphic
    legs222 = graph_from_edges(7, [[1, 2], [2, 3], [1, 4], [4, 5], [1, 6], [6, 7]])
    legs411 = graph_from_edges(7, [[1, 2], [2, 3], [3, 4], [4, 5], [1, 6], [1, 7]])
    memo.store(legs222, {4: 1})
    assert memo.lookup(legs411) is None
    assert memo.hits == 2


def test_memo_table_agrees():
    for G, t in (
        (standard_graph("line", 7), 2),
        (standard_graph("cycle", 6), 2),
        (standard_graph("star", 4), 2),
        (ex_graph(), 3),
    ):
        plain = graded_betti_table(G, t, use_memo=False).as_dict()
        memoized = graded_betti_table(G, t, use_memo=True).as_dict()
        assert plain == memoized


def _random_piece(rng: random.Random, labels: list[int]) -> set[tuple[int, int]]:
    """Edges of a connected graph on labels: a random tree plus sparse extras."""
    order = labels[:]
    rng.shuffle(order)
    edges = {tuple(sorted((v, rng.choice(order[:k])))) for k, v in enumerate(order) if k}
    edges |= {pair for pair in combinations(labels, 2) if rng.random() < 0.2}
    return edges


def _differential_graphs(seed: int, count: int):
    """Seeded (kind, graph) pairs on at most 8 vertices, count of each kind."""
    rng = random.Random(seed)
    out = []
    for kind in ("connected", "disconnected", "isolated"):
        for _ in range(count):
            n = rng.randint(4, 8)
            labels = list(range(1, n + 1))
            rng.shuffle(labels)
            if kind == "connected":
                pieces = [labels]
            elif kind == "disconnected":
                cut = rng.randint(2, n - 2)
                pieces = [labels[:cut], labels[cut:]]
            else:
                lone = rng.randint(1, 2)
                pieces = [[v] for v in labels[:lone]] + [labels[lone:]]
            edges = set()
            for piece in pieces:
                edges |= _random_piece(rng, sorted(piece))
            out.append((kind, graph_from_edges(n, [list(e) for e in edges])))
    return out


def test_factorized_walk_matches_direct_walk():
    # the factorized table against the sum of the direct, unfactorized walk
    graphs = _differential_graphs(20261018, 6)
    orders = {kind: [] for kind, _ in graphs}
    for kind, G in graphs:
        orders[kind].append(sorted(len(c) for c in connected_components(G)))
    assert all(len(o) == 1 for o in orders["connected"])
    assert all(len(o) >= 2 and o[0] >= 2 for o in orders["disconnected"])
    assert all(o[0] == 1 for o in orders["isolated"])
    checked = {kind: 0 for kind in orders}
    for kind, G in graphs:
        for t in (1, 2, 3):
            I = path_ideal(G, t)
            # the direct walk's complexes have at most 2^g faces for g
            # generators; g <= 12 keeps every one far under the face cap
            if len(I.generators) > 12:
                continue
            checked[kind] += 1
            for prime in (2, 32003):
                want: dict[tuple[int, int], int] = {(0, 0): 1}
                for (i, w), b in multigraded_record(I, prime).items():
                    want[(i, len(w))] = want.get((i, len(w)), 0) + b
                for memo in (False, True):
                    got = graded_betti_table(G, t, p_field=prime, use_memo=memo).as_dict()
                    assert got == want, (kind, G, t, prime, memo)
    assert min(checked.values()) >= 12, checked


def test_koszul_diagonal_for_t_equal_one():
    # t=1 on a graph with no edges: the ideal is the full set of
    # variables, whose resolution is the Koszul complex
    from math import comb

    G = graph_from_edges(4, [])
    T = graded_betti_table(G, 1).as_dict()
    assert T == {(0, 0): 1, **{(i, i): comb(4, i) for i in range(1, 5)}}


def test_path_ideal_rejects_bad_t():
    with pytest.raises(ValueError):
        path_ideal(standard_graph("line", 3), 0)
