from __future__ import annotations

import random
import sys
from itertools import combinations
from math import comb

import pytest

from conftest import RP2_TRIANGLES
from pathbetti import (
    BettiTable,
    MonomialIdeal,
    formula_betti_table,
    graded_betti_table,
    graph_from_edges,
    make_complex,
    multigraded_betti,
    path_ideal,
    reduced_homology_dims,
    standard_graph,
)
from pathbetti import betti
from reference import connected_components, induced_subgraph, multigraded_record, top_betti_product


def ex_graph():
    return graph_from_edges(4, [[1, 2], [1, 3], [1, 4], [3, 4]])


def test_betti_table_api():
    T = BettiTable.from_dict({(0, 0): 1, (1, 2): 3, (2, 3): 2, (3, 5): 0})
    assert T.as_dict() == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    assert T.max_i == 2 and T.max_j == 3
    empty = BettiTable.from_dict({})
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


def test_field_changes_the_table_of_rp2_complement(rp2_complement):
    tables = {p: graded_betti_table(rp2_complement, 2, p).as_dict() for p in (2, 3, 32003)}
    assert tables[3] == tables[32003]
    differ = {ij for ij in tables[2].keys() | tables[3].keys() if tables[2].get(ij) != tables[3].get(ij)}
    assert differ == {(9, 12), (10, 12)}
    assert tables[2][(9, 12)] == tables[2][(10, 12)] == 1


def test_vertex_side_routes_see_the_field(rp2_complement):
    # Δ_W at W = 1..12 is the triangulation itself, so by Hochster's formula
    # b_{i,W} = dim H~_{12-i-1} of RP^2
    edges = set(rp2_complement.edges)
    independent = [
        c for k in (3, 4) for c in combinations(range(1, 13), k) if edges.isdisjoint(combinations(c, 2))
    ]
    assert independent == sorted(RP2_TRIANGLES)
    K = make_complex(RP2_TRIANGLES)
    C = (1 << 12) - 1
    inside = [sum(1 << (v - 1) for v in e) for e in edges]
    rel = betti._relation(C, inside)
    cut = betti._collapse(*rel)
    for prime, want in ((2, {9: 1, 10: 1}), (3, {})):
        assert {12 - p - 1: d for p, d in reduced_homology_dims(K, prime).items()} == want
        assert betti._top_on("delta", *rel, prime) == want, prime
        assert betti._top_on("dual", *rel, prime) == want, prime
        # and on the collapsed relation
        assert betti._top_on("delta", *cut, prime) == want, prime
        assert betti._top_on("dual", *cut, prime) == want, prime


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


@pytest.fixture
def runs(monkeypatch):
    """The collapsed relations (w, gens) that _top_vector runs homology on, in order."""
    seen = []
    top_vector = betti._top_vector

    def counted(*args, **kwargs):
        seen.append(args[:2])
        return top_vector(*args, **kwargs)

    monkeypatch.setattr(betti, "_top_vector", counted)
    return seen


@pytest.mark.parametrize(
    "family, n, t, calls",
    [("star", 10, 2, 10), ("cycle", 12, 2, 9), ("line", 14, 3, 7), ("star", 6, 3, 5)],
)
def test_homology_runs_once_per_polymer_class(runs, family, n, t, calls):
    # the relation of a polymer keys its top vector before the collapse and
    # after it, so each distinct collapsed relation costs one homology run
    G = standard_graph(family, n)
    assert graded_betti_table(G, t).as_dict() == formula_betti_table(family, n, t).table.as_dict()
    assert len(runs) == len(set(runs)) == calls


def _spider(legs: list[int], first: int, order: list[int]) -> list[list[int]]:
    """Edges of a spider with the given leg lengths, its vertices relabelled
    first + order[k] for the k-th vertex (centre first, then leg by leg)."""
    edges, k = [], 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append([prev, k])
            prev, k = k, k + 1
    return [[first + order[u], first + order[v]] for u, v in edges]


def _table_product(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            out[(i + k, j + l)] = out.get((i + k, j + l), 0) + x * y
    return out


def test_iso_memo(runs):
    # the top-vector cache of graded_betti_table is keyed by relations on
    # positions, so a relabelled polymer collapses onto a relation met before
    ident = list(range(7))
    shuffled = [0, 5, 2, 6, 1, 4, 3]
    legs222 = _spider([2, 2, 2], 1, ident)
    single = graded_betti_table(graph_from_edges(7, legs222), 3).as_dict()
    assert len(runs) == len(set(runs)) == 5

    # two labellings of the (2,2,2) spider: no run beyond those of one copy
    runs.clear()
    twice = graph_from_edges(14, legs222 + _spider([2, 2, 2], 8, shuffled))
    assert graded_betti_table(twice, 3).as_dict() == _table_product(single, single)
    assert len(runs) == 5

    # spiders with legs (2,2,2) and (4,1,1): same order, size and degree
    # multiset (3,2,2,2,1,1,1), not isomorphic; they may share a collapsed
    # relation, and the product is right either way
    other = graded_betti_table(graph_from_edges(7, _spider([4, 1, 1], 1, ident)), 3).as_dict()
    both = graph_from_edges(14, legs222 + _spider([4, 1, 1], 8, shuffled))
    assert graded_betti_table(both, 3).as_dict() == _table_product(single, other)


def test_multi_cycle_polymer_is_cached(runs):
    # K_4 minus an edge has two independent cycles; a second copy whose
    # labels come in the same order has the same relation, so it runs no
    # homology of its own
    diamond = [[1, 2], [1, 3], [2, 3], [2, 4], [3, 4]]
    one = graded_betti_table(graph_from_edges(4, diamond), 2).as_dict()
    once = len(runs)
    runs.clear()
    two = graph_from_edges(8, diamond + [[u + 4, v + 4] for u, v in diamond])
    assert graded_betti_table(two, 2).as_dict() == _table_product(one, one)
    assert len(runs) == once


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


def _random_piece(rng: random.Random, labels: list[int], extra: float = 0.2) -> set[tuple[int, int]]:
    """Edges of a connected graph on labels: a random tree plus sparse extras."""
    order = labels[:]
    rng.shuffle(order)
    edges = {tuple(sorted((v, rng.choice(order[:k])))) for k, v in enumerate(order) if k}
    edges |= {pair for pair in combinations(labels, 2) if rng.random() < extra}
    return edges


def _differential_graphs(seed: int, count: int):
    """Seeded (kind, graph) pairs on at most 8 vertices, count of each kind."""
    rng = random.Random(seed)
    out = []
    for kind in ("connected", "disconnected", "isolated", "tree", "cyclic"):
        for _ in range(count):
            n = rng.randint(4, 8)
            labels = list(range(1, n + 1))
            rng.shuffle(labels)
            if kind == "disconnected":
                cut = rng.randint(2, n - 2)
                pieces = [labels[:cut], labels[cut:]]
            elif kind == "isolated":
                lone = rng.randint(1, 2)
                pieces = [[v] for v in labels[:lone]] + [labels[lone:]]
            else:
                pieces = [labels]
            edges = set()
            for piece in pieces:
                edges |= _random_piece(rng, sorted(piece), 0.0 if kind in ("tree", "cyclic") else 0.2)
            if kind == "cyclic":
                # one chord closes exactly one cycle
                edges.add(rng.choice(sorted(set(combinations(range(1, n + 1), 2)) - edges)))
            out.append((kind, graph_from_edges(n, [list(e) for e in edges])))
    return out


def test_factorized_walk_matches_direct_walk():
    # the recursion's table against the sum of the direct, unfactorized walk
    graphs = _differential_graphs(20261018, 6)
    orders = {kind: [] for kind, _ in graphs}
    for kind, G in graphs:
        orders[kind].append(sorted(len(c) for c in connected_components(G)))
    assert all(len(o) == 1 for o in orders["connected"])
    assert all(len(o) >= 2 and o[0] >= 2 for o in orders["disconnected"])
    assert all(o[0] == 1 for o in orders["isolated"])
    # a connected graph is a tree exactly when it has n - 1 edges
    for kind, G in graphs:
        if kind == "tree":
            assert len(connected_components(G)) == 1 and len(G.edges) == G.n - 1
        if kind == "cyclic":
            assert len(connected_components(G)) == 1 and len(G.edges) == G.n
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


def _gnp(rng: random.Random, n: int, p: float):
    return graph_from_edges(n, [list(e) for e in combinations(range(1, n + 1), 2) if rng.random() < p])


def _polymers(G, I):
    """The connected lcm-closed vertex sets of G: W, its generators' ideal."""
    for size in range(1, G.n + 1):
        for verts in combinations(G.vertices, size):
            W = frozenset(verts)
            inside = tuple(g for g in I.generators if g <= W)
            if not inside or frozenset().union(*inside) != W:
                continue
            sub = induced_subgraph(G, W)
            if len(connected_components(sub)) == 1:
                yield W, path_ideal(sub, I.t)


def test_top_vector_routes_agree():
    # per polymer: the strict Taylor complex, Hochster's Δ_W and its dual
    # K^W give one top vector, so do the three complexes of the collapsed
    # relation, and so does the route graded_betti_table picks
    rng = random.Random(90210)
    checked = {"taylor": 0, "delta": 0, "nonzero": 0, "collapsed": 0}
    for n in range(3, 9):
        for G in [_gnp(rng, n, p) for p in (0.2, 0.35, 0.5, 0.7) for _ in range(2)]:
            for t in (1, 2, 3):
                I = path_ideal(G, t)
                # Taylor complexes have at most 2^g faces for g generators
                if len(I.generators) > 10:
                    continue
                for W, J in _polymers(G, I):
                    route = "taylor" if len(J.generators) < len(W) - 1 else "delta"
                    checked[route] += 1
                    # vertex v is bit v - 1, a generator the mask of its support
                    C = sum(1 << (v - 1) for v in W)
                    inside = [sum(1 << (v - 1) for v in g) for g in J.generators]
                    w, gens = betti._relation(C, inside)
                    w_cut, cut = betti._collapse(w, gens)
                    assert w_cut <= w and len(cut) <= len(gens)
                    checked["collapsed"] += w_cut != w
                    # Taylor is K′ of the transposed relation
                    taylor = (len(gens), betti._transpose(w, gens))
                    taylor_cut = (len(cut), betti._transpose(w_cut, cut))
                    for prime in (2, 32003):
                        want = multigraded_betti(I, W, prime)
                        assert betti._top_on("dual", *taylor, prime) == want, (G, t, W, prime)
                        assert betti._top_on("delta", w, gens, prime) == want, (G, t, W, prime)
                        assert betti._top_on("dual", w, gens, prime) == want, (G, t, W, prime)
                        assert betti._top_on("dual", *taylor_cut, prime) == want, (G, t, W, prime)
                        assert betti._top_on("dual", w_cut, cut, prime) == want, (G, t, W, prime)
                        # a column that misses X makes the dual a full simplex; Δ's
                        # non-faces cannot say so, and _top_vector answers 0 first
                        if all(cut):
                            assert betti._top_on("delta", w_cut, cut, prime) == want, (G, t, W, prime)
                        else:
                            assert want == {} and len(cut) == 1, (G, t, W, prime)
                        assert betti._top_vector(w_cut, cut, prime) == want, (G, t, W, prime)
                    checked["nonzero"] += bool(want)
    assert min(checked.values()) >= 100, checked


def test_top_vectors_build_no_simplicial_complex(monkeypatch):
    # every route grows its complex on the polymer's masks: none goes through
    # the ideal's Taylor complex, make_complex or faces_by_dim
    from pathbetti import complexes, homology, ideals

    # after the collapse no polymer met in the suite keeps fewer generators
    # than vertices less one, so Taylor is reached on a relation with no
    # dominated row or column: vertex {i, j} of K_4's edges lies on
    # generators i and j
    pairs = list(combinations(range(4), 2))
    sperner = MonomialIdeal(3, tuple(frozenset(k + 1 for k, e in enumerate(pairs) if i in e) for i in range(4)))
    sperner_want = multigraded_betti(sperner, range(1, 7))

    def refuse(*args, **kwargs):
        raise AssertionError("a top vector went through a SimplicialComplex")

    for module, name in (
        (betti, "multigraded_betti"),
        (betti, "taylor_strict_sub"),
        (ideals, "taylor_strict_sub"),
        (ideals, "make_complex"),
        (complexes, "make_complex"),
        (complexes, "faces_by_dim"),
        (homology, "faces_by_dim"),
    ):
        monkeypatch.setattr(module, name, refuse)
    routes = []
    top_on = betti._top_on

    def recorded(route, w, gens, *args, **kwargs):
        routes.append((route, w, len(gens)))
        return top_on(route, w, gens, *args, **kwargs)

    monkeypatch.setattr(betti, "_top_on", recorded)
    for family, n, t, route in (("line", 14, 3, "delta"), ("cycle", 10, 9, "dual")):
        routes.clear()
        got = graded_betti_table(standard_graph(family, n), t).as_dict()
        assert got == formula_betti_table(family, n, t).table.as_dict(), (family, n, t)
        assert route in [r for r, _, _ in routes], (family, n, t, routes)
    routes.clear()
    inside = [sum(1 << (v - 1) for v in g) for g in sperner.generators]
    assert betti._top_vector(*betti._collapse(*betti._relation((1 << 6) - 1, inside))) == sperner_want
    # Taylor: K′ of the transposed relation, whose rows are the 4 generators
    assert routes == [("dual", 4, 6)]


def test_vertex_side_answers_past_taylor_cap():
    # each of these has a polymer whose strict Taylor complex is over the
    # face cap, while Δ_W or K^W is small
    for family, n, t in (("cycle", 17, 2), ("cycle", 18, 3), ("star", 7, 3), ("star", 10, 3)):
        got = graded_betti_table(standard_graph(family, n), t).as_dict()
        assert got == formula_betti_table(family, n, t).table.as_dict(), (family, n, t)
    # the edge ideal of K_n has a linear resolution, b_{i,i+1} = i C(n, i+1)
    for n in (7, 8, 9):
        K = graph_from_edges(n, [list(e) for e in combinations(range(1, n + 1), 2)])
        want = {(0, 0): 1, **{(i, i + 1): i * comb(n, i + 1) for i in range(1, n)}}
        assert graded_betti_table(K, 2).as_dict() == want, n


def test_recursion_depth_does_not_grow_with_input():
    # a perfect matching on 1,200 vertices makes 1,200 states, past the
    # default recursion limit
    n = 600
    assert sys.getrecursionlimit() < 2 * n
    G = graph_from_edges(2 * n, [[2 * k + 1, 2 * k + 2] for k in range(n)])
    assert graded_betti_table(G, 2).as_dict() == {(i, 2 * i): comb(n, i) for i in range(n + 1)}


def test_koszul_diagonal_for_t_equal_one():
    # t=1 on a graph with no edges: the ideal is the full set of
    # variables, whose resolution is the Koszul complex
    G = graph_from_edges(4, [])
    T = graded_betti_table(G, 1).as_dict()
    assert T == {(0, 0): 1, **{(i, i): comb(4, i) for i in range(1, 5)}}


def test_path_ideal_rejects_bad_t():
    with pytest.raises(ValueError):
        path_ideal(standard_graph("line", 3), 0)
