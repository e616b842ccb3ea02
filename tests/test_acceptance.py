"""Acceptance gate: one test per criterion, named criterion_1..criterion_8.

Each test asserts the mathematical claim and its wall-clock budget, then
prints a single PASS line (visible with pytest -s; pytest -v shows one
PASSED/FAILED row per criterion either way).
"""

from __future__ import annotations

import random
import time
from itertools import combinations

from conftest import composite_boundary_columns, random_acyclic, random_complex
from pathbetti import (
    graded_betti_table,
    graph_from_edges,
    line_multigraded_formula,
    make_complex,
    multigraded_betti,
    omega_complex,
    omega_homology_dims_formula,
    path_ideal,
    reduced_homology_dims,
    standard_graph,
    taylor_strict_sub,
)
from pathbetti.cli import main
from reference import (
    boundary_complex,
    cone,
    connected_components,
    facet_vertex_matching,
    induced_subgraph,
    intersection,
    is_cone,
    line_decomposition,
    reduced_euler_characteristic,
    top_betti_product,
    union,
)


def test_criterion_1_window_homology_formula():
    start = time.monotonic()
    checked = 0
    for t in range(1, 5):
        for n in range(t, 13):
            expected = omega_homology_dims_formula(n, t)
            for prime in (2, 32003):
                got = reduced_homology_dims(omega_complex(n, t), prime)
                assert got == expected, (n, t, prime, got, expected)
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30
    print(f"ACCEPTANCE 1: PASS ({checked} window-complex instances, {elapsed:.1f}s)")


def test_criterion_2_line_compare():
    start = time.monotonic()
    runs = 0
    for t in (2, 3, 4):
        for n in range(t, 10):
            assert main(["compare", "--line", str(n), "--t", str(t)]) == 0, (n, t)
            runs += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(f"ACCEPTANCE 2: PASS ({runs} line comparisons, {elapsed:.1f}s)")


def test_criterion_3_cycle_compare():
    start = time.monotonic()
    runs = 0
    for t in (2, 3):
        for n in range(3, 9):
            assert main(["compare", "--cycle", str(n), "--t", str(t)]) == 0, (n, t)
            runs += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(f"ACCEPTANCE 3: PASS ({runs} full-table cycle comparisons, {elapsed:.1f}s)")


def test_criterion_4_star_compare_and_linearity():
    start = time.monotonic()
    runs = 0
    for t, top in ((2, 6), (3, 5)):
        for n in range(2, top + 1):
            assert main(["compare", "--star", str(n), "--t", str(t)]) == 0, (n, t)
            oracle = graded_betti_table(standard_graph("star", n), t).as_dict()
            for (i, j), b in oracle.items():
                if i >= 1:
                    assert j == i + t - 1, (n, t, i, j)
                    assert b > 0
            runs += 1
    elapsed = time.monotonic() - start
    assert elapsed < 180
    print(f"ACCEPTANCE 4: PASS ({runs} star comparisons, all single-diagonal, {elapsed:.1f}s)")


def _expected_vec_from_formula(G, W, t):
    dec = line_decomposition(induced_subgraph(G, W))
    assert dec is not None, (G, W)
    out = {}
    for i in range(1, len(W) + 2):
        b = line_multigraded_formula(dec, t, i)
        if b:
            out[i] = b
    return out


def test_criterion_5_multigraded_zero_one_law():
    start = time.monotonic()
    checked = 0
    for t in (2, 3):
        for n in range(1, 9):
            G = standard_graph("line", n)
            I = path_ideal(G, t)
            for size in range(n + 1):
                for sub in combinations(G.vertices, size):
                    W = frozenset(sub)
                    vec = multigraded_betti(I, W)
                    assert all(v == 1 for v in vec.values()), (n, t, W, vec)
                    assert vec == _expected_vec_from_formula(G, W, t), (n, t, W)
                    checked += 1
    for n in range(3, 8):
        G = standard_graph("cycle", n)
        I = path_ideal(G, 2)
        for size in range(n):
            for sub in combinations(G.vertices, size):
                W = frozenset(sub)
                vec = multigraded_betti(I, W)
                assert all(v == 1 for v in vec.values()), (n, W, vec)
                assert vec == _expected_vec_from_formula(G, W, 2), (n, W)
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(f"ACCEPTANCE 5: PASS ({checked} multidegrees, all values 0 or 1, {elapsed:.1f}s)")


def _sample_graph(rng: random.Random):
    while True:
        kind = rng.choice(["line", "cycle", "star", "random"])
        if kind == "line":
            G = standard_graph("line", rng.randint(1, 9))
        elif kind == "cycle":
            G = standard_graph("cycle", rng.randint(3, 9))
        elif kind == "star":
            G = standard_graph("star", rng.randint(1, 6))
        else:
            n = rng.randint(3, 6)
            pairs = list(combinations(range(1, n + 1), 2))
            G = graph_from_edges(n, [p for p in pairs if rng.random() < 0.5])
        t = rng.choice([2, 3, 4])
        if len(path_ideal(G, t).generators) <= 13:
            return G, t


def test_criterion_6_restriction_and_product_sampling():
    start = time.monotonic()
    rng = random.Random(20260822)
    for _ in range(200):
        G, t = _sample_graph(rng)
        W = frozenset(v for v in G.vertices if rng.random() < 0.5)
        vec = multigraded_betti(path_ideal(G, t), W)
        sub = induced_subgraph(G, W)
        table = graded_betti_table(sub, t).as_dict()
        col = {i: b for (i, j), b in table.items() if j == len(W) and i >= 1}
        assert vec == col, (G, t, W)
        comps = connected_components(sub)
        vecs = [
            multigraded_betti(path_ideal(induced_subgraph(sub, C), t), C)
            for C in comps
        ]
        product = {i: b for i, b in top_betti_product(vecs).items() if i >= 1}
        assert vec == product, (G, t, W)
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(f"ACCEPTANCE 6: PASS (200 sampled multidegrees, {elapsed:.1f}s)")


def _is_star_graph(G) -> bool:
    if G.n < 2 or len(G.edges) != G.n - 1:
        return False
    degrees = sorted(len(v) for v in G.adjacency().values())
    return degrees[-1] == G.n - 1 and all(d == 1 for d in degrees[:-1])


def test_criterion_7_boundary_characterizes_stars():
    start = time.monotonic()
    per_size = {}
    for k in range(2, 6):
        pairs = list(combinations(range(1, k + 1), 2))
        count = 0
        for r in range(len(pairs) + 1):
            for chosen in combinations(pairs, r):
                G = graph_from_edges(k, [list(p) for p in chosen])
                if len(connected_components(G)) != 1:
                    continue
                count += 1
                I = path_ideal(G, 2)
                q = len(I.generators)
                assert q == len(G.edges)
                K = taylor_strict_sub(I, G.vertices)
                if q == 1:
                    expected = make_complex([[]])
                else:
                    expected = make_complex(combinations(range(q), q - 1))
                is_boundary = set(K.facets) == set(expected.facets)
                assert is_boundary == _is_star_graph(G), (k, G.edges)
        per_size[k] = count
    assert per_size == {2: 1, 3: 4, 4: 38, 5: 728}
    elapsed = time.monotonic() - start
    assert elapsed < 60
    total = sum(per_size.values())
    print(f"ACCEPTANCE 7: PASS ({total} connected graphs, boundary iff star, {elapsed:.1f}s)")


def test_criterion_8_homology_self_checks():
    start = time.monotonic()
    rng = random.Random(88)

    pool = [random_complex(rng) for _ in range(80)]
    pool += [boundary_complex(n) for n in range(2, 7)]
    pool += [omega_complex(n, t) for t in (1, 2, 3) for n in range(t, 8)]
    for K in pool:
        if K.is_void:
            continue
        for prime in (2, 32003):
            for p, col in composite_boundary_columns(K, prime):
                assert not col, (K, p, prime)
    for K in pool:
        prof = reduced_homology_dims(K)
        chi = sum(d if p % 2 == 0 else -d for p, d in prof.items())
        assert chi == reduced_euler_characteristic(K), K
        assert reduced_homology_dims(cone(K, 999)) == {}, K
        if not K.is_void and is_cone(K) is not None:
            assert prof == {}, K

    for _ in range(500):
        K1, K2 = random_acyclic(rng), random_acyclic(rng)
        du = reduced_homology_dims(union(K1, K2))
        di = reduced_homology_dims(intersection(K1, K2))
        assert du == {p + 1: d for p, d in di.items()}, (K1, K2)

    matched = 0
    matching_pool = [random_complex(rng, max_vertices=8, max_facets=7) for _ in range(600)]
    matching_pool += [boundary_complex(n) for n in range(2, 8)]
    matching_pool += [
        make_complex([[1, 2, 3], [4, 5]]),
        make_complex([[1], [2]]),
        make_complex([[1, 2], [3, 4]]),
        make_complex([[1, 2, 3, 4], [5, 6, 7]]),
        make_complex([[1, 2, 3], [4, 5, 6]]),
    ]
    for K in matching_pool:
        if K.is_void or len(K.facets) > 7 or len(K.vertices) > 8:
            continue
        if facet_vertex_matching(K) is None:
            continue
        matched += 1
        q = len(K.facets)
        assert reduced_homology_dims(K) == {q - 2: 1}, K
    assert matched >= 15

    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(
        "ACCEPTANCE 8: PASS (chain, Euler, cone, 500 acyclic unions, "
        f"{matched} matched complexes, {elapsed:.1f}s)"
    )
