"""Reference routes the test suite compares the package against.

Nothing in the package or the CLI calls these.  Each is an independent
route to numbers the package finds another way: the direct walk over
every subset of the lcm support (multigraded_record), the product rule
over connected components (top_betti_product, connected_components,
induced_subgraph, line_decomposition), the reduced Euler characteristic,
and the complex algebra of acceptance criterion 8 (cones, unions,
intersections, simplex boundaries and facet-vertex matchings).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence

from pathbetti.betti import multigraded_betti
from pathbetti.complexes import DEFAULT_FACE_CAP, SimplicialComplex, faces_by_dim, make_complex
from pathbetti.graphs import Graph, _build
from pathbetti.homology import DEFAULT_PRIME
from pathbetti.ideals import MonomialIdeal, ideal_lcm


def induced_subgraph(G: Graph, W: Iterable[int]) -> Graph:
    """Subgraph on the vertex subset W, labels preserved."""
    ws = frozenset(W)
    if not ws <= frozenset(G.vertices):
        raise ValueError(f"subset {sorted(ws)} is not contained in the vertex set")
    return _build(ws, [(u, v) for u, v in G.edges if u in ws and v in ws])


def connected_components(G: Graph) -> list[frozenset[int]]:
    """Vertex sets of the components, ordered by smallest member."""
    adj = G.adjacency()
    left = set(G.vertices)
    comps: list[frozenset[int]] = []
    while left:
        v = left.pop()
        stack, comp = [v], [v]
        while stack:
            for nb in adj[stack.pop()]:
                if nb in left:
                    left.remove(nb)
                    comp.append(nb)
                    stack.append(nb)
        comps.append(frozenset(comp))
    return sorted(comps, key=min)


def line_decomposition(G: Graph) -> Optional[list[int]]:
    """Component orders, largest first, if every component is a path.

    A component on k vertices is a path exactly when it has k-1 edges and
    no vertex of degree above 2.  Returns None as soon as some component
    is not a path; the empty graph decomposes into the empty list.
    """
    adj = G.adjacency()
    orders = []
    for comp in connected_components(G):
        edge_count = sum(1 for u, v in G.edges if u in comp and v in comp)
        if edge_count != len(comp) - 1:
            return None
        if any(len(adj[v]) > 2 for v in comp):
            return None
        orders.append(len(comp))
    return sorted(orders, reverse=True)


def is_cone(K: SimplicialComplex) -> Optional[int]:
    """Smallest vertex lying in every facet, or None if there is none.

    The void complex is rejected: it has no facets to share an apex.
    """
    if K.is_void:
        raise ValueError("the void complex has no cone structure")
    common = set(K.facets[0])
    for f in K.facets[1:]:
        common &= f
        if not common:
            break
    return min(common) if common else None


def cone(K: SimplicialComplex, apex: int) -> SimplicialComplex:
    """Insert ``apex`` into every facet.  The apex must be a fresh label."""
    if apex in K.vertices:
        raise ValueError(f"apex {apex} is already a vertex")
    if K.is_void:
        return K
    return make_complex([f | {apex} for f in K.facets])


def union(K1: SimplicialComplex, K2: SimplicialComplex) -> SimplicialComplex:
    return make_complex(list(K1.facets) + list(K2.facets))


def intersection(K1: SimplicialComplex, K2: SimplicialComplex) -> SimplicialComplex:
    # faces common to both are exactly the faces of pairwise facet meets
    return make_complex([f & g for f in K1.facets for g in K2.facets])


def boundary_complex(n: int) -> SimplicialComplex:
    """Boundary of the full simplex on 1..n: all faces except the top one."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return make_complex([[]])
    return make_complex(combinations(range(1, n + 1), n - 1))


def facet_vertex_matching(K: SimplicialComplex) -> Optional[list[int]]:
    """Vertices v_1..v_q with v_i outside F_i and inside every other facet.

    Returns the matching in facet order, or None when no matching exists,
    when K has fewer than two facets, or when K is a cone.  The candidate
    sets for distinct facets are pairwise disjoint (membership in one
    forbids membership in the other), so greedy choice of the smallest
    candidate per facet is exhaustive.
    """
    if len(K.facets) < 2 or is_cone(K) is not None:
        return None
    verts = K.vertices
    chosen: list[int] = []
    for i, facet in enumerate(K.facets):
        cands = set(verts) - facet
        for j, other in enumerate(K.facets):
            if j != i:
                cands &= other
            if not cands:
                return None
        chosen.append(min(cands))
    return chosen


def reduced_euler_characteristic(K: SimplicialComplex, cap: int = DEFAULT_FACE_CAP) -> int:
    """Alternating face-count sum including the empty face; 0 for void."""
    total = 0
    for p, fl in faces_by_dim(K, cap=cap).items():
        total += len(fl) if p % 2 == 0 else -len(fl)
    return total


def multigraded_record(
    I: MonomialIdeal,
    p_field: int = DEFAULT_PRIME,
) -> dict[tuple[int, frozenset[int]], int]:
    """All nonzero (i, m) -> b_{i,m} over subsets of the lcm support."""
    support = sorted(ideal_lcm(I))
    out: dict[tuple[int, frozenset[int]], int] = {}
    for size in range(len(support) + 1):
        for sub in combinations(support, size):
            w = frozenset(sub)
            for i, b in multigraded_betti(I, w, p_field).items():
                out[(i, w)] = b
    return out


def top_betti_product(vectors: Sequence[Mapping[int, int]]) -> dict[int, int]:
    """Convolution of top-grade Betti vectors (one per component ideal).

    The empty product is the unit {0: 1}; any zero vector annihilates the
    result, matching a component whose top multidegree is not lcm-closed.
    """
    acc: dict[int, int] = {0: 1}
    for vec in vectors:
        nxt: dict[int, int] = {}
        for a, va in acc.items():
            for b, vb in vec.items():
                nxt[a + b] = nxt.get(a + b, 0) + va * vb
        acc = nxt
    return acc
