"""Finite simple graphs over integer vertex labels.

Standard families use vertices 1..n (the star S_n has n+1 vertices with
center 1); induced subgraphs keep their original labels, so a Graph is a
graph on an arbitrary finite label set.  All enumeration orders are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

_FAMILIES = ("line", "cycle", "star")

# Largest vertex count accepted from an explicit edge list, and largest N
# of a named family, checked before anything is built: the oracle loops
# over every component, isolated vertices included, so n bounds its work
# even for an empty edge list.
MAX_VERTICES = 1 << 12


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: sorted vertex tuple, sorted edge tuple."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges)})"


def _build(vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> Graph:
    vs = tuple(sorted(set(vertices)))
    es = {(min(u, v), max(u, v)) for u, v in edges}
    return Graph(vertices=vs, edges=tuple(sorted(es)))


def standard_graph(kind: str, size_param: int) -> Graph:
    """Named family constructor: line L_n, cycle C_n, or star S_n.

    L_n is the path on vertices 1..n, C_n the cycle on 1..n (n >= 3), and
    S_n the star with center 1 and leaves 2..n+1.  A size_param above
    MAX_VERTICES is rejected before anything is built.
    """
    if kind not in _FAMILIES:
        raise ValueError(f"unknown family {kind!r}, expected one of {_FAMILIES}")
    n = size_param
    if n > MAX_VERTICES:
        raise ValueError(f"{kind} size n={n} exceeds the limit of {MAX_VERTICES}")
    if kind == "line":
        if n < 1:
            raise ValueError("line needs n >= 1")
        return _build(range(1, n + 1), [(i, i + 1) for i in range(1, n)])
    if kind == "cycle":
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        edges = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
        return _build(range(1, n + 1), edges)
    if n < 1:
        raise ValueError("star needs n >= 1")
    return _build(range(1, n + 2), [(1, k) for k in range(2, n + 2)])


def graph_from_edges(n: int, edge_list: Sequence[Sequence[int]]) -> Graph:
    """Graph on vertices 1..n from an explicit edge list.

    Entries other than integer pairs, loops and endpoints outside 1..n are
    rejected with the offending entry named, and so is n above MAX_VERTICES.
    Duplicate edges and either endpoint order are accepted.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count n={n} exceeds the limit of {MAX_VERTICES}")
    if not isinstance(edge_list, (list, tuple)):
        raise ValueError(f"edge list must be a list, got {edge_list!r}")
    edges = []
    for pair in edge_list:
        ok = isinstance(pair, (list, tuple)) and len(pair) == 2
        if not (ok and all(isinstance(v, int) and not isinstance(v, bool) for v in pair)):
            raise ValueError(f"edge {pair!r} is not a pair of integers")
        u, v = pair
        if u == v:
            raise ValueError(f"loop edge ({u},{v}) is not allowed")
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u},{v}) has an endpoint outside 1..{n}")
        edges.append((u, v))
    return _build(range(1, n + 1), edges)


def graph_from_json(data: Mapping) -> Graph:
    """Ingest the {"n": int, "edges": [[u,v], ...]} wire format (1-based)."""
    if not isinstance(data, Mapping):
        raise ValueError(f"graph JSON must be an object, got {data!r}")
    if "n" not in data or "edges" not in data:
        raise ValueError('graph JSON needs keys "n" and "edges"')
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError('"n" must be an integer')
    return graph_from_edges(n, data["edges"])


def induced_subgraph(G: Graph, W: Iterable[int]) -> Graph:
    """Subgraph on the vertex subset W, labels preserved."""
    ws = frozenset(W)
    if not ws <= G.vertex_set:
        raise ValueError(f"subset {sorted(ws)} is not contained in the vertex set")
    return _build(ws, [(u, v) for u, v in G.edges if u in ws and v in ws])


def enumerate_t_paths(G: Graph, t: int) -> list[frozenset[int]]:
    """Distinct vertex supports of simple paths on t vertices, sorted.

    t = 1 gives all singletons and t = 2 the edge set.  A support appears
    once no matter how many paths trace it.
    """
    if t < 1:
        raise ValueError("need t >= 1")
    if t == 1:
        return [frozenset({v}) for v in G.vertices]
    adj = G.adjacency()
    supports: set[frozenset[int]] = set()
    for start in G.vertices:
        # depth-first on a stack of neighbour iterators, one per vertex of
        # the path so far, so t never bounds the call depth
        path, on_path, stack = [start], {start}, [iter(adj[start])]
        while stack:
            for nb in stack[-1]:
                if nb not in on_path:
                    on_path.add(nb)
                    if len(on_path) < t:
                        path.append(nb)
                        stack.append(iter(adj[nb]))
                        break
                    supports.add(frozenset(on_path))
                    on_path.remove(nb)
            else:
                stack.pop()
                on_path.remove(path.pop())
    return sorted(supports, key=sorted)


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


def canonical_form(G: Graph) -> tuple:
    """Exact isomorphism certificate: equal for two graphs iff they are isomorphic.

    The form is (n, edges): the lexicographically smallest sorted edge list
    among the relabellings onto 0..n-1 at the leaves of a search.  A node
    refines its colouring until it is equitable, then individualises a
    vertex of the first non-singleton cell.  Colours are renumbered by
    sorted signature, so the search tree does not depend on the labels,
    and every leaf is a relabelling of G.  Twins (N(u)-{v} == N(v)-{u},
    an equivalence relation) are swapped by an automorphism that fixes
    the colouring, so a cell branches on one vertex per twin class, and a
    cell that is one twin class splits into singletons without branching;
    stars and complete (bipartite) pieces stay linear.  A twin-free graph
    visits at least one leaf per automorphism (1,152 for the 4x4 rook's
    graph), which suits the small components of G_W, not large symmetric
    graphs.
    """
    index = {v: k for k, v in enumerate(G.vertices)}
    edges = [(index[u], index[v]) for u, v in G.edges]
    nbrs: list[set[int]] = [set() for _ in G.vertices]
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    best: Optional[tuple[tuple[int, int], ...]] = None

    def search(colour: list) -> None:
        nonlocal best
        colour = _refine(nbrs, colour)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colour):
            cells.setdefault(c, []).append(v)
        target = min((c for c, cell in cells.items() if len(cell) > 1), default=None)
        if target is None:
            cert = tuple(sorted((min(colour[a], colour[b]), max(colour[a], colour[b])) for a, b in edges))
            if best is None or cert < best:
                best = cert
            return
        reps: list[int] = []
        for v in cells[target]:
            if not any(nbrs[v] - {r} == nbrs[r] - {v} for r in reps):
                reps.append(v)
        if len(reps) == 1:
            order = {v: k for k, v in enumerate(cells[target])}
            search([(c, order.get(v, 0)) for v, c in enumerate(colour)])
            return
        for r in reps:
            search([(c, v != r) for v, c in enumerate(colour)])

    search([0] * G.n)
    return (G.n, best)


def _refine(nbrs: Sequence[set[int]], colour: list) -> list[int]:
    """Coarsest equitable refinement of colour, renumbered 0.. by signature.

    A vertex's signature is its colour and the sorted colours of its
    neighbours; ranks of sorted signatures keep the order of the old
    colours, so the result depends on the colouring, never on labels.
    """
    classes = len(set(colour))
    while True:
        sigs = [(c, tuple(sorted(map(colour.__getitem__, nb)))) for c, nb in zip(colour, nbrs)]
        rank = {s: k for k, s in enumerate(sorted(set(sigs)))}
        if len(rank) in (classes, len(nbrs)):
            return [rank[s] for s in sigs]
        classes = len(rank)
        colour = [rank[s] for s in sigs]


def has_isolated_vertex(G: Graph) -> bool:
    adj = G.adjacency()
    return any(not nbs for nbs in adj.values())


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
