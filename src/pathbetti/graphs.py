"""Finite simple graphs over integer vertex labels.

Standard families and edge lists use vertices 1..n (the star S_n has n+1
vertices with center 1); a Graph itself may carry any finite set of
integer labels.  All enumeration orders are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .complexes import WORK_BUDGET, SizeCapError

_FAMILIES = ("line", "cycle", "star")

# Largest vertex count accepted from an explicit edge list, and largest N
# of a named family, checked before anything is built: the per-vertex bit
# tables of graded_betti_table and the start loop of enumerate_t_paths
# both scale with n, so n bounds their work even for an empty edge list.
MAX_VERTICES = 1 << 12


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: sorted vertex tuple, sorted edge tuple."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return len(self.vertices)

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
            raise ValueError(f"line needs n >= 1, got n={n}")
        return _build(range(1, n + 1), [(i, i + 1) for i in range(1, n)])
    if kind == "cycle":
        if n < 3:
            raise ValueError(f"cycle needs n >= 3, got n={n}")
        edges = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
        return _build(range(1, n + 1), edges)
    if n < 1:
        raise ValueError(f"star needs n >= 1, got n={n}")
    return _build(range(1, n + 2), [(1, k) for k in range(2, n + 2)])


def graph_from_edges(n: int, edge_list: Sequence[Sequence[int]]) -> Graph:
    """Graph on vertices 1..n from an explicit edge list.

    Entries other than integer pairs, loops and endpoints outside 1..n are
    rejected with the offending entry named, and so is n above MAX_VERTICES.
    Duplicate edges and either endpoint order are accepted.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got n={n}")
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
        raise ValueError(f'"n" must be an integer, got {n!r}')
    return graph_from_edges(n, data["edges"])


def enumerate_t_paths(G: Graph, t: int) -> list[frozenset[int]]:
    """Distinct vertex supports of simple paths on t vertices, sorted.

    t = 1 gives all singletons and t = 2 the edge set.  A support appears
    once no matter how many paths trace it.  With t above the vertex
    count there is none, and the search is not started.  The search walks
    every path, not every support: it counts one step per neighbour tried
    and raises SizeCapError, naming n and t, past WORK_BUDGET steps.
    """
    if t < 1:
        raise ValueError("need t >= 1")
    if t > G.n:
        return []
    if t == 1:
        return [frozenset({v}) for v in G.vertices]
    adj = G.adjacency()
    supports: set[frozenset[int]] = set()
    steps = 0
    for start in G.vertices:
        # depth-first on a stack of neighbour iterators, one per vertex of
        # the path so far, so t never bounds the call depth
        path, on_path, stack = [start], {start}, [iter(adj[start])]
        steps += len(adj[start])
        while stack:
            # a neighbour list is charged whole when its iterator is stacked
            if steps > WORK_BUDGET:
                why = f"work count {steps} exceeds the {WORK_BUDGET} work budget"
                raise SizeCapError(f"t-paths n={G.n}, t={t}: {why}")
            for nb in stack[-1]:
                if nb not in on_path:
                    on_path.add(nb)
                    if len(on_path) < t:
                        path.append(nb)
                        stack.append(iter(adj[nb]))
                        steps += len(adj[nb])
                        break
                    supports.add(frozenset(on_path))
                    on_path.remove(nb)
            else:
                stack.pop()
                on_path.remove(path.pop())
    return sorted(supports, key=sorted)
