"""Brute-force Betti numbers of S/I for path ideals.

The multigraded number b_{i,m} is the reduced homology dimension of the
strict Taylor subcomplex in degree i-2, computed only on multidegrees in
the lcm lattice (everything else vanishes).  Graded tables are built by a
factorized walk that rests on the restriction and product rule: b_{·,W}
depends only on G_W and is the convolution of the top vectors of the
components of G_W.  So the table of G is the product of the tables of its
components, and within one component homology runs only on connected
lcm-closed supports, each once; with use_memo, once per isomorphism class,
keyed by an exact canonical form.  multigraded_record keeps the direct walk
over every subset.  The chosen field characteristic does not change any
table in this package's scope, which the test suite checks rather than
assumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence

from .complexes import SizeCapError
from .graphs import Graph, canonical_form, components_within, connected_components, induced_subgraph
from .homology import DEFAULT_PRIME, reduced_homology_dims, validate_prime
from .ideals import MonomialIdeal, ideal_lcm, is_lcm_closed, path_ideal, taylor_strict_sub


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers of S/I: entries (i, j) -> b, zeros omitted.

    Every table contains the unit entry (0, 0) -> 1 for S itself.
    """

    ambient_n: int
    entries: tuple[tuple[tuple[int, int], int], ...]

    @classmethod
    def from_dict(cls, ambient_n: int, data: Mapping[tuple[int, int], int]) -> "BettiTable":
        items = tuple(sorted((ij, b) for ij, b in data.items() if b))
        return cls(ambient_n=ambient_n, entries=items)

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.entries)

    @property
    def max_i(self) -> int:
        return max((ij[0] for ij, _ in self.entries), default=0)

    @property
    def max_j(self) -> int:
        return max((ij[1] for ij, _ in self.entries), default=0)

    def restrict_j(self, allowed) -> "BettiTable":
        """Table with only the entries whose total degree satisfies allowed."""
        kept = {ij: b for ij, b in self.entries if ij == (0, 0) or allowed(ij[1])}
        return BettiTable.from_dict(self.ambient_n, kept)


def multigraded_betti(
    I: MonomialIdeal,
    m: Iterable[int],
    p_field: int = DEFAULT_PRIME,
) -> dict[int, int]:
    """Nonzero b_{i,m}(S/I) for i >= 1, as a dict i -> dimension.

    Off the lcm lattice the answer is {} without any homology work; on it
    b_{i,m} is the homology dimension of the strict Taylor subcomplex in
    degree i-2.  A SizeCapError raised on the way names the multidegree.
    """
    ms = frozenset(m)
    if not is_lcm_closed(I, ms):
        return {}
    try:
        profile = reduced_homology_dims(taylor_strict_sub(I, ms), p_field)
    except SizeCapError as exc:
        raise SizeCapError(f"multidegree {','.join(map(str, sorted(ms)))}: {exc}") from exc
    return {p + 2: d for p, d in profile.dims}


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


class IsoMemo:
    """Cache of top vectors keyed by the exact canonical form of a graph.

    Two graphs share a key exactly when they are isomorphic, so a hit is
    one dict lookup and never reuses the vector of a different graph.
    """

    def __init__(self) -> None:
        self._vectors: dict[tuple, dict[int, int]] = {}
        self.hits = 0

    def lookup(self, G: Graph) -> Optional[dict[int, int]]:
        vec = self._vectors.get(canonical_form(G))
        if vec is None:
            return None
        self.hits += 1
        return dict(vec)

    def store(self, G: Graph, vec: dict[int, int]) -> None:
        self._vectors[canonical_form(G)] = dict(vec)


def graded_betti_table(
    G: Graph,
    t: int,
    p_field: int = DEFAULT_PRIME,
    use_memo: bool = False,
) -> BettiTable:
    """Betti table of S/I_t(G) by a walk factorized over components.

    The table is the product, as a polynomial in (i, j), of the tables of
    the components of G; a component without a t-path contributes the
    unit.  A component's table sums b_{i,W} over its lcm-closed subsets W,
    and b_{·,W} is the convolution of the top vectors of the components C
    of G_W.  Each C is lcm-closed (a t-path inside W is connected), and
    its top vector is computed once per vertex set.  With use_memo a top
    vector missing from that cache is looked up by the canonical form of
    G_C (its isomorphism class) before any homology runs.
    """
    if t < 1:
        raise ValueError("need t >= 1")
    validate_prime(p_field)
    adj = G.adjacency()
    memo = IsoMemo() if use_memo else None
    tops: dict[frozenset[int], dict[int, int]] = {}

    def top_vector(I: MonomialIdeal, C: frozenset[int]) -> dict[int, int]:
        if C not in tops:
            if memo is None:
                tops[C] = multigraded_betti(I, C, p_field)
            else:
                gc = induced_subgraph(G, C)
                vec = memo.lookup(gc)
                if vec is None:
                    vec = multigraded_betti(I, C, p_field)
                    memo.store(gc, vec)
                tops[C] = vec
        return tops[C]

    table: dict[tuple[int, int], int] = {(0, 0): 1}
    for comp in connected_components(G):
        if len(comp) < t:
            continue
        I = path_ideal(induced_subgraph(G, comp), t)
        support = sorted(ideal_lcm(I))
        part: dict[tuple[int, int], int] = {(0, 0): 1}
        for size in range(t, len(support) + 1):
            for sub in combinations(support, size):
                w = frozenset(sub)
                if not is_lcm_closed(I, w):
                    continue
                vec = top_betti_product([top_vector(I, C) for C in components_within(adj, w)])
                for i, b in vec.items():
                    part[(i, size)] = part.get((i, size), 0) + b
        table = _table_product(table, part)
    return BettiTable.from_dict(len(G.vertices), table)


def _table_product(
    a: Mapping[tuple[int, int], int], b: Mapping[tuple[int, int], int]
) -> dict[tuple[int, int], int]:
    """Product of two Betti tables as polynomials in (i, j)."""
    out: dict[tuple[int, int], int] = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            out[(i + k, j + l)] = out.get((i + k, j + l), 0) + x * y
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
