"""Squarefree monomial ideals generated by path supports, and their
strict Taylor subcomplexes.

A generator is identified with its vertex support (a frozenset), so an
lcm is the set of vertices covered and divisibility is containment.  Generators keep the
deterministic order produced by enumerate_t_paths; the Taylor complex
lives on 0-based generator indices in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .complexes import SimplicialComplex, make_complex
from .graphs import Graph, enumerate_t_paths


@dataclass(frozen=True)
class MonomialIdeal:
    """Equigenerated squarefree ideal: distinct supports of one size t."""

    t: int
    generators: tuple[frozenset[int], ...]

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generators")
        for g in self.generators:
            if len(g) != self.t:
                raise ValueError(f"generator {sorted(g)} does not have degree {self.t}")


def path_ideal(G: Graph, t: int) -> MonomialIdeal:
    """The ideal generated by all t-vertex path supports of G.

    Supports of equal size form an antichain, so the generating set is
    automatically minimal.  A graph with no t-path gives the zero ideal.
    """
    gens = tuple(enumerate_t_paths(G, t))
    return MonomialIdeal(t=t, generators=gens)


def ideal_lcm(I: MonomialIdeal) -> frozenset[int]:
    """Union of all generator supports (empty for the zero ideal)."""
    out: set[int] = set()
    for g in I.generators:
        out |= g
    return frozenset(out)


def is_lcm_closed(I: MonomialIdeal, m: Iterable[int]) -> bool:
    """Whether the generators inside m cover every vertex of m.

    This is membership in the lcm lattice of I; multigraded Betti numbers
    vanish off that lattice, so it guards the homology formula.
    """
    ms = frozenset(m)
    covered: set[int] = set()
    for g in I.generators:
        if g <= ms:
            covered |= g
    return covered == ms


def taylor_strict_sub(I: MonomialIdeal, m: Iterable[int]) -> SimplicialComplex:
    """Faces of the Taylor simplex whose lcm strictly divides m.

    For each vertex v of m, the generators avoiding v (and dividing m)
    span a face; those faces, maximalized, are the facets.  A face tau of
    the result therefore satisfies lcm(tau) != m, and every such subset of
    generators is a face.  Vertices are 0-based generator indices.  An
    empty m yields the void complex, and an m containing no generator at
    all yields the irrelevant complex.
    """
    ms = frozenset(m)
    lcm = ideal_lcm(I)
    if not ms <= lcm:
        raise ValueError(f"multidegree {sorted(ms)} does not divide the ideal lcm")
    inside = [(idx, g) for idx, g in enumerate(I.generators) if g <= ms]
    candidates = []
    for v in ms:
        candidates.append([idx for idx, g in inside if v not in g])
    return make_complex(candidates)
