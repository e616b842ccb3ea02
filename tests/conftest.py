"""Shared generators for the test suite.

Randomized structures are always driven by an explicit seeded Random so
every run sees the same instances.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from pathbetti import Graph, SimplicialComplex, faces_by_dim, graph_from_edges, make_complex
from pathbetti.homology import _boundary_column
from reference import cone


# A flag triangulation of the real projective plane on 12 vertices, 33 edges:
# its clique complex is itself, and H~_1 = H~_2 = GF(2) over GF(2) while
# both vanish over a field of odd characteristic.
RP2_TRIANGLES = [
    (1, 2, 4), (1, 2, 6), (1, 7, 8), (3, 7, 8), (3, 5, 7), (1, 6, 8), (3, 8, 11), (6, 8, 11),
    (1, 4, 7), (4, 7, 9), (5, 7, 9), (2, 3, 12), (2, 4, 12), (2, 3, 5), (2, 5, 6), (3, 10, 12),
    (4, 10, 12), (3, 10, 11), (6, 10, 11), (4, 9, 10), (6, 9, 10), (5, 6, 9),
]


@pytest.fixture
def rp2_complement() -> Graph:
    """Complement of the 1-skeleton of RP2_TRIANGLES: its independence complex is RP^2.

    At t = 2 its path ideal is its edge ideal, whose Stanley-Reisner complex
    is that independence complex, so its Betti table depends on the field.
    """
    skeleton = {e for tri in RP2_TRIANGLES for e in combinations(tri, 2)}
    return graph_from_edges(12, [e for e in combinations(range(1, 13), 2) if e not in skeleton])


def random_complex(rng: random.Random, max_vertices: int = 8, max_facets: int = 7) -> SimplicialComplex:
    nv = rng.randint(1, max_vertices)
    labels = list(range(1, nv + 1))
    cands = []
    for _ in range(rng.randint(1, max_facets)):
        size = rng.randint(0, nv)
        cands.append(rng.sample(labels, size))
    return make_complex(cands)


def random_acyclic(rng: random.Random, max_vertices: int = 6, max_facets: int = 5) -> SimplicialComplex:
    """A cone or a full simplex on a small label set; acyclic either way."""
    if rng.random() < 0.5:
        nv = rng.randint(1, max_vertices)
        return make_complex([rng.sample(range(1, nv + 1), rng.randint(1, nv))])
    base = random_complex(rng, max_vertices=max_vertices, max_facets=max_facets)
    return cone(base, 0)


def boundary_columns(faces: dict, p: int, prime: int) -> list[dict[int, int]]:
    """The sparse columns of d_p over GF(prime): one per p-face, rows the (p-1)-faces."""
    row_index = {f: i for i, f in enumerate(faces.get(p - 1, []))}
    return [_boundary_column(f, row_index, prime) for f in faces.get(p, [])]


def composite_boundary_columns(K: SimplicialComplex, prime: int):
    """Yield (p, column) for every column of d_p d_{p+1} over GF(prime).

    Each sparse column of d_{p+1} is mapped through the columns of d_p;
    entries that vanish mod prime are dropped, so d_p d_{p+1} = 0 exactly
    when every yielded column is empty.
    """
    faces = faces_by_dim(K)
    for p in range(max(faces, default=-1)):
        d_p = boundary_columns(faces, p, prime)
        for col in boundary_columns(faces, p + 1, prime):
            image: dict[int, int] = {}
            for r, v in col.items():
                for s, w in d_p[r].items():
                    image[s] = (image.get(s, 0) + v * w) % prime
            yield p, {s: x for s, x in image.items() if x}
