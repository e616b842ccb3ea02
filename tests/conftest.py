"""Shared generators for the test suite.

Randomized structures are always driven by an explicit seeded Random so
every run sees the same instances.
"""

from __future__ import annotations

import random

from pathbetti import SimplicialComplex, cone, faces_by_dim, make_complex
from pathbetti.homology import _boundary_column


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
