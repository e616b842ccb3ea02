"""Simplicial complexes represented by their facet antichains.

A complex is stored as the list of its maximal faces (facets) over integer
vertex labels.  Two degenerate complexes are distinct values and both occur
as boundary cases throughout the package:

* the void complex, which has no faces at all (``facets == ()``), and
* the irrelevant complex, whose only face is the empty face
  (``facets == (frozenset(),)``).

Faces are realized as sorted tuples of vertex labels and all enumeration
orders are fixed (lexicographic on sorted vertex lists), so every operation
here is deterministic.  grow_faces is the one face enumerator: a
depth-first search on bit masks that grows a complex from its facets or
from its minimal non-faces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

Face = tuple[int, ...]

DEFAULT_FACE_CAP = 1 << 16
# steps one graded_betti_table call may take (betti.py says what each step
# is).  A step is about a microsecond of Python on small graphs: star 17 at
# t=2, the largest table the tests check, takes 1.5 M steps in 1.4 s, and
# line 100 at t=2 0.8 M in 0.4 s, where line 4096 at t=2 spends the budget
# in 1 s and cycle 4096 at t=1, on 4096-bit masks, in 5 s (Python 3.11, one
# core of a shared two-core x86-64 machine)
WORK_BUDGET = 4_000_000


class SizeCapError(Exception):
    """A complex exceeded the face cap, or a table the work budget."""


@dataclass(frozen=True)
class SimplicialComplex:
    """Immutable facet-antichain representation of a simplicial complex.

    ``facets`` is canonically ordered (lexicographic on sorted vertex
    tuples) and forms an antichain.  A vertex of the complex is a label
    that appears in some facet.
    """

    facets: tuple[frozenset[int], ...]

    @property
    def is_void(self) -> bool:
        return len(self.facets) == 0

    @property
    def vertices(self) -> frozenset[int]:
        out: set[int] = set()
        for f in self.facets:
            out.update(f)
        return frozenset(out)

    def __repr__(self) -> str:
        if self.is_void:
            return "SimplicialComplex(void)"
        inner = ", ".join("{" + ",".join(map(str, sorted(f))) + "}" for f in self.facets)
        return f"SimplicialComplex(<{inner}>)"


def make_complex(facet_candidates: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Build a complex from generating faces, keeping only maximal ones.

    The generators need not be an antichain; duplicates and faces contained
    in other generators are absorbed.  An empty iterable yields the void
    complex, while ``[[]]`` (or any family whose largest member is the
    empty set) yields the irrelevant complex.  Labels must be nonnegative
    integers.
    """
    seen: set[frozenset[int]] = set()
    for cand in facet_candidates:
        fs = frozenset(cand)
        for v in fs:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"vertex labels must be nonnegative integers, got {v!r}")
        seen.add(fs)
    # absorb non-maximal members, largest first
    maximal: list[frozenset[int]] = []
    for fs in sorted(seen, key=len, reverse=True):
        if not any(fs < kept for kept in maximal):
            maximal.append(fs)
    maximal.sort(key=sorted)
    return SimplicialComplex(facets=tuple(maximal))


def faces_by_dim(K: SimplicialComplex, cap: int = DEFAULT_FACE_CAP) -> dict[int, list[Face]]:
    """Faces of K by dimension, each sorted; SizeCapError past ``cap`` faces, the empty one included."""
    labels = sorted(K.vertices)
    miss = [sum(1 << i for i, f in enumerate(K.facets) if v not in f) for v in labels]
    return grow_faces(labels, cap, facets=(1 << len(K.facets)) - 1, miss=miss)


def grow_faces(
    labels: Sequence[int],
    cap: int = DEFAULT_FACE_CAP,
    facets: int = 0,
    miss: Optional[Sequence[int]] = None,
    nonfaces: Sequence[Sequence[int]] = (),
) -> dict[int, list[Face]]:
    """Faces on the increasing labels, grouped by dimension, each made once.

    By facets, ``facets`` is their bit set and ``miss[k]`` those lacking
    element k; a set is a face while some facet holds it all.  By minimal
    non-faces (``miss`` None), ``nonfaces[k]`` lists those through element
    k as position masks.  A depth-first search adds larger elements and
    pops the smallest child first, so every dimension comes out sorted.
    More than ``cap`` faces, the empty face included, raise SizeCapError.
    """
    faces: dict[int, list[Face]] = {}
    count = 0
    # frames (face, first free position, the facets holding it or its position mask);
    # with no facets even the empty face is missing
    stack = [((), 0, facets)] if miss is None or facets else []
    while stack:
        face, start, state = stack.pop()
        count += 1
        if count > cap:
            raise SizeCapError(f"complex exceeds the {cap} face cap")
        faces.setdefault(len(face) - 1, []).append(face)
        for k in range(len(labels) - 1, start - 1, -1):
            grown = state | 1 << k if miss is None else state & ~miss[k]
            # only a non-face through k can lie in the grown face
            if (not any(g & grown == g for g in nonfaces[k])) if miss is None else grown:
                stack.append((face + (labels[k],), k + 1, grown))
    return faces


def omega_complex(n: int, t: int) -> SimplicialComplex:
    """Complex on 1..n whose facets omit one window of t consecutive labels.

    Facet i (for i = 1..n-t+1) is {1..n} minus {i, ..., i+t-1}.  For n == t
    this degenerates to the irrelevant complex; for t == 1 it is the
    boundary of the simplex on n vertices.  A label of 1..n that lies in
    every window appears in no facet and so is no vertex.
    """
    if t < 1 or n < t:
        raise ValueError(f"need 1 <= t <= n, got t={t}, n={n}")
    full = frozenset(range(1, n + 1))
    windows = [frozenset(range(i, i + t)) for i in range(1, n - t + 2)]
    return make_complex([full - w for w in windows])
