"""Reduced simplicial homology over a prime field, by boundary-matrix ranks.

The chain complex is augmented: the empty face spans degree -1 and every
vertex maps to it, so the dimensions reported here are reduced.  For a
complex with n_p faces of dimension p,

    dim H~_p = n_p - rank(d_p) - rank(d_{p+1}),

where d_p is the boundary map from p-chains to (p-1)-chains.  The void
complex has trivial homology everywhere; the irrelevant complex has a
single dimension 1 in degree -1.

All ranks come from one sparse column reduction over GF(p), with p = 2 an
ordinary prime.  ``homology_of_faces`` reduces the boundary columns of
a complex given by its faces top dimension first and skips ("clears")
every p-face that was a pivot row of d_{p+1}: such a column is a
combination of earlier columns because d_p d_{p+1} = 0, so the rank does
not change (Chen and Kerber, "Persistent homology computation with a
twist", 2011).  ``reduced_homology_dims`` feeds it the faces of a complex
given by its facets.  Both return a dict {degree: dim} holding the nonzero
dimensions only, so the void complex gives {}.  A boundary map exists only
as the sparse columns that ``_boundary_column`` builds one face at a time;
no matrix object or rows x cols array is ever formed, so the face cap,
checked while the faces are enumerated and before any reduction, is the
only bound on the work.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterable, Mapping

from .complexes import DEFAULT_FACE_CAP, Face, SimplicialComplex, faces_by_dim

DEFAULT_PRIME = 32003


def is_prime(n: int) -> bool:
    if not isinstance(n, int) or n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def validate_prime(p: int) -> int:
    # the bound first: trial division of a large prime would take hours
    if not isinstance(p, int) or p >= 1 << 31 or not is_prime(p):
        raise ValueError(f"field characteristic must be a prime below 2^31, got {p}")
    return p


def _reduce_columns(columns: Iterable[dict[int, int]], prime: int) -> dict[int, dict[int, int]]:
    """Column reduction over GF(prime), left to right.

    Each column maps row -> value and is consumed.  Its pivot is its
    largest row.  A column whose pivot is taken is reduced by the stored
    column there until it vanishes or reaches a free pivot, where it is
    stored scaled to a pivot entry of 1.  Returns pivot row -> stored
    column; the number of pivots is the rank.

    Every value must be nonzero and already reduced mod prime; nothing
    checks this.  A multiple of prime would be stored as a false pivot, and
    a later column with that pivot would never vanish.  The boundary
    columns here hold only 1 and prime - 1.
    """
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        while col:
            low = max(col)
            stored = pivots.get(low)
            if stored is None:
                if col[low] != 1:
                    inv = pow(col[low], prime - 2, prime)
                    col = {r: v * inv % prime for r, v in col.items()}
                pivots[low] = col
                break
            f = col[low]
            for r, v in stored.items():
                x = (col.get(r, 0) - f * v) % prime
                if x:
                    col[r] = x
                else:
                    del col[r]
    return pivots


def _boundary_column(face: Face, row_index: Mapping[Face, int], prime: int) -> dict[int, int]:
    # the facet without vertex k enters with sign (-1)^k
    return {
        row_index[face[:k] + face[k + 1:]]: 1 if k % 2 == 0 else prime - 1
        for k in range(len(face))
    }


def reduced_homology_dims(
    K: SimplicialComplex,
    p_field: int = DEFAULT_PRIME,
    cap: int = DEFAULT_FACE_CAP,
) -> dict[int, int]:
    """Reduced homology of K over GF(p_field) as {degree: dim}, nonzero dims only.

    Degrees run from -1 through the dimension of K; the void complex gives
    {}.  Raises SizeCapError when K has more than ``cap`` faces, before any
    reduction starts.
    """
    return homology_of_faces(faces_by_dim(K, cap=cap), p_field)


def homology_of_faces(faces: Mapping[int, list[Face]], p_field: int = DEFAULT_PRIME) -> dict[int, int]:
    """Reduced homology over GF(p_field) of the complex with these faces.

    Returns {degree: dim} with nonzero dims only.  ``faces`` maps p to
    every p-face, each a tuple of vertices in increasing order, and holds
    the empty face under -1 unless the complex is void ({}).  Any order
    within a dimension gives the same numbers, since the reduction only
    needs the p-faces in one order as rows of d_{p+1} and columns of d_p;
    the order sets the work, and every caller here passes the
    lexicographic order of complexes.grow_faces.
    """
    validate_prime(p_field)
    if not faces:
        return {}
    top = max(faces)
    ranks: dict[int, int] = {}
    cleared: Mapping[int, object] = {}
    for p in range(top, -1, -1):
        row_index = {f: i for i, f in enumerate(faces[p - 1])}
        pivots = _reduce_columns(
            (_boundary_column(f, row_index, p_field) for j, f in enumerate(faces[p]) if j not in cleared),
            p_field,
        )
        ranks[p] = len(pivots)
        # a pivot row of d_p is a (p-1)-face whose boundary column in
        # d_{p-1} is a combination of earlier columns, since d_{p-1} d_p = 0
        cleared = pivots
    dims = {}
    for p in range(-1, top + 1):
        d = len(faces[p]) - ranks.get(p, 0) - ranks.get(p + 1, 0)
        if d:
            dims[p] = d
    return dims
