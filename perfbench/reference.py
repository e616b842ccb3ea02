"""References the benchmark checks pathbetti's outputs against.

Everything here is plain standard-library Python and shares no code with
pathbetti, so a defect in the package cannot hide itself by also breaking
its reference.  Graphs are (n, edges) with vertices 1..n; a Betti table is
a dict (i, j) -> b with zeros omitted and the unit entry (0, 0) -> 1.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

# pathbetti's documented resource caps: a strict Taylor subcomplex with
# more than FACE_CAP faces (the empty face included), or a boundary matrix
# with more than MATRIX_CAP entries, ends the operation with exit code 3.
FACE_CAP = 1 << 16
MATRIX_CAP = 1 << 25

# Work of a subset walk: boundary-matrix cells plus FACE_WORK per face.  A
# least-squares fit of operation time on 800 random graphs (n <= 8) gave
# 6.7e-8 s per cell and 2.1e-5 s per face on a 2-core Xeon.
FACE_WORK = 300


def path_supports(n: int, edges, t: int) -> list[int]:
    """Vertex supports of simple paths on t vertices, as bitmasks (bit v-1)."""
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    found: set[int] = set()

    def grow(last: int, mask: int, size: int) -> None:
        if size == t:
            found.add(mask)
            return
        for nb in adj[last]:
            bit = 1 << (nb - 1)
            if not mask & bit:
                grow(nb, mask | bit, size + 1)

    for v in range(1, n + 1):
        grow(v, 1 << (v - 1), 1)
    return sorted(found)


def table_product(a: dict, b: dict) -> dict:
    """Betti table of a tensor product: the Betti polynomials multiply.

    The path ideal of a disjoint union is a sum of ideals in disjoint
    variables, so its minimal resolution is the tensor product of the
    components' resolutions.
    """
    out: dict = {}
    for (i1, j1), x in a.items():
        for (i2, j2), y in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + x * y
    return {k: v for k, v in out.items() if v}


def euler_by_degree(n: int, supports: list[int]) -> dict[int, int]:
    """Coefficients of sum over faces s of x^|s| (1-x)^(n-|s|).

    The faces are the vertex sets containing no generator support (the
    Stanley-Reisner complex of the ideal).  The polynomial equals
    sum_{i,j} (-1)^i b_{i,j} x^j for every graded Betti table of S/I.
    """
    face_sizes = [0] * (n + 1)
    for mask in range(1 << n):
        if not any(g & mask == g for g in supports):
            face_sizes[bin(mask).count("1")] += 1
    out: dict[int, int] = {}
    for s, count in enumerate(face_sizes):
        if not count:
            continue
        for k in range(n - s + 1):
            out[s + k] = out.get(s + k, 0) + count * comb(n - s, k) * (-1) ** k
    return {j: c for j, c in out.items() if c}


def _rank_mod(rows: list[dict[int, int]], prime: int) -> int:
    """Rank over GF(prime) of sparse rows (column -> value), by elimination."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            if col not in pivots:
                inv = pow(row[col], prime - 2, prime)
                pivots[col] = {c: v * inv % prime for c, v in row.items()}
                break
            factor = row[col]
            for c, v in pivots[col].items():
                nv = (row.get(c, 0) - factor * v) % prime
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
    return len(pivots)


def hochster_table(n: int, supports: list[int], prime: int = 32003) -> dict:
    """Graded Betti table of S/I by Hochster's formula.

    b_{i,s} = dim H~_{|s|-i-1}(D_s) over GF(prime), where D_s is the
    Stanley-Reisner complex (vertex sets containing no generator support)
    restricted to the vertex set s.  Cheap for n <= 8: at most 256 faces.
    """
    full = 1 << n
    faces = [m for m in range(full) if not any(g & m == g for g in supports)]
    bits = [[v for v in range(n) if m >> v & 1] for m in range(full)]
    table = {(0, 0): 1}
    for s in range(1, full):
        by_dim: dict[int, list[int]] = {}
        for f in faces:
            if f & s == f:
                by_dim.setdefault(len(bits[f]) - 1, []).append(f)
        index = {f: k for group in by_dim.values() for k, f in enumerate(group)}
        ranks = {}
        for d, group in by_dim.items():
            if d >= 0:
                rows = [{index[f ^ (1 << v)]: 1 if k % 2 == 0 else prime - 1 for k, v in enumerate(bits[f])}
                        for f in group]
                ranks[d] = _rank_mod(rows, prime)
        j = len(bits[s])
        for d, group in by_dim.items():
            h = len(group) - ranks.get(d, 0) - ranks.get(d + 1, 0)
            if h:
                table[(j - d - 1, j)] = table.get((j - d - 1, j), 0) + h
    return table


def table_euler(table: dict) -> dict[int, int]:
    out: dict[int, int] = {}
    for (i, j), b in table.items():
        out[j] = out.get(j, 0) + (-b if i % 2 else b)
    return {j: c for j, c in out.items() if c}


def _taylor_face_counts(signed: list[int]) -> list[int]:
    """Faces per size of the strict Taylor subcomplex at a multidegree W.

    A face is a set of the g generators dividing W whose union is not all
    of W.  By Moebius inversion over U subset of W, the sets whose union
    is exactly W number sum_U (-1)^|W-U| (1+x)^g(U); signed[k] is the
    signed count of the U with g(U) = k, so signed[g] = 1 for U = W.
    """
    g = len(signed) - 1
    sizes = [comb(g, k) for k in range(g + 1)]
    for gu, coeff in enumerate(signed):
        if coeff:
            for k in range(gu + 1):
                sizes[k] -= coeff * comb(gu, k)
    return sizes


def _work(faces: int, cells: int) -> dict:
    return {"work": cells + FACE_WORK * faces, "faces": faces, "cells": cells}


def predict_walk(n: int, supports: list[int], limit: float = float("inf")) -> dict | None:
    """Whether pathbetti's subset walk hits a cap, and how much it builds.

    Walks the lcm-closed multidegrees in the package's order (by size,
    then lexicographically) and sums the faces and boundary-matrix cells
    built until a complex or a matrix exceeds its cap; the faces of a
    complex that passes the face cap are built before its matrices are
    checked.  Work is cells plus FACE_WORK per face; the walk gives up
    (returns None) once that reaches ``limit`` without a cap.
    """
    full = 1 << n
    gcount = [0] * full
    cover = [0] * full
    for g in supports:
        gcount[g] += 1
        cover[g] = g
    for v in range(n):  # sums and unions over submasks, one vertex at a time
        bit = 1 << v
        for mask in range(full):
            if mask & bit:
                gcount[mask] += gcount[mask ^ bit]
                cover[mask] |= cover[mask ^ bit]
    parity = [1 - 2 * (bin(mask).count("1") & 1) for mask in range(full)]
    support = cover[full - 1]
    verts = [v for v in range(n) if support >> v & 1]
    faces = cells = largest = 0
    for size in range(1, len(verts) + 1):
        for combo in combinations(verts, size):
            w = 0
            for v in combo:
                w |= 1 << v
            if cover[w] != w:
                continue
            signed = [0] * (gcount[w] + 1)
            sub = w
            while True:
                signed[gcount[sub]] += parity[w ^ sub]
                if sub == 0:
                    break
                sub = (sub - 1) & w
            by_size = _taylor_face_counts(signed)
            total = sum(by_size)
            largest = max(largest, total)
            if total > FACE_CAP:
                return {"cap": True, **_work(faces, cells), "largest": largest}
            faces += total
            for k in range(1, len(by_size)):
                if by_size[k - 1] * by_size[k] > MATRIX_CAP:
                    return {"cap": True, **_work(faces, cells), "largest": largest}
                cells += by_size[k - 1] * by_size[k]
            if _work(faces, cells)["work"] >= limit:
                return None
    return {"cap": False, **_work(faces, cells), "largest": largest}


def diff_tables(got: dict, want: dict) -> list[str]:
    """Entries on which two tables disagree, as printable strings."""
    out = []
    for ij in sorted(set(got) | set(want)):
        if got.get(ij, 0) != want.get(ij, 0):
            out.append(f"b{ij}: got {got.get(ij, 0)}, want {want.get(ij, 0)}")
    return out
