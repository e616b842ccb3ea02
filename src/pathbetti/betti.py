"""Brute-force Betti numbers of S/I for path ideals.

The multigraded number b_{i,m} is the reduced homology dimension of the
strict Taylor subcomplex in degree i-2, computed only on multidegrees in
the lcm lattice (everything else vanishes).  Graded tables rest on the
restriction and product rule: W is lcm-closed exactly when every
component of G_W is, and b_{·,W} is the convolution of those components'
top vectors.  The table is therefore the independence polynomial of the
polymers (connected lcm-closed sets), which graded_betti_table computes
by one memoised recursion.  Homology runs once per isomorphism class of
polymer that is a clique, a tree or unicyclic, keyed in linear time by
leaf peeling (_shape), and once per visit of any other polymer.  A
polymer's top vector comes from the relation "v ∉ g" between its
vertices and its generators, whose two Dowker complexes are the strict
Taylor complex and K^W, the Alexander dual of Hochster's complex Δ_W.
Dominated rows and columns are dropped first (_collapse, a strong
collapse that keeps the homology), and then the smallest bound picks the
complex on what is left: Taylor when fewer generators than vertices less
one remain, else Δ′ or K′, whichever is under half of the subsets
(_top_vector), each grown on bit masks by complexes.grow_faces.  One
work counter per graded_betti_table call, under complexes.WORK_BUDGET,
bounds each complex while it grows.  multigraded_betti (the homology
subcommand) builds the unreduced Taylor complex by taylor_strict_sub
under the face cap, the route that cross-checks the others.  The field
characteristic can change a table: for an edge ideal (t = 2) whose
independence complex triangulates the real projective plane, two entries
are 1 over GF(2) and 0 over any odd characteristic (Katzman, JCTA 113,
2006).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .complexes import DEFAULT_FACE_CAP, WORK_BUDGET, SizeCapError, grow_faces
from .graphs import Graph, enumerate_t_paths
from .homology import DEFAULT_PRIME, homology_of_faces, reduced_homology_dims, validate_prime
from .ideals import MonomialIdeal, is_lcm_closed, taylor_strict_sub


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers of S/I: entries (i, j) -> b, zeros omitted.

    Every table contains the unit entry (0, 0) -> 1 for S itself.
    """

    entries: tuple[tuple[tuple[int, int], int], ...]

    @classmethod
    def from_dict(cls, data: Mapping[tuple[int, int], int]) -> "BettiTable":
        items = tuple(sorted((ij, b) for ij, b in data.items() if b))
        return cls(entries=items)

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.entries)

    @property
    def max_i(self) -> int:
        return max((ij[0] for ij, _ in self.entries), default=0)

    @property
    def max_j(self) -> int:
        return max((ij[1] for ij, _ in self.entries), default=0)


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
    # the facet of a vertex avoided by k generators alone has 2^k faces
    inside = [g for g in I.generators if g <= ms]
    degree = Counter(v for g in inside for v in g)
    if ms and len(inside) - min(degree[v] for v in ms) >= DEFAULT_FACE_CAP.bit_length():
        raise _capped(ms, f"complex exceeds the {DEFAULT_FACE_CAP} face cap")
    try:
        profile = reduced_homology_dims(taylor_strict_sub(I, ms), p_field)
    except SizeCapError as exc:
        raise _capped(ms, exc) from exc
    return {p + 2: d for p, d in profile.items()}


def _capped(W: Iterable[int], why: object) -> SizeCapError:
    return SizeCapError(f"multidegree {','.join(map(str, sorted(W)))}: {why}")


def _top_vector(
    C: int,
    inside: Sequence[int],
    p_field: int = DEFAULT_PRIME,
    spend: Callable[[int], int] = lambda n: WORK_BUDGET,
) -> dict[int, int]:
    """b_{·,C}(S/I) for a vertex mask C and the masks of the generators inside it.

    The relation v ∉ g is first shrunk by _collapse to rows X′ and columns
    Y′, which keeps the homology of both its Dowker complexes.  Then the
    complex with the smaller size bound is used: Taylor (2^|Y′| faces) when
    |Y′| < |X′| - 1, else Δ′ and then K′ once Δ′ passes half of the subsets
    of X′ (|Δ′| + |K′| = 2^|X′|).  A column that misses X′ makes K′ the
    full simplex on X′, so the vector is 0.  spend charges each step and
    returns the budget left, which bounds each complex as it grows.
    """
    X, gens = _collapse(C, inside, spend)
    if not all(gens):
        return {}
    w = X.bit_count()
    if len(gens) < w - 1:
        return _top_on("taylor", X, gens, p_field, spend=spend)
    vec = _top_on("delta", X, gens, p_field, 1 << (w - 1), spend)
    return _top_on("dual", X, gens, p_field, spend=spend) if vec is None else vec


def _collapse(
    C: int, inside: Sequence[int], spend: Callable[[int], None] = lambda n: None
) -> tuple[int, list[int]]:
    """Strong collapse of the relation v ∉ g between the vertices of C and the generators inside.

    With through(v) the generators that hold v, a row (vertex) a goes when
    another live row b has through(b) ⊆ through(a), and a column
    (generator) g goes when another live column h has h ∩ X ⊆ g ∩ X for the
    live rows X.  Of equal rows or columns one stays, and so does the last.
    Each drop keeps one Dowker complex and the homology of both (Dowker,
    Ann. of Math. 56, 1952; a strong collapse in the sense of Barmak &
    Minian, Discrete Comput. Geom. 47, 2012).  Row and column passes
    alternate until one drops nothing; the generators are distinct sets of
    one size, so no column goes before a row does.  Returns the live rows
    X′ as a vertex mask and the live columns as the masks g ∩ X′.
    """
    bits, cols, rows = _relation(C, inside)
    spend(len(rows) + len(cols))
    X, Y = (1 << len(rows)) - 1, (1 << len(cols)) - 1
    while True:
        X, tests, dropped = _drop_dominated(rows, cols, X, Y)
        spend(tests)
        if not dropped:
            break
        Y, tests, dropped = _drop_dominated(cols, rows, Y, X)
        spend(tests)
        if not dropped:
            break
    live = sum(b for k, b in enumerate(bits) if X >> k & 1)
    return live, [g & live for j, g in enumerate(inside) if Y >> j & 1]


def _relation(C: int, inside: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """The relation v ∈ g on positions: the bits of C in increasing order,
    each generator as the mask of its vertices' positions, and each
    position as the mask of the generators through it."""
    bits, rest = [], C
    while rest:
        bits.append(rest & -rest)
        rest &= rest - 1
    pos = {b: k for k, b in enumerate(bits)}
    through, gens = [0] * len(bits), []
    for j, g in enumerate(inside):
        mask = 0
        while g:
            k = pos[g & -g]
            g &= g - 1
            mask |= 1 << k
            through[k] |= 1 << j
        gens.append(mask)
    return bits, gens, through


def _drop_dominated(of: Sequence[int], other: Sequence[int], live: int, across: int) -> tuple[int, int, bool]:
    """One domination pass over the live lines on one side of a 0/1 relation.

    of[a] is the mask of the lines across that meet line a, and other[j]
    the mask of the lines on this side that meet line j.  A live line b
    drops every other live line that meets all the live lines b meets: the
    intersection of other[j] over the live j in of[b].  Returns the live
    mask, the number of lines and intersections visited, and whether a
    line went.
    """
    tests, dropped, rest = 0, False, live
    while rest:
        b = rest & -rest
        rest ^= b
        if not live & b:
            continue
        tests += 1
        common = live
        meets = of[b.bit_length() - 1] & across
        while meets and common != b:
            j = meets & -meets
            meets ^= j
            common &= other[j.bit_length() - 1]
            tests += 1
        if common != b:
            live ^= common & ~b
            dropped = True
    return live, tests, dropped


def _top_on(
    route: str,
    C: int,
    inside: Sequence[int],
    p_field: int,
    limit: float = float("inf"),
    spend: Callable[[int], int] = lambda n: WORK_BUDGET,
) -> Optional[dict[int, int]]:
    """b_{·,C}(S/I) from one complex, or None past limit faces (spend raises past the budget).

    The strict Taylor complex ("taylor") and K^C ("dual", Miller & Sturmfels,
    Combinatorial Commutative Algebra, Thm. 1.34) are the Dowker complexes
    of v ∉ g, given by their facets, and b_{i,C} = dim H~_{i-2} on both.
    Hochster's Δ_C ("delta", ibid., Cor. 5.12) is given by its minimal
    non-faces, the generators, and b_{i,C} = dim H~_{|C|-i-1}(Δ_C).
    """
    bits, gens, through = _relation(C, inside)
    w = len(bits)
    labels = len(gens) if route == "taylor" else w
    if route == "taylor":
        shape = {"facets": (1 << w) - 1, "miss": gens}
    elif route == "dual":
        shape = {"facets": (1 << len(gens)) - 1, "miss": through}
    else:
        nonfaces: list[list[int]] = [[] for _ in bits]
        for g in gens:
            rest = g
            while rest:
                nonfaces[(rest & -rest).bit_length() - 1].append(g)
                rest &= rest - 1
        shape = {"nonfaces": nonfaces}
    # the relation's size, then at most every label tried on each face
    limit = min(limit, spend(w + len(gens)) // labels)
    try:
        faces = grow_faces(range(labels), limit, **shape)
    except SizeCapError:
        # the faces grown, up to face limit + 1: past the budget, spend raises
        spend(labels * (limit + 1))
        return None
    spend(labels * sum(map(len, faces.values())))
    dims = homology_of_faces(faces, p_field).items()
    return {w - 1 - p: d for p, d in dims} if route == "delta" else {p + 2: d for p, d in dims}


def _shape(C: int, nbr: Mapping[int, int], ids: dict[tuple[int, ...], int]) -> Optional[tuple]:
    """Isomorphism key of the connected graph on the vertex mask C, or None.

    nbr maps a vertex bit to the mask of its neighbours; ids numbers the
    rooted trees met so far and is shared by every key it is to be compared
    with.  A clique is keyed by its order.  A graph with at most one cycle
    sheds its leaves layer by layer, and a shed vertex is numbered by the
    sorted numbers of the vertices shed into it (AHU tree isomorphism, Aho,
    Hopcroft & Ullman 1974).  A tree is then keyed by the numbers of its
    one or two centres, a unicyclic graph by the least rotation, either way
    round, of the numbers around its cycle.  Keyed graphs share a key
    exactly when they are isomorphic; any other graph gets None.
    """
    deg: dict[int, int] = {}
    rest = C
    while rest:
        v = rest & -rest
        rest ^= v
        deg[v] = (nbr[v] & C).bit_count()
    n, m = len(deg), sum(deg.values()) // 2
    if 2 * m == n * (n - 1):
        return ("clique", n)
    if m > n:
        return None
    kids: dict[int, list[int]] = {v: [] for v in deg}

    def number(v: int) -> int:
        return ids.setdefault(tuple(sorted(kids[v])), len(ids))

    leaves = [v for v, d in deg.items() if d == 1]
    while leaves and C.bit_count() > 2:
        layer, leaves = leaves, []
        for v in layer:
            C ^= v
            u = nbr[v] & C
            kids[u].append(number(v))
            deg[u] -= 1
            if deg[u] == 1:
                leaves.append(u)
    if m < n:
        return tuple(sorted(number(v) for v in deg if v & C))
    start = prev = C & -C
    ends = nbr[start] & C
    cur, ring = ends & -ends, [number(start)]
    while cur != start:
        ring.append(number(cur))
        prev, cur = cur, nbr[cur] & C & ~prev
    return min(tuple(r[k:] + r[:k]) for r in (ring, ring[::-1]) for k in range(len(ring)))


def graded_betti_table(
    G: Graph,
    t: int,
    p_field: int = DEFAULT_PRIME,
    use_memo: bool = False,
) -> BettiTable:
    """Betti table of S/I_t(G) by one memoised recursion on vertex sets.

    T(U) sums x^i y^|W| b_{i,W} over the lcm-closed W inside U, the sets
    of pairwise non-adjacent polymers (connected lcm-closed sets).  With
    v = min U, T(U) = T(U - v) + sum over polymers C of U containing v of
    y^|C| top(C) T(U - C - N(C)), from the vertices on a t-path down to
    T({}) = 1.  top(C) is computed by _top_vector from C and its generator
    masks: the relation v ∉ g is strong-collapsed, and then the strict
    Taylor complex, Δ′ or K′ of what is left, whichever has the smallest
    bound, is grown by grow_faces with no SimplicialComplex.  Top vectors
    of cliques, trees and unicyclic polymers are cached under the key of
    _shape, so homology runs once per isomorphism class of those; any other
    polymer runs homology on each visit.  One work counter is charged 1 per
    state and per polymer frame, |C| per top(C) (the _shape walk), the
    relation's size and each domination test of a collapse, labels per
    face as a complex grows, and the entries copied and products made by
    the summation.  It is the one limit, and no complex passes it by more
    than one face's charge: past WORK_BUDGET a SizeCapError names the
    polymer being grown, the count and the budget.  Explicit stacks keep
    the call depth constant.  use_memo has no effect.
    """
    if t < 1:
        raise ValueError("need t >= 1")
    validate_prime(p_field)
    # a vertex is its bit in an int mask, and a generator the mask of its support
    bit = {v: 1 << k for k, v in enumerate(G.vertices)}
    adj: dict[int, list[int]] = {b: [] for b in bit.values()}
    for u, v in G.edges:
        adj[bit[u]].append(bit[v])
        adj[bit[v]].append(bit[u])
    nbr = {b: sum(us) for b, us in adj.items()}
    through: dict[int, list[int]] = {b: [] for b in adj}
    for g in enumerate_t_paths(G, t):
        mask = sum(map(bit.get, g))
        for v in g:
            through[bit[v]].append(mask)
    full = sum(b for b, masks in through.items() if masks)
    ids: dict[tuple[int, ...], int] = {}
    tops: dict[tuple, dict[int, int]] = {}
    # one work counter per call, charged inline on the hot paths
    work = 0

    def over(C: int) -> SizeCapError:
        # C is the polymer being grown
        why = f"work count {work} exceeds the {WORK_BUDGET} work budget"
        return _capped((v for v, b in bit.items() if b & C), why)

    def spend(n: int, C: int) -> int:
        nonlocal work
        work += n
        if work > WORK_BUDGET:
            raise over(C)
        return WORK_BUDGET - work

    def alive(u: int, U: int) -> bool:
        # u lies on a t-path inside U; no other vertex of U joins a polymer
        return any(mask & U == mask for mask in through[u])

    def top(C: int, inside: tuple[int, ...]) -> dict[int, int]:
        spend(C.bit_count(), C)
        key = _shape(C, nbr, ids)
        if key in tops:
            return tops[key]
        vec = _top_vector(C, inside, p_field, lambda n: spend(n, C))
        if key is not None:
            tops[key] = vec
        return vec

    def polymer_terms(U: int, v: int) -> list[tuple[int, dict[int, int], int]]:
        # include/exclude search on frontier[0] over frames (C, generators in
        # C, the vertices they cover, C and its neighbours, frontier): each C once
        nonlocal work
        out = []
        stack = [(0, (), 0, 0, (v,))]
        while stack:
            C, inside, covered, reach, frontier = stack.pop()
            if not frontier:
                continue
            w, frontier = frontier[0], frontier[1:]
            if frontier:
                stack.append((C, inside, covered, reach, frontier))
            C |= w
            work += 1
            if work > WORK_BUDGET:
                raise over(C)
            for mask in through[w]:
                if mask & C == mask:
                    inside += (mask,)
                    covered |= mask
            more = tuple(u for u in adj[w] if u & U & ~reach and alive(u, U))
            reach |= w | nbr[w]
            stack.append((C, inside, covered, reach, frontier + more))
            if covered == C and (vec := top(C, inside)):
                out.append((C, vec, U & ~reach))
        return out

    # children of a state have a larger minimum: find every state, then
    # sum the tables in decreasing order of minimum
    terms: dict[int, list[tuple[int, dict[int, int], int]]] = {}
    todo = [full]
    while todo:
        U = todo.pop()
        if U and U not in terms:
            v = U & -U
            work += 1
            if work > WORK_BUDGET:
                raise over(v)
            terms[U] = polymer_terms(U, v) if alive(v, U) else []
            todo.append(U ^ v)
            todo.extend(rest for _, _, rest in terms[U])
    tables = {0: {(0, 0): 1}}
    for U in sorted(terms, key=lambda U: U & -U, reverse=True):
        # a state with no polymer shares the table of U - v
        acc = tables[U & (U - 1)]
        if terms[U]:
            acc = dict(acc)
            work += len(acc)
        for C, vec, rest in terms[U]:
            size = C.bit_count()
            work += len(tables[rest]) * len(vec)
            if work > WORK_BUDGET:
                raise over(C)
            for (i, j), b in tables[rest].items():
                for k, c in vec.items():
                    acc[(i + k, j + size)] = acc.get((i + k, j + size), 0) + b * c
        tables[U] = acc
    return BettiTable.from_dict(tables[full])
