"""Brute-force Betti numbers of S/I for path ideals.

The multigraded number b_{i,m} is the reduced homology dimension of the
strict Taylor subcomplex in degree i-2, computed only on multidegrees in
the lcm lattice (everything else vanishes).  Graded tables rest on the
restriction and product rule: W is lcm-closed exactly when every
component of G_W is, and b_{·,W} is the convolution of those components'
top vectors.  The table is therefore the independence polynomial of the
polymers (connected lcm-closed sets), which graded_betti_table computes
by one memoised recursion.  A polymer's top vector comes from the
relation "v ∉ g" between its vertices and its generators, whose two
Dowker complexes are the strict Taylor complex and K^W, the Alexander
dual of Hochster's complex Δ_W.  The relation on positions (_relation)
fixes the vector, so it keys the cache, and so does what is left of it
after dominated rows and columns are dropped (_collapse, a strong
collapse that keeps the homology): homology runs once per distinct
collapsed relation, whatever the polymer's shape.  The smallest bound
picks the complex on what is left: Taylor when fewer generators than
vertices less one remain, else Δ′ or K′, whichever is under half of the
subsets (_top_vector), each grown on bit masks by complexes.grow_faces.  One
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
    w: int,
    gens: Sequence[int],
    p_field: int = DEFAULT_PRIME,
    spend: Callable[[int], int] = lambda n: WORK_BUDGET,
) -> dict[int, int]:
    """b_{·,C}(S/I) from the collapsed relation (w, gens) of C, as _collapse returns it.

    The rows X′ are the positions 0..w-1 and the columns Y′ the masks gens.
    The complex with the smaller size bound is used: Taylor (2^|Y′| faces),
    which is K′ of the transposed relation, when |Y′| < w - 1, else Δ′ and
    then K′ once Δ′ passes half of the subsets of X′ (|Δ′| + |K′| = 2^w).
    A column that misses X′ makes K′ the full simplex on X′, so the vector
    is 0.  spend charges each step and returns the budget left, which
    bounds each complex as it grows.
    """
    if not all(gens):
        return {}
    if len(gens) < w - 1:
        return _top_on("dual", len(gens), _transpose(w, gens), p_field, spend=spend)
    vec = _top_on("delta", w, gens, p_field, 1 << (w - 1), spend)
    return _top_on("dual", w, gens, p_field, spend=spend) if vec is None else vec


def _collapse(
    w: int, gens: Sequence[int], spend: Callable[[int], None] = lambda n: None
) -> tuple[int, tuple[int, ...]]:
    """Strong collapse of the relation v ∉ g, given as _relation builds it.

    With through(v) the generators that hold v, a row (vertex) a goes when
    another live row b has through(b) ⊆ through(a), and a column
    (generator) g goes when another live column h has h ∩ X ⊆ g ∩ X for the
    live rows X.  Of equal rows or columns one stays, and so does the last.
    Each drop keeps one Dowker complex and the homology of both (Dowker,
    Ann. of Math. 56, 1952; a strong collapse in the sense of Barmak &
    Minian, Discrete Comput. Geom. 47, 2012).  Row and column passes
    alternate until one drops nothing; the generators are distinct sets of
    one size, so no column goes before a row does.  Returns _relation of
    the live rows X′ and the live columns g ∩ X′, so X′ is renumbered
    0..w′-1.
    """
    through = _transpose(w, gens)
    spend(w + len(gens))
    X, Y = (1 << w) - 1, (1 << len(gens)) - 1
    while True:
        X, tests, dropped = _drop_dominated(through, gens, X, Y)
        spend(tests)
        if not dropped:
            break
        Y, tests, dropped = _drop_dominated(gens, through, Y, X)
        spend(tests)
        if not dropped:
            break
    return _relation(X, [g & X for j, g in enumerate(gens) if Y >> j & 1])


def _relation(C: int, inside: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    """The relation v ∈ g on positions: the number w of bits of C and the
    generators as the sorted masks of their vertices' positions among those
    bits.  It fixes the top vector, so it is the top-vector cache's key."""
    pos, rest = {}, C
    while rest:
        low = rest & -rest
        pos[low] = 1 << len(pos)
        rest ^= low
    gens = []
    for g in inside:
        mask = 0
        while g:
            low = g & -g
            mask |= pos[low]
            g ^= low
        gens.append(mask)
    return len(pos), tuple(sorted(gens))


def _transpose(w: int, gens: Sequence[int]) -> list[int]:
    """Each position 0..w-1 as the mask of the generators through it."""
    through = [0] * w
    for j, g in enumerate(gens):
        while g:
            low = g & -g
            through[low.bit_length() - 1] |= 1 << j
            g ^= low
    return through


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
    w: int,
    gens: Sequence[int],
    p_field: int,
    limit: float = float("inf"),
    spend: Callable[[int], int] = lambda n: WORK_BUDGET,
) -> Optional[dict[int, int]]:
    """b_{·,C}(S/I) from one complex on the rows 0..w-1 of the relation
    (w, gens), or None past limit faces (spend raises past the budget).

    K^C ("dual", Miller & Sturmfels, Combinatorial Commutative Algebra,
    Thm. 1.34) is the Dowker complex of v ∉ g on the rows, given by its
    facets, and b_{i,C} = dim H~_{i-2}(K^C); on the transposed relation it
    is the strict Taylor complex, in the same degrees.  Hochster's Δ_C
    ("delta", ibid., Cor. 5.12) is given by its minimal non-faces, the
    generators, and b_{i,C} = dim H~_{w-i-1}(Δ_C).
    """
    if route == "dual":
        shape = {"facets": (1 << len(gens)) - 1, "miss": _transpose(w, gens)}
    else:
        nonfaces: list[list[int]] = [[] for _ in range(w)]
        for g in gens:
            rest = g
            while rest:
                nonfaces[(rest & -rest).bit_length() - 1].append(g)
                rest &= rest - 1
        shape = {"nonfaces": nonfaces}
    # the relation's size, then at most every row tried on each face
    limit = min(limit, spend(w + len(gens)) // w)
    try:
        faces = grow_faces(range(w), limit, **shape)
    except SizeCapError:
        # the faces grown, up to face limit + 1: past the budget, spend raises
        spend(w * (limit + 1))
        return None
    spend(w * sum(map(len, faces.values())))
    dims = homology_of_faces(faces, p_field).items()
    return {w - 1 - p: d for p, d in dims} if route == "delta" else {p + 2: d for p, d in dims}


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
    T({}) = 1.  top(C) builds the relation v ∉ g on positions by
    _relation and returns the vector cached under it, if any.  Else
    _collapse strong-collapses it, and the collapsed relation is looked up
    in turn; on a second miss _top_vector grows the strict Taylor complex,
    Δ′ or K′ of it, whichever has the smallest bound, by grow_faces with
    no SimplicialComplex.  The vector is stored under both relations.  Each
    is the whole input of the work it saves, up to the order of its
    columns, so both keys are exact, and homology runs once per distinct
    collapsed relation.  One work counter is charged 1 per state and per
    polymer frame, |C| per top(C), the relation's size and each domination
    test of a collapse (so each stored key has been paid for), labels per
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
    tops: dict[tuple[int, tuple[int, ...]], dict[int, int]] = {}
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
        # the relation and its collapse are both exact keys; a hit on the first skips the collapse
        spend(C.bit_count(), C)
        key = _relation(C, inside)
        if key not in tops:
            cut = _collapse(*key, lambda n: spend(n, C))
            if cut not in tops:
                tops[cut] = _top_vector(*cut, p_field, lambda n: spend(n, C))
            tops[key] = tops[cut]
        return tops[key]

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
