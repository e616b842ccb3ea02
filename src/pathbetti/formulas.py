"""Closed formulas for the Betti numbers computed elsewhere by homology.

The line and cycle formulas are driven by two shape parameters obtained
by inverting

    A + 2B = i    and    t*A + (t+1)*B = j,

namely A = (i(t+1) - 2j)/(1 - t) and B = (j - t*i)/(1 - t).  Both must be
nonnegative integers for a nonzero value; a non-integral quotient means
zero, never a rounded value.  The binomial convention C(a, b) = 0 for
a < 0, b < 0 or b > a silently enforces the remaining side conditions,
and the tests assert that equivalence rather than rely on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence

from .betti import BettiTable


class UnsupportedFormulaError(ValueError):
    """No closed formula is implemented for the requested family and t."""


def binomial(a: int, b: int) -> int:
    """Exact binomial coefficient, zero outside 0 <= b <= a."""
    if a < 0 or b < 0 or b > a:
        return 0
    return comb(a, b)


def _shape_params(t: int, i: int, j: int) -> Optional[tuple[int, int]]:
    # exact division by 1 - t (negative); a nonzero remainder means "not of shape"
    den = 1 - t
    a_q, a_r = divmod(i * (t + 1) - 2 * j, den)
    b_q, b_r = divmod(j - t * i, den)
    if a_r or b_r:
        return None
    return a_q, b_q


def omega_homology_dims_formula(n: int, t: int) -> dict[int, int]:
    """Reduced homology dims of the sliding-window complex on n vertices.

    Nonzero (and then one-dimensional) only when n is congruent to 0 or t
    mod t+1, in a single degree determined by n.
    """
    if t < 1 or n < t:
        raise ValueError(f"need 1 <= t <= n, got t={t}, n={n}")
    r = n % (t + 1)
    if r == 0:
        return {2 * n // (t + 1) - 2: 1}
    if r == t:
        return {2 * (n + 1) // (t + 1) - 3: 1}
    return {}


def line_top_betti_formula(n: int, t: int, i: int) -> int:
    """Top-multidegree Betti number b_{i, full support} for a line."""
    if t < 2:
        raise UnsupportedFormulaError("line formulas need t >= 2")
    if n < 1 or i < 1:
        return 0
    return line_multigraded_formula([n], t, i)


def line_multigraded_formula(component_orders: Sequence[int], t: int, i: int) -> int:
    """Multigraded Betti number of a disjoint union of lines at full support.

    The value is 0 or 1: it is 1 exactly when every component order is
    congruent to 0 or t mod t+1 and the number of orders congruent to t
    equals the shape parameter A for (i, j = total order).
    """
    if t < 2:
        raise UnsupportedFormulaError("line formulas need t >= 2")
    if any(v < 1 for v in component_orders):
        raise ValueError("component orders must be positive")
    j = sum(component_orders)
    count_t = 0
    for v in component_orders:
        r = v % (t + 1)
        if r == t:
            count_t += 1
        elif r != 0:
            return 0
    params = _shape_params(t, i, j)
    if params is None:
        return 0
    return 1 if params[0] == count_t else 0


def line_graded_formula(n: int, t: int, i: int, j: int) -> int:
    """Graded Betti number b_{i,j}(S/I_t(L_n)) for i >= 1.

    Zero unless A and B are nonnegative integers, j <= n, and
    n - j >= A - 1; otherwise C(n-j+1, A) * C(n-j+B, n-j).
    """
    if t < 2:
        raise UnsupportedFormulaError("line formulas need t >= 2")
    params = _shape_params(t, i, j)
    if params is None:
        return 0
    A, B = params
    if A < 0 or B < 0:
        return 0
    if j > n:
        return 0
    if n - j < A - 1:
        return 0
    return binomial(n - j + 1, A) * binomial(n - j + B, n - j)


def cycle_graded_formula(n: int, t: int, i: int, j: int) -> int:
    """Graded Betti number b_{i,j}(S/I_t(C_n)), zero for j > n.

    Below the top degree the value is n/(n-j) * C(n-j, A) *
    C(n-j-1+B, n-j-1), an exact integer (the division is asserted exact).
    The top degree j = n has one nonzero entry when n >= t: b_{2n/(t+1), n}
    = t if t+1 divides n, otherwise b_{2p+1, n} = 1 with p = n // (t+1).
    """
    if t < 2:
        raise UnsupportedFormulaError("cycle formulas need t >= 2")
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    if j > n:
        return 0
    if j == n:
        if n < t:
            return 0
        p, d = divmod(n, t + 1)
        if d == 0:
            return t if i == 2 * p else 0
        return 1 if i == 2 * p + 1 else 0
    params = _shape_params(t, i, j)
    if params is None:
        return 0
    A, B = params
    if A < 0 or B < 0:
        return 0
    if n - j < A:
        return 0
    numerator = n * binomial(n - j, A) * binomial(n - j - 1 + B, n - j - 1)
    q, r = divmod(numerator, n - j)
    assert r == 0, f"cycle formula division left remainder {r} at (n={n}, t={t}, i={i}, j={j})"
    return q


def star_graded_formula(n: int, t: int, i: int, j: int) -> int:
    """Graded Betti number b_{i,j}(S/I_t(S_n)) for stars, t in {2, 3}.

    Both cases are single-diagonal: for t = 2 the value is C(n, j-1) on
    i = j-1, for t = 3 it is i * C(n, j-1) on i = j-2, zero elsewhere.
    """
    if t not in (2, 3):
        raise UnsupportedFormulaError("star formulas cover t in {2, 3} only")
    if n < 2:
        raise UnsupportedFormulaError("star formulas need n >= 2")
    if i < 1:
        return 0
    if t == 2:
        return binomial(n, j - 1) if i == j - 1 else 0
    return i * binomial(n, j - 1) if i == j - 2 else 0


@dataclass(frozen=True)
class FormulaTable:
    """A formula-built Betti table; ``uncovered`` is always empty and stays
    only because the benchmark's formula checks read it."""

    table: BettiTable
    uncovered: frozenset[int]


def formula_betti_table(family: str, n: int, t: int) -> FormulaTable:
    """Assemble the full graded table of S/I_t for a named family.

    Lines, cycles and stars are covered in every degree.  Families or t
    values without a formula raise UnsupportedFormulaError.
    """
    entries: dict[tuple[int, int], int] = {(0, 0): 1}
    if family == "line":
        if n < 1:
            raise ValueError("line needs n >= 1")
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                b = line_graded_formula(n, t, i, j)
                if b:
                    entries[(i, j)] = b
        return FormulaTable(BettiTable.from_dict(n, entries), frozenset())
    if family == "cycle":
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                b = cycle_graded_formula(n, t, i, j)
                if b:
                    entries[(i, j)] = b
        return FormulaTable(BettiTable.from_dict(n, entries), frozenset())
    if family == "star":
        if t not in (2, 3):
            raise UnsupportedFormulaError("star formulas cover t in {2, 3} only")
        if n < 2:
            raise UnsupportedFormulaError("star formulas need n >= 2")
        for j in range(1, n + 2):
            i = j - (t - 1)
            b = star_graded_formula(n, t, i, j) if i >= 1 else 0
            if b:
                entries[(i, j)] = b
        return FormulaTable(BettiTable.from_dict(n + 1, entries), frozenset())
    raise ValueError(f"unknown family {family!r}")
