from __future__ import annotations

from itertools import combinations
from math import comb

import pytest

from pathbetti import (
    FormulaTable,
    UnsupportedFormulaError,
    binomial,
    cycle_graded_formula,
    formula_betti_table,
    graded_betti_table,
    line_graded_formula,
    line_multigraded_formula,
    line_top_betti_formula,
    multigraded_betti,
    omega_homology_dims_formula,
    path_ideal,
    reduced_homology_dims,
    omega_complex,
    standard_graph,
    star_graded_formula,
)
from pathbetti.formulas import _shape_params


def test_binomial_convention():
    assert binomial(5, 2) == 10
    assert binomial(0, 0) == 1
    assert binomial(3, 0) == 1
    assert binomial(2, 3) == 0
    assert binomial(-1, 0) == 0
    assert binomial(3, -1) == 0
    assert binomial(-2, -2) == 0


def test_shape_params():
    # A + 2B = i and tA + (t+1)B = j invert exactly or not at all
    for t in range(2, 6):
        for i in range(0, 12):
            for j in range(0, 16):
                got = _shape_params(t, i, j)
                if got is None:
                    continue
                A, B = got
                assert A + 2 * B == i
                assert t * A + (t + 1) * B == j
    assert _shape_params(2, 1, 2) == (1, 0)
    assert _shape_params(3, 2, 4) == (0, 1)
    # t=3, i=1, j=2: A = (4-4)/(-2) = 0, B = (2-3)/(-2) not integral
    assert _shape_params(3, 1, 2) is None


def test_omega_formula_frozen():
    assert omega_homology_dims_formula(5, 2) == {1: 1}
    assert omega_homology_dims_formula(6, 2) == {2: 1}
    assert omega_homology_dims_formula(7, 2) == {}
    assert omega_homology_dims_formula(3, 3) == {-1: 1}
    assert omega_homology_dims_formula(8, 3) == {2: 1}
    assert omega_homology_dims_formula(1, 1) == {-1: 1}
    with pytest.raises(ValueError):
        omega_homology_dims_formula(2, 3)
    with pytest.raises(ValueError):
        omega_homology_dims_formula(3, 0)


def test_omega_formula_recursion():
    for t in range(1, 6):
        for n in range(2 * t + 1, 21):
            big = omega_homology_dims_formula(n, t)
            small = omega_homology_dims_formula(n - t - 1, t)
            assert big == {p + 2: d for p, d in small.items()}


def test_omega_formula_matches_oracle_spot():
    for t in (1, 2, 3):
        for n in range(t, 9):
            K = omega_complex(n, t)
            assert (
                reduced_homology_dims(K).as_dict()
                == omega_homology_dims_formula(n, t)
            )


def test_line_top_frozen():
    assert line_top_betti_formula(3, 2, 2) == 1
    assert line_top_betti_formula(3, 2, 1) == 0
    assert line_top_betti_formula(4, 2, 1) == 0
    assert line_top_betti_formula(4, 2, 2) == 0
    assert line_top_betti_formula(5, 2, 3) == 1
    assert line_top_betti_formula(2, 2, 1) == 1
    assert line_top_betti_formula(6, 2, 4) == 1
    with pytest.raises(UnsupportedFormulaError):
        line_top_betti_formula(4, 1, 1)


def test_line_top_matches_oracle():
    for t in (2, 3, 4):
        for n in range(1, 9):
            I = path_ideal(standard_graph("line", n), t)
            expected = {}
            for i in range(1, n + 3):
                b = line_top_betti_formula(n, t, i)
                if b:
                    expected[i] = b
            assert multigraded_betti(I, set(range(1, n + 1))) == expected


def test_line_multigraded_frozen():
    assert line_multigraded_formula([2, 2], 2, 2) == 1
    assert line_multigraded_formula([3], 2, 2) == 1
    assert line_multigraded_formula([4], 2, 2) == 0
    assert line_multigraded_formula([2, 3], 2, 3) == 1
    assert line_multigraded_formula([2, 3], 2, 2) == 0
    assert line_multigraded_formula([3, 3], 3, 2) == 1
    assert line_multigraded_formula([3, 3], 3, 3) == 0
    with pytest.raises(ValueError):
        line_multigraded_formula([0], 2, 1)
    with pytest.raises(UnsupportedFormulaError):
        line_multigraded_formula([2], 1, 1)


def test_line_graded_frozen():
    assert line_graded_formula(4, 2, 1, 2) == 3
    assert line_graded_formula(4, 2, 2, 3) == 2
    assert line_graded_formula(5, 2, 2, 4) == 1
    assert line_graded_formula(5, 2, 2, 3) == 3
    assert line_graded_formula(5, 2, 3, 5) == 1
    assert line_graded_formula(5, 2, 3, 4) == 0
    assert line_graded_formula(4, 2, 1, 7) == 0


def test_line_graded_convention_equivalence():
    # dropping the explicit A, B and range checks changes nothing: the
    # zero convention of binomial() enforces them
    for t in (2, 3, 4, 5):
        for n in range(1, 11):
            for i in range(0, 13):
                for j in range(0, 13):
                    if i < 1:
                        continue
                    params = _shape_params(t, i, j)
                    raw = 0
                    if params is not None:
                        A, B = params
                        raw = binomial(n - j + 1, A) * binomial(n - j + B, n - j)
                    assert raw == line_graded_formula(n, t, i, j)


def _runs(W: set[int]) -> list[int]:
    runs: list[int] = []
    prev = None
    for v in sorted(W):
        if prev is not None and v == prev + 1:
            runs[-1] += 1
        else:
            runs.append(1)
        prev = v
    return runs


@pytest.mark.parametrize("t", [2, 3])
def test_line_graded_is_sum_of_multigraded_formula(t):
    for n in range(1, 10):
        acc: dict[tuple[int, int], int] = {}
        for size in range(1, n + 1):
            for sub in combinations(range(1, n + 1), size):
                orders = _runs(set(sub))
                for i in range(1, size + 2):
                    b = line_multigraded_formula(orders, t, i)
                    if b:
                        acc[(i, size)] = acc.get((i, size), 0) + b
        for i in range(1, n + 2):
            for j in range(1, n + 1):
                assert acc.get((i, j), 0) == line_graded_formula(n, t, i, j)


def test_cycle_graded_frozen():
    assert cycle_graded_formula(5, 2, 1, 2) == 5
    assert cycle_graded_formula(4, 2, 1, 2) == 4
    assert cycle_graded_formula(5, 2, 2, 3) == 5
    assert cycle_graded_formula(6, 2, 2, 4) == 3
    assert cycle_graded_formula(6, 2, 1, 3) == 0
    assert cycle_graded_formula(5, 2, 3, 5) == 1
    with pytest.raises(ValueError, match="n >= 3"):
        cycle_graded_formula(2, 2, 1, 1)
    with pytest.raises(UnsupportedFormulaError):
        cycle_graded_formula(5, 1, 1, 2)


def test_cycle_division_always_exact():
    # the n/(n-j) prefactor never leaves a remainder; the internal
    # assertion would fire otherwise
    for n in range(3, 11):
        for t in (2, 3, 4):
            for i in range(1, 2 * n + 1):
                for j in range(0, n):
                    cycle_graded_formula(n, t, i, j)


def test_star_graded_frozen():
    assert star_graded_formula(3, 2, 2, 3) == 3
    assert star_graded_formula(3, 2, 1, 3) == 0
    assert star_graded_formula(3, 3, 1, 3) == 3
    assert star_graded_formula(2, 3, 1, 3) == 1
    assert star_graded_formula(5, 3, 4, 6) == 4
    with pytest.raises(UnsupportedFormulaError):
        star_graded_formula(4, 4, 1, 4)
    with pytest.raises(UnsupportedFormulaError):
        star_graded_formula(1, 2, 1, 2)


def test_star_top_matches_oracle():
    # at full support the t=3 star resolution ends in a single entry of
    # value n-1 in column n+1
    for n in range(2, 6):
        I = path_ideal(standard_graph("star", n), 3)
        assert multigraded_betti(I, set(range(1, n + 2))) == {n - 1: n - 1}


def test_formula_betti_table_line():
    ft = formula_betti_table("line", 5, 2)
    assert isinstance(ft, FormulaTable)
    assert ft.uncovered == frozenset()
    assert ft.table.as_dict() == {
        (0, 0): 1, (1, 2): 4, (2, 3): 3, (2, 4): 1, (3, 5): 1
    }
    assert formula_betti_table("line", 1, 2).table.as_dict() == {(0, 0): 1}


def test_formula_betti_table_cycle():
    ft = formula_betti_table("cycle", 5, 2)
    assert ft.uncovered == frozenset()
    assert ft.table.as_dict() == {(0, 0): 1, (1, 2): 5, (2, 3): 5, (3, 5): 1}


def test_cycle_top_matches_oracle():
    # t = 2..6 includes n < t (no generators) and n = t (one generator)
    for t in range(2, 7):
        for n in range(3, 15):
            oracle = graded_betti_table(standard_graph("cycle", n), t, use_memo=True)
            want = {i: b for (i, j), b in oracle.as_dict().items() if j == n}
            got = {i: cycle_graded_formula(n, t, i, n) for i in range(0, n + 2)}
            assert {i: b for i, b in got.items() if b} == want, (n, t)
            assert cycle_graded_formula(n, t, 1, n + 1) == 0


def test_formula_betti_table_star():
    for n in range(2, 7):
        ft = formula_betti_table("star", n, 2)
        assert ft.uncovered == frozenset()
        assert ft.table.as_dict() == {
            (0, 0): 1, **{(j - 1, j): comb(n, j - 1) for j in range(2, n + 2)}
        }
    ft3 = formula_betti_table("star", 4, 3)
    assert ft3.table.as_dict() == {
        (0, 0): 1, (1, 3): 6, (2, 4): 8, (3, 5): 3
    }


@pytest.mark.parametrize("t", [2, 3])
def test_star_tables_are_single_diagonal(t):
    for n in range(2, 7):
        table = formula_betti_table("star", n, t).table.as_dict()
        for (i, j), b in table.items():
            if i >= 1:
                assert j == i + t - 1
                assert b > 0


def test_formula_betti_table_errors():
    with pytest.raises(ValueError, match="unknown family"):
        formula_betti_table("tree", 3, 2)
    with pytest.raises(UnsupportedFormulaError):
        formula_betti_table("line", 3, 1)
    with pytest.raises(UnsupportedFormulaError):
        formula_betti_table("star", 4, 4)
    with pytest.raises(UnsupportedFormulaError):
        formula_betti_table("star", 1, 2)
    with pytest.raises(ValueError):
        formula_betti_table("cycle", 2, 2)
    with pytest.raises(ValueError):
        formula_betti_table("line", 0, 2)
