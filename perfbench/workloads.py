"""The benchmark's four workloads: fixed operation lists plus their checks.

A workload is built once per process (inputs, references, edge files) and
then run in passes.  Each operation returns either a Betti table or a cap
exit; its checks compare the table with references computed here, before
any operation is timed.  Only ``dense`` uses the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import reference as ref

WORKLOADS = ("families", "forests", "memo", "dense")

# Odd operation counts, so that op_s.p50 falls inside the middle
# operation's samples rather than in the gap between two operations.
# Forests leave out 10xL_2 (3.3 s, two thirds of a pass) for more passes
# per run: op_s.p50 there is a median over the overlapping samples of the
# three middle operations, which vary by +-20% from pass to pass.
FAMILY_OPS = (("cycle", 12, 2), ("line", 12, 2), ("line", 14, 3), ("star", 10, 2), ("star", 6, 3))
FOREST_OPS = ((7, 2, 2), (8, 2, 2), (9, 2, 2), (6, 3, 3), (4, 4, 3))
MEMO_FAMILY_OPS = (("cycle", 13, 2), ("star", 10, 2))
MEMO_FOREST_OPS = ((6, 3, 2),)

# Dense draws G(n, p) over this grid and sorts each graph into a stratum
# by the reference's prediction of its subset walk: (name, count, capped,
# low, high), with low <= work < high for the work (reference.FACE_WORK)
# the walk does before it ends or hits the cap.  Fixed counts per stratum
# keep a pass about equally long on every seed, and the capped stratum
# still spends real work before each cap exit.
DENSE_N = (6, 7, 8)
DENSE_P = (0.3, 0.45, 0.6)
DENSE_T = (2, 3)
DENSE_STRATA = (
    ("capped", 12, True, 2_000_000, 3_500_000),
    ("mid", 14, False, 1_200_000, 1_600_000),
    ("small", 6, False, 0, 30_000),
)
DENSE_WORK_LIMIT = max(high for *_, high in DENSE_STRATA)
DENSE_POOL = 2000
DENSE_MAX_DRAWS = 50_000


@dataclass
class Op:
    """One timed operation: ``call`` returns a table (dict) or None on a cap exit."""

    label: str
    call: Callable[[], Optional[dict]]
    checks: list[Callable[[dict], list[str]]]
    expect_cap: bool = False
    info: dict = field(default_factory=dict)

    def check(self, table: dict) -> list[str]:
        problems = []
        for check in self.checks:
            problems.extend(check(table))
        return problems


def formula_check(family: str, n: int, t: int) -> Callable[[dict], list[str]]:
    """Oracle table vs the paper's formulas, with ``compare`` semantics."""
    from pathbetti import formulas

    result = formulas.formula_betti_table(family, n, t)
    want = result.table.as_dict()
    uncovered = set(result.uncovered)

    def check(table: dict) -> list[str]:
        got = {ij: b for ij, b in table.items() if ij == (0, 0) or ij[1] not in uncovered}
        return [f"formula {p}" for p in ref.diff_tables(got, want)]

    return check


def product_check(components: tuple[int, ...], t: int) -> Callable[[dict], list[str]]:
    """Disjoint union of lines vs the product of the lines' formula tables."""
    from pathbetti import formulas

    want = {(0, 0): 1}
    for k in components:
        want = ref.table_product(want, formulas.formula_betti_table("line", k, t).table.as_dict())

    def check(table: dict) -> list[str]:
        return [f"product {p}" for p in ref.diff_tables(table, want)]

    return check


def euler_check(n: int, edges, t: int) -> Callable[[dict], list[str]]:
    """Graded Euler characteristic, first syzygies and the unit entry."""
    supports = ref.path_supports(n, edges, t)
    want = ref.euler_by_degree(n, supports)
    first = {(1, t): len(supports)} if supports else {}

    def check(table: dict) -> list[str]:
        problems = []
        got = ref.table_euler(table)
        for j in sorted(set(got) | set(want)):
            if got.get(j, 0) != want.get(j, 0):
                problems.append(f"euler j={j}: got {got.get(j, 0)}, want {want.get(j, 0)}")
        got_first = {ij: b for ij, b in table.items() if ij[0] == 1}
        if got_first != first:
            problems.append(f"first syzygies: got {got_first}, want {first}")
        if table.get((0, 0)) != 1:
            problems.append("missing unit entry b(0,0) = 1")
        return problems

    return check


def hochster_check(n: int, edges, t: int) -> Callable[[dict], list[str]]:
    """The whole table against Hochster's formula (small graphs only)."""
    want = ref.hochster_table(n, ref.path_supports(n, edges, t))

    def check(table: dict) -> list[str]:
        return [f"hochster {p}" for p in ref.diff_tables(table, want)]

    return check


def forest_edges(count: int, order: int) -> tuple[int, list[list[int]]]:
    """``count`` disjoint lines on ``order`` vertices each, as an edge list."""
    edges = []
    for c in range(count):
        base = c * order
        edges.extend([base + i, base + i + 1] for i in range(1, order))
    return count * order, edges


def _library_op(label, G, t, memo, checks) -> Op:
    from pathbetti import betti

    def call() -> dict:
        # looked up on the module at call time, so the tracer's wrapper applies
        return betti.graded_betti_table(G, t, use_memo=memo).as_dict()

    return Op(label, call, checks)


def _family_op(family: str, n: int, t: int, memo: bool) -> Op:
    from pathbetti import graphs

    G = graphs.standard_graph(family, n)
    edges = [list(e) for e in G.edges]
    checks = [formula_check(family, n, t), euler_check(G.n, edges, t)]
    suffix = " memo" if memo else ""
    return _library_op(f"{family} {n} t={t}{suffix}", G, t, memo, checks)


def _forest_op(count: int, order: int, t: int, memo: bool) -> Op:
    from pathbetti import graphs

    n, edges = forest_edges(count, order)
    G = graphs.graph_from_json({"n": n, "edges": edges})
    checks = [product_check((order,) * count, t)]
    suffix = " memo" if memo else ""
    return _library_op(f"{count}xL_{order} t={t}{suffix}", G, t, memo, checks)


def _cli_op(label: str, path: Path, n: int, edges, t: int, expect_cap: bool, info: dict) -> Op:
    from pathbetti import cli

    argv = ["betti", "--edges", str(path), "--t", str(t), "--format", "json"]

    def call() -> Optional[dict]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        if rc == 3:
            return None
        if rc != 0:
            raise RuntimeError(f"exit {rc}: {err.getvalue().strip()}")
        entries = json.loads(out.getvalue())["entries"]
        return {(e["i"], e["j"]): e["b"] for e in entries}

    return Op(label, call, [hochster_check(n, edges, t)], expect_cap=expect_cap, info=info)


def draw_dense(seed: int) -> list[dict]:
    """Seeded G(n, p) graphs, stratified by the reference's walk prediction.

    At least DENSE_POOL graphs are drawn and predicted on every seed, so
    set-up costs about the same whichever seed fills the strata first.
    """
    rng = random.Random(seed)
    want = {name: count for name, count, *_ in DENSE_STRATA}
    chosen: list[dict] = []
    for draw in range(DENSE_MAX_DRAWS):
        if draw >= DENSE_POOL and not any(want.values()):
            return chosen
        n, p, t = rng.choice(DENSE_N), rng.choice(DENSE_P), rng.choice(DENSE_T)
        edges = [[a, b] for a in range(1, n + 1) for b in range(a + 1, n + 1) if rng.random() < p]
        pred = ref.predict_walk(n, ref.path_supports(n, edges, t), DENSE_WORK_LIMIT)
        if pred is None:
            continue
        for name, _, capped, low, high in DENSE_STRATA:
            if want[name] and pred["cap"] == capped and low <= pred["work"] < high:
                want[name] -= 1
                chosen.append({"stratum": name, "n": n, "p": p, "t": t, "edges": edges, **pred})
                break
    raise RuntimeError(f"seed {seed}: strata not filled after {DENSE_MAX_DRAWS} draws: {want}")


def build(name: str, seed: int, workdir: Path) -> tuple[list[Op], Op]:
    """The workload's operations and one small warm-up operation on the same path."""
    if name == "families":
        return [_family_op(f, n, t, False) for f, n, t in FAMILY_OPS], _family_op("cycle", 7, 2, False)
    if name == "forests":
        return [_forest_op(c, k, t, False) for c, k, t in FOREST_OPS], _forest_op(3, 2, 2, False)
    if name == "memo":
        ops = [_family_op(f, n, t, True) for f, n, t in MEMO_FAMILY_OPS]
        ops += [_forest_op(c, k, t, True) for c, k, t in MEMO_FOREST_OPS]
        return ops, _family_op("cycle", 7, 2, True)
    if name == "dense":
        ops = []
        for k, g in enumerate(draw_dense(seed)):
            path = workdir / f"g{k:02d}.json"
            path.write_text(json.dumps({"n": g["n"], "edges": g["edges"]}))
            label = f"G({g['n']},{g['p']}) m={len(g['edges'])} t={g['t']} [{g['stratum']}]"
            info = {key: g[key] for key in ("stratum", "work", "cells", "faces", "largest")}
            ops.append(_cli_op(label, path, g["n"], g["edges"], g["t"], g["cap"], info))
        warm_path = workdir / "warmup.json"
        n, edges = 5, [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1], [1, 3]]
        warm_path.write_text(json.dumps({"n": n, "edges": edges}))
        return ops, _cli_op("warm-up", warm_path, n, edges, 2, False, {})
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def self_test() -> list[str]:
    """Feed one perturbed table to each checker; return the checkers that missed it."""
    from pathbetti import formulas

    missed = []
    line = formulas.formula_betti_table("line", 6, 2).table.as_dict()
    n, edges = forest_edges(1, 6)
    cases = {
        "formula": (formula_check("line", 6, 2), line),
        "euler": (euler_check(n, edges, 2), line),
        "hochster": (hochster_check(n, edges, 2), line),
        "product": (product_check((3, 3), 2), ref.table_product(
            formulas.formula_betti_table("line", 3, 2).table.as_dict(),
            formulas.formula_betti_table("line", 3, 2).table.as_dict())),
    }
    for name, (check, good) in cases.items():
        if check(good):
            missed.append(f"{name}: rejects a correct table")
        bad = dict(good)
        key = max(ij for ij in bad if ij != (0, 0))
        bad[key] += 1
        if not check(bad):
            missed.append(f"{name}: accepts a perturbed table")
    return missed
