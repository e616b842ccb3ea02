"""One benchmark process: set up a workload, run timed passes, print JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace-out FILE]

Set-up (import pathbetti, build inputs and references, self-test the
checkers, one untimed warm-up operation) is timed from the first line of
main.  Passes then repeat the operation list, at least once and then for as
long as another pass of median length still fits in S seconds; S = 0
only sets up.  With --trace-out the process wraps
pathbetti's layers before set-up, runs exactly one pass and saves its
spans to FILE.  Outputs are checked after each pass, outside the timing.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# (metric, unit): the per-layer metrics a traced process reports
PER_LAYER = (
    ("homology.rank.calls", "count"),
    ("homology.rank.s", "s"),
    ("homology.rank.pivot_ratio", "ratio"),
    ("homology.matrix_cells", "count"),
    ("homology.matrix_bytes.computed", "B"),
    ("homology.boundary_matrix.calls", "count"),
    ("homology.boundary_matrix.s", "s"),
    ("homology.boundary_matrix.nnz", "count"),
    ("homology.reduced_homology_dims.self_s", "s"),
    ("complexes.faces_by_dim.calls", "count"),
    ("complexes.faces_by_dim.s", "s"),
    ("complexes.faces.total", "count"),
    ("complexes.faces.max", "count"),
    ("complexes.cap_hits", "count"),
    ("ideals.is_lcm_closed.calls", "count"),
    ("ideals.is_lcm_closed.s", "s"),
    ("ideals.lcm_closed_ratio", "ratio"),
    ("ideals.taylor_strict_sub.s", "s"),
    ("betti.graded_betti_table.self_s", "s"),
    ("betti.multigraded_betti.calls", "count"),
    ("betti.memo.lookups", "count"),
    ("betti.memo.hits", "count"),
    ("betti.memo.hit_ratio", "ratio"),
    ("betti.memo.lookup_s", "s"),
    ("graphs.induced_subgraph.s", "s"),
    ("graphs.enumerate_t_paths.s", "s"),
    ("formulas.formula_betti_table.s", "s"),
    ("cli.main.self_s", "s"),
    ("ops.failed_s", "s"),
    ("ops.capped", "count"),
    ("trace.pass_s", "s"),
)


def run_op(op, cap_error) -> dict:
    t0 = perf_counter()
    try:
        table = op.call()
        error = None
    except cap_error:
        table, error = None, None
    except Exception as exc:  # any other error is a failed operation, reported by name
        table, error = None, f"{type(exc).__name__}: {exc}"
    return {"s": perf_counter() - t0, "table": table, "error": error}


def judge(op, result: dict) -> tuple[str, list[str]]:
    """ok (table verified), capped (a cap exit the reference predicts) or failed."""
    if result["error"] is not None:
        return "failed", [result["error"]]
    if result["table"] is None:
        if op.expect_cap:
            return "capped", []
        return "failed", ["cap exit, but the reference finds no complex or matrix over the caps"]
    problems = op.check(result["table"])
    return ("failed" if problems else "ok"), problems


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer, one_pass: dict) -> tuple[dict, dict]:
    """Per-layer metric values, and the exact counts two traced runs must share."""
    L = tracer.layer_times()
    C = tracer.counts

    def get(name: str, key: str) -> float:
        return L.get(name, {}).get(key, 0)

    cells = C["matrix_cells"]
    values = {
        "homology.rank.calls": get("homology.rank", "calls"),
        "homology.rank.s": get("homology.rank", "s"),
        "homology.rank.pivot_ratio": _ratio(C["rank_pivots"], C["rank_cols"]),
        "homology.matrix_cells": cells,
        "homology.matrix_bytes.computed": 8 * cells,
        "homology.boundary_matrix.calls": get("homology.boundary_matrix", "calls"),
        "homology.boundary_matrix.s": get("homology.boundary_matrix", "s"),
        "homology.boundary_matrix.nnz": C["boundary_nnz"],
        "homology.reduced_homology_dims.self_s": get("homology.reduced_homology_dims", "self_s"),
        "complexes.faces_by_dim.calls": get("complexes.faces_by_dim", "calls"),
        "complexes.faces_by_dim.s": get("complexes.faces_by_dim", "s"),
        "complexes.faces.total": C["faces_total"],
        "complexes.faces.max": C["faces_max"],
        "complexes.cap_hits": C["cap_hits"],
        "ideals.is_lcm_closed.calls": get("ideals.is_lcm_closed", "calls"),
        "ideals.is_lcm_closed.s": get("ideals.is_lcm_closed", "s"),
        "ideals.lcm_closed_ratio": _ratio(C["walk_closed"], C["walk_subsets"]),
        "ideals.taylor_strict_sub.s": get("ideals.taylor_strict_sub", "s"),
        "betti.graded_betti_table.self_s": get("betti.graded_betti_table", "self_s"),
        "betti.multigraded_betti.calls": get("betti.multigraded_betti", "calls"),
        "betti.memo.lookups": get("betti.memo.lookup", "calls"),
        "betti.memo.hits": C["memo_hits"],
        "betti.memo.hit_ratio": _ratio(C["memo_hits"], get("betti.memo.lookup", "calls")),
        "betti.memo.lookup_s": get("betti.memo.lookup", "s"),
        "graphs.induced_subgraph.s": get("graphs.induced_subgraph", "s"),
        "graphs.enumerate_t_paths.s": get("graphs.enumerate_t_paths", "s"),
        "formulas.formula_betti_table.s": get("formulas.formula_betti_table", "s"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "ops.failed_s": sum(s for s, o in zip(one_pass["op_s"], one_pass["outcome"]) if o != "ok"),
        "ops.capped": one_pass["outcome"].count("capped"),
        "trace.pass_s": one_pass["wall_s"],
    }
    counts = {f"{name}.calls": v["calls"] for name, v in sorted(L.items())}
    counts.update(sorted(C.items()))
    counts["outcomes"] = one_pass["outcome"]
    return values, counts


def main() -> int:
    t0 = perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import pathbetti
    import workloads

    tracer = None
    if args.trace_out:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        problems = [f"self-test {p}" for p in workloads.self_test()]
        ops, warmup = workloads.build(args.workload, args.seed, workdir)
        outcome, why = judge(warmup, run_op(warmup, pathbetti.SizeCapError))
        if outcome != "ok":
            problems.append(f"warm-up {warmup.label}: {outcome} {why}")
        if tracer is not None:
            for op in ops:
                tracer.wrap(op, "call", "op")
        setup_s = perf_counter() - t0

        passes = []
        start = perf_counter()
        while args.seconds > 0 or tracer is not None:
            p0 = perf_counter()
            results = [run_op(op, pathbetti.SizeCapError) for op in ops]
            wall = perf_counter() - p0
            for op, r in zip(ops, results):
                r["outcome"], r["problems"] = judge(op, r)
                problems.extend(f"{op.label}: {p}" for p in r["problems"])
            passes.append({
                "wall_s": wall,
                "op_s": [r["s"] for r in results],
                "outcome": [r["outcome"] for r in results],
            })
            if tracer is not None:
                break
            # stop before a pass that would likely overrun the time budget
            if perf_counter() - start + statistics.median(p["wall_s"] for p in passes) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = {
        "setup_s": setup_s,
        "labels": [op.label for op in ops],
        "info": [op.info for op in ops],
        "passes": passes,
        "problems": problems,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["layers"], out["counts"] = layer_metrics(tracer, passes[0])
        out["absent"] = tracer.absent
        Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
        tracer.save(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
